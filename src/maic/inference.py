"""Wald intervals and tests, the negative-control check, and report_block, the
one report assembly of a `maic compare` run and of a simulation block."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

from .data_model import AgdStudy, IpdBlock, IpdStudy, stack_ipd, take_rows, write_rows
from .errors import InvalidLevel, MaicError, NoComparatorArm, ZeroSe, capture, succeeded, unwrap
from .estimators import Estimate, Method, Scale, _block_weights, _weighted_means, estimate_block
from .variance import REPORT_STRATEGIES, SeEstimate, SeStrategy, comparator_fo_block, se_block
from .weighting import WeightModel, fit_diagnostics

_NORM = NormalDist()


def norm_quantile(q: float) -> float:
    return _NORM.inv_cdf(q)


def check_level(level: float, name: str) -> None:
    """InvalidLevel naming `name` unless level lies in (0, 1) and neither
    (1 + level)/2 nor 1 - level/2 rounds to 1, whose normal quantile is infinite."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"{name} must lie in (0, 1), got {level}")
    if not max((1.0 + level) / 2.0, 1.0 - level / 2.0) < 1.0:
        raise InvalidLevel(f"{name} {level!r} is too near 0 or 1: its normal quantile is infinite")


def wald_ci(delta: float, se: float, level: float = 0.95) -> tuple[float, float]:
    check_level(level, "confidence level")
    if se < 0:
        raise ZeroSe("standard error must be nonnegative")
    z = norm_quantile((1.0 + level) / 2.0)
    return delta - z * se, delta + z * se


def wald_test(delta: float, se: float) -> tuple[float, float]:
    """Two-sided Wald z statistic and p-value."""
    if se <= 0:
        raise ZeroSe("standard error must be positive for a Wald test")
    z = delta / se
    p = 2.0 * (1.0 - _NORM.cdf(abs(z)))
    return z, p


def _wald_or_null(delta: float, se: float) -> tuple[float, float]:
    """wald_test, or z = 0 and p = 1 (no evidence) where the SE is not positive."""
    return wald_test(delta, se) if se > 0 else (0.0, 1.0)


@dataclass(frozen=True)
class NegControlResult:
    """Weighted contrast of the common comparator arms; a nonzero value
    signals violated assumptions or a misspecified trial model."""

    delta0: float
    se0: float
    z: float
    p_value: float
    reject_at_level: bool
    level: float

    def to_dict(self) -> dict:
        return {
            "delta0": self.delta0,
            "se0": self.se0,
            "z": self.z,
            "p_value": self.p_value,
            "reject": self.reject_at_level,
            "level": self.level,
        }


def negative_control_test(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel,
    scale: Scale = Scale.IDENTITY,
    alpha_level: float = 0.05,
) -> NegControlResult:
    """Compare the weighted IPD comparator mean with the reported AGD
    comparator mean; the standard error is fo on the comparator pair, which
    omits weight-estimation terms, so the test size leans conservative."""
    return unwrap(negative_control_block(stack_ipd([ipd]), [agd], [model], scale,
                                         alpha_level)[0])


def negative_control_block(block: IpdBlock, agds, models, scale: Scale = Scale.IDENTITY,
                           alpha_level: float = 0.05) -> list:
    """negative_control_test for each study of a block: a NegControlResult or
    the MaicError per study.  It reads the fitted weights (MissingWeightModel
    without them) and the comparator arms; its SE is fo on the comparator
    pair, the weights held fixed (variance.comparator_fo_block).  An
    alpha_level outside (0, 1) is an InvalidLevel for the whole block."""
    check_level(alpha_level, "alpha level")
    w = capture(_block_weights, block, models, True)
    if isinstance(w, MaicError):
        return [w] * len(block)
    mu0 = _weighted_means(block, w, 0) if block.has_comparator else None

    def prepare(b):
        agd = agds[b]
        if agd.comparator_arm is None or not block.has_comparator:
            raise NoComparatorArm("negative-control test needs comparator arms on both sides")
        mu0_ipd = float(mu0[b])
        return mu0_ipd, scale.g(mu0_ipd) - scale.g(agd.comparator_arm.y_mean)

    out = [capture(prepare, b) for b in range(len(block))]
    ok = succeeded(out)
    if not ok:
        return out
    ses = comparator_fo_block(block.take(ok), [agds[b] for b in ok], take_rows(w, ok),
                              [out[b][0] for b in ok], scale)
    zcrit = norm_quantile(1.0 - alpha_level / 2.0)
    for se0, b in zip(ses, ok):
        if isinstance(se0, MaicError):
            out[b] = se0
            continue
        delta0 = out[b][1]
        z0, p = _wald_or_null(delta0, se0)
        out[b] = NegControlResult(delta0, se0, z0, p, abs(z0) > zcrit, alpha_level)
    return out


@dataclass
class ComparisonReport:
    """All requested methods and SE strategies for one IPD/AGD pair."""

    scale: Scale
    level: float
    estimates: dict[str, Estimate] = field(default_factory=dict)
    ses: dict[tuple[str, str], SeEstimate] = field(default_factory=dict)
    cis: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    p_values: dict[tuple[str, str], float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    negative_control: NegControlResult | None = None

    def _reported_ses(self, name: str):
        """(strategy, SeEstimate, CI, p-value) per strategy reported for the
        method `name`, in report order: what the JSON and the CSV both read."""
        for (m, s), se in self.ses.items():
            if m == name:
                yield s, se, self.cis[(m, s)], self.p_values[(m, s)]

    def to_dict(self) -> dict:
        out = {
            "scale": self.scale.value,
            "level": self.level,
            "methods": {},
            "diagnostics": self.diagnostics,
            "errors": self.errors,
        }
        for name, est in self.estimates.items():
            out["methods"][name] = est.to_dict() | {"se": {
                s: {"sigma2": se.sigma2, "se": se.se, "ci": list(ci), "p_value": p}
                for s, se, ci, p in self._reported_ses(name)}}
        if self.negative_control is not None:
            out["negative_control"] = self.negative_control.to_dict()
        return out

    def rows(self) -> list[dict]:
        """Flat rows (one per method x strategy) mirroring a results table;
        a method with no SE gets one row with the SE cells blank."""
        rows = []
        for name, est in self.estimates.items():
            base = {"method": name, "scale": self.scale.value, "estimate": est.delta}
            found = [{**base, "strategy": s, "se": se.se, "ci_lo": lo, "ci_hi": hi,
                      "p_value": p} for s, se, (lo, hi), p in self._reported_ses(name)]
            rows += found or [{**base, "strategy": "", "se": "", "ci_lo": "", "ci_hi": "",
                               "p_value": ""}]
        return rows

    def write_csv(self, path) -> None:
        write_rows(path, self.rows(), ["method", "scale", "estimate", "strategy", "se",
                                       "ci_lo", "ci_hi", "p_value"])


def report_block(block: IpdBlock, agds, models, methods, scale: Scale, strategies,
                 level: float, se_methods, records=None,
                 negative_control: bool = False) -> list[ComparisonReport]:
    """A ComparisonReport per study of a block, each equal to the study's
    report in a block of one; models[b] is its WeightModel, None without a
    fit, or the MaicError of a failed fit.  The stages run in this order,
    each over the block on the studies that hold what it reads, and each
    files a MaicError under its key: weights; each method's estimate, under
    <method> (the MAIC methods skip a failed fit and file MissingWeightModel
    without one); the SEs of each method in se_methods that has estimates,
    each of the `strategies` that applies (variance.se_block) on its own,
    under <method>/<strategy>; and the null check, when asked, on the
    studies the MAIC methods ran on, under negative_control.  `records`
    holds the aggregate trial's records per study, which full needs."""
    reports = [ComparisonReport(scale=scale, level=level) for _ in agds]

    def file(key, members, outcomes) -> list[tuple]:
        """File each MaicError under `key`; the (member, outcome) pairs left."""
        kept = []
        for b, out in zip(members, outcomes):
            if isinstance(out, MaicError):
                reports[b].errors[key] = f"{type(out).__name__}: {out}"
            else:
                kept.append((b, out))
        return kept

    def inputs(members) -> tuple:  # the IPD block, AGD studies and weight models of members
        return block.take(members), [agds[b] for b in members], [models[b] for b in members]

    everyone = list(range(len(agds)))
    fitted = [b for b, _ in file("weights", everyone, models)]
    # a stage that reads the weights runs apart on the studies without a fit
    weighted = [g for g in ([b for b in fitted if models[b] is not None],
                            [b for b in fitted if models[b] is None]) if g]
    for method in methods:
        for members in weighted if method.weighted else [everyone]:
            for b, est in file(method.value, members,
                               estimate_block(*inputs(members), scale, method)):
                reports[b].estimates[method.value] = est
    for method in (m for m in methods if m in se_methods):
        members = [b for b in everyone if method.value in reports[b].estimates]
        if not members:
            continue
        ests = [reports[b].estimates[method.value] for b in members]
        ses = se_block(*inputs(members), ests, scale, strategies,
                       records=None if records is None else [records[b] for b in members])
        for strategy, outs in ses.items():
            key = (method.value, strategy.value)
            for b, se in file("/".join(key), members, outs):
                delta = reports[b].estimates[method.value].delta
                reports[b].ses[key] = se
                reports[b].cis[key] = wald_ci(delta, se.se, level)
                reports[b].p_values[key] = _wald_or_null(delta, se.se)[1]
    for members in weighted if negative_control else []:
        for b, result in file("negative_control", members,
                              negative_control_block(*inputs(members), scale)):
            reports[b].negative_control = result
    return reports


def build_comparison_report(ipd: IpdStudy, agd: AgdStudy, model: WeightModel | None,
                            methods: list[Method], scale: Scale = Scale.IDENTITY,
                            strategies: list[SeStrategy] = REPORT_STRATEGIES,
                            level: float = 0.95,
                            run_negative_control: bool = False) -> ComparisonReport:
    """The report_block of this one study, with SEs for every method, plus
    the fit diagnostics when a model is given."""
    agd.check_alignment(ipd)
    (report,) = report_block(stack_ipd([ipd]), [agd], [model], methods, scale, strategies,
                             level, methods, negative_control=run_negative_control)
    if model is not None:
        report.diagnostics = {"ess": {str(k): v for k, v in model.ess.items()},
                              **fit_diagnostics(model, ipd)}
    return report
