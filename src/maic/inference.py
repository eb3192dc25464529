"""Wald intervals and tests, the negative-control check, and report_block, the
one stage runner of a `maic compare` run and of a simulation block."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

from .data_model import AgdBlock, AgdStudy, IpdBlock, IpdStudy, stack_agd, stack_ipd, write_rows
from .errors import InvalidLevel, MaicError, ZeroSe, succeeded, unwrap
from .estimators import NULL_CHECK, Estimate, Method, Scale, _one, estimate_block
from .variance import REPORT_STRATEGIES, SeEstimate, SeStrategy, se_block
from .weighting import FitBlock, WeightModel, fit_diagnostics

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
    return _interval(delta, se, norm_quantile((1.0 + level) / 2.0))


def _interval(delta: float, se: float, z: float) -> tuple[float, float]:
    """delta -/+ z * se; a negative SE is a ZeroSe."""
    if se < 0:
        raise ZeroSe("standard error must be nonnegative")
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
    comparator mean.  The SE is fo on the comparator pair, which holds the
    fitted weights fixed and so omits the weight-estimation and target-mean
    terms; the test size may fall on either side of alpha_level.  An
    alpha_level outside (0, 1), or too near 0 or 1 for its normal quantile
    to be finite, is an InvalidLevel."""
    check_level(alpha_level, "alpha level")
    return unwrap(negative_control_block(*_one(ipd, agd, model), scale, alpha_level)[0])


def negative_control_block(block: IpdBlock, agd: AgdBlock, fits, scale: Scale = Scale.IDENTITY,
                           alpha_level: float = 0.05) -> list:
    """negative_control_test for each study of a block: a NegControlResult or
    the MaicError per study.  It is maic-nab on the comparator pair
    (estimators.NULL_CHECK) with se_block's fo, which reads the estimate's
    means.  alpha_level must pass check_level, as negative_control_test
    checks."""
    out = estimate_block(block, agd, fits, scale, Method.MAIC_NAB, NULL_CHECK)
    ok = succeeded(out)
    if not ok:
        return out
    (ses,) = se_block(block.take(ok), agd.take(ok), fits.take(ok), [out[b] for b in ok], scale,
                      [SeStrategy.FO]).values()
    zcrit = norm_quantile(1.0 - alpha_level / 2.0)
    for se, b in zip(ses, ok):
        if isinstance(se, MaicError):
            out[b] = se
        else:
            z0, p = _wald_or_null(out[b].delta, se.se)
            out[b] = NegControlResult(out[b].delta, se.se, z0, p, abs(z0) > zcrit, alpha_level)
    return out


@dataclass
class ComparisonReport:
    """All requested methods and SE strategies for one IPD/AGD pair.  `level`
    is the confidence level of the Wald intervals in `cis`; the report that
    prints them sets both (build_comparison_report), and a simulated
    replicate's report carries neither."""

    scale: Scale
    level: float | None = None
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


def report_block(block: IpdBlock, agd: AgdBlock, fits: FitBlock, methods, scale: Scale,
                 strategies, se_methods, records=None,
                 negative_control: bool = False) -> list[ComparisonReport]:
    """A ComparisonReport per study of a block, each equal to the study's
    report in a block of one; `fits` holds each study's weight fit, the
    MaicError of a failed fit, or neither without a fit.  The stages run in
    this order, each over the block on the studies that hold what it reads,
    and each files a MaicError under its key: weights; each method's
    estimate, under <method> (the MAIC methods skip a failed fit and file
    MissingWeightModel without one); the SEs of each method in se_methods
    that has estimates, each of the `strategies` that applies
    (variance.se_block) on its own, under <method>/<strategy>; and the null
    check, when asked, on the studies the MAIC methods ran on, under
    negative_control.  The SEs read the means each estimate holds, and po,
    cs and full the moment Jacobian each fit owns.  `records` holds the
    aggregate trial's records, stacked (a TrialRecords of (B, m) arrays),
    which full needs.  The reports hold no Wald interval or p-value."""
    reports = [ComparisonReport(scale=scale) for _ in range(len(block))]

    def file(key, members, outcomes) -> list[tuple]:
        """File each MaicError under `key`; the (member, outcome) pairs left."""
        kept = []
        for b, out in zip(members, outcomes):
            if isinstance(out, MaicError):
                reports[b].errors[key] = f"{type(out).__name__}: {out}"
            else:
                kept.append((b, out))
        return kept

    def inputs(members, weighted: bool) -> tuple:
        """The IPD and AGD blocks of members, with their fits when the stage
        reads the weights and every member has one (else None)."""
        return (block.take(members), agd.take(members),
                fits.take(members) if weighted and set(members) <= set(fitted) else None)

    everyone = list(range(len(block)))
    file("weights", list(fits.errors), fits.errors.values())
    fitted = fits.rows.tolist()
    # a stage that reads the weights runs apart on the studies without a fit
    weighted = [g for g in (fitted, sorted(set(everyone) - set(fitted) - set(fits.errors)))
                if g]
    for method in methods:
        for members in weighted if method.weighted else [everyone]:
            for b, est in file(method.value, members,
                               estimate_block(*inputs(members, method.weighted), scale, method)):
                reports[b].estimates[method.value] = est
    for method in (m for m in methods if m in se_methods):
        members = [b for b in everyone if method.value in reports[b].estimates]
        if not members:
            continue
        ests = [reports[b].estimates[method.value] for b in members]
        ses = se_block(*inputs(members, method.weighted), ests, scale, strategies,
                       records=None if records is None else records.take(members))
        for strategy, outs in ses.items():
            key = (method.value, strategy.value)
            for b, se in file("/".join(key), members, outs):
                reports[b].ses[key] = se
    for members in weighted if negative_control else []:
        results = negative_control_block(*inputs(members, True), scale)
        for b, result in file("negative_control", members, results):
            reports[b].negative_control = result
    return reports


def build_comparison_report(ipd: IpdStudy, agd: AgdStudy, model: WeightModel | None,
                            methods: list[Method], scale: Scale = Scale.IDENTITY,
                            strategies: list[SeStrategy] = REPORT_STRATEGIES,
                            level: float = 0.95,
                            run_negative_control: bool = False) -> ComparisonReport:
    """The report_block of this one study, with SEs for every method, plus
    the fit diagnostics when a model is given.  After the AGD's alignment
    with the IPD, it checks the level: one outside (0, 1), or too near 0 or
    1 for its normal quantile to be finite, is an InvalidLevel, even where
    no interval reads it.  A method named twice is reported once.  Each SE
    gets its Wald interval at `level` and its Wald p-value (1 where the SE
    is 0)."""
    agd.check_alignment(ipd)
    check_level(level, "confidence level")
    (report,) = report_block(stack_ipd([ipd]), stack_agd([agd]), FitBlock.of([model]),
                             list(dict.fromkeys(methods)), scale, strategies, methods,
                             negative_control=run_negative_control)
    report.level, z = level, norm_quantile((1.0 + level) / 2.0)
    for (m, s), se in report.ses.items():
        report.cis[m, s] = _interval(report.estimates[m].delta, se.se, z)
        report.p_values[m, s] = _wald_or_null(report.estimates[m].delta, se.se)[1]
    if model is not None:
        report.diagnostics = {"ess": {str(k): v for k, v in model.ess.items()},
                              **fit_diagnostics(model, ipd)}
    return report
