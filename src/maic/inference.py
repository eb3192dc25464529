"""Wald intervals and tests, the negative-control check, and report assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .data_model import AgdStudy, IpdBlock, IpdStudy, stack_ipd, take_rows, write_rows
from .errors import InvalidLevel, MaicError, NoComparatorArm, ZeroSe, capture, succeeded, unwrap
from .estimators import Estimate, Method, Scale, _block_weights, _weighted_means, estimate_block
from .variance import REPORT_STRATEGIES, SeEstimate, SeStrategy, comparator_fo_block, se_block
from .weighting import WeightModel, fit_diagnostics

_NORM = NormalDist()


def norm_quantile(q: float) -> float:
    return _NORM.inv_cdf(q)


def check_level(level: float, name: str) -> None:
    """InvalidLevel naming `name` unless level lies in (0, 1), which also
    rejects NaN and the infinities."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"{name} must lie in (0, 1), got {level}")


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
        z0, p = wald_test(delta0, se0) if se0 > 0 else (0.0, 1.0)
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


def build_comparison_report(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    methods: list[Method],
    scale: Scale = Scale.IDENTITY,
    strategies: list[SeStrategy] = REPORT_STRATEGIES,
    level: float = 0.95,
    run_negative_control: bool = False,
) -> ComparisonReport:
    """Run the requested methods, attach SEs/CIs/p-values for each requested
    strategy that applies to the method (see variance.se_block), and collect
    per-method failures without aborting the remaining methods.  Without a
    model the MAIC methods and the null check file a MissingWeightModel."""
    report = ComparisonReport(scale=scale, level=level)
    agd.check_alignment(ipd)
    block = stack_ipd([ipd])
    for method in methods:
        (est,) = estimate_block(block, [agd], [model], scale, method)
        if isinstance(est, MaicError):
            report.errors[method.value] = f"{type(est).__name__}: {est}"
            continue
        report.estimates[method.value] = est
        for strategy, (se,) in se_block(block, [agd], [model], [est], scale, strategies).items():
            key = (method.value, strategy.value)
            if isinstance(se, MaicError):
                report.errors["/".join(key)] = f"{type(se).__name__}: {se}"
                continue
            report.ses[key] = se
            report.cis[key] = wald_ci(est.delta, se.se, level)
            report.p_values[key] = wald_test(est.delta, se.se)[1] if se.se > 0 else 1.0

    if model is not None:
        report.diagnostics = {"ess": {str(k): v for k, v in model.ess.items()},
                              **fit_diagnostics(model, ipd)}
    if run_negative_control:
        (result,) = negative_control_block(block, [agd], [model], scale)
        if isinstance(result, MaicError):
            report.errors["negative_control"] = f"{type(result).__name__}: {result}"
        else:
            report.negative_control = result
    return report
