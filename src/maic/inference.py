"""Wald intervals and tests, the negative-control check, and report assembly."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

from .data_model import AgdStudy, IpdStudy
from .errors import InvalidLevel, MaicError, NoComparatorArm, ZeroSe
from .estimators import (
    Estimate,
    Method,
    Scale,
    bucher,
    maic_acb,
    maic_nab,
    naive,
    stc,
    weighted_arm_mean,
)
from .variance import (
    SeEstimate,
    SeStrategy,
    _pair_influence,
    _var_over_n,
    influence_components,
    sigma2_cs,
    sigma2_fo,
    sigma2_po,
    sigma2_sw,
)
from .weighting import WeightModel, balance_check, overlap_diagnostics

_NORM = NormalDist()


def norm_cdf(x: float) -> float:
    return _NORM.cdf(x)


def norm_quantile(q: float) -> float:
    return _NORM.inv_cdf(q)


def wald_ci(delta: float, se: float, level: float = 0.95) -> tuple[float, float]:
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must lie in (0, 1), got {level}")
    if se < 0:
        raise ZeroSe("standard error must be nonnegative")
    z = norm_quantile((1.0 + level) / 2.0)
    return delta - z * se, delta + z * se


def wald_test(delta: float, se: float) -> tuple[float, float]:
    """Two-sided Wald z statistic and p-value."""
    if se <= 0:
        raise ZeroSe("standard error must be positive for a Wald test")
    z = delta / se
    p = 2.0 * (1.0 - norm_cdf(abs(z)))
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
    comparator mean; the standard error omits weight-estimation terms
    (the conservative strategy), so the test size leans conservative."""
    if agd.comparator_arm is None or not ipd.has_comparator:
        raise NoComparatorArm("negative-control test needs comparator arms on both sides")
    mu0_ipd = weighted_arm_mean(ipd, model.weights, z=0)
    mu0_agd = agd.comparator_arm.y_mean
    delta0 = scale.g(mu0_ipd) - scale.g(mu0_agd)

    n_total = ipd.n + agd.n_total
    pair = (1.0, 0, mu0_ipd, agd.comparator_arm, mu0_agd)
    phi0, var_agd, _ = _pair_influence(ipd, model.weights, [pair], scale, n_total)
    sigma2 = _var_over_n(phi0, n_total) + var_agd
    se0 = math.sqrt(sigma2 / n_total)
    z, p = wald_test(delta0, se0) if se0 > 0 else (0.0, 1.0)
    zcrit = norm_quantile(1.0 - alpha_level / 2.0)
    return NegControlResult(delta0, se0, z, p, abs(z) > zcrit, alpha_level)


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

    def to_dict(self) -> dict:
        out = {
            "scale": self.scale.value,
            "level": self.level,
            "methods": {},
            "diagnostics": self.diagnostics,
            "errors": self.errors,
        }
        for name, est in self.estimates.items():
            entry = est.to_dict()
            entry["se"] = {}
            for (m, s), se in self.ses.items():
                if m != name:
                    continue
                lo, hi = self.cis[(m, s)]
                entry["se"][s] = {
                    "sigma2": se.sigma2,
                    "se": se.se,
                    "ci": [lo, hi],
                    "p_value": self.p_values[(m, s)],
                }
            out["methods"][name] = entry
        if self.negative_control is not None:
            out["negative_control"] = self.negative_control.to_dict()
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def rows(self) -> list[dict]:
        """Flat rows (one per method x strategy) mirroring a results table."""
        rows = []
        for name, est in self.estimates.items():
            strategies = [s for (m, s) in self.ses if m == name]
            if not strategies:
                rows.append({
                    "method": name, "scale": self.scale.value, "estimate": est.delta,
                    "strategy": "", "se": "", "ci_lo": "", "ci_hi": "", "p_value": "",
                })
            for s in strategies:
                se = self.ses[(name, s)]
                lo, hi = self.cis[(name, s)]
                rows.append({
                    "method": name, "scale": self.scale.value, "estimate": est.delta,
                    "strategy": s, "se": se.se, "ci_lo": lo, "ci_hi": hi,
                    "p_value": self.p_values[(name, s)],
                })
        return rows

    def write_csv(self, path) -> None:
        fieldnames = ["method", "scale", "estimate", "strategy", "se",
                      "ci_lo", "ci_hi", "p_value"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(self.rows())


def build_comparison_report(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    methods: list[Method],
    scale: Scale = Scale.IDENTITY,
    strategies: list[SeStrategy] = (SeStrategy.FO, SeStrategy.PO, SeStrategy.CS, SeStrategy.SW),
    level: float = 0.95,
    run_negative_control: bool = False,
) -> ComparisonReport:
    """Run the requested methods, attach SEs/CIs/p-values per strategy, and
    collect per-method failures without aborting the remaining methods.

    STC carries a point estimate only.  Bucher and naive SEs use unit
    weights and need no fitted model; only fo and sw apply to them.
    """
    report = ComparisonReport(scale=scale, level=level)
    agd.check_alignment(ipd)
    for method in methods:
        try:
            est = _run_method(ipd, agd, model, method, scale)
        except MaicError as e:
            report.errors[method.value] = f"{type(e).__name__}: {e}"
            continue
        report.estimates[method.value] = est
        if method is Method.STC:
            continue
        method_strategies = list(strategies)
        if method in (Method.BUCHER, Method.NAIVE):
            # no weight coefficients are estimated; only the direct strategies apply
            method_strategies = [s for s in method_strategies
                                 if s in (SeStrategy.FO, SeStrategy.SW)]
        pieces = None  # shared by fo/po/cs; recomputed after a failure
        for strategy in method_strategies:
            try:
                if strategy is SeStrategy.SW:
                    se = sigma2_sw(ipd, agd, model, est, scale)
                else:
                    if pieces is None:
                        pieces = influence_components(ipd, agd, model, est, scale)
                    se = {SeStrategy.FO: sigma2_fo, SeStrategy.PO: sigma2_po,
                          SeStrategy.CS: sigma2_cs}[strategy](pieces)
            except MaicError as e:
                report.errors[f"{method.value}/{strategy.value}"] = (
                    f"{type(e).__name__}: {e}"
                )
                continue
            key = (method.value, strategy.value)
            report.ses[key] = se
            report.cis[key] = wald_ci(est.delta, se.se, level)
            report.p_values[key] = wald_test(est.delta, se.se)[1] if se.se > 0 else 1.0

    if model is not None:
        residual, max_norm = balance_check(model, ipd, model.centering)
        overlap = overlap_diagnostics(model, ipd)
        report.diagnostics = {
            "ess": {str(k): v for k, v in model.ess.items()},
            "balance_residual": residual.tolist(),
            "balance_max_norm": max_norm,
            "low_ess_arms": overlap.low_ess_arms,
            "max_weight_share": overlap.max_weight_share,
        }
    if run_negative_control and model is not None:
        try:
            report.negative_control = negative_control_test(ipd, agd, model, scale)
        except MaicError as e:
            report.errors["negative_control"] = f"{type(e).__name__}: {e}"
    return report


def _run_method(ipd, agd, model, method: Method, scale: Scale) -> Estimate:
    if method in (Method.MAIC_NAB, Method.MAIC_ACB) and model is None:
        raise NoComparatorArm("weight model required for MAIC methods")
    if method is Method.MAIC_NAB:
        return maic_nab(ipd, agd, model, scale)
    if method is Method.MAIC_ACB:
        return maic_acb(ipd, agd, model, scale)
    if method is Method.BUCHER:
        return bucher(ipd, agd, scale)
    if method is Method.STC:
        return stc(ipd, agd, scale)
    return naive(ipd, agd, scale)

