"""Influence-function components and asymptotic-variance estimators.

The contrast estimator is asymptotically linear; its variance splits into
a term from the aggregate-study outcome mean, a term from the weighted
IPD mean, a term from estimating the weight coefficients, and a term from
estimating the target covariate means.  The last two involve patient-level
data from the aggregate study, so four feasible strategies are offered:

- fo: omit both weight-coefficient and target-mean contributions,
- po: include the weight-coefficient contribution, omit the target-mean one,
- cs: additionally bound the target-mean contribution via Cauchy-Schwarz,
- sw: heteroskedasticity-robust (HC0) variance of the weighted mean with
  weights treated as fixed.

A fifth strategy (full) evaluates the complete influence function and is
available only when the aggregate study's raw records are at hand (the
simulation benchmark).  All estimators return sigma2 on the asymptotic
scale; the standard error of the contrast is sqrt(sigma2 / N) with N the
combined size of both trials.

Each contrast with an SE is a signed list of arm pairs read off the
Estimate alone, (sign, IPD arm code, IPD mean, AGD arm, AGD mean): the
active pair with sign +1 and, for anchored estimates, the comparator pair
with sign -1; the null check is one comparator pair.  One core maps IPD
weights and a pair list to the per-record phi, the AGD-variance term and,
given centred moments, ctilde.  Bucher and naive use unit weights, need no
fitted model, and have zero weight-coefficient and target-mean terms.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import AgdArm, AgdStudy, IpdStudy, MomentSpec, OutcomeKind, TrialRecords
from .errors import MissingAgdVariance, RequiresFullIpd, SingularJacobian
from .estimators import Estimate, Method, Scale
from .weighting import WeightModel, moment_matrix

COND_WARN = 1e12


class SeStrategy(enum.Enum):
    FO = "fo"
    PO = "po"
    CS = "cs"
    SW = "sw"
    FULL = "full"


@dataclass(frozen=True)
class SeEstimate:
    strategy: SeStrategy
    sigma2: float
    se: float

    def to_dict(self) -> dict:
        return {"strategy": self.strategy.value, "sigma2": self.sigma2, "se": self.se}


@dataclass(frozen=True)
class InfluencePieces:
    """Empirical influence components, already scaled by the link derivative
    on the logit scale.

    phi_mu1 and phi_alpha are per-IPD-record arrays (zero on the aggregate
    side); variances are taken over the combined size n_total.  For anchored
    estimates phi_mu1 and ctilde fold in the comparator-arm analogues.  For
    unweighted methods phi_alpha is zero, v_mu_x2 is zero, and ctilde and
    j_alpha_inv_ctilde are empty.
    """

    phi_mu1: np.ndarray
    phi_alpha: np.ndarray
    ctilde: np.ndarray
    var_phi_mu2: float
    v_mu_x2: float
    n_total: int
    p_t2: float
    ew_t1: float
    j_alpha_inv_ctilde: np.ndarray


def arm_outcome_variance(arm: AgdArm, outcome_kind: OutcomeKind) -> float:
    """Reported outcome sample variance, with the Bernoulli fallback
    ybar(1-ybar)*n/(n-1) when a binary arm omits it."""
    if arm.y_var is not None:
        return float(arm.y_var)
    if outcome_kind is OutcomeKind.BINARY:
        ybar = arm.y_mean
        return float(ybar * (1.0 - ybar) * arm.n / (arm.n - 1))
    raise MissingAgdVariance(
        "AGD arm reports no outcome variance and the outcome is not binary"
    )


def _solve_neg_definite(j_alpha: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve j_alpha @ x = rhs for the (negative definite) moment Jacobian."""
    cond = np.linalg.cond(j_alpha)
    if not np.isfinite(cond):
        raise SingularJacobian("moment Jacobian is singular")
    if cond > COND_WARN:
        warnings.warn(
            f"moment Jacobian condition number {cond:.3g} exceeds {COND_WARN:.0e}; "
            "heavily correlated covariates suspected",
            stacklevel=3,
        )
    try:
        return np.linalg.solve(j_alpha, rhs)
    except np.linalg.LinAlgError:
        raise SingularJacobian("moment Jacobian is singular") from None


_UNWEIGHTED = (Method.BUCHER, Method.NAIVE)


def _arm_pairs(agd: AgdStudy, est: Estimate) -> list[tuple]:
    """(sign, IPD arm code, IPD arm mean, AGD arm, AGD arm mean) per arm pair."""
    pairs = [(1.0, 1, est.mu1, agd.active_arm, est.mu2)]
    if est.anchor_terms is not None:
        mu0_ipd, mu0_agd = est.anchor_terms
        pairs.append((-1.0, 0, mu0_ipd, agd.comparator_arm, mu0_agd))
    return pairs


def _ipd_weights(ipd: IpdStudy, model: WeightModel | None, est: Estimate, what: str):
    """Fitted weights for the MAIC methods, unit weights for the unweighted
    ones; `model` is not read for the latter and may be None."""
    if est.method in _UNWEIGHTED:
        return np.ones(ipd.n)
    if est.method in (Method.MAIC_NAB, Method.MAIC_ACB):
        return model.weights
    raise ValueError(f"{what} unavailable for {est.method.value}")


def _agd_variance(arm: AgdArm, mu: float, scale: Scale, outcome_kind: OutcomeKind,
                  n_total: int) -> float:
    """Variance contribution of one reported AGD arm mean."""
    g = scale.g_prime(mu)
    return g**2 * arm_outcome_variance(arm, outcome_kind) / (arm.n / n_total)


def _pair_influence(ipd: IpdStudy, w: np.ndarray, pairs: list[tuple], scale: Scale,
                    n_total: int, c: np.ndarray | None = None):
    """Per-record phi, the AGD-variance term and, when the centred moments `c`
    are given, ctilde, summed over the signed arm pairs."""
    phi = np.zeros(ipd.n)
    var_agd = 0.0
    ctilde = None if c is None else np.zeros(c.shape[1])
    for sign, z, mu_ipd, agd_arm, mu_agd in pairs:
        g = scale.g_prime(mu_ipd)
        mask = (ipd.z == z).astype(float)
        j = float((w * mask).sum() / n_total)
        resid = (ipd.y - mu_ipd) * w * mask
        phi += (sign * g) * (resid / j)
        if c is not None:
            ctilde += ((sign * g) * (c.T @ resid / n_total)) / j
        var_agd += _agd_variance(agd_arm, mu_agd, scale, ipd.outcome_kind, n_total)
    return phi, var_agd, ctilde


def influence_components(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> InfluencePieces:
    """Evaluate the empirical influence components for an estimate.

    Supported methods: maic-nab and maic-acb (fitted weights), bucher and
    naive (unit weights; `model` is not read).  Anchored estimates extend
    the weight-coefficient contribution with the comparator-arm analogue of
    the outcome-covariate moment vector.
    """
    w = _ipd_weights(ipd, model, est, "influence components")
    n_total = ipd.n + agd.n_total
    p_t2 = agd.n_total / n_total
    ew_t1 = float(w.sum() / n_total)
    pairs = _arm_pairs(agd, est)

    if est.method in _UNWEIGHTED:
        phi_mu1, var_phi_mu2, _ = _pair_influence(ipd, w, pairs, scale, n_total)
        ctilde = b = np.zeros(0)
        phi_alpha = np.zeros(ipd.n)
        v_mu_x2 = 0.0
    else:
        c = moment_matrix(ipd.x, model.spec) - model.centering
        j_alpha = -(w[:, None] * c).T @ c / n_total
        phi_mu1, var_phi_mu2, ctilde = _pair_influence(ipd, w, pairs, scale, n_total, c)
        b = _solve_neg_definite(j_alpha, ctilde)
        phi_alpha = (w[:, None] * c) @ b
        v_mu_x2 = float(-(ew_t1 / p_t2) * (ctilde @ b))
        v_mu_x2 = max(v_mu_x2, 0.0)

    return InfluencePieces(
        phi_mu1=phi_mu1,
        phi_alpha=phi_alpha,
        ctilde=ctilde,
        var_phi_mu2=var_phi_mu2,
        v_mu_x2=v_mu_x2,
        n_total=n_total,
        p_t2=p_t2,
        ew_t1=ew_t1,
        j_alpha_inv_ctilde=b,
    )


def _var_over_n(values: np.ndarray, n_total: int) -> float:
    """Sample variance over the combined size; records absent from `values`
    (the aggregate side) contribute exactly zero."""
    s = values.sum()
    return float((values**2).sum() / n_total - (s / n_total) ** 2)


def sigma2_fo(pieces: InfluencePieces) -> SeEstimate:
    sigma2 = _var_over_n(pieces.phi_mu1, pieces.n_total) + pieces.var_phi_mu2
    return SeEstimate(SeStrategy.FO, sigma2, np.sqrt(sigma2 / pieces.n_total))


def sigma2_po(pieces: InfluencePieces) -> SeEstimate:
    sigma2 = (
        _var_over_n(pieces.phi_mu1 + pieces.phi_alpha, pieces.n_total)
        + pieces.var_phi_mu2
    )
    return SeEstimate(SeStrategy.PO, sigma2, np.sqrt(sigma2 / pieces.n_total))


def sigma2_cs(pieces: InfluencePieces) -> SeEstimate:
    base = (
        _var_over_n(pieces.phi_mu1 + pieces.phi_alpha, pieces.n_total)
        + pieces.var_phi_mu2
    )
    sigma2 = (
        base
        + pieces.v_mu_x2
        + 2.0 * np.sqrt(pieces.var_phi_mu2 * pieces.v_mu_x2)
    )
    return SeEstimate(SeStrategy.CS, sigma2, np.sqrt(sigma2 / pieces.n_total))


def sigma2_sw(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> SeEstimate:
    """HC0 sandwich variance of the weighted mean(s), weights fixed."""
    w = _ipd_weights(ipd, model, est, "sandwich variance")
    n_total = ipd.n + agd.n_total
    sigma2 = 0.0
    for _, z, mu_ipd, agd_arm, mu_agd in _arm_pairs(agd, est):
        mask = ipd.z == z
        wz = w[mask]
        rz = ipd.y[mask] - mu_ipd
        g = scale.g_prime(mu_ipd)
        sigma2 += n_total * (g**2 * float(np.sum(wz**2 * rz**2) / np.sum(wz) ** 2))
        sigma2 += _agd_variance(agd_arm, mu_agd, scale, ipd.outcome_kind, n_total)
    return SeEstimate(SeStrategy.SW, float(sigma2), np.sqrt(sigma2 / n_total))


def full_influence_arrays(
    ipd: IpdStudy,
    agd: AgdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> dict[str, np.ndarray]:
    """Per-record influence arrays over both trials (IPD rows first, then the
    aggregate trial's raw records), link-scaled.  Simulation benchmark only."""
    if agd_records is None:
        raise RequiresFullIpd("full influence function needs the aggregate trial's records")
    if est.method is not Method.MAIC_NAB:
        raise ValueError("full influence benchmark is defined for maic-nab")
    pieces = influence_components(ipd, agd, model, est, scale)
    n_ipd = ipd.n
    n2 = len(agd_records.y)
    n_total = n_ipd + n2
    if n_total != pieces.n_total:
        raise RequiresFullIpd(
            "aggregate records inconsistent with the AGD summary sample sizes"
        )

    z2 = agd_records.z == 2
    p_z2t2 = z2.sum() / n_total
    g2 = scale.g_prime(est.mu2)
    phi_mu2_t2 = g2 * (est.mu2 - agd_records.y) * z2 / p_z2t2

    c2 = moment_matrix(agd_records.x, model.spec) - model.centering
    # ctilde already carries g'(mu1) and 1/J^{mu1}; only U^{muX2} remains
    u2 = -(pieces.ew_t1 / pieces.p_t2) * c2
    phi_mu_x2_t2 = u2 @ pieces.j_alpha_inv_ctilde

    zeros_ipd = np.zeros(n_ipd)
    zeros_t2 = np.zeros(n2)
    return {
        "phi_mu2": np.concatenate([zeros_ipd, phi_mu2_t2]),
        "phi_mu1": np.concatenate([pieces.phi_mu1, zeros_t2]),
        "phi_alpha": np.concatenate([pieces.phi_alpha, zeros_t2]),
        "phi_mu_x2": np.concatenate([zeros_ipd, phi_mu_x2_t2]),
    }


def sigma2_full(
    ipd: IpdStudy,
    agd: AgdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> SeEstimate:
    arrays = full_influence_arrays(ipd, agd, agd_records, model, est, scale)
    phi = sum(arrays.values())
    n_total = len(phi)
    sigma2 = float(np.var(phi))
    return SeEstimate(SeStrategy.FULL, sigma2, np.sqrt(sigma2 / n_total))


@dataclass(frozen=True)
class LemmaTerms:
    """Plug-in simplifications of the weight-estimation and target-mean
    variance contributions (correct-trial-model forms)."""

    var_phi_alpha: float
    cov_mu1_alpha: float
    var_phi_mu_x2: float
    cov_mu2_mu_x2: float


def lemma_variance_terms(
    ipd: IpdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
) -> LemmaTerms:
    """Evaluate the simplified variance contributions with empirical
    outcome-covariate covariances and the aggregate-trial covariate
    dispersion.  First-moment weighting on the identity scale only."""
    if agd_records is None:
        raise RequiresFullIpd("lemma terms need the aggregate trial's records")
    if model.spec is not MomentSpec.FIRST:
        raise ValueError("lemma terms are defined for first-moment weighting")
    w = model.weights
    c = ipd.x - model.centering
    n_ipd = ipd.n
    n2 = len(agd_records.y)
    n_total = n_ipd + n2
    p_t2 = n2 / n_total
    ew_t1 = w.sum() / n_total
    p_z1_t1 = (ipd.z == 1).mean()

    # trial-selection odds up to the (estimable) normalizing constant
    omega = w * p_t2 / ew_t1

    active = (ipd.z == 1).astype(float)
    resid = (ipd.y - est.mu1) * active
    ctilde = c.T @ (resid * w) / n_total
    c1 = ctilde / (p_z1_t1 * ew_t1)

    x2c = agd_records.x - model.centering
    var_x_t2 = x2c.T @ x2c / n2 - np.outer(x2c.mean(axis=0), x2c.mean(axis=0))
    z2 = agd_records.z == 2
    y2 = agd_records.y[z2] - agd_records.y[z2].mean()
    x2a = agd_records.x[z2] - agd_records.x[z2].mean(axis=0)
    c2 = x2a.T @ y2 / z2.sum()

    vinv_c1 = np.linalg.solve(var_x_t2, c1)
    vinv_c2 = np.linalg.solve(var_x_t2, c2)

    m = (c * (omega**2)[:, None]).T @ c / n_total / p_t2
    var_phi_alpha = float(vinv_c1 @ m @ vinv_c1 / p_t2)
    e_resid = c.T @ (resid * omega**2) / n_total / (p_z1_t1 * p_t2)
    cov_mu1_alpha = float(-(vinv_c1 @ e_resid) / p_t2)
    var_phi_mu_x2 = float(c1 @ vinv_c1 / p_t2)
    cov_mu2_mu_x2 = float(-(c1 @ vinv_c2) / p_t2)
    return LemmaTerms(var_phi_alpha, cov_mu1_alpha, var_phi_mu_x2, cov_mu2_mu_x2)
