"""Point estimators of the cross-trial treatment contrast.

Five methods are provided: weighted comparison of active arms (maic_nab),
its anchored variant using the common comparator (maic_acb), the anchored
unadjusted contrast (bucher), outcome-regression extrapolation (stc), and
the unadjusted active-arm contrast (naive).  Each reports on the identity
scale or after a logit link transform.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import AgdStudy, IpdStudy
from .errors import (
    BoundaryProportion,
    NoActiveArm,
    NoComparatorArm,
    SeparationError,
    SingularDesign,
)
from .weighting import WeightModel


class Scale(enum.Enum):
    """Contrast scale: identity (difference of means) or logit (log odds)."""

    IDENTITY = "identity"
    LOGIT = "logit"

    def g(self, u: float) -> float:
        if self is Scale.IDENTITY:
            return u
        _require_interior(u)
        return math.log(u / (1.0 - u))

    def g_prime(self, u: float) -> float:
        if self is Scale.IDENTITY:
            return 1.0
        _require_interior(u)
        return 1.0 / (u * (1.0 - u))

    def g_inverse(self, v: float) -> float:
        if self is Scale.IDENTITY:
            return v
        return 1.0 / (1.0 + math.exp(-v))


def _require_interior(u: float) -> None:
    if not 0.0 < u < 1.0:
        raise BoundaryProportion(f"logit scale requires a mean in (0, 1), got {u}")


class Method(enum.Enum):
    MAIC_NAB = "maic-nab"
    MAIC_ACB = "maic-acb"
    BUCHER = "bucher"
    STC = "stc"
    NAIVE = "naive"


@dataclass(frozen=True)
class Estimate:
    """A point estimate of the contrast with its scale components.

    mu1/mu2 are the (possibly weighted or model-extrapolated) active-arm
    means on the natural scale; anchor_terms, when present, holds the
    comparator-arm pair used by anchored methods.
    """

    method: Method
    scale: Scale
    delta: float
    mu1: float
    mu2: float
    anchor_terms: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        d = {
            "method": self.method.value,
            "scale": self.scale.value,
            "delta": self.delta,
            "mu1": self.mu1,
            "mu2": self.mu2,
        }
        if self.anchor_terms is not None:
            d["anchor_terms"] = list(self.anchor_terms)
        return d


def weighted_arm_mean(ipd: IpdStudy, weights: np.ndarray, z: int) -> float:
    mask = ipd.z == z
    if not mask.any():
        raise NoComparatorArm(f"IPD study has no z={z} records")
    w = weights[mask]
    return float(np.sum(w * ipd.y[mask]) / np.sum(w))


def maic_nab(
    ipd: IpdStudy, agd: AgdStudy, model: WeightModel, scale: Scale = Scale.IDENTITY
) -> Estimate:
    """Weighted IPD active-arm mean contrasted with the AGD active arm."""
    mu1 = weighted_arm_mean(ipd, model.weights, z=1)
    mu2 = agd.active_arm.y_mean
    delta = scale.g(mu1) - scale.g(mu2)
    return Estimate(Method.MAIC_NAB, scale, delta, mu1, mu2)

def maic_acb(
    ipd: IpdStudy, agd: AgdStudy, model: WeightModel, scale: Scale = Scale.IDENTITY
) -> Estimate:
    """Anchored variant: subtracts the weighted-vs-reported contrast of the
    common comparator arms from the maic_nab contrast."""
    if agd.comparator_arm is None:
        raise NoComparatorArm("AGD study has no comparator arm")
    if not ipd.has_comparator:
        raise NoComparatorArm("IPD study has no comparator (z=0) records")
    nab = maic_nab(ipd, agd, model, scale)
    mu0_ipd = weighted_arm_mean(ipd, model.weights, z=0)
    mu0_agd = agd.comparator_arm.y_mean
    delta = nab.delta - (scale.g(mu0_ipd) - scale.g(mu0_agd))
    return Estimate(
        Method.MAIC_ACB, scale, delta, nab.mu1, nab.mu2,
        anchor_terms=(mu0_ipd, mu0_agd),
    )


def bucher(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Anchored indirect comparison of unadjusted within-trial effects."""
    if agd.comparator_arm is None:
        raise NoComparatorArm("AGD study has no comparator arm")
    if not ipd.has_comparator:
        raise NoComparatorArm("IPD study has no comparator (z=0) records")
    y11 = float(ipd.y[ipd.z == 1].mean())
    y10 = float(ipd.y[ipd.z == 0].mean())
    y22 = agd.active_arm.y_mean
    y20 = agd.comparator_arm.y_mean
    delta = (scale.g(y11) - scale.g(y10)) - (scale.g(y22) - scale.g(y20))
    return Estimate(Method.BUCHER, scale, delta, y11, y22, anchor_terms=(y10, y20))


def naive(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Unweighted IPD active-arm mean vs the AGD active arm."""
    mu1 = float(ipd.y[ipd.z == 1].mean())
    mu2 = agd.active_arm.y_mean
    return Estimate(Method.NAIVE, scale, scale.g(mu1) - scale.g(mu2), mu1, mu2)


class OutcomeLink(enum.Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"


def fit_logistic_irls(
    design: np.ndarray,
    y: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-10,
    coef_cap: float = 30.0,
) -> np.ndarray:
    """Logistic regression by iteratively reweighted least squares.

    Divergence of any coefficient beyond coef_cap is treated as complete
    (or quasi-complete) separation.
    """
    n, k = design.shape
    gamma = np.zeros(k)
    for _ in range(max_iter):
        eta = design @ gamma
        mu = 1.0 / (1.0 + np.exp(-eta))
        wt = mu * (1.0 - mu)
        grad = design.T @ (y - mu)
        hess = (design * wt[:, None]).T @ design
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise SingularDesign("singular design in logistic fit") from None
        gamma = gamma + step
        if np.max(np.abs(gamma)) > coef_cap:
            raise SeparationError(
                "logistic fit diverged (complete separation suspected)"
            )
        if np.max(np.abs(step)) < tol:
            return gamma
    raise SeparationError("logistic fit failed to converge")


def stc(
    ipd: IpdStudy,
    agd: AgdStudy,
    scale: Scale = Scale.IDENTITY,
    outcome_link: OutcomeLink = OutcomeLink.LOGISTIC,
) -> Estimate:
    """Outcome regression on the IPD active arm evaluated at the pooled AGD
    covariate means, contrasted with the AGD active arm.

    When the AGD means lie outside the IPD covariate range the prediction
    extrapolates; a warning is emitted rather than refusing.
    """
    mask = ipd.z == 1
    if not mask.any():
        raise NoActiveArm("IPD study has no active-arm records")
    x = ipd.x[mask]
    y = ipd.y[mask]
    design = np.hstack([np.ones((len(y), 1)), x])

    arms = agd.arms
    ns = np.array([a.n for a in arms], dtype=float)
    xbar2 = np.sum([a.x_mean * n for a, n in zip(arms, ns)], axis=0) / ns.sum()
    lo, hi = x.min(axis=0), x.max(axis=0)
    if np.any(xbar2 < lo) or np.any(xbar2 > hi):
        warnings.warn(
            "AGD covariate means lie outside the IPD active-arm support; "
            "the outcome model is extrapolating",
            stacklevel=2,
        )

    row = np.concatenate([[1.0], xbar2])
    if outcome_link is OutcomeLink.LINEAR:
        gamma, *_ = np.linalg.lstsq(design, y, rcond=None)
        rank = np.linalg.matrix_rank(design)
        if rank < design.shape[1]:
            raise SingularDesign("rank-deficient design in linear outcome model")
        mu1 = float(row @ gamma)
    else:
        gamma = fit_logistic_irls(design, y)
        mu1 = 1.0 / (1.0 + math.exp(-float(row @ gamma)))
    mu2 = agd.active_arm.y_mean
    return Estimate(Method.STC, scale, scale.g(mu1) - scale.g(mu2), mu1, mu2)
