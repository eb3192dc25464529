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
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .data_model import AgdStudy, IpdBlock, IpdStudy, OutcomeKind, stack_ipd, take_rows
from .errors import (
    BoundaryProportion,
    DimensionMismatch,
    MaicError,
    MissingWeightModel,
    NoComparatorArm,
    SeparationError,
    SingularDesign,
    capture,
    unwrap,
)
from .weighting import WeightModel, solve_each


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


def _require_interior(u: float) -> None:
    if not 0.0 < u < 1.0:
        raise BoundaryProportion(f"logit scale requires a mean in (0, 1), got {u}")


class Method(enum.Enum):
    MAIC_NAB = "maic-nab"
    MAIC_ACB = "maic-acb"
    BUCHER = "bucher"
    STC = "stc"
    NAIVE = "naive"

    @property
    def weighted(self) -> bool:
        """Weights the IPD arms with a fitted weight model (the MAIC methods)."""
        return self in (Method.MAIC_NAB, Method.MAIC_ACB)

    @property
    def anchored(self) -> bool:
        """Contrasts through the common comparator arms."""
        return any(code == 0 for _, code, _ in CONTRASTS[self].pairs)


class Contrast(NamedTuple):
    """The signed (IPD arm code, AGD arm field) pairs a contrast reads.  It
    sums sign * (g(IPD mean) - g(AGD mean)) pair by pair (maic-acb's
    (g1 - g2) - (g0 - g0a)), or `within_trial` each trial's signed means
    first (bucher's (g1 - g0) - (g2 - g0a)): the same pairs, rounded apart."""

    pairs: tuple[tuple[float, int, str], ...]
    within_trial: bool = False


# the one table of which arms each contrast reads, and with which signs
_ACTIVE, _COMPARATOR = (1.0, 1, "active_arm"), (-1.0, 0, "comparator_arm")
CONTRASTS = {
    Method.MAIC_NAB: Contrast((_ACTIVE,)),
    Method.MAIC_ACB: Contrast((_ACTIVE, _COMPARATOR)),
    Method.BUCHER: Contrast((_ACTIVE, _COMPARATOR), within_trial=True),
    Method.STC: Contrast((_ACTIVE,)),
    Method.NAIVE: Contrast((_ACTIVE,)),
}
# the comparator-arm null check: maic-nab on the comparator pair alone
NULL_CHECK = Contrast(((1.0, 0, "comparator_arm"),))


@dataclass(frozen=True)
class Estimate:
    """A point estimate of the contrast and the arm pairs it read, each
    (sign, IPD arm code, IPD mean, AGD arm field, AGD mean), means on the
    natural scale.  mu1/mu2 are the first pair's means (the active arms'
    but in the null check); anchor_terms the anchored methods' second."""

    method: Method
    scale: Scale
    delta: float
    pairs: tuple[tuple[float, int, float, str, float], ...]

    @property
    def mu1(self) -> float:
        return self.pairs[0][2]

    @property
    def mu2(self) -> float:
        return self.pairs[0][4]

    @property
    def anchor_terms(self) -> tuple[float, float] | None:
        return (self.pairs[1][2], self.pairs[1][4]) if len(self.pairs) > 1 else None

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


def _weighted_means(block: IpdBlock, w: np.ndarray, code: int) -> np.ndarray:
    """Weighted mean outcome of arm `code` per study of a block."""
    wz = block.arm_rows(w, code)
    return (wz * block.arm_rows(block.y, code)).sum(axis=1) / wz.sum(axis=1)


def _block_weights(block: IpdBlock, models, weighted: bool) -> np.ndarray:
    """The fitted weights (B, n) when `weighted` (the MAIC methods and the
    null check), else unit weights; `models` is read only when weighted,
    and a study without one is a MissingWeightModel."""
    if not weighted:
        return np.ones((len(block), block.n))
    if any(m is None for m in models):
        raise MissingWeightModel("the MAIC methods and the null check need a fitted weight model")
    return np.stack([m.weights for m in models])


def maic_nab(
    ipd: IpdStudy, agd: AgdStudy, model: WeightModel, scale: Scale = Scale.IDENTITY
) -> Estimate:
    """Weighted IPD active-arm mean contrasted with the AGD active arm."""
    return unwrap(estimate_block(stack_ipd([ipd]), [agd], [model], scale, Method.MAIC_NAB)[0])


def maic_acb(
    ipd: IpdStudy, agd: AgdStudy, model: WeightModel, scale: Scale = Scale.IDENTITY
) -> Estimate:
    """Anchored variant: subtracts the weighted-vs-reported contrast of the
    common comparator arms from the maic_nab contrast."""
    return unwrap(estimate_block(stack_ipd([ipd]), [agd], [model], scale, Method.MAIC_ACB)[0])


def bucher(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Anchored indirect comparison of unadjusted within-trial effects."""
    return unwrap(estimate_block(stack_ipd([ipd]), [agd], None, scale, Method.BUCHER)[0])


def naive(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Unweighted IPD active-arm mean vs the AGD active arm."""
    return unwrap(estimate_block(stack_ipd([ipd]), [agd], None, scale, Method.NAIVE)[0])


def estimate_block(block: IpdBlock, agds, models, scale: Scale, method: Method,
                   contrast: Contrast | None = None) -> list:
    """Any method for each study of a block, with its AGD study: an Estimate
    or the MaicError per study.  `models` holds the fitted weight model of
    each study; it is read only for the MAIC methods and may be None for the
    others.  The arm pairs are the method's (CONTRASTS) unless `contrast`
    is given: the null check is maic-nab on NULL_CHECK."""
    if method is Method.STC:
        return stc_block(block, agds, scale)
    contrast = contrast or CONTRASTS[method]
    w = capture(_block_weights, block, models, method.weighted)
    if isinstance(w, MaicError):
        return [w] * len(block)
    means = {code: _weighted_means(block, w, code)
             for _, code, _ in contrast.pairs if code in block.arms}

    def estimate(b):
        agd, pairs = agds[b], []
        for sign, code, arm in contrast.pairs:
            if getattr(agd, arm) is None:
                raise NoComparatorArm("AGD study has no comparator arm")
            if code not in means:
                raise NoComparatorArm("IPD study has no comparator (z=0) records")
            pairs.append((sign, code, float(means[code][b]), arm, getattr(agd, arm).y_mean))
        # a sum starts at its first term: one pair gives g(IPD mean) - g(AGD mean)
        if contrast.within_trial:
            delta = (reduce(add, [s * scale.g(m) for s, _, m, _, _ in pairs])
                     - reduce(add, [s * scale.g(m) for s, _, _, _, m in pairs]))
        else:
            delta = reduce(add, [s * (scale.g(mi) - scale.g(ma)) for s, _, mi, _, ma in pairs])
        return Estimate(method, scale, delta, tuple(pairs))

    return [capture(estimate, b) for b in range(len(block))]


# logistic IRLS controls: iteration cap, convergence threshold on the step
# max-norm, and the coefficient size taken as (quasi-)complete separation
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-10
IRLS_COEF_CAP = 30.0


def _irls(design: np.ndarray, y: np.ndarray) -> list:
    """Logistic regression by iteratively reweighted least squares for each
    replicate of a (B, n, k) design stack, in lockstep: the coefficients or
    the MaicError per replicate.  A coefficient beyond IRLS_COEF_CAP is
    taken as complete (or quasi-complete) separation."""
    gamma = np.zeros(design.shape[::2])
    outcome = [None] * len(design)
    live = np.arange(len(design))
    for _ in range(IRLS_MAX_ITER):
        if not len(live):
            break
        d = take_rows(design, live)
        eta = np.matmul(d, gamma[live][:, :, None])[:, :, 0]
        mu = 1.0 / (1.0 + np.exp(-eta))
        wt = mu * (1.0 - mu)
        grad = np.matmul(d.transpose(0, 2, 1), (take_rows(y, live) - mu)[:, :, None])[:, :, 0]
        hess = np.matmul((d * wt[:, :, None]).transpose(0, 2, 1), d)
        step, singular = solve_each(hess, grad)
        # a singular replicate's step is 0, and it reports only its error
        gamma[live] = gamma[live] + step
        diverged = ~singular & (np.abs(gamma[live]).max(axis=1) > IRLS_COEF_CAP)
        done = ~singular & ~diverged & (np.abs(step).max(axis=1) < IRLS_TOL)
        for b in live[singular]:
            outcome[b] = SingularDesign("singular design in logistic fit")
        for b in live[diverged]:
            outcome[b] = SeparationError("logistic fit diverged (complete separation suspected)")
        for b in live[done]:
            outcome[b] = gamma[b]
        live = live[~(singular | diverged | done)]
    for b in live:
        outcome[b] = SeparationError("logistic fit failed to converge")
    return outcome


def stc(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Outcome regression on the IPD active arm evaluated at the pooled AGD
    covariate means, contrasted with the AGD active arm.  The model follows
    the outcome kind: logistic for a binary outcome, linear least squares
    for a continuous one.

    When the AGD means lie outside the IPD covariate range the prediction
    extrapolates; a warning is emitted rather than refusing.
    """
    return unwrap(stc_block(stack_ipd([ipd]), [agd], scale)[0])


def stc_block(block: IpdBlock, agds, scale: Scale = Scale.IDENTITY) -> list:
    """stc for each study of a block: an Estimate or the MaicError per study."""
    if not block.x.shape[2]:
        return [DimensionMismatch("stc needs at least one covariate")] * len(block)
    binary = block.outcome_kind is OutcomeKind.BINARY
    x, y = block.arm_rows(block.x, 1), block.arm_rows(block.y, 1)
    design = np.concatenate([np.ones(y.shape + (1,)), x], axis=2)
    lo, hi = x.min(axis=1), x.max(axis=1)
    rows = []
    for b, agd in enumerate(agds):
        arms = agd.arms
        ns = np.array([a.n for a in arms], dtype=float)
        xbar2 = np.sum([a.x_mean * n for a, n in zip(arms, ns)], axis=0) / ns.sum()
        if np.any(xbar2 < lo[b]) or np.any(xbar2 > hi[b]):
            warnings.warn(
                "AGD covariate means lie outside the IPD active-arm support; "
                "the outcome model is extrapolating",
                stacklevel=3,
            )
        rows.append(np.concatenate([[1.0], xbar2]))

    fits = _irls(design, y) if binary else None

    def estimate(b):
        row = rows[b]
        if binary:
            v = float(row @ unwrap(fits[b]))
            try:
                mu1 = 1.0 / (1.0 + math.exp(-v))
            except OverflowError:
                # v < -709: 1 / (1 + exp(-v)) is exp(v) to double precision
                mu1 = math.exp(v)
        else:
            if np.linalg.matrix_rank(design[b]) < design.shape[2]:
                raise SingularDesign("rank-deficient design in linear outcome model")
            gamma, *_ = np.linalg.lstsq(design[b], y[b], rcond=None)
            mu1 = float(row @ gamma)
        mu2 = agds[b].active_arm.y_mean
        return Estimate(Method.STC, scale, scale.g(mu1) - scale.g(mu2),
                        ((1.0, 1, mu1, "active_arm", mu2),))

    return [capture(estimate, b) for b in range(len(block))]
