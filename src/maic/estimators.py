"""Point estimators of the cross-trial treatment contrast.

Five methods are provided: weighted comparison of active arms (maic_nab),
its anchored variant using the common comparator (maic_acb), the anchored
unadjusted contrast (bucher), outcome-regression extrapolation (stc), and
the unadjusted active-arm contrast (naive).  Each reports on the identity
scale or after a logit link transform.  The package's one array logistic,
_expit, serves the IRLS and the simulation; stc's prediction takes each
study's math.exp (_scalar_expit), whose bits the references hold and which
NumPy's SIMD exp does not always give.
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

from .data_model import (AGD_ARMS, AgdBlock, AgdStudy, IpdBlock, IpdStudy, OutcomeKind,
                         reduce_rows, stack_agd, stack_ipd, take_rows)
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
from .weighting import FitBlock, WeightModel, solve_each


class Scale(enum.Enum):
    """Contrast scale: identity (difference of means) or logit (log odds).
    g and g_prime take a mean or an array of means; g takes each element's
    log with math.log, as it does a lone mean (NumPy's SIMD log rounds some
    inputs differently)."""

    IDENTITY = "identity"
    LOGIT = "logit"

    def g(self, u):
        if self is Scale.IDENTITY:
            return u
        _require_interior(u)
        if isinstance(u, np.ndarray):
            return np.array(list(map(math.log, (u / (1.0 - u)).ravel().tolist()))).reshape(u.shape)
        return math.log(u / (1.0 - u))

    def g_prime(self, u):
        if self is Scale.IDENTITY:
            return np.ones_like(u) if isinstance(u, np.ndarray) else 1.0
        _require_interior(u)
        return 1.0 / (u * (1.0 - u))


def _require_interior(u) -> None:
    """BoundaryProportion unless the mean u (each mean of an array u) lies
    in (0, 1); it names the first that does not."""
    if isinstance(u, np.ndarray):
        inside = (0.0 < u) & (u < 1.0)
        if inside.all():
            return
        u = float(u[~inside][0])
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


def _block_weights(block: IpdBlock, fits, weighted: bool) -> np.ndarray:
    """The fitted weights (B, n) when `weighted` (the MAIC methods and the
    null check), else unit weights; `fits` (a FitBlock of the block's
    studies, each fitted) is read only when weighted, and None there is a
    MissingWeightModel."""
    if not weighted:
        return np.ones((len(block), block.n))
    if fits is None:
        raise MissingWeightModel("the MAIC methods and the null check need a fitted weight model")
    return fits.weights


def _one(ipd: IpdStudy, agd: AgdStudy, model) -> tuple:
    """A lone study's IPD, AGD and weight model as blocks of one."""
    return stack_ipd([ipd]), stack_agd([agd]), None if model is None else FitBlock.of([model])


def maic_nab(
    ipd: IpdStudy, agd: AgdStudy, model: WeightModel, scale: Scale = Scale.IDENTITY
) -> Estimate:
    """Weighted IPD active-arm mean contrasted with the AGD active arm."""
    return unwrap(estimate_block(*_one(ipd, agd, model), scale, Method.MAIC_NAB)[0])


def maic_acb(
    ipd: IpdStudy, agd: AgdStudy, model: WeightModel, scale: Scale = Scale.IDENTITY
) -> Estimate:
    """Anchored variant: subtracts the weighted-vs-reported contrast of the
    common comparator arms from the maic_nab contrast."""
    return unwrap(estimate_block(*_one(ipd, agd, model), scale, Method.MAIC_ACB)[0])


def bucher(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Anchored indirect comparison of unadjusted within-trial effects."""
    return unwrap(estimate_block(*_one(ipd, agd, None), scale, Method.BUCHER)[0])


def naive(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Unweighted IPD active-arm mean vs the AGD active arm."""
    return unwrap(estimate_block(*_one(ipd, agd, None), scale, Method.NAIVE)[0])


def estimate_block(block: IpdBlock, agd: AgdBlock, fits, scale: Scale, method: Method,
                   contrast: Contrast | None = None) -> list:
    """Any method for each study of a block, with the AGD block: an Estimate
    or the MaicError per study.  `fits` is the FitBlock of the block's
    studies, each fitted; it is read only for the MAIC methods and may be
    None for the others.  The arm pairs are the method's (CONTRASTS) unless
    `contrast` is given: the null check is maic-nab on NULL_CHECK.  Each
    Estimate keeps the means it read, which the SEs read in turn
    (variance._derive)."""
    if method is Method.STC:
        return stc_block(block, agd, scale)
    contrast = contrast or CONTRASTS[method]
    w = capture(_block_weights, block, fits, method.weighted)
    if isinstance(w, MaicError):
        return [w] * len(block)
    errors = [None] * len(block)
    ipd_means, agd_means = [], []
    for _, code, arm in contrast.pairs:
        col = AGD_ARMS.index(arm)
        _file_first(errors, agd.n[:, col] == 0,
                    lambda b: NoComparatorArm("AGD study has no comparator arm"))
        if code in block.arms:
            ipd_means.append(_weighted_means(block, w, code))
        else:
            _file_first(errors, np.ones(len(block), dtype=bool),
                        lambda b: NoComparatorArm("IPD study has no comparator (z=0) records"))
            ipd_means.append(np.full(len(block), np.nan))
        agd_means.append(agd.y_mean[:, col])
    return _contrasts(method, scale, contrast, ipd_means, agd_means, errors)


def _file_first(errors: list, mask: np.ndarray, make) -> None:
    """errors[b] = make(b) for each study b at mask that has no error yet."""
    for b in mask.nonzero()[0].tolist():
        if errors[b] is None:
            errors[b] = make(b)


def _valid(means: np.ndarray, errors: list) -> np.ndarray:
    """means (..., B) with 0.5, inside every scale's domain, in the place of
    each study that has an error, whose values are not reported."""
    if errors.count(None) == len(errors):
        return means
    return np.where([e is None for e in errors], means, 0.5)


def _contrasts(method: Method, scale: Scale, contrast: Contrast, ipd_means: list,
               agd_means: list, errors: list) -> list:
    """The Estimate of each study of a block, from the (B,) IPD and AGD means
    of each pair of the contrast, or its MaicError: errors[b] when set, else
    the BoundaryProportion of its first mean outside (0, 1), in the order
    the contrast takes g of them.  A sum starts at its first term, so one
    pair gives g(IPD mean) - g(AGD mean)."""
    pairs = len(contrast.pairs)
    means = np.array([*ipd_means, *agd_means])  # (2 * pairs, B)
    if scale is Scale.LOGIT:
        outside = ~((0.0 < means) & (means < 1.0))
        if outside.any():
            for i in (range(2 * pairs) if contrast.within_trial
                      else [i + side * pairs for i in range(pairs) for side in (0, 1)]):
                _file_first(errors, outside[i],
                            lambda b: capture(_require_interior, float(means[i, b])))
    g = scale.g(_valid(means, errors))
    signs = [sign for sign, _, _ in contrast.pairs]
    if contrast.within_trial:
        delta = (reduce(add, [s * gi for s, gi in zip(signs, g[:pairs])])
                 - reduce(add, [s * ga for s, ga in zip(signs, g[pairs:])]))
    else:
        delta = reduce(add, [s * (gi - ga) for s, gi, ga in zip(signs, g[:pairs], g[pairs:])])
    cols = [(sign, code, mi, arm, ma) for (sign, code, arm), mi, ma
            in zip(contrast.pairs, means[:pairs].tolist(), means[pairs:].tolist())]
    return [errors[b] or Estimate(method, scale, d, tuple((sign, code, mi[b], arm, ma[b])
                                                          for sign, code, mi, arm, ma in cols))
            for b, d in enumerate(delta.tolist())]


# logistic IRLS controls: iteration cap, convergence threshold on the step
# max-norm, and the linear predictor size taken as (quasi-)complete
# separation (a fitted probability within about 1e-13 of 0 or 1)
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-10
IRLS_ETA_CAP = 30.0


def _irls(design: np.ndarray, y: np.ndarray):
    """Logistic regression by iteratively reweighted least squares for each
    replicate of a (B, n, k) design stack, in lockstep: the coefficients
    (B, k) and the MaicError or None per replicate.  A linear predictor
    beyond IRLS_ETA_CAP is taken as complete (or quasi-complete) separation:
    unlike a coefficient, it does not move under an affine map of the
    covariates."""
    gamma = np.zeros(design.shape[::2])
    errors = [None] * len(design)
    live = np.arange(len(design))
    for _ in range(IRLS_MAX_ITER):
        if not len(live):
            break
        d = take_rows(design, live)
        eta = np.matmul(d, gamma[live][:, :, None])[:, :, 0]
        mu = _expit(eta)
        wt = mu * (1.0 - mu)
        grad = np.matmul(d.transpose(0, 2, 1), (take_rows(y, live) - mu)[:, :, None])[:, :, 0]
        hess = np.matmul((d * wt[:, :, None]).transpose(0, 2, 1), d)
        step, singular = solve_each(hess, grad)
        # a singular replicate's step is 0, and it reports only its error
        gamma[live] = gamma[live] + step
        # judged on the predictor before the step, which is already at hand
        diverged = ~singular & (np.abs(eta).max(axis=1) > IRLS_ETA_CAP)
        done = ~singular & ~diverged & (np.abs(step).max(axis=1) < IRLS_TOL)
        for b in live[singular]:
            errors[b] = SingularDesign("singular design in logistic fit")
        for b in live[diverged]:
            errors[b] = SeparationError("logistic fit diverged (complete separation suspected)")
        live = live[~(singular | diverged | done)]
    for b in live:
        errors[b] = SeparationError("logistic fit failed to converge")
    return gamma, errors


def _least_squares(design: np.ndarray, y: np.ndarray):
    """Linear least squares for each replicate of a (B, n, k) design stack:
    the coefficients (B, k) and the MaicError or None per replicate.  NumPy
    has no stacked lstsq, so each replicate is solved on its own."""
    gamma = np.zeros(design.shape[::2])
    errors = [None] * len(design)
    for b in range(len(design)):
        if np.linalg.matrix_rank(design[b]) < design.shape[2]:
            errors[b] = SingularDesign("rank-deficient design in linear outcome model")
        else:
            gamma[b] = np.linalg.lstsq(design[b], y[b], rcond=None)[0]
    return gamma, errors


def _expit(v):
    """1 / (1 + exp(-v)) of an array; where exp(-v) overflows, 1 / (1 + inf) is
    the 0 it tends to, so the overflow is not warned of."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def _scalar_expit(v: float) -> float:
    """1 / (1 + exp(-v)) of a lone float through math.exp."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        # v < -709: 1 / (1 + exp(-v)) is exp(v) to double precision
        return math.exp(v)


def stc(ipd: IpdStudy, agd: AgdStudy, scale: Scale = Scale.IDENTITY) -> Estimate:
    """Outcome regression on the IPD active arm evaluated at the pooled AGD
    covariate means, contrasted with the AGD active arm.  The model follows
    the outcome kind: logistic for a binary outcome, linear least squares
    for a continuous one.

    When the AGD means lie outside the IPD covariate range the prediction
    extrapolates; a warning is emitted rather than refusing.
    """
    return unwrap(stc_block(stack_ipd([ipd]), stack_agd([agd]), scale)[0])


def stc_block(block: IpdBlock, agd: AgdBlock, scale: Scale = Scale.IDENTITY) -> list:
    """stc for each study of a block: an Estimate or the MaicError per study.
    The pooled AGD means, the extrapolation check and each prediction
    row @ gamma (a stacked matmul, which gives the bits of each lone dot)
    run over the block; each probability is a lone math.exp."""
    if not block.x.shape[2]:
        return [DimensionMismatch("stc needs at least one covariate")] * len(block)
    x, y = block.arm_rows(block.x, 1), block.arm_rows(block.y, 1)
    design = np.concatenate([np.ones(y.shape + (1,)), x], axis=2)
    lo, hi = reduce_rows(x, np.minimum, np.maximum)
    n = agd.n.astype(float)
    xn = agd.x_mean * n[:, :, None]
    xbar2 = (np.where(agd.has_comparator[:, None], xn[:, 0] + xn[:, 1], xn[:, 0])
             / n.sum(axis=1)[:, None])
    for _ in range(np.count_nonzero(((xbar2 < lo) | (xbar2 > hi)).any(axis=1))):
        warnings.warn(
            "AGD covariate means lie outside the IPD active-arm support; "
            "the outcome model is extrapolating",
            stacklevel=3,
        )
    rows = np.concatenate([np.ones((len(block), 1)), xbar2], axis=1)
    binary = block.outcome_kind is OutcomeKind.BINARY
    gamma, errors = (_irls if binary else _least_squares)(design, y)
    mu1 = np.matmul(rows[:, None, :], gamma[:, :, None])[:, 0, 0]
    if binary:
        mu1 = np.array([_scalar_expit(v) for v in mu1.tolist()])
    return _contrasts(Method.STC, scale, CONTRASTS[Method.STC], [mu1], [agd.y_mean[:, 0]],
                      errors)
