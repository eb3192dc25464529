"""Trial-selection weights by convex moment matching.

The weights are exponential-tilting weights w_i = exp{a'(t(X_i) - target)}
whose coefficient vector minimizes the strictly convex objective
Q(a) = mean_i exp{a'(t(X_i) - target)} over the IPD records.  At the
minimizer the weighted mean of t(X) over the IPD equals the target moment
vector, so covariate moments are balanced against the aggregate-data
population.  The intercept of the underlying logistic trial-assignment
model is never estimated; centering on the target removes it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_model import IpdStudy, MomentSpec
from .errors import DegenerateCovariate, EmptyWeights, NonConvergence

__all__ = [
    "MomentSpec",
    "SolverConfig",
    "WeightModel",
    "moment_matrix",
    "solve_weights",
    "balance_check",
    "effective_sample_size",
    "overlap_diagnostics",
]


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver controls.

    grad_tol is the max-norm threshold on the weighted balance residual;
    it is deliberately tight so that downstream estimator identities hold
    to near machine precision.
    """

    grad_tol: float = 1e-10
    max_iter: int = 200
    step_halvings_max: int = 60

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class WeightModel:
    """Fitted weight model: coefficients, per-record weights, diagnostics."""

    alpha1: np.ndarray
    centering: np.ndarray
    weights: np.ndarray
    spec: MomentSpec
    converged: bool
    iterations: int
    objective: float
    ess: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "alpha1": self.alpha1.tolist(),
            "centering": self.centering.tolist(),
            "spec": self.spec.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "objective": self.objective,
            "ess": {str(k): v for k, v in self.ess.items()},
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def moment_matrix(x: np.ndarray, spec: MomentSpec) -> np.ndarray:
    """t(X): covariates for FIRST, covariates and their squares otherwise."""
    x = np.asarray(x, dtype=float)
    if spec is MomentSpec.FIRST:
        return x
    return np.hstack([x, x**2])


def solve_weights(
    ipd: IpdStudy,
    target: np.ndarray,
    spec: MomentSpec = MomentSpec.FIRST,
    cfg: SolverConfig = SolverConfig(),
) -> WeightModel:
    """Solve the moment-matching estimating equation by damped Newton.

    The centered moments c_i = t(X_i) - target make the objective
    Q(a) = mean exp(a'c_i) with gradient mean(exp(a'c_i) c_i) and Hessian
    mean(exp(a'c_i) c_i c_i'); each Newton step is backtracked until the
    objective decreases.  Convergence requires the weighted balance
    residual max-norm to fall below cfg.grad_tol.

    Raises NonConvergence when no interior solution exists (target outside
    the convex hull of the IPD moments, a positivity/overlap failure) and
    DegenerateCovariate when a coordinate is constant but off-target.
    """
    target = np.asarray(target, dtype=float)
    t = moment_matrix(ipd.x, spec)
    k = t.shape[1]
    if len(target) != k:
        raise ValueError(f"target has length {len(target)}, expected {k}")

    span = t.max(axis=0) - t.min(axis=0)
    off = np.abs(t.mean(axis=0) - target)
    for j in np.nonzero((span == 0) & (off > 1e-12))[0]:
        raise DegenerateCovariate(
            f"moment coordinate {j} is constant in the IPD but its target differs"
        )

    c = t - target
    alpha = np.zeros(k)
    n = len(c)

    def evaluate(a):
        expo = c @ a
        if expo.max() > 700.0:  # exp overflow: treat as invalid trial point
            return None, None
        w = np.exp(expo)
        return w, w.mean()

    w, q = evaluate(alpha)
    converged = False
    iterations = 0
    residual = c.mean(axis=0)
    for iterations in range(1, cfg.max_iter + 1):
        grad = (w[:, None] * c).mean(axis=0)
        sw = w.sum()
        if not np.isfinite(sw) or sw <= 0:
            break
        residual = grad * n / sw
        if np.max(np.abs(residual)) <= cfg.grad_tol:
            converged = True
            break
        hess = (w[:, None] * c).T @ c / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            warnings.warn(
                "singular Hessian (collinear moments); using least-squares step",
                stacklevel=2,
            )
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # backtracking: halve until the strictly convex objective decreases
        scale = 1.0
        accepted = False
        for _ in range(cfg.step_halvings_max):
            trial = alpha - scale * step
            w_new, q_new = evaluate(trial)
            if w_new is not None and q_new < q:
                alpha, w, q = trial, w_new, q_new
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # objective is flat to machine precision; take the full Newton
            # step anyway if it still tightens the balance residual
            trial = alpha - step
            w_new, q_new = evaluate(trial)
            if w_new is None or w_new.sum() <= 0:
                break
            res_new = (w_new[:, None] * c).mean(axis=0) * n / w_new.sum()
            if np.max(np.abs(res_new)) < np.max(np.abs(residual)):
                alpha, w, q = trial, w_new, q_new
            else:
                break
    if not converged:
        worst = int(np.argmax(np.abs(residual)))
        raise NonConvergence(
            "weight solver failed to balance moments (target may lie outside "
            "the convex hull of the IPD moments); worst imbalance at moment "
            f"coordinate {worst} with residual max-norm "
            f"{np.max(np.abs(residual)):.3g}",
            residual=residual,
        )

    ess = {
        int(z): effective_sample_size(w[ipd.z == z])
        for z in np.unique(ipd.z)
    }
    return WeightModel(
        alpha1=alpha,
        centering=target,
        weights=w,
        spec=spec,
        converged=True,
        iterations=iterations,
        objective=float(q),
        ess=ess,
    )


def balance_check(model: WeightModel, ipd: IpdStudy, target: np.ndarray):
    """Weighted moment-balance residual per coordinate, with its max-norm."""
    t = moment_matrix(ipd.x, model.spec)
    w = model.weights
    residual = (w[:, None] * (t - np.asarray(target, dtype=float))).sum(axis=0) / w.sum()
    return residual, float(np.max(np.abs(residual)))


def effective_sample_size(weights) -> float:
    """(sum w)^2 / sum w^2: the importance-sampling effective sample size."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise EmptyWeights("effective sample size of an empty weight vector")
    if np.any(w <= 0):
        raise EmptyWeights("weights must be strictly positive")
    return float(w.sum() ** 2 / (w**2).sum())


# overlap diagnostics: how many of the largest weights to list, and the share
# of the total weight at which a single weight is flagged as dominant
K_LARGEST = 5
WEIGHT_SHARE_WARN = 0.5


@dataclass(frozen=True)
class OverlapReport:
    ess: dict[int, float]
    low_ess_arms: list[int]
    max_weight_share: float
    share_warning: bool
    largest_weights: list[float]


def overlap_diagnostics(model: WeightModel, ipd: IpdStudy) -> OverlapReport:
    """Flag arms whose effective sample size drops to p or below, and weights
    that individually dominate the total."""
    p = ipd.p
    low = [z for z, e in model.ess.items() if e <= p]
    w = model.weights
    share = float(w.max() / w.sum())
    top = sorted(w, reverse=True)[:K_LARGEST]
    return OverlapReport(
        ess=dict(model.ess),
        low_ess_arms=sorted(low),
        max_weight_share=share,
        share_warning=share >= WEIGHT_SHARE_WARN,
        largest_weights=[float(v) for v in top],
    )
