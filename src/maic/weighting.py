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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_model import IpdBlock, IpdStudy, MomentSpec, stack_ipd, take_rows
from .errors import DegenerateCovariate, EmptyWeights, NonConvergence, capture, unwrap

@dataclass(frozen=True)
class SolverConfig:
    """Newton solver controls, fixed: every solve uses these values.

    grad_tol is the max-norm threshold on the weighted balance residual;
    it is deliberately tight so that downstream estimator identities hold
    to near machine precision.
    """

    grad_tol: float = field(default=1e-10, init=False)
    max_iter: int = field(default=200, init=False)
    step_halvings_max: int = field(default=60, init=False)


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


def moment_matrix(x: np.ndarray, spec: MomentSpec) -> np.ndarray:
    """t(X): covariates for FIRST, covariates and their squares otherwise;
    x may carry leading block axes."""
    x = np.asarray(x, dtype=float)
    if spec is MomentSpec.FIRST:
        return x
    return np.concatenate([x, x**2], axis=-1)


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
    k = moment_matrix(ipd.x[:1], spec).shape[1]
    if len(target) != k:
        raise ValueError(f"target has length {len(target)}, expected {k}")
    return unwrap(solve_weights_block(stack_ipd([ipd]), target[None], spec, cfg)[0])


def solve_weights_block(block: IpdBlock, targets: np.ndarray, spec: MomentSpec,
                        cfg: SolverConfig) -> list:
    """solve_weights for each study of a block, one target row each: a
    WeightModel or the MaicError per study."""
    t = moment_matrix(block.x, spec)
    span = t.max(axis=1) - t.min(axis=1)
    degenerate = (span == 0) & (np.abs(t.mean(axis=1) - targets) > 1e-12)
    solvable = np.flatnonzero(~degenerate.any(axis=1))
    c = take_rows(t - targets[:, None, :], solvable)
    alpha, w, q, iterations, converged, residual = _newton(c, cfg)
    # effective sample sizes per arm, for the converged replicates only
    done = np.flatnonzero(converged)
    finished = block.take(solvable[done])
    ess = {code: _ess(finished.arm_rows(take_rows(w, done), code)) for code in block.arms}

    def outcome(b):
        if degenerate[b].any():
            j = int(np.flatnonzero(degenerate[b])[0])
            raise DegenerateCovariate(
                f"moment coordinate {j} is constant in the IPD but its target differs"
            )
        s = int(np.searchsorted(solvable, b))
        if not converged[s]:
            worst = int(np.argmax(np.abs(residual[s])))
            raise NonConvergence(
                "weight solver failed to balance moments (target may lie outside "
                "the convex hull of the IPD moments); worst imbalance at moment "
                f"coordinate {worst} with residual max-norm "
                f"{np.max(np.abs(residual[s])):.3g}",
                residual=residual[s],
            )
        return WeightModel(
            alpha1=alpha[s],
            centering=targets[b],
            weights=w[s],
            spec=spec,
            converged=True,
            iterations=int(iterations[s]),
            objective=float(q[s]),
            ess={code: unwrap(arm[np.searchsorted(done, s)]) for code, arm in ess.items()},
        )

    return [capture(outcome, b) for b in range(len(block))]


def _evaluate(c: np.ndarray, a: np.ndarray):
    """Weights exp(c_i'a) and objective mean per replicate; `ok` is False
    where an exponent exceeds 700 (exp would overflow: an invalid trial
    point, whose weights are left at 1)."""
    expo = np.matmul(c, a[:, :, None])[:, :, 0]
    ok = ~(expo.max(axis=1) > 700.0)
    if ok.all():
        w = np.exp(expo)
    else:
        w = np.ones_like(expo)
        w[ok] = np.exp(expo[ok])
    return w, w.mean(axis=1), ok


def solve_each(a: np.ndarray, rhs: np.ndarray):
    """x with a[b] @ x[b] = rhs[b] for each replicate of a (B, k, k) stack,
    and a mask of the replicates whose matrix is singular (x left at 0)."""
    singular = np.zeros(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    x = np.zeros_like(rhs)
    for b in range(len(a)):
        try:
            x[b] = np.linalg.solve(a[b], rhs[b])
        except np.linalg.LinAlgError:
            singular[b] = True
    return x, singular


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton steps hess^-1 grad, least squares where a Hessian is singular."""
    steps, singular = solve_each(hess, grad)
    for b in np.flatnonzero(singular):
        warnings.warn(
            "singular Hessian (collinear moments); using least-squares step",
            stacklevel=5,
        )
        steps[b] = np.linalg.lstsq(hess[b], grad[b], rcond=None)[0]
    return steps


def _newton(c: np.ndarray, cfg: SolverConfig):
    """Damped Newton on Q(a) = mean exp(a'c_i) for each replicate of the
    (B, n, k) centred moments c, in lockstep: a replicate leaves the loop
    when it converges or fails and the rest carry on, each through the same
    arithmetic as a lone solve.  Returns alpha, weights, objective,
    iterations, convergence and the last balance residual per replicate."""
    n_rep, n, k = c.shape
    alpha = np.zeros((n_rep, k))
    w, q, _ = _evaluate(c, alpha)
    residual = c.mean(axis=1)
    iterations = np.zeros(n_rep, dtype=int)
    converged = np.zeros(n_rep, dtype=bool)
    live = np.arange(n_rep)
    for it in range(1, cfg.max_iter + 1):
        if not len(live):
            break
        iterations[live] = it
        sw = take_rows(w, live).sum(axis=1)
        usable = np.isfinite(sw) & (sw > 0)
        if not usable.all():
            live, sw = live[usable], sw[usable]
        cl = take_rows(c, live)
        wc = take_rows(w, live)[:, :, None] * cl
        grad = wc.mean(axis=1)
        res = grad * n / sw[:, None]
        residual[live] = res
        done = np.abs(res).max(axis=1) <= cfg.grad_tol
        if done.any():
            converged[live[done]] = True
            live, cl, wc, grad = live[~done], cl[~done], wc[~done], grad[~done]
            if not len(live):
                break
        step = _newton_steps(np.matmul(wc.transpose(0, 2, 1), cl) / n, grad)

        # backtracking: halve until the strictly convex objective decreases;
        # once the trial point rounds to alpha it does so at every smaller
        # scale, so that replicate stops searching
        accepted = np.zeros(len(live), dtype=bool)
        at = np.arange(len(live))  # positions in live still searching
        a0, st, q0, cs = alpha[live], step, q[live], cl
        scale = 1.0
        for _ in range(cfg.step_halvings_max):
            trial = a0 - scale * st
            keep = (trial != a0).any(axis=1)
            if not keep.all():
                at, a0, st, q0, cs, trial = at[keep], a0[keep], st[keep], q0[keep], cs[keep], trial[keep]
                if not len(at):
                    break
            w_new, q_new, ok = _evaluate(cs, trial)
            better = ok & (q_new < q0)
            if better.any():
                took = live[at[better]]
                alpha[took], w[took], q[took] = trial[better], w_new[better], q_new[better]
                accepted[at[better]] = True
                keep = ~better
                at, a0, st, q0, cs = at[keep], a0[keep], st[keep], q0[keep], cs[keep]
                if not len(at):
                    break
            scale *= 0.5

        # objective flat to machine precision: take the full Newton step
        # anyway if it still tightens the balance residual
        if not accepted.all():
            flat = np.flatnonzero(~accepted)
            trial = alpha[live[flat]] - step[flat]
            cf = take_rows(cl, flat)
            w_new, q_new, ok = _evaluate(cf, trial)
            sw_new = w_new.sum(axis=1)
            valid = np.flatnonzero(ok & ~(sw_new <= 0))
            res_new = ((w_new[valid][:, :, None] * cf[valid]).mean(axis=1) * n
                       / sw_new[valid][:, None])
            tighter = valid[np.abs(res_new).max(axis=1)
                            < np.abs(residual[live[flat[valid]]]).max(axis=1)]
            took = live[flat[tighter]]
            alpha[took], w[took], q[took] = trial[tighter], w_new[tighter], q_new[tighter]
            live = np.delete(live, np.setdiff1d(flat, flat[tighter]))
    return alpha, w, q, iterations, converged, residual


def balance_check(model: WeightModel, ipd: IpdStudy, target: np.ndarray):
    """Weighted moment-balance residual per coordinate, with its max-norm."""
    t = moment_matrix(ipd.x, model.spec)
    w = model.weights
    residual = (w[:, None] * (t - np.asarray(target, dtype=float))).sum(axis=0) / w.sum()
    return residual, float(np.max(np.abs(residual)))


def effective_sample_size(weights) -> float:
    """(sum w)^2 / sum w^2: the importance-sampling effective sample size."""
    return unwrap(_ess(np.asarray(weights, dtype=float)[None])[0])


def _ess(w: np.ndarray) -> list:
    """Effective sample size of each row of w, or EmptyWeights for a row
    with a negative weight or none that is positive.  A zero weight (an
    exponent that underflowed) is allowed."""
    if w.shape[1] == 0:
        return [EmptyWeights("effective sample size of an empty weight vector")] * len(w)
    s = w.sum(axis=1)
    sq = (w**2).sum(axis=1)
    valid = ~(w < 0).any(axis=1) & (w != 0).any(axis=1)
    return [float(s[b] ** 2 / sq[b]) if valid[b]
            else EmptyWeights("weights must be nonnegative and not all zero")
            for b in range(len(w))]


# overlap diagnostics: how many of the largest weights to list
K_LARGEST = 5


@dataclass(frozen=True)
class OverlapReport:
    low_ess_arms: list[int]
    max_weight_share: float
    largest_weights: list[float]


def overlap_diagnostics(model: WeightModel, ipd: IpdStudy) -> OverlapReport:
    """Arms whose effective sample size drops to p or below, the largest
    weight's share of the total, and the largest weights."""
    low = [z for z, e in model.ess.items() if e <= ipd.p]
    w = model.weights
    return OverlapReport(
        low_ess_arms=sorted(low),
        max_weight_share=float(w.max() / w.sum()),
        largest_weights=np.sort(w)[::-1][:K_LARGEST].tolist(),
    )


def fit_diagnostics(model: WeightModel, ipd: IpdStudy) -> dict:
    """The balance and overlap diagnostics a report carries for a fitted
    model: the balance residual against the model's target, its max-norm,
    the low-ESS arms and the largest weight's share."""
    residual, max_norm = balance_check(model, ipd, model.centering)
    overlap = overlap_diagnostics(model, ipd)
    return {"balance_residual": residual.tolist(), "balance_max_norm": max_norm,
            "low_ess_arms": overlap.low_ess_arms, "max_weight_share": overlap.max_weight_share}
