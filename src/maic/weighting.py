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

from .data_model import (IpdBlock, IpdStudy, MomentSpec, mean_rows, reduce_rows, squares,
                         stack_ipd, take_rows)
from .errors import (DegenerateCovariate, DimensionMismatch, EmptyWeights, MaicError,
                     NonConvergence, unwrap)

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
    """Fitted weight model: coefficients, per-record weights, diagnostics.

    moments is the fit's own read-only (n, k) matrix of centred moments
    t(X_i) - centering over the IPD rows, which the solver balanced and
    the influence terms and the balance diagnostic read.  It does not
    depend on the weights, so a copy of the model with other weights keeps
    it valid.
    """

    alpha1: np.ndarray
    centering: np.ndarray
    moments: np.ndarray
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


@dataclass(frozen=True, eq=False)
class FitBlock:
    """The weight fits of a block of `size` studies, stacked as the solver
    left them.  The fitted studies are the ascending block rows `rows`, and
    row i of alpha (F, k), weights (F, n), moments (F, n, k), centering
    (F, k), iterations, objective and each arm's ess (F,) is the fit of
    study rows[i].  `errors` maps each study whose fit failed to its
    MaicError; a study in neither has no fit.  The stages read the weights
    and moments as they are, with no per-study copy."""

    spec: MomentSpec
    size: int
    rows: np.ndarray
    alpha: np.ndarray
    weights: np.ndarray
    moments: np.ndarray
    centering: np.ndarray
    iterations: np.ndarray
    objective: np.ndarray
    ess: dict
    errors: dict

    @classmethod
    def of(cls, models) -> "FitBlock":
        """The block of a list holding, per study, its WeightModel, None (no
        fit) or the MaicError of its failed fit; the models share a spec."""
        fitted = [m for m in models if isinstance(m, WeightModel)]
        rows = np.array([b for b, m in enumerate(models) if isinstance(m, WeightModel)], dtype=int)
        errors = {b: m for b, m in enumerate(models) if isinstance(m, MaicError)}
        if not fitted:
            return cls(None, len(models), rows, *[None] * 6, {}, errors)
        arrays = [np.stack([getattr(m, f) for m in fitted]) if len(fitted) > 1
                  else getattr(fitted[0], f)[None]
                  for f in ("alpha1", "weights", "moments", "centering")]
        return cls(fitted[0].spec, len(models), rows, *arrays,
                   np.array([m.iterations for m in fitted]),
                   np.array([m.objective for m in fitted]),
                   {code: np.array([m.ess[code] for m in fitted]) for code in fitted[0].ess},
                   errors)

    def take(self, members) -> "FitBlock":
        """The fits of the ascending fitted block rows `members` as a block
        of their own; the block itself when it holds just those fits."""
        if len(members) == self.size == len(self.rows):
            return self
        at = np.searchsorted(self.rows, members)
        return FitBlock(self.spec, len(members), np.arange(len(members)),
                        *(take_rows(a, at) for a in (self.alpha, self.weights, self.moments,
                                                     self.centering, self.iterations,
                                                     self.objective)),
                        {code: take_rows(v, at) for code, v in self.ess.items()}, {})

    def outcome(self, b: int):
        """The WeightModel of study b or the MaicError of its failed fit."""
        if b in self.errors:
            return self.errors[b]
        i = int(np.searchsorted(self.rows, b))
        return WeightModel(alpha1=self.alpha[i], centering=self.centering[i],
                           moments=self.moments[i], weights=self.weights[i], spec=self.spec,
                           converged=True, iterations=int(self.iterations[i]),
                           objective=float(self.objective[i]),
                           ess={code: float(v[i]) for code, v in self.ess.items()})


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
    return unwrap(solve_weights_block(stack_ipd([ipd]), target[None], spec, cfg).outcome(0))


def solve_weights_block(block: IpdBlock, targets: np.ndarray, spec: MomentSpec,
                        cfg: SolverConfig) -> FitBlock:
    """solve_weights for each study of a block, one target row each, as a
    FitBlock: a study whose fit fails has its MaicError in `errors`."""
    if not block.x.shape[2]:
        failed = DimensionMismatch("the weights need at least one covariate")
        return FitBlock.of([failed] * len(block))
    t = moment_matrix(block.x, spec)
    t_max, t_min, t_sum = reduce_rows(t, np.maximum, np.minimum, np.add)
    degenerate = (t_max - t_min == 0) & (np.abs(t_sum / t.shape[1] - targets) > 1e-12)
    solvable = np.flatnonzero(~degenerate.any(axis=1))
    c = take_rows(t - targets[:, None, :], solvable)
    c.flags.writeable = False  # each model's moments are a view of c
    alpha, w, q, iterations, converged, residual = _newton(c, cfg)
    # effective sample sizes per arm, for the converged replicates only
    done = np.flatnonzero(converged)
    finished = block.take(solvable[done])
    ess, valid = zip(*(_ess(finished.arm_rows(take_rows(w, done), code)) for code in block.arms))
    valid = np.logical_and.reduce(valid)

    errors = {}
    for b in np.flatnonzero(degenerate.any(axis=1)).tolist():
        j = int(np.flatnonzero(degenerate[b])[0])
        errors[b] = DegenerateCovariate(
            f"moment coordinate {j} is constant in the IPD but its target differs")
    for s in np.flatnonzero(~converged).tolist():
        worst = int(np.argmax(np.abs(residual[s])))
        errors[int(solvable[s])] = NonConvergence(
            "weight solver failed to balance moments (target may lie outside "
            "the convex hull of the IPD moments); worst imbalance at moment "
            f"coordinate {worst} with residual max-norm "
            f"{np.max(np.abs(residual[s])):.3g}",
            residual=residual[s],
        )
    for s in done[~valid].tolist():
        errors[int(solvable[s])] = EmptyWeights(
            "weights must be finite, nonnegative and not all zero")
    keep = np.flatnonzero(valid)  # the converged fits whose every arm has an ESS
    at = take_rows(done, keep)
    rows = solvable[at]
    return FitBlock(spec, len(block), rows, take_rows(alpha, at), take_rows(w, at),
                    take_rows(c, at), take_rows(targets, rows), take_rows(iterations, at),
                    take_rows(q, at),
                    {code: take_rows(v, keep) for code, v in zip(block.arms, ess)}, errors)


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


def _newton(c: np.ndarray, cfg: SolverConfig):
    """Damped Newton on Q(a) = mean exp(a'c_i) for each replicate of the
    (B, n, k) centred moments c, in lockstep: a replicate leaves the loop
    when it converges or fails and the rest carry on, each through the same
    arithmetic as a lone solve.  Returns alpha, weights, objective,
    iterations, convergence and the last balance residual per replicate."""
    n_rep, n, k = c.shape
    alpha = np.zeros((n_rep, k))
    w, q, _ = _evaluate(c, alpha)
    residual = mean_rows(c)
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
        grad = mean_rows(wc)
        res = grad * n / sw[:, None]
        residual[live] = res
        done = np.abs(res).max(axis=1) <= cfg.grad_tol
        if done.any():
            converged[live[done]] = True
            live, cl, wc, grad = live[~done], cl[~done], wc[~done], grad[~done]
            if not len(live):
                break
        hess = np.matmul(wc.transpose(0, 2, 1), cl) / n
        step, singular = solve_each(hess, grad)
        for b in np.flatnonzero(singular):
            warnings.warn("singular Hessian (collinear moments); using least-squares step",
                          stacklevel=4)
            step[b] = np.linalg.lstsq(hess[b], grad[b], rcond=None)[0]

        # backtracking: halve until the strictly convex objective decreases.
        # A replicate leaves the search in one place, after its evaluation: when
        # it accepts, or when its trial point rounds to alpha, as it then does at
        # every smaller scale (that point evaluates back to q0, so never accepts)
        accepted = np.zeros(len(live), dtype=bool)
        at = np.arange(len(live))  # positions in live still searching
        a0, st, q0, cs = alpha[live], step, q[live], cl
        scale, full = 1.0, None
        for _ in range(cfg.step_halvings_max):
            trial = a0 - scale * st
            w_new, q_new, ok = _evaluate(cs, trial)
            if full is None:  # scale 1: the full Newton step
                full = w_new, q_new, ok, trial
            better = ok & (q_new < q0)
            if better.any():
                took = live[at[better]]
                alpha[took], w[took], q[took] = trial[better], w_new[better], q_new[better]
                accepted[at[better]] = True
            stay = ~better & (trial != a0).any(axis=1)
            if not stay.all():
                at, a0, st, q0, cs = at[stay], a0[stay], st[stay], q0[stay], cs[stay]
                if not len(at):
                    break
            scale *= 0.5

        # objective flat to machine precision: take the full Newton step anyway
        # if it still tightens the balance residual; the search's first pass
        # evaluated that step for every live replicate
        if not accepted.all():
            w1, q1, ok1, trial1 = full
            sw1 = w1.sum(axis=1)
            flat = np.flatnonzero(~accepted & ok1 & ~(sw1 <= 0))
            res1 = mean_rows(w1[flat][:, :, None] * take_rows(cl, flat)) * n / sw1[flat, None]
            tighter = flat[np.abs(res1).max(axis=1) < np.abs(residual[live[flat]]).max(axis=1)]
            took = live[tighter]
            alpha[took], w[took], q[took] = trial1[tighter], w1[tighter], q1[tighter]
            accepted[tighter] = True
            live = live[accepted]
    return alpha, w, q, iterations, converged, residual


def balance_check(model: WeightModel, ipd: IpdStudy, target: np.ndarray):
    """Weighted moment-balance residual per coordinate, with its max-norm."""
    t = moment_matrix(ipd.x, model.spec)
    return _balance(model.weights, t - np.asarray(target, dtype=float))


def _balance(w: np.ndarray, c: np.ndarray):
    """The weighted mean of the centred moments c (n, k), with its max-norm."""
    residual = (w[:, None] * c).sum(axis=0) / w.sum()
    return residual, float(np.max(np.abs(residual)))


def effective_sample_size(weights) -> float:
    """(sum w)^2 / sum w^2: the importance-sampling effective sample size."""
    w = np.asarray(weights, dtype=float)[None]
    if w.shape[1] == 0:
        raise EmptyWeights("effective sample size of an empty weight vector")
    ess, valid = _ess(w)
    if not valid[0]:
        raise EmptyWeights("weights must be finite, nonnegative and not all zero")
    return float(ess[0])


def _ess(w: np.ndarray):
    """The effective sample size of each row of w (NaN where invalid) and
    whether the row is valid: every weight finite and nonnegative, and one
    positive.  A zero weight (an exponent that underflowed) is allowed.  The
    squared sum goes through Python's float pow, as a lone row's does.  A
    valid row whose squared sum overflows (the squared sum of nonnegative
    weights bounds their sum of squares) or whose sum of squares falls below
    the normal floats is summed again over w / w.max(), which is in range:
    the ESS does not depend on the weights' scale."""
    valid = np.isfinite(w).all(axis=1) & ~(w < 0).any(axis=1) & (w != 0).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # rows out of range are not read
        total, sq = w.sum(axis=1), (w**2).sum(axis=1)
        for b in np.flatnonzero(valid & ~((total * total < np.inf) & (sq >= np.finfo(float).tiny))):
            v = w[b] / w[b].max()
            total[b], sq[b] = v.sum(), (v**2).sum()
    return np.divide(squares(np.where(valid, total, 0.0)), sq, out=np.full(len(w), np.nan),
                     where=valid), valid


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
    model: the balance residual of the fit's own moments, its max-norm,
    the low-ESS arms and the largest weight's share."""
    residual, max_norm = _balance(model.weights, model.moments)
    overlap = overlap_diagnostics(model, ipd)
    return {"balance_residual": residual.tolist(), "balance_max_norm": max_norm,
            "low_ess_arms": overlap.low_ess_arms, "max_weight_share": overlap.max_weight_share}
