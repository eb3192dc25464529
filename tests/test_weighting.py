import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maic.data_model import MomentSpec, pooled_target_moments, stack_ipd
from maic.errors import DegenerateCovariate, EmptyWeights, MaicError, NonConvergence
from maic.simulation import ScenarioConfig, replicate_datasets
from maic.weighting import (
    SolverConfig,
    balance_check,
    effective_sample_size,
    moment_matrix,
    overlap_diagnostics,
    solve_weights,
    solve_weights_block,
)

from conftest import make_ipd


def reference_newton(c, cfg=SolverConfig()):
    """The lone damped-Newton loop as first written, which halves the step
    all step_halvings_max times even once the trial point equals alpha.
    Returns alpha, weights, iterations and how many trial points equalled
    alpha."""
    n, k = c.shape
    alpha = np.zeros(k)
    idle = 0

    def evaluate(a):
        expo = c @ a
        if expo.max() > 700.0:
            return None, None
        w = np.exp(expo)
        return w, w.mean()

    w, q = evaluate(alpha)
    residual = c.mean(axis=0)
    for iterations in range(1, cfg.max_iter + 1):
        grad = (w[:, None] * c).mean(axis=0)
        sw = w.sum()
        if not np.isfinite(sw) or sw <= 0:
            break
        residual = grad * n / sw
        if np.max(np.abs(residual)) <= cfg.grad_tol:
            return alpha, w, iterations, idle
        step = np.linalg.solve((w[:, None] * c).T @ c / n, grad)
        scale = 1.0
        accepted = False
        for _ in range(cfg.step_halvings_max):
            trial = alpha - scale * step
            idle += bool((trial == alpha).all())
            w_new, q_new = evaluate(trial)
            if w_new is not None and q_new < q:
                alpha, w, q = trial, w_new, q_new
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            trial = alpha - step
            w_new, q_new = evaluate(trial)
            if w_new is None or w_new.sum() <= 0:
                break
            res_new = (w_new[:, None] * c).mean(axis=0) * n / w_new.sum()
            if np.max(np.abs(res_new)) < np.max(np.abs(residual)):
                alpha, w, q = trial, w_new, q_new
            else:
                break
    raise NonConvergence("reference solve failed")


def grid_minimize_q(c, lo=-12.0, hi=12.0):
    """Independent 1-d oracle: grid minimization of the tilting objective
    Q(a) = mean exp(a * c_i), refined around the coarse-grid minimizer."""
    for spacing in (1e-2, 1e-4, 1e-6):
        grid = np.arange(lo, hi + spacing, spacing)
        q = np.exp(np.outer(grid, c)).mean(axis=1)
        best = grid[np.argmin(q)]
        lo, hi = best - 2 * spacing, best + 2 * spacing
    return best


class TestSolveWeights:
    def test_already_balanced_gives_unit_weights(self):
        ipd = make_ipd([1.0, 0.0], [1, 1], [[-1.0], [1.0]])
        model = solve_weights(ipd, np.array([0.0]))
        np.testing.assert_allclose(model.alpha1, [0.0], atol=1e-12)
        np.testing.assert_allclose(model.weights, 1.0, atol=1e-12)

    def test_closed_form_log3(self):
        # x in {0,0,1,1}, target 0.75: balance requires e^a = 3
        ipd = make_ipd([0.0, 0.0, 1.0, 1.0], [1, 1, 1, 1],
                       [[0.0], [0.0], [1.0], [1.0]])
        model = solve_weights(ipd, np.array([0.75]))
        assert model.alpha1[0] == pytest.approx(math.log(3.0), abs=1e-8)
        wmean = np.sum(model.weights * ipd.x[:, 0]) / model.weights.sum()
        assert wmean == pytest.approx(0.75, abs=1e-10)

    def test_target_outside_hull(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[0.0], [1.0]])
        with pytest.raises(NonConvergence) as exc:
            solve_weights(ipd, np.array([1.5]))
        assert exc.value.residual is not None

    def test_degenerate_covariate(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[2.0, 0.0], [2.0, 1.0]])
        with pytest.raises(DegenerateCovariate, match="0"):
            solve_weights(ipd, np.array([2.5, 0.5]))

    def test_constant_on_target_covariate_is_fine(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[2.0, 0.0], [2.0, 1.0]])
        with pytest.warns(UserWarning, match="singular Hessian"):
            model = solve_weights(ipd, np.array([2.0, 0.25]))
        assert model.converged

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_grid_oracle_1d(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=40)
        shift = rng.uniform(-0.5, 0.5)
        target = float(x.mean() + shift * x.std())
        ipd = make_ipd(rng.normal(size=40), np.ones(40, int), x[:, None])
        model = solve_weights(ipd, np.array([target]))
        oracle = grid_minimize_q(x - target)
        assert model.alpha1[0] == pytest.approx(oracle, abs=1e-4)

    def test_translation_equivariance(self, rng):
        x = rng.normal(size=60)
        ipd = make_ipd(rng.normal(size=60), np.ones(60, int), x[:, None])
        shifted = make_ipd(ipd.y, ipd.z, (x + 5.0)[:, None])
        m1 = solve_weights(ipd, np.array([0.3]))
        m2 = solve_weights(shifted, np.array([5.3]))
        np.testing.assert_allclose(m1.alpha1, m2.alpha1, atol=1e-8)
        np.testing.assert_allclose(m1.weights, m2.weights, rtol=1e-8)

    def test_second_moment_balance(self, rng):
        x = rng.normal(size=(200, 2))
        ipd = make_ipd(rng.normal(size=200), np.ones(200, int), x)
        target = np.array([0.1, -0.1, 1.2, 0.9])
        model = solve_weights(ipd, target, MomentSpec.FIRST_AND_SECOND)
        _, max_norm = balance_check(model, ipd, target)
        assert max_norm <= 1e-10
        t = moment_matrix(ipd.x, MomentSpec.FIRST_AND_SECOND)
        wmean = model.weights @ t / model.weights.sum()
        np.testing.assert_allclose(wmean, target, atol=1e-9)

    def test_objective_is_convex_along_lines(self, rng):
        x = rng.normal(size=(50, 3))
        ipd = make_ipd(rng.normal(size=50), np.ones(50, int), x)
        target = x.mean(axis=0) + 0.2
        model = solve_weights(ipd, target)
        c = x - target

        def q(a):
            return np.exp(c @ a).mean()

        h = 1e-3
        for _ in range(10):
            d = rng.normal(size=3)
            mid = q(model.alpha1)
            assert q(model.alpha1 - h * d) + q(model.alpha1 + h * d) >= 2 * mid - 1e-12

    def test_matches_scipy_minimizer(self, rng):
        scipy_opt = pytest.importorskip("scipy.optimize")
        x = rng.normal(size=(120, 3))
        ipd = make_ipd(rng.normal(size=120), np.ones(120, int), x)
        target = x.mean(axis=0) + np.array([0.2, -0.1, 0.15])
        model = solve_weights(ipd, target)
        c = x - target
        res = scipy_opt.minimize(
            lambda a: np.exp(c @ a).mean(), np.zeros(3), method="BFGS",
            jac=lambda a: (np.exp(c @ a)[:, None] * c).mean(axis=0),
            options={"gtol": 1e-12},
        )
        np.testing.assert_allclose(model.alpha1, res.x, atol=1e-6)


class TestBalanceCheck:
    def test_converged_models_balance_to_tolerance(self, rng):
        cfg = SolverConfig()
        for _ in range(20):
            x = rng.normal(size=(80, 2))
            ipd = make_ipd(rng.normal(size=80), np.ones(80, int), x)
            target = x.mean(axis=0) + rng.uniform(-0.3, 0.3, size=2)
            model = solve_weights(ipd, target, cfg=cfg)
            _, max_norm = balance_check(model, ipd, target)
            assert max_norm <= cfg.grad_tol

    def test_zero_alpha_on_centered_data(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[-1.0], [1.0]])
        model = solve_weights(ipd, np.array([0.0]))
        residual, max_norm = balance_check(model, ipd, np.array([0.0]))
        np.testing.assert_array_equal(residual, [0.0])
        assert max_norm == 0.0

    def test_hand_built_weights(self):
        # weights {1, 3} on x {0, 1} put the weighted mean exactly at 0.75
        ipd = make_ipd([0.0, 0.0, 1.0, 1.0], [1, 1, 1, 1],
                       [[0.0], [0.0], [1.0], [1.0]])
        model = solve_weights(ipd, np.array([0.75]))
        np.testing.assert_allclose(model.weights / model.weights[0],
                                   [1.0, 1.0, 3.0, 3.0], rtol=1e-8)


class TestEffectiveSampleSize:
    def test_equal_weights(self):
        assert effective_sample_size(np.full(10, 0.7)) == pytest.approx(10.0)

    def test_arithmetic(self):
        assert effective_sample_size([1.0, 1.0, 2.0]) == pytest.approx(16.0 / 6.0)

    def test_single_dominant_weight(self):
        ess = effective_sample_size([1.0, 1e-6, 1e-6])
        assert ess == pytest.approx(1.000004, abs=1e-6)

    def test_at_most_n_with_equality_iff_equal(self, rng):
        w = rng.uniform(0.1, 2.0, size=50)
        assert effective_sample_size(w) < 50.0
        assert effective_sample_size(np.full(50, w[0])) == pytest.approx(50.0)

    def test_empty_and_nonpositive(self):
        # a zero weight (an underflowed exp) is allowed; negative weights and
        # an empty or all-zero arm are not
        assert effective_sample_size([1.0, 0.0]) == 1.0
        for bad in ([], [1.0, -1.0], [0.0, 0.0]):
            with pytest.raises(EmptyWeights):
                effective_sample_size(bad)

    def test_weight_underflowing_to_zero_after_a_converged_solve(self, rng):
        # the record at -800 gets weight exp(-800 a), which underflows to 0.0
        x = np.concatenate([rng.normal(size=200), [-800.0]])[:, None]
        ipd = make_ipd(rng.normal(size=201), np.ones(201, int), x)
        model = solve_weights(ipd, np.array([1.0]))
        assert np.count_nonzero(model.weights == 0.0) == 1
        assert balance_check(model, ipd, np.array([1.0]))[1] <= 1e-10
        assert model.ess[1] == effective_sample_size(model.weights)


class TestOverlapDiagnostics:
    def test_equal_weights_no_flags(self, rng):
        x = rng.normal(size=(100, 5))
        ipd = make_ipd(rng.normal(size=100), np.ones(100, int), x)
        model = solve_weights(ipd, x.mean(axis=0))
        report = overlap_diagnostics(model, ipd)
        assert report.low_ess_arms == []
        assert report.max_weight_share == pytest.approx(0.01)

    def test_low_ess_flag(self, rng):
        # one record soaks up nearly all the weight: ESS ~ 1 <= p = 5
        from maic.weighting import WeightModel

        x = rng.normal(size=(20, 5))
        ipd = make_ipd(rng.normal(size=20), np.ones(20, int), x)
        w = rng.uniform(1e-7, 1e-6, size=20)
        w[0] = 1.0
        model = WeightModel(
            alpha1=np.zeros(5), centering=np.zeros(5), weights=w,
            spec=MomentSpec.FIRST, converged=True, iterations=1, objective=1.0,
            ess={1: effective_sample_size(w)},
        )
        report = overlap_diagnostics(model, ipd)
        assert report.low_ess_arms == [1]
        assert report.max_weight_share > 0.95
        assert report.largest_weights == [float(v) for v in sorted(w, reverse=True)[:5]]


class TestSolverBlocks:
    def test_flat_objective_solves_match_the_reference_bit_for_bit(self):
        # at 100 patients per arm most solves end on a flat objective, where
        # the trial point rounds to alpha before the halvings run out
        cfg = ScenarioConfig(n_per_arm=100, replicates=12, seed=4)
        idle = 0
        for i in range(cfg.replicates):
            ipd, agd, _ = replicate_datasets(cfg, i)
            target = pooled_target_moments(agd, MomentSpec.FIRST)
            alpha, w, iterations, flat = reference_newton(ipd.x - target)
            model = solve_weights(ipd, target)
            assert model.alpha1.tobytes() == alpha.tobytes()
            assert model.weights.tobytes() == w.tobytes()
            assert model.iterations == iterations
            idle += flat
        assert idle > 0

    def test_block_outcomes_equal_lone_solves(self):
        rng = np.random.default_rng(12)
        z = np.repeat([1, 0], 20)
        problems = []
        for kind in ("plain", "collinear", "outside", "degenerate", "plain"):
            x = rng.normal(size=(40, 2))
            target = x.mean(axis=0) + 0.2
            if kind == "collinear":
                x[:, 1] = 0.5
                target[1] = 0.5
            elif kind == "outside":
                target[0] = x[:, 0].max() + 1.0
            elif kind == "degenerate":
                x[:, 1] = 2.0
            problems.append((make_ipd(rng.normal(size=40), z, x), target))

        def lone(ipd, target):
            try:
                return solve_weights(ipd, target)
            except MaicError as e:
                return e

        with pytest.warns(UserWarning, match="singular Hessian"):
            block = solve_weights_block(stack_ipd([p[0] for p in problems]),
                                        np.stack([p[1] for p in problems]),
                                        MomentSpec.FIRST, SolverConfig())
        with pytest.warns(UserWarning, match="singular Hessian"):
            alone = [lone(*p) for p in problems]
        for got, want in zip(block, alone):
            assert type(got) is type(want)
            if isinstance(want, MaicError):
                assert str(got) == str(want)
            else:
                assert got.alpha1.tobytes() == want.alpha1.tobytes()
                assert got.weights.tobytes() == want.weights.tobytes()
                assert (got.iterations, got.objective, got.ess) == (
                    want.iterations, want.objective, want.ess)
        assert [type(o).__name__ for o in block] == [
            "WeightModel", "WeightModel", "NonConvergence", "DegenerateCovariate", "WeightModel"]


KINDS = ("plain", "outside", "degenerate", "on-target")


@st.composite
def solver_problems(draw, shape=None, kinds=KINDS):
    """An IPD study of n rows (both arms) and p covariates with a target for
    `spec`, (n, p, spec) drawn unless `shape` gives them.  The target is a
    convex combination of the rows' moments with positive weights (an
    interior point) for "plain", moved past the largest first-moment value
    for "outside", and the first covariate is constant off its target for
    "degenerate" and on it for "on-target"."""
    n, p, spec = shape or (draw(st.integers(4, 40)), draw(st.integers(1, 3)),
                           draw(st.sampled_from(list(MomentSpec))))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0, size=p)
    if kind in ("degenerate", "on-target"):
        x[:, 0] = 1.5
    t = moment_matrix(x, spec)
    v = rng.uniform(0.5, 1.5, size=n)
    target = v @ t / v.sum()
    if kind == "outside":
        target[0] = x[:, 0].max() + rng.uniform(0.01, 2.0)
    elif kind == "degenerate":
        target[0] += rng.uniform(0.1, 1.0)
    z = np.arange(n) % 2
    return make_ipd(rng.normal(size=n), z, x), target, spec


def solve_quietly(ipd, target, spec):
    """solve_weights, or the MaicError it raised; a constant covariate on
    its target makes the Hessian singular, which is warned about."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "singular Hessian", UserWarning)
        try:
            return solve_weights(ipd, target, spec)
        except MaicError as e:
            return e


class TestSolverProperties:
    @settings(max_examples=60, deadline=None)
    @given(problem=solver_problems())
    def test_every_solve_balances_or_raises_a_named_error(self, problem):
        ipd, target, spec = problem
        out = solve_quietly(ipd, target, spec)
        if isinstance(out, MaicError):
            assert isinstance(out, (NonConvergence, DegenerateCovariate)), repr(out)
        else:
            assert balance_check(out, ipd, target)[1] <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(problem=solver_problems(kinds=("plain",)), data=st.data())
    def test_first_moment_weights_are_affine_and_order_invariant(self, problem, data):
        ipd, target, _ = problem
        target = target[:ipd.p]
        base = solve_weights(ipd, target).weights
        shift = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=ipd.p,
                                            max_size=ipd.p)))
        scale = data.draw(st.floats(0.1, 10))
        order = np.array(data.draw(st.permutations(range(ipd.n))))
        for x, t, rows in ((ipd.x + shift, target + shift, slice(None)),
                           (ipd.x * scale, target * scale, slice(None)),
                           (ipd.x[order], target, order)):
            moved = make_ipd(ipd.y[rows], ipd.z[rows], x)
            np.testing.assert_allclose(solve_weights(moved, t).weights, base[rows],
                                       rtol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mixed_blocks_equal_lone_solves(self, data):
        # the studies of a block share n, p and the moment spec
        first = data.draw(solver_problems())
        shape = (first[0].n, first[0].p, first[2])
        more = data.draw(st.lists(solver_problems(shape), max_size=5))
        problems = [first, *more]
        spec = first[2]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "singular Hessian", UserWarning)
            block = solve_weights_block(stack_ipd([q[0] for q in problems]),
                                        np.stack([q[1] for q in problems]), spec,
                                        SolverConfig())
        for got, (ipd, target, _) in zip(block, problems):
            assert pickle.dumps(got) == pickle.dumps(solve_quietly(ipd, target, spec))
