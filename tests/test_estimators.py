import math
import re
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from maic.data_model import IpdBlock, MomentSpec, OutcomeKind, stack_agd, stack_ipd
from maic.errors import (
    BoundaryProportion,
    DimensionMismatch,
    MaicError,
    NoComparatorArm,
    SeparationError,
    SingularDesign,
)
from maic import estimators
from maic.estimators import (
    Method,
    Scale,
    _weighted_means,
    bucher,
    maic_acb,
    maic_nab,
    naive,
    stc,
    stc_block,
)
from maic.inference import negative_control_test
from maic.weighting import WeightModel, solve_weights

from conftest import make_agd, make_arm, make_ipd


def logit(u):
    return math.log(u / (1.0 - u))


def unit_model(ipd):
    return WeightModel(
        alpha1=np.zeros(ipd.p), centering=np.zeros(ipd.p), moments=ipd.x,
        weights=np.ones(ipd.n), spec=MomentSpec.FIRST, converged=True,
        iterations=0, objective=1.0, ess={},
    )


class TestScale:
    def test_identity_is_pass_through(self):
        assert Scale.IDENTITY.g(0.3) == 0.3
        assert Scale.IDENTITY.g_prime(0.3) == 1.0

    def test_logit_round_trip(self):
        for u in (0.01, 0.25, 0.5, 0.99):
            assert 1.0 / (1.0 + math.exp(-Scale.LOGIT.g(u))) == pytest.approx(u)

    def test_logit_derivative(self):
        u, h = 0.3, 1e-7
        numeric = (Scale.LOGIT.g(u + h) - Scale.LOGIT.g(u - h)) / (2 * h)
        assert Scale.LOGIT.g_prime(u) == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_boundary_proportion(self, u):
        with pytest.raises(BoundaryProportion):
            Scale.LOGIT.g(u)

    @settings(max_examples=100, deadline=None)
    @given(u=st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=1, max_size=30))
    def test_an_array_of_means_maps_each_as_a_lone_mean(self, u):
        # math.log per element: NumPy's SIMD log rounds some inputs differently
        for scale in Scale:
            for f in (scale.g, scale.g_prime):
                got = f(np.array(u))
                assert got.tobytes() == np.array([float(f(v)) for v in u]).tobytes()

    def test_an_array_names_its_first_mean_outside_the_interval(self):
        with pytest.raises(BoundaryProportion, match=r"got 1\.0$"):
            Scale.LOGIT.g(np.array([0.5, 1.0, 0.0]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unit_weight_mean_is_the_plain_mean(data):
    # bucher and naive take their arm means through the weighted-mean
    # formula with unit weights; the bits must be those of the plain mean
    b = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(1, n))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    y = np.array(data.draw(st.lists(finite, min_size=b * n, max_size=b * n))).reshape(b, n)
    z = np.array([data.draw(st.permutations([1] * m + [0] * (n - m))) for _ in range(b)])
    block = IpdBlock(y, z, np.zeros((b, n, 1)), OutcomeKind.CONTINUOUS)
    for code in (1, 0) if m < n else (1,):
        got = _weighted_means(block, np.ones((b, n)), code)
        want = y[z == code].reshape(b, -1).mean(axis=1)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_each_contrast_keeps_its_sum_order(data):
    # one table gives every contrast its arm pairs; the sums keep their
    # orders bit for bit: bucher (g1 - g0) - (g2 - g0a), maic-acb
    # (g1 - g2) - (g0 - g0a), and the null check maic-nab's contrast on the
    # comparator arms
    n1, n0 = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20))
    unit = st.floats(0.01, 0.99)
    y = data.draw(st.lists(unit, min_size=n1 + n0, max_size=n1 + n0))
    z = np.array([1] * n1 + [0] * n0)
    ipd, flipped = (make_ipd(y, codes, np.zeros((n1 + n0, 1))) for codes in (z, 1 - z))
    model = unit_model(ipd)
    object.__setattr__(model, "weights", np.array(data.draw(
        st.lists(st.floats(0.01, 100.0), min_size=n1 + n0, max_size=n1 + n0))))
    active, comparator = (make_arm(y_mean=data.draw(unit)) for _ in range(2))
    agd, swapped = make_agd(active, comparator), make_agd(comparator, active)
    for scale in Scale:
        g = scale.g
        acb, b = maic_acb(ipd, agd, model, scale), bucher(ipd, agd, scale)
        (m0, m0a), (b0, b0a) = acb.anchor_terms, b.anchor_terms
        assert float(acb.delta).hex() == float(
            (g(acb.mu1) - g(acb.mu2)) - (g(m0) - g(m0a))).hex()
        assert float(b.delta).hex() == float((g(b.mu1) - g(b0)) - (g(b.mu2) - g(b0a))).hex()
        delta0 = negative_control_test(ipd, agd, model, scale).delta0
        assert float(delta0).hex() == float(maic_nab(flipped, swapped, model, scale).delta).hex()
        assert float(delta0).hex() == float(g(m0) - g(m0a)).hex()


@settings(max_examples=50, deadline=None)
@given(b=st.integers(1, 50), k=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_a_stacked_dot_equals_each_lone_dot(b, k, seed):
    # stc predicts row @ gamma for a block with one stacked matmul
    rng = np.random.default_rng(seed)
    rows, gamma = (rng.normal(size=(b, k)) * 10.0 ** rng.integers(-3, 4, size=(b, 1))
                   for _ in range(2))
    got = np.matmul(rows[:, None, :], gamma[:, :, None])[:, 0, 0]
    assert got.tobytes() == np.array([float(r @ g) for r, g in zip(rows, gamma)]).tobytes()


class TestMaicNab:
    def test_equal_weights_difference_of_means(self):
        ipd = make_ipd([1.0, 1.0, 1.0, 0.0, 0.0], [1] * 5, np.zeros((5, 1)))
        agd = make_agd(active=make_arm(y_mean=0.45))
        est = maic_nab(ipd, agd, unit_model(ipd))
        assert est.delta == pytest.approx(0.6 - 0.45)
        assert est.method is Method.MAIC_NAB

    def test_weighted_mean_arithmetic(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[0.0], [1.0]])
        model = unit_model(ipd)
        object.__setattr__(model, "weights", np.array([1.0, 3.0]))
        agd = make_agd(active=make_arm(y_mean=0.5))
        est = maic_nab(ipd, agd, model)
        assert est.mu1 == pytest.approx(0.75)
        assert est.delta == pytest.approx(0.25)

    def test_logit_link_arithmetic(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[0.0], [1.0]])
        model = unit_model(ipd)
        object.__setattr__(model, "weights", np.array([1.0, 3.0]))
        agd = make_agd(active=make_arm(y_mean=0.5))
        est = maic_nab(ipd, agd, model, Scale.LOGIT)
        assert est.delta == pytest.approx(math.log(3.0))

    def test_weight_scale_invariance(self, rng):
        x = rng.normal(size=(50, 2))
        y = rng.random(50)
        z = np.concatenate([np.ones(30, int), np.zeros(20, int)])
        ipd = make_ipd(y, z, x)
        agd = make_agd(active=make_arm(y_mean=0.5, x_mean=[0.1, 0.1]),
                       comparator=make_arm(y_mean=0.4, x_mean=[0.1, 0.1]),
                       names=("x1", "x2"))
        model = solve_weights(ipd, np.array([0.1, 0.1]))
        scaled = WeightModel(
            alpha1=model.alpha1, centering=model.centering, moments=model.moments,
            weights=model.weights * 17.3, spec=model.spec, converged=True,
            iterations=model.iterations, objective=model.objective, ess=model.ess,
        )
        for fn in (maic_nab, maic_acb):
            a = fn(ipd, agd, model).delta
            b = fn(ipd, agd, scaled).delta
            assert b == pytest.approx(a, rel=1e-12)


class TestMaicAcb:
    def _pair(self):
        ipd = make_ipd([1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                       [1, 1, 1, 1, 1, 0, 0, 0, 0, 0], np.zeros((10, 1)))
        agd = make_agd(active=make_arm(y_mean=0.55),
                       comparator=make_arm(y_mean=0.35))
        return ipd, agd

    def test_identity_arithmetic(self):
        ipd, agd = self._pair()
        est = maic_acb(ipd, agd, unit_model(ipd))
        # (0.6 - 0.55) - (0.4 - 0.35) = 0
        assert est.delta == pytest.approx(0.0, abs=1e-12)
        assert est.anchor_terms == pytest.approx((0.4, 0.35))

    def test_logit_arithmetic(self):
        ipd, agd = self._pair()
        est = maic_acb(ipd, agd, unit_model(ipd), Scale.LOGIT)
        expected = (logit(0.6) - logit(0.55)) - (logit(0.4) - logit(0.35))
        assert est.delta == pytest.approx(expected)
        assert est.delta == pytest.approx(-0.0088, abs=5e-4)

    def test_zero_anchor_collapses_to_nab(self, rng):
        y = rng.random(40)
        z = np.concatenate([np.ones(20, int), np.zeros(20, int)])
        ipd = make_ipd(y, z, rng.normal(size=(40, 1)))
        model = unit_model(ipd)
        mu0 = float(y[z == 0].mean())
        agd = make_agd(active=make_arm(y_mean=0.5),
                       comparator=make_arm(y_mean=mu0))
        assert maic_acb(ipd, agd, model).delta == pytest.approx(
            maic_nab(ipd, agd, model).delta, abs=1e-14
        )

    def test_requires_comparators(self):
        ipd, agd = self._pair()
        with pytest.raises(NoComparatorArm):
            maic_acb(ipd, make_agd(active=make_arm(y_mean=0.55)), unit_model(ipd))
        single = make_ipd([1.0, 0.0], [1, 1], [[0.0], [0.0]])
        with pytest.raises(NoComparatorArm):
            maic_acb(single, agd, unit_model(single))


class TestBucher:
    def test_arithmetic(self):
        ipd = make_ipd([1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                       [1, 1, 1, 1, 1, 0, 0, 0, 0, 0], np.zeros((10, 1)))
        agd = make_agd(active=make_arm(y_mean=0.55),
                       comparator=make_arm(y_mean=0.35))
        assert bucher(ipd, agd).delta == pytest.approx(0.0, abs=1e-12)

    def test_anchoring_removes_baseline_shift(self):
        ipd = make_ipd([1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                       [1, 1, 1, 1, 0, 0, 0, 0], np.zeros((8, 1)))
        # both trials show a 0.5-point effect from different baselines
        agd = make_agd(active=make_arm(y_mean=0.9),
                       comparator=make_arm(y_mean=0.4))
        assert bucher(ipd, agd).delta == pytest.approx(0.0, abs=1e-12)

    def test_negative_contrast(self):
        ipd = make_ipd([1.0, 0.0, 1.0, 0.0], [1, 1, 0, 0], np.zeros((4, 1)))
        agd = make_agd(active=make_arm(y_mean=0.3),
                       comparator=make_arm(y_mean=0.2))
        assert bucher(ipd, agd).delta == pytest.approx(-0.1)


class TestNaive:
    def test_arithmetic(self):
        ipd = make_ipd([1.0, 1.0, 1.0, 0.0, 0.0], [1] * 5, np.zeros((5, 1)))
        agd = make_agd(active=make_arm(y_mean=0.45))
        assert naive(ipd, agd).delta == pytest.approx(0.15)

    def test_equal_means_zero_on_both_scales(self):
        ipd = make_ipd([1.0, 0.0], [1, 1], np.zeros((2, 1)))
        agd = make_agd(active=make_arm(y_mean=0.5))
        for scale in Scale:
            assert naive(ipd, agd, scale).delta == pytest.approx(0.0, abs=1e-14)

    def test_null_weights_collapse(self, rng):
        """alpha1 = 0 makes the weighted methods equal their unweighted twins."""
        y = (rng.random(60) < 0.5).astype(float)
        z = np.concatenate([np.ones(30, int), np.zeros(30, int)])
        x = rng.normal(size=(60, 2))
        ipd = make_ipd(y, z, x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(y_mean=0.5, x_mean=[0.0, 0.0]),
                       comparator=make_arm(y_mean=0.4, x_mean=[0.0, 0.0]),
                       names=("x1", "x2"))
        model = unit_model(ipd)
        assert maic_nab(ipd, agd, model).delta == naive(ipd, agd).delta
        assert maic_acb(ipd, agd, model).delta == bucher(ipd, agd).delta


class TestStc:
    def test_null_logistic_model_predicts_half(self):
        # y split 50/50 with no covariate signal: fitted curve is flat at .5
        ipd = make_ipd([0.0, 1.0, 0.0, 1.0], [1] * 4,
                       [[-1.0], [-1.0], [1.0], [1.0]], outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(y_mean=0.4, x_mean=[5.0]))
        with pytest.warns(UserWarning, match="extrapolat"):
            est = stc(ipd, agd)
        assert est.mu1 == pytest.approx(0.5, abs=1e-8)

    def test_linear_link_exact_interpolation(self):
        # a continuous outcome gets the linear model
        ipd = make_ipd([0.0, 1.0], [1, 1], [[0.0], [1.0]])
        agd = make_agd(active=make_arm(y_mean=0.5, x_mean=[0.75]))
        est = stc(ipd, agd)
        assert est.mu1 == pytest.approx(0.75, abs=1e-10)
        assert est.delta == pytest.approx(0.25, abs=1e-10)

    def test_pooled_means_across_arms(self):
        ipd = make_ipd([0.0, 1.0], [1, 1], [[0.0], [1.0]])
        agd = make_agd(active=make_arm(n=10, y_mean=0.5, x_mean=[0.5]),
                       comparator=make_arm(n=30, y_mean=0.4, x_mean=[0.9]))
        est = stc(ipd, agd)
        assert est.mu1 == pytest.approx(0.8, abs=1e-10)  # pooled mean 0.8

    def test_differs_from_weighting_under_nonlinearity(self, rng):
        # strong X-Y association and a shifted target: averaging then
        # transforming is not transforming then averaging
        n = 400
        x = rng.normal(size=(n, 1))
        prob = 1.0 / (1.0 + np.exp(-(2.5 * x[:, 0] - 0.5)))
        y = (rng.random(n) < prob).astype(float)
        ipd = make_ipd(y, np.ones(n, int), x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(y_mean=0.5, x_mean=[0.8]))
        model = solve_weights(ipd, np.array([0.8]))
        a = maic_nab(ipd, agd, model).delta
        b = stc(ipd, agd).delta
        assert abs(a - b) > 1e-3

    def test_rank_deficient_linear_design(self):
        ipd = make_ipd([0.2, 0.7, 1.1], [1, 1, 1], [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        agd = make_agd(active=make_arm(x_mean=[2.0, 4.0]), names=("x1", "x2"))
        with pytest.raises(SingularDesign):
            stc(ipd, agd)

    def test_logistic_model_matches_likelihood_oracle(self, rng):
        # a binary outcome gets the logistic model: its maximum-likelihood fit,
        # evaluated at the pooled AGD means
        n = 400
        x = rng.normal(size=(n, 2))
        truth = np.array([-0.4, 0.9, -0.5])
        design = np.column_stack([np.ones(n), x])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-design @ truth))).astype(float)
        ipd = make_ipd(y, np.ones(n, int), x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(n=80, y_mean=0.45, x_mean=[0.3, -0.2]),
                       comparator=make_arm(n=120, y_mean=0.4, x_mean=[0.1, 0.4]),
                       names=("x1", "x2"))

        def nll(b):
            eta = design @ b
            return np.sum(np.logaddexp(0.0, eta) - y * eta)

        def grad(b):
            return design.T @ (1.0 / (1.0 + np.exp(-design @ b)) - y)

        fit = scipy.optimize.minimize(nll, np.zeros(3), jac=grad, method="BFGS",
                                      options={"gtol": 1e-10})
        row = np.concatenate([[1.0], (80 * np.array([0.3, -0.2]) + 120 * np.array([0.1, 0.4])) / 200])
        mu1 = 1.0 / (1.0 + math.exp(-row @ fit.x))
        est = stc(ipd, agd, Scale.LOGIT)
        assert est.mu1 == pytest.approx(mu1, rel=1e-8)
        assert est.delta == pytest.approx(logit(mu1) - logit(0.45), rel=1e-7)

    def test_block_outcomes_equal_lone_fits(self, rng):
        # one lockstep logistic fit over a singular design, a separating one
        # and two that converge: each study ends as it does alone
        n = 40
        studies = []
        for kind in ("plain", "singular", "separating", "plain"):
            x = rng.normal(size=(n, 2))
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
            if kind == "singular":
                x[:, 1] = 0.0
            elif kind == "separating":
                y = (x[:, 0] > 0).astype(float)
            studies.append(make_ipd(y, np.ones(n, int), x, outcome_kind=OutcomeKind.BINARY))
        agd = make_agd(active=make_arm(y_mean=0.45, x_mean=[0.1, 0.0]), names=("x1", "x2"))

        def lone(ipd):
            try:
                return stc(ipd, agd, Scale.LOGIT)
            except MaicError as e:
                return e

        block = stc_block(stack_ipd(studies), stack_agd([agd] * len(studies)), Scale.LOGIT)
        for got, want in zip(block, map(lone, studies)):
            assert type(got) is type(want)
            if isinstance(want, MaicError):
                assert str(got) == str(want)
            else:
                assert got.to_dict() == want.to_dict()
        assert [type(o).__name__ for o in block] == [
            "Estimate", "SingularDesign", "SeparationError", "Estimate"]

    @pytest.mark.parametrize("kind", list(OutcomeKind))
    def test_no_covariates_is_named(self, kind):
        ipd = make_ipd([1.0, 0.0], [1, 1], np.empty((2, 0)), outcome_kind=kind)
        agd = make_agd(active=make_arm(x_mean=[]), names=())
        with pytest.raises(DimensionMismatch, match="stc needs at least one covariate"):
            stc(ipd, agd)

    def test_a_fit_still_moving_at_the_iteration_cap_is_named(self, monkeypatch, rng):
        x = rng.normal(size=(40, 2))
        y = (rng.random(40) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
        ipd = make_ipd(y, np.ones(40, int), x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(y_mean=0.45, x_mean=[0.1, 0.0]), names=("x1", "x2"))
        stc(ipd, agd, Scale.LOGIT)
        monkeypatch.setattr(estimators, "IRLS_MAX_ITER", 1)
        with pytest.raises(SeparationError, match="^logistic fit failed to converge$"):
            stc(ipd, agd, Scale.LOGIT)

    def test_separation_raises(self):
        x = np.concatenate([-np.ones(10), np.ones(10)])[:, None]
        y = (x[:, 0] > 0).astype(float)
        ipd = make_ipd(y, np.ones(20, int), x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(y_mean=0.5, x_mean=[0.0]))
        with pytest.raises(SeparationError):
            stc(ipd, agd)

    def test_a_covariate_with_a_large_mean_fits_as_its_centred_copy(self):
        # age and a raw calendar year: the intercept of the sound fit on the
        # raw year lies far from zero, which is no sign of separation
        rng = np.random.default_rng(5)
        age, year = rng.normal(60.0, 8.0, 200), 2015.0 + rng.integers(-3, 4, 200)
        v = 0.04 * (age - 60.0) + 0.15 * (year - 2015.0)
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-v))).astype(float)
        offset = np.array([60.0, 2015.0])
        deltas = []
        for shift in (np.zeros(2), offset):
            ipd = make_ipd(y, np.ones(200, int), np.column_stack([age, year]) - shift,
                           outcome_kind=OutcomeKind.BINARY)
            agd = make_agd(active=make_arm(y_mean=0.45, x_mean=np.array([62.0, 2016.0]) - shift),
                           names=("age", "year"))
            deltas.append(stc(ipd, agd, Scale.LOGIT).delta)
        assert deltas[0] == pytest.approx(deltas[1], rel=1e-9)


# near-collinear, separated IPD on which an IRLS step drives the linear
# predictor past exp's range: x2 is c * x1 up to about 1e-6 and y splits on x1
OVERFLOWING_FITS = {
    SingularDesign: (
        [[1106.4136435593755, -406.66429416072214, -0.03380745197056406],
         [1107.4014188434157, -407.02736391167775, -0.010758533612009819],
         [-880.8763209876428, 323.7676430433263, -0.02639238544117709],
         [-542.870310961526, 199.532929611241, -0.013173348591014341],
         [117.91170856503255, -43.338670496840805, 0.014098698295294091],
         [1113.947295172944, -409.43328266718777, -0.0020750234692704316],
         [553.9015139408144, -203.5874784442508, 0.033417675861574826],
         [359.83740259062597, -132.2588771404396, 0.0045509126153503695]],
        [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
    SeparationError: (
        [[-0.1350106925783254, -0.3203758444536331, 2.015789842010275e-05],
         [-1.6694475668146644, -3.961543107210832, 0.0001914346798210389],
         [-1.0401490333276129, -2.4682387831821093, 0.0001468946360927459],
         [-1.8733519201504796, -4.445401300977711, -7.467101764635209e-05],
         [-1.833569783752378, -4.350999625579668, 9.966926916323365e-05],
         [-0.5052537580550436, -1.1989502263072058, -0.00012118417706936341],
         [1.1762031175990104, 2.791090565702327, -0.00022427114117469122],
         [2.388888997156954, 5.668753499541405, -6.0134048363810045e-05]],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]),
}


def stc_without_warnings(x, y):
    """stc on the logit scale of a binary IPD active arm (x, y) against AGD
    means at its column medians, inside its support, with every warning an
    error."""
    x = np.asarray(x, float)
    ipd = make_ipd(y, np.ones(len(y), int), x, outcome_kind=OutcomeKind.BINARY)
    agd = make_agd(active=make_arm(y_mean=0.45, x_mean=np.median(x, axis=0)),
                   names=("x1", "x2", "x3"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return stc(ipd, agd, Scale.LOGIT)


@pytest.mark.parametrize("error, message", [
    (SingularDesign, "singular design in logistic fit"),
    (SeparationError, "logistic fit diverged (complete separation suspected)"),
])
def test_a_predictor_beyond_exps_range_ends_in_its_error_without_a_warning(error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        stc_without_warnings(*OVERFLOWING_FITS[error])


@st.composite
def steep_near_collinear(draw):
    """A binary IPD active arm whose x2 is c * x1 up to noise 1e-10 to 1e-7 of
    x1's scale, with x3 at any scale and y from a steep predictor in x1: most
    are separated, and a few in a hundred take an IRLS step far past exp's
    range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 30))
    scale = 10.0 ** draw(st.floats(-4, 3))
    x = rng.normal(size=(n, 3)) * scale * np.array([1.0, 1.0, 10.0 ** draw(st.floats(-6, 2))])
    x[:, 1] = (draw(st.floats(-2, 2)) * x[:, 0]
               + 10.0 ** draw(st.floats(-10, -7)) * scale * rng.normal(size=n))
    eta = 10.0 ** draw(st.floats(0, 1)) * x[:, 0] / scale + rng.normal()
    return x, (eta > rng.logistic(size=n)).astype(float)


@settings(max_examples=300, deadline=None)
@given(steep_near_collinear())
def test_a_steep_near_collinear_fit_ends_in_an_estimate_or_its_error_without_a_warning(xy):
    try:
        assert isinstance(stc_without_warnings(*xy), estimators.Estimate)
    except MaicError:
        pass
