"""Acceptance suite: one test per release criterion.

The Monte Carlo studies (logit scale, binary outcome, p=5, R=2000) are
computed once per session and shared across criteria.  Reported numbers
are checked within max(stated tolerance, 3 x Monte Carlo SE).
"""

import math

import numpy as np
import pytest

from maic.data_model import MomentSpec, pooled_target_moments
from maic.estimators import Scale, bucher, maic_acb, maic_nab, naive
from maic.simulation import Confounding, ScenarioConfig, replicate_datasets, run_study
from maic.variance import influence_components, sigma2_cs, sigma2_po
from maic.weighting import WeightModel, balance_check, effective_sample_size, solve_weights

from conftest import make_ipd
from test_variance import full_influence_arrays, lemma_variance_terms, random_problem
from test_weighting import grid_minimize_q

SEED = 20260824
R = 2000


def study(confounding, n_per_arm, replicates=R):
    cfg = ScenarioConfig(
        p=5, n_per_arm=n_per_arm, confounding=confounding, scale=Scale.LOGIT,
        replicates=replicates, seed=SEED,
    )
    return run_study(cfg, threads=1)


@pytest.fixture(scope="module")
def moderate500():
    return study(Confounding.MODERATE, 500)


@pytest.fixture(scope="module")
def severe500():
    return study(Confounding.SEVERE, 500)


@pytest.fixture(scope="module")
def moderate250():
    return study(Confounding.MODERATE, 250)


@pytest.fixture(scope="module")
def moderate100():
    return study(Confounding.MODERATE, 100)


def check_bias(report, method, expected, tol):
    got = report.percent_bias[method]
    mc_se = report.bias_mc_se[method]
    margin = max(tol, 3.0 * mc_se)
    print(f"  {method}: bias {got:.2f}% vs {expected}% (margin {margin:.2f})")
    assert got == pytest.approx(expected, abs=margin)


def test_c01_bias_reproduction_logit_n500(moderate500, severe500):
    check_bias(moderate500, "maic-nab", 1.0, 3.0)
    check_bias(moderate500, "maic-acb", 0.0, 3.0)
    check_bias(moderate500, "bucher", 28.0, 5.0)
    check_bias(moderate500, "stc", 14.0, 5.0)
    check_bias(severe500, "bucher", 41.0, 5.0)
    check_bias(severe500, "stc", 21.0, 5.0)


def test_c02_bias_reproduction_logit_n100(moderate100):
    check_bias(moderate100, "maic-nab", 3.0, 3.0)
    check_bias(moderate100, "bucher", 30.0, 5.0)


def test_c03_ci_coverage(moderate100, moderate250, moderate500):
    for label, report in (("n=100", moderate100), ("n=250", moderate250),
                          ("n=500", moderate500)):
        for strategy in ("fo", "sw"):
            cov = report.coverage[strategy]
            print(f"  {label} {strategy}: {cov:.3f}")
            assert 0.935 <= cov <= 0.975
        assert report.coverage["cs"] >= 0.955
    assert 0.94 <= moderate500.coverage["full"] <= 0.965


def test_c04_relative_length_ordering(moderate100, moderate250, moderate500):
    for report in (moderate100, moderate250, moderate500):
        assert report.relative_length["cs"] >= report.relative_length["po"]
    assert 0.95 <= moderate500.relative_length["fo"] <= 1.20


def test_c05_solver_matches_grid_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        x = rng.normal(size=30)
        target = float(x.mean() + rng.uniform(-0.5, 0.5) * x.std())
        ipd = make_ipd(rng.normal(size=30), np.ones(30, int), x[:, None])
        model = solve_weights(ipd, np.array([target]))
        oracle = grid_minimize_q(x - target)
        assert model.alpha1[0] == pytest.approx(oracle, abs=1e-4)
    ipd = make_ipd([0.0, 0.0, 1.0, 1.0], [1, 1, 1, 1],
                   [[0.0], [0.0], [1.0], [1.0]])
    model = solve_weights(ipd, np.array([0.75]))
    assert model.alpha1[0] == pytest.approx(math.log(3.0), abs=1e-8)


def test_c06_balance_on_every_converged_fit():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(20, 120))
        x = rng.normal(size=(n, p))
        target = x.mean(axis=0) + rng.uniform(-0.4, 0.4, size=p)
        ipd = make_ipd(rng.normal(size=n), np.ones(n, int), x)
        spec = MomentSpec.FIRST
        model = solve_weights(ipd, target, spec)
        _, max_norm = balance_check(model, ipd, target)
        worst = max(worst, max_norm)
    print(f"  worst balance residual over 100 fits: {worst:.3g}")
    assert worst <= 1e-10


def test_c07_structural_invariants():
    rng = np.random.default_rng(SEED + 2)

    # weight-scale invariance of the contrast, to 1e-12 relative
    ipd, agd, model = random_problem(rng, n=100)
    scaled = WeightModel(
        alpha1=model.alpha1, centering=model.centering,
        weights=model.weights * 123.4, spec=model.spec, converged=True,
        iterations=model.iterations, objective=model.objective, ess=model.ess,
    )
    for fn in (maic_nab, maic_acb):
        assert fn(ipd, agd, scaled).delta == pytest.approx(
            fn(ipd, agd, model).delta, rel=1e-12
        )

    # null coefficients collapse the weighted estimators onto their
    # unweighted twins, exactly
    unit = WeightModel(
        alpha1=np.zeros(ipd.p), centering=model.centering,
        weights=np.ones(ipd.n), spec=model.spec, converged=True,
        iterations=0, objective=1.0, ess=model.ess,
    )
    assert maic_nab(ipd, agd, unit).delta == naive(ipd, agd).delta
    assert maic_acb(ipd, agd, unit).delta == bucher(ipd, agd).delta

    # variance-bound ordering on 1000 random fitted instances
    for i in range(1000):
        ipd_i, agd_i, model_i = random_problem(rng, n=40, shift=0.25)
        pieces = influence_components(ipd_i, agd_i, model_i,
                                      maic_nab(ipd_i, agd_i, model_i))
        assert sigma2_cs(pieces).sigma2 >= sigma2_po(pieces).sigma2

    # effective sample size is at most n, with equality iff equal weights
    w = rng.uniform(0.2, 3.0, size=64)
    assert effective_sample_size(w) < 64.0
    assert effective_sample_size(np.full(64, 2.5)) == pytest.approx(64.0)


@pytest.fixture(scope="module")
def identity_benchmark():
    """Per-replicate full-influence arrays vs lemma plug-ins, identity scale."""
    cfg = ScenarioConfig(
        p=5, n_per_arm=500, confounding=Confounding.MODERATE,
        scale=Scale.IDENTITY, replicates=1, seed=SEED + 3,
    )
    direct, lemma = [], []
    for i in range(400):
        ipd, agd, records = replicate_datasets(cfg, i)
        target = pooled_target_moments(agd, MomentSpec.FIRST)
        model = solve_weights(ipd, target)
        est = maic_nab(ipd, agd, model, Scale.IDENTITY)
        arrays = full_influence_arrays(ipd, agd, records, model, est,
                                       Scale.IDENTITY)

        def var(a):
            return float((a**2).mean() - a.mean() ** 2)

        def cov(a, b):
            return float((a * b).mean() - a.mean() * b.mean())

        direct.append([
            var(arrays["phi_alpha"]),
            cov(arrays["phi_mu1"], arrays["phi_alpha"]),
            var(arrays["phi_mu_x2"]),
            cov(arrays["phi_mu2"], arrays["phi_mu_x2"]),
        ])
        t = lemma_variance_terms(ipd, records, model, est)
        lemma.append([t.var_phi_alpha, t.cov_mu1_alpha,
                      t.var_phi_mu_x2, t.cov_mu2_mu_x2])
    return np.array(direct), np.array(lemma)


def test_c08_full_influence_benchmark(moderate500, identity_benchmark):
    # the full-influence SE tracks the sampling SD of the estimator
    ratio = moderate500.relative_length["full"]
    print(f"  mean(se_full) / sd_emp = {ratio:.3f}")
    assert 0.95 <= ratio <= 1.05

    # lemma plug-ins agree with the direct empirical variances within
    # 3 Monte Carlo SDs of a single replicate's estimate
    direct, lemma = identity_benchmark
    gap = np.abs(lemma.mean(axis=0) - direct.mean(axis=0))
    margin = 3.0 * direct.std(axis=0, ddof=1)
    print(f"  lemma-vs-direct gaps {gap} within {margin}")
    assert np.all(gap <= margin)


def test_c09_negative_control_size(moderate500):
    rate = moderate500.negcontrol_rejection_rate
    bound = 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / R)
    print(f"  rejection rate {rate:.4f} vs bound {bound:.4f}")
    assert rate <= bound


def test_c10_reported_table_arithmetic():
    from maic.inference import wald_ci, wald_test

    z, p = wald_test(-0.54, 0.27)
    assert z == pytest.approx(-2.0)
    assert p == pytest.approx(0.0455, abs=1e-3)
    assert p == pytest.approx(0.04, abs=0.01)  # printed value, to rounding

    lo, hi = wald_ci(0.13, 0.30)
    assert math.exp(lo) == pytest.approx(0.64, abs=0.015)
    assert math.exp(hi) == pytest.approx(2.04, abs=0.015)
    _, p2 = wald_test(0.13, 0.30)
    assert p2 == pytest.approx(0.66, abs=0.01)


def test_bias_gap_between_weighted_and_unadjusted(moderate100, moderate250,
                                                  moderate500):
    # adjustment shrinks bias at every n while the unadjusted anchored
    # contrast stays far off
    for report in (moderate100, moderate250, moderate500):
        assert abs(report.percent_bias["maic-nab"]) <= 5.0
        assert abs(report.percent_bias["bucher"]) >= 20.0
    assert abs(moderate500.percent_bias["maic-nab"]) <= abs(
        moderate100.percent_bias["maic-nab"]
    ) + 1.0
