import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from maic.data_model import IpdStudy, MomentSpec, OutcomeKind, TrialRecords
from maic.errors import MissingAgdVariance, RequiresFullIpd
from maic.estimators import Estimate, Method, Scale, bucher, maic_acb, maic_nab, naive
from maic.variance import (
    InfluencePieces,
    SeStrategy,
    arm_outcome_variance,
    influence_components,
    sigma2_cs,
    sigma2_fo,
    sigma2_full,
    sigma2_po,
    sigma2_sw,
)
from maic.weighting import WeightModel, moment_matrix, solve_weights

from conftest import make_agd, make_arm, make_ipd


def full_influence_arrays(
    ipd: IpdStudy,
    agd,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> dict[str, np.ndarray]:
    """The four per-record influence arrays of maic-nab over both trials
    (IPD rows first, then the aggregate trial's raw records), link-scaled,
    each zero on the other trial's rows: the reference for sigma2_full,
    which sums them without the zeros."""
    pieces = influence_components(ipd, agd, model, est, scale)
    z2 = agd_records.z == 2
    phi_mu2 = (scale.g_prime(est.mu2) * (est.mu2 - agd_records.y) * z2
               / (z2.sum() / pieces.n_total))
    c2 = moment_matrix(agd_records.x, model.spec) - model.centering
    # ctilde already carries g'(mu1) and 1/J^{mu1}; only U^{muX2} remains.
    # The product runs as a batch of one, as in sigma2_full, so its bits match.
    coef = -(pieces.ew_t1 / pieces.p_t2)
    phi_mu_x2 = np.matmul((coef * c2)[None], pieces.j_alpha_inv_ctilde[None, :, None])[0, :, 0]
    zeros_ipd, zeros_t2 = np.zeros(ipd.n), np.zeros(len(agd_records.y))
    return {
        "phi_mu2": np.concatenate([zeros_ipd, phi_mu2]),
        "phi_mu1": np.concatenate([pieces.phi_mu1, zeros_t2]),
        "phi_alpha": np.concatenate([pieces.phi_alpha, zeros_t2]),
        "phi_mu_x2": np.concatenate([zeros_ipd, phi_mu_x2]),
    }


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


def random_problem(rng, n=80, p=2, binary=True, shift=0.3):
    """A converged two-arm IPD study paired with a two-arm AGD study."""
    x = rng.normal(size=(n, p))
    lin = x @ rng.uniform(-0.5, 0.5, size=p)
    if binary:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-lin))).astype(float)
    else:
        y = lin + rng.normal(size=n)
    z = np.concatenate([np.ones(n // 2, int), np.zeros(n - n // 2, int)])
    ipd = make_ipd(y, z, x, outcome_kind=OutcomeKind.BINARY if binary else OutcomeKind.CONTINUOUS)
    target = x.mean(axis=0) + shift * rng.uniform(-1, 1, size=p)
    agd = make_agd(
        active=make_arm(n=60, y_mean=rng.uniform(0.3, 0.7), y_var=0.2,
                        x_mean=target),
        comparator=make_arm(n=40, y_mean=rng.uniform(0.3, 0.7), y_var=0.2,
                            x_mean=target),
        names=ipd.covariate_names,
    )
    model = solve_weights(ipd, target)
    return ipd, agd, model


def manual_pieces(phi_mu1, phi_alpha, var_phi_mu2, v_mu_x2, n_total):
    k = 1
    return InfluencePieces(
        phi_mu1=np.asarray(phi_mu1, float), phi_alpha=np.asarray(phi_alpha, float),
        var_phi_mu2=var_phi_mu2, v_mu_x2=v_mu_x2, n_total=n_total,
        p_t2=0.5, ew_t1=1.0, j_alpha_inv_ctilde=np.zeros(k),
    )


class TestArmOutcomeVariance:
    def test_reported_variance_wins(self):
        arm = make_arm(y_var=0.2)
        assert arm_outcome_variance(arm, OutcomeKind.BINARY) == 0.2

    def test_bernoulli_fallback(self):
        arm = make_arm(n=10, y_mean=0.4, y_var=None)
        expected = 0.4 * 0.6 * 10 / 9
        assert arm_outcome_variance(arm, OutcomeKind.BINARY) == pytest.approx(expected)

    def test_bernoulli_fallback_needs_two_patients(self):
        # ybar(1-ybar)*n/(n-1) divides by zero at n = 1
        arm = make_arm(n=1, y_mean=0.4, y_var=None)
        with pytest.raises(MissingAgdVariance, match="n >= 2"):
            arm_outcome_variance(arm, OutcomeKind.BINARY)

    def test_continuous_without_variance_raises(self):
        arm = make_arm(y_var=None)
        with pytest.raises(MissingAgdVariance):
            arm_outcome_variance(arm, OutcomeKind.CONTINUOUS)


class TestInfluenceComponents:
    def test_constant_outcome_zeroes_ipd_terms(self, rng):
        x = rng.normal(size=(40, 1))
        ipd = make_ipd(np.ones(40), np.ones(40, int), x)
        agd = make_agd(active=make_arm(n=100, y_var=0.25,
                                       x_mean=[float(x.mean())]))
        model = solve_weights(ipd, np.array([float(x.mean())]))
        est = maic_nab(ipd, agd, model)
        pieces = influence_components(ipd, agd, model, est)
        np.testing.assert_allclose(pieces.phi_mu1, 0.0, atol=1e-12)
        np.testing.assert_allclose(pieces.j_alpha_inv_ctilde, 0.0, atol=1e-12)
        assert sigma2_fo(pieces).sigma2 == pytest.approx(pieces.var_phi_mu2)
        assert sigma2_po(pieces).sigma2 == pytest.approx(sigma2_fo(pieces).sigma2)

    def test_var_phi_mu2_arithmetic(self, rng):
        # S2 = 0.25 with the aggregate arm 1/4 of the combined sample -> 1.0
        x = rng.normal(size=(300, 1))
        y = (rng.random(300) < 0.5).astype(float)
        ipd = make_ipd(y, np.ones(300, int), x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(active=make_arm(n=100, y_var=0.25,
                                       x_mean=[float(x.mean())]))
        model = solve_weights(ipd, np.array([float(x.mean())]))
        pieces = influence_components(ipd, agd, model, maic_nab(ipd, agd, model))
        assert pieces.n_total == 400
        assert pieces.var_phi_mu2 == pytest.approx(1.0)

    def test_v_mu_x2_nonnegative(self, rng):
        for i in range(25):
            ipd, agd, model = random_problem(rng)
            est = maic_nab(ipd, agd, model)
            pieces = influence_components(ipd, agd, model, est)
            assert pieces.v_mu_x2 >= 0.0

    def test_naive_uses_unit_weights(self, rng):
        ipd, agd, model = random_problem(rng)
        est = naive(ipd, agd)
        pieces = influence_components(ipd, agd, model, est)
        mask = ipd.z == 1
        j = mask.mean() * ipd.n / pieces.n_total
        expected = (ipd.y - est.mu1) * mask / j
        np.testing.assert_allclose(pieces.phi_mu1, expected)


class TestUnweightedMethods:
    @pytest.mark.parametrize("scale", list(Scale))
    def test_bucher_equals_relabelled_unit_weight_model(self, rng, scale):
        # the public path to the same sums: a unit-weight model with the
        # estimate relabelled maic-acb; fo and sw must agree bit for bit
        ipd, agd, model = random_problem(rng)
        est = bucher(ipd, agd, scale)
        unit = dataclasses.replace(model, weights=np.ones(ipd.n))
        acb = dataclasses.replace(est, method=Method.MAIC_ACB)
        pieces = influence_components(ipd, agd, None, est, scale)
        pairs = [
            (sigma2_fo(pieces),
             sigma2_fo(influence_components(ipd, agd, unit, acb, scale))),
            (sigma2_sw(ipd, agd, None, est, scale),
             sigma2_sw(ipd, agd, unit, acb, scale)),
        ]
        for direct, relabelled in pairs:
            assert float(direct.sigma2).hex() == float(relabelled.sigma2).hex()
            assert float(direct.se).hex() == float(relabelled.se).hex()
        assert pieces.v_mu_x2 == 0.0
        assert not pieces.phi_alpha.any()


class TestSwEqualsFo:
    """Each arm's weighted residuals sum to zero, so the variance of phi_mu1
    is its uncentred second moment, which is exactly the HC0 sum of sw: the
    two strategies give one number by two routes."""

    @pytest.mark.parametrize("scale", list(Scale))
    @pytest.mark.parametrize("method", [maic_nab, maic_acb, bucher, naive])
    def test_sw_equals_fo(self, rng, scale, method):
        for _ in range(25):
            binary = scale is Scale.LOGIT or rng.random() < 0.5
            ipd, agd, model = random_problem(rng, n=int(rng.integers(30, 200)),
                                             p=int(rng.integers(1, 4)), binary=binary)
            if method in (maic_nab, maic_acb):
                est = method(ipd, agd, model, scale)
            else:
                est = method(ipd, agd, scale)
                model = None
            fo = sigma2_fo(influence_components(ipd, agd, model, est, scale))
            sw = sigma2_sw(ipd, agd, model, est, scale)
            assert sw.sigma2 == pytest.approx(fo.sigma2, rel=1e-12, abs=0.0)


class TestStrategies:
    def test_cs_arithmetic(self):
        s = math.sqrt(2.0)
        pieces = manual_pieces([s, -s], [0.0, 0.0], 1.0, 0.25, 2)
        assert sigma2_po(pieces).sigma2 == pytest.approx(3.0)
        assert sigma2_cs(pieces).sigma2 == pytest.approx(4.25)

    def test_fo_arithmetic(self):
        s = math.sqrt(2.0)
        pieces = manual_pieces([s, -s], [9.0, 9.0], 1.0, 0.0, 2)
        assert sigma2_fo(pieces).sigma2 == pytest.approx(3.0)

    def test_cs_equals_po_when_v_zero(self, rng):
        pieces = manual_pieces(rng.normal(size=6), rng.normal(size=6), 0.7, 0.0, 6)
        assert sigma2_cs(pieces).sigma2 == pytest.approx(sigma2_po(pieces).sigma2)

    def test_cs_dominates_po_on_fits(self, rng):
        for _ in range(100):
            ipd, agd, model = random_problem(rng, n=60)
            est = maic_nab(ipd, agd, model)
            pieces = influence_components(ipd, agd, model, est)
            assert sigma2_cs(pieces).sigma2 >= sigma2_po(pieces).sigma2
            for fn in (sigma2_fo, sigma2_po, sigma2_cs):
                assert fn(pieces).sigma2 >= 0.0

    def test_sw_unit_weights_is_plain_hc0(self, rng):
        ipd, agd, model = random_problem(rng)
        est = naive(ipd, agd)
        se = sigma2_sw(ipd, agd, model, est)
        mask = ipd.z == 1
        y1 = ipd.y[mask]
        n1 = mask.sum()
        n_total = ipd.n + agd.n_total
        expected = n_total * np.sum((y1 - y1.mean()) ** 2) / n1**2
        expected += arm_outcome_variance(agd.active_arm, ipd.outcome_kind) / (
            agd.active_arm.n / n_total
        )
        assert se.sigma2 == pytest.approx(expected)

    def test_fo_matches_classical_two_sample_variance(self, rng):
        # unit weights, zero aggregate variance: the classical N * s^2/n1 form
        ipd, agd, model = random_problem(rng, n=100)
        agd = make_agd(
            active=make_arm(n=60, y_mean=0.5, y_var=0.0,
                            x_mean=agd.active_arm.x_mean),
            comparator=None, names=ipd.covariate_names,
        )
        est = naive(ipd, agd)
        pieces = influence_components(ipd, agd, model, est)
        mask = ipd.z == 1
        y1 = ipd.y[mask]
        n_total = ipd.n + 60
        classical = n_total * np.mean((y1 - y1.mean()) ** 2) / mask.sum()
        assert sigma2_fo(pieces).sigma2 == pytest.approx(classical, abs=1e-10)

    def test_logit_scales_by_link_derivative(self, rng):
        ipd, agd, model = random_problem(rng)
        est_i = maic_nab(ipd, agd, model, Scale.IDENTITY)
        est_g = maic_nab(ipd, agd, model, Scale.LOGIT)
        p_i = influence_components(ipd, agd, model, est_i, Scale.IDENTITY)
        p_g = influence_components(ipd, agd, model, est_g, Scale.LOGIT)
        g1 = Scale.LOGIT.g_prime(est_i.mu1)
        g2 = Scale.LOGIT.g_prime(est_i.mu2)
        np.testing.assert_allclose(p_g.phi_mu1, g1 * p_i.phi_mu1, rtol=1e-10)
        assert p_g.var_phi_mu2 == pytest.approx(g2**2 * p_i.var_phi_mu2)
        assert p_g.v_mu_x2 == pytest.approx(g1**2 * p_i.v_mu_x2)

    def test_anchored_adds_comparator_variance(self, rng):
        ipd, agd, model = random_problem(rng)
        nab = maic_nab(ipd, agd, model)
        acb = maic_acb(ipd, agd, model)
        p_nab = influence_components(ipd, agd, model, nab)
        p_acb = influence_components(ipd, agd, model, acb)
        extra = arm_outcome_variance(agd.comparator_arm, ipd.outcome_kind) / (
            agd.comparator_arm.n / p_nab.n_total
        )
        assert p_acb.var_phi_mu2 == pytest.approx(p_nab.var_phi_mu2 + extra)


class TestFullInfluence:
    def _with_records(self, rng, n2=120):
        ipd, agd, model = random_problem(rng, n=120)
        x2 = rng.normal(size=(n2, ipd.p)) + model.centering
        z2 = np.where(np.arange(n2) % 2 == 0, 2, 0)
        y2 = (rng.random(n2) < 0.5).astype(float)
        n_act, n_cmp = int((z2 == 2).sum()), int((z2 == 0).sum())
        agd = make_agd(
            active=make_arm(n=n_act, y_mean=float(y2[z2 == 2].mean()),
                            y_var=float(y2[z2 == 2].var(ddof=1)),
                            x_mean=x2[z2 == 2].mean(axis=0)),
            comparator=make_arm(n=n_cmp, y_mean=float(y2[z2 == 0].mean()),
                                y_var=float(y2[z2 == 0].var(ddof=1)),
                                x_mean=x2[z2 == 0].mean(axis=0)),
            names=ipd.covariate_names,
        )
        # rebalance to the pooled mean of the records actually supplied
        from maic.data_model import MomentSpec, pooled_target_moments
        target = pooled_target_moments(agd, MomentSpec.FIRST)
        model = solve_weights(ipd, target)
        return ipd, agd, TrialRecords(y2, z2, x2), model

    def test_mean_of_each_array_is_zero(self, rng):
        ipd, agd, records, model = self._with_records(rng)
        est = maic_nab(ipd, agd, model)
        arrays = full_influence_arrays(ipd, agd, records, model, est)
        for name, arr in arrays.items():
            assert abs(arr.mean()) < 1e-8, name
        total = sum(arrays.values())
        assert abs(total.mean()) < 1e-8

    @pytest.mark.parametrize("scale", list(Scale))
    def test_sigma2_full_is_the_variance_of_the_summed_arrays_bit_for_bit(self, rng, scale):
        # sigma2_full folds the four arrays into [phi_mu1 + phi_alpha |
        # phi_mu2 + phi_mu_x2]; the zeros it skips change no bit of np.var
        for _ in range(10):
            ipd, agd, records, model = self._with_records(rng, n2=int(rng.integers(40, 160)))
            est = maic_nab(ipd, agd, model, scale)
            arrays = full_influence_arrays(ipd, agd, records, model, est, scale)
            want = float(np.var(sum(arrays.values())))
            assert sigma2_full(ipd, agd, records, model, est, scale).sigma2.hex() == want.hex()

    def test_requires_records(self, rng):
        ipd, agd, model = random_problem(rng)
        est = maic_nab(ipd, agd, model)
        with pytest.raises(RequiresFullIpd):
            sigma2_full(ipd, agd, None, model, est)

    def test_record_count_mismatch(self, rng):
        ipd, agd, records, model = self._with_records(rng)
        est = maic_nab(ipd, agd, model)
        short = TrialRecords(records.y[:-1], records.z[:-1], records.x[:-1])
        with pytest.raises(RequiresFullIpd):
            sigma2_full(ipd, agd, short, model, est)

    def test_strategy_label(self, rng):
        ipd, agd, records, model = self._with_records(rng)
        est = maic_nab(ipd, agd, model)
        se = sigma2_full(ipd, agd, records, model, est)
        assert se.strategy is SeStrategy.FULL
        assert se.sigma2 >= 0.0


class TestLemmaTerms:
    def test_all_zero_when_outcome_is_constant(self, rng):
        x = rng.normal(size=(60, 2))
        ipd = make_ipd(np.full(60, 1.0), np.ones(60, int), x)
        n2 = 80
        x2 = rng.normal(size=(n2, 2))
        z2 = np.where(np.arange(n2) % 2 == 0, 2, 0)
        records = TrialRecords(np.full(n2, 1.0), z2, x2)
        agd = make_agd(
            active=make_arm(n=40, y_mean=1.0, x_mean=x2[z2 == 2].mean(axis=0)),
            comparator=make_arm(n=40, y_mean=1.0, x_mean=x2[z2 == 0].mean(axis=0)),
            names=ipd.covariate_names,
        )
        from maic.data_model import MomentSpec, pooled_target_moments
        target = pooled_target_moments(agd, MomentSpec.FIRST)
        model = solve_weights(ipd, target)
        est = maic_nab(ipd, agd, model)
        terms = lemma_variance_terms(ipd, records, model, est)
        assert terms.var_phi_alpha == pytest.approx(0.0, abs=1e-12)
        assert terms.cov_mu1_alpha == pytest.approx(0.0, abs=1e-12)
        assert terms.var_phi_mu_x2 == pytest.approx(0.0, abs=1e-12)
        assert terms.cov_mu2_mu_x2 == pytest.approx(0.0, abs=1e-12)

    def test_requires_records(self, rng):
        ipd, agd, model = random_problem(rng)
        est = maic_nab(ipd, agd, model)
        with pytest.raises(RequiresFullIpd):
            lemma_variance_terms(ipd, None, model, est)
