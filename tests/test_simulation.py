import math
import pickle
import re
import tracemalloc
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maic import inference, simulation
from maic.cli import write_json
from maic.errors import BoundaryProportion, InsufficientCell, SchemaError, SingularJacobian
from maic.estimators import Method, Scale
from maic.simulation import (
    Confounding,
    ScenarioConfig,
    generate_population,
    run_block,
    run_replicate,
    run_study,
    subsample_by_arm,
    true_delta,
)
from maic.variance import SeStrategy


def failing_se_block(strategies, replicates):
    """inference.se_block with a SingularJacobian for each of `strategies`
    that a call requests in each of the block positions `replicates`; the
    null check requests fo alone."""
    real = inference.se_block

    def se_block(*args, **kwargs):
        out = real(*args, **kwargs)
        for s in (s for s in strategies if s in out):
            out[s] = [SingularJacobian("moment Jacobian is singular") if b in replicates else v
                      for b, v in enumerate(out[s])]
        return out
    return se_block


def failing_estimate_block(method, replicates):
    """inference.estimate_block with a BoundaryProportion for `method` in
    each of the block positions `replicates`."""
    real = inference.estimate_block

    def estimate_block(*args, **kwargs):
        out = real(*args, **kwargs)
        if args[-1] is method:
            out = [BoundaryProportion("logit scale requires a mean in (0, 1), got 0.0")
                   if b in replicates else v for b, v in enumerate(out)]
        return out
    return estimate_block


def cfg_with(**kwargs):
    base = dict(p=5, n_per_arm=100, confounding=Confounding.MODERATE,
                scale=Scale.IDENTITY, replicates=2, seed=11)
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_round_trip_dict(self):
        cfg = cfg_with(scale=Scale.LOGIT, alpha_slope=0.0)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_file(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_with().to_dict()))
        assert ScenarioConfig.from_json_file(path) == cfg_with()

    def test_json_file_with_a_leading_byte_order_mark(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_with().to_dict()), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ScenarioConfig.from_json_file(path) == cfg_with()

    def test_absent_keys_keep_the_field_defaults(self):
        assert ScenarioConfig.from_dict({}) == ScenarioConfig()
        assert ScenarioConfig.from_dict({"seed": 4}) == ScenarioConfig(seed=4)

    def test_json_values_are_coerced_to_the_field_types(self):
        cfg = ScenarioConfig.from_dict({
            "p": 6.0, "n_per_arm": "50", "confounding": "severe", "scale": "identity",
            "replicates": 3.0, "seed": "7", "oversample_factor": 2.0, "alpha_slope": 1,
        })
        assert cfg == ScenarioConfig(p=6, n_per_arm=50, confounding=Confounding.SEVERE,
                                     scale=Scale.IDENTITY, replicates=3, seed=7,
                                     oversample_factor=2, alpha_slope=1.0)
        assert all(type(v) is int for v in (cfg.p, cfg.n_per_arm, cfg.replicates, cfg.seed,
                                             cfg.oversample_factor))
        assert type(cfg.alpha_slope) is float
        assert ScenarioConfig.from_dict({"alpha_slope": None}).alpha_slope is None

    @pytest.mark.parametrize("key", ["p", "n_per_arm", "replicates", "seed",
                                     "oversample_factor"])
    @pytest.mark.parametrize("value", [2.7, 1.5, True, False])
    def test_an_integer_key_never_truncates(self, key, value):
        with pytest.raises(SchemaError, match=f"'{key}'"):
            ScenarioConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [("seed", "1_0"), ("n_per_arm", "\u0661\u0660\u0660"),
                                            ("alpha_slope", "0.5_0"), ("alpha_slope", "\u0661")])
    def test_a_numeric_string_the_ipd_reader_refuses_is_named(self, key, value):
        with pytest.raises(SchemaError, match=f"'{key}'"):
            ScenarioConfig.from_dict({key: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_a_boolean_slope_is_rejected(self, value):
        with pytest.raises(SchemaError, match="'alpha_slope'"):
            ScenarioConfig.from_dict({"alpha_slope": value})

    def test_unknown_key_is_rejected(self):
        # a typo must not silently fall back to the default 2000 replicates
        with pytest.raises(SchemaError, match="'replicate'"):
            ScenarioConfig.from_dict({"replicate": 5})

    def test_needs_four_covariates(self):
        with pytest.raises(ValueError):
            cfg_with(p=3)

    @pytest.mark.parametrize("field, value", [
        ("n_per_arm", 1), ("n_per_arm", 0), ("seed", -1), ("oversample_factor", 0),
    ])
    def test_rejects_values_below_the_floor(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg_with(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_direct_non_finite_slope_is_named(self, value):
        # from_dict's json_float rejects these first, so only a direct
        # construction reaches the config's own guard
        with pytest.raises(ValueError, match="^alpha_slope must be finite"):
            ScenarioConfig(alpha_slope=value)

    @pytest.mark.parametrize("value", [1e308, -1e308, 1.01e306])
    def test_a_slope_whose_index_can_overflow_is_named(self, value):
        with pytest.raises(SchemaError, match=r"^alpha_slope must be at most 1e\+306 in absolute"):
            ScenarioConfig.from_dict({"alpha_slope": value})

    @pytest.mark.parametrize("value", [simulation.ALPHA_SLOPE_MAX, -simulation.ALPHA_SLOPE_MAX])
    def test_the_steepest_accepted_slope_draws_without_an_overflow(self, value):
        # RuntimeWarnings fail the test, so the index and the oracle stay finite
        cfg = cfg_with(alpha_slope=value, n_per_arm=20)
        assert run_replicate(cfg, 0).deltas
        assert math.isfinite(true_delta(cfg, n_oracle=10_000))

    @pytest.mark.parametrize("key, value", [
        ("n_per_arm", 0), ("seed", -1), ("confounding", "bogus"), ("scale", "probit"),
        ("replicates", "many"), ("p", 3), ("replicates", [1]), ("seed", float("inf")),
        ("alpha_slope", "nan"), ("alpha_slope", float("inf")), ("alpha_slope", "-inf"),
    ])
    def test_bad_value_is_a_schema_error_naming_the_key(self, key, value):
        with pytest.raises(SchemaError, match=key):
            ScenarioConfig.from_dict({key: value})

    def test_invalid_json_names_the_file_once(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"p": 4,')
        with pytest.raises(SchemaError, match="^" + re.escape(f"{path}: invalid JSON")):
            ScenarioConfig.from_json_file(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-1e400"])
    def test_a_non_finite_literal_is_named_by_its_key(self, tmp_path, token):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"p": 5, "alpha_slope": {token}}}')
        with pytest.raises(SchemaError, match=re.escape(f"{path}: scenario field 'alpha_slope'")
                           + ".*expected a finite number"):
            ScenarioConfig.from_json_file(path)

    def test_scenario_signal_on_first_four(self):
        # every number of the DGP, written out by value: each preset's
        # (selection, prognostic, interaction) slope on the first four
        # covariates, the selection slope replaced by alpha_slope when set
        presets = {Confounding.NONE: (0.25, 0.0, 0.0),
                   Confounding.MODERATE: (0.25, 0.15, 0.1),
                   Confounding.SEVERE: (0.3, 0.25, 0.15)}
        for confounding, (a, b1, b3) in presets.items():
            for alpha_slope in (None, 0.0, 0.7):
                for p in (4, 6):
                    dgp = cfg_with(p=p, confounding=confounding, alpha_slope=alpha_slope).dgp
                    zeros = [0.0] * (p - 4)
                    a_used = a if alpha_slope is None else alpha_slope
                    for got, v in ((dgp.selection, a_used), (dgp.prognostic, b1),
                                   (dgp.interaction, b3)):
                        assert got.dtype == np.float64
                        assert got.tolist() == [v] * 4 + zeros, (confounding, alpha_slope, p)
                    assert (dgp.intercept, dgp.treated_shift, dgp.arm2_shift,
                            dgp.shared) == (-1.0, 0.1, 0.5, 0.2)
                    # the mix scales by these two roots, bit for bit
                    assert (math.sqrt(1.0 - dgp.shared), math.sqrt(dgp.shared)) == (
                        math.sqrt(0.8), math.sqrt(0.2))

    def test_the_dgp_is_no_user_setting(self):
        cfg = cfg_with()
        with pytest.raises(AttributeError):
            cfg.dgp = cfg.dgp
        assert "dgp" not in cfg.to_dict()
        with pytest.raises(SchemaError, match="dgp"):
            ScenarioConfig.from_dict({"dgp": {}})


class TestGeneratePopulation:
    def test_equicorrelated_covariates(self):
        cfg = cfg_with(confounding=Confounding.NONE)
        pop = generate_population(cfg, 200_000, np.random.default_rng(3))
        cov = np.cov(pop.x.T)
        np.testing.assert_allclose(np.diag(cov), 1.0, atol=0.02)
        off = cov[~np.eye(5, dtype=bool)]
        np.testing.assert_allclose(off, 0.2, atol=0.02)

    def test_moderate_standardized_mean_difference(self):
        cfg = cfg_with()
        pop = generate_population(cfg, 400_000, np.random.default_rng(4))
        t1, t2 = pop.t == 1, pop.t == 2
        for j in range(4):
            pooled_sd = pop.x[:, j].std()
            smd = (pop.x[t1, j].mean() - pop.x[t2, j].mean()) / pooled_sd
            assert smd == pytest.approx(-0.38, abs=0.02)
        # x5 carries no selection signal; its shift comes only through the
        # equicorrelation and is half that of the signal covariates
        # (cov with the selection score: 0.8 vs 1 + 3*0.2 = 1.6)
        smd5 = (pop.x[t1, 4].mean() - pop.x[t2, 4].mean()) / pop.x[:, 4].std()
        assert smd5 == pytest.approx(-0.19, abs=0.02)

    def test_null_assignment_override(self):
        cfg = cfg_with(alpha_slope=0.0)
        pop = generate_population(cfg, 100_000, np.random.default_rng(5))
        assert (pop.t == 2).mean() == pytest.approx(0.5, abs=0.01)
        for j in range(5):
            diff = pop.x[pop.t == 1, j].mean() - pop.x[pop.t == 2, j].mean()
            assert abs(diff) < 0.02

    def test_arm_codes(self):
        pop = generate_population(cfg_with(), 10_000, np.random.default_rng(6))
        assert set(np.unique(pop.z)) <= {0, 1, 2}
        assert np.all(pop.z[pop.z > 0] == pop.t[pop.z > 0])
        assert set(np.unique(pop.y)) == {0.0, 1.0}


class TestSubsample:
    def test_exact_cell_counts(self):
        cfg = cfg_with(n_per_arm=50)
        rng = np.random.default_rng(7)
        pop = generate_population(cfg, 2_000, rng)
        sub = subsample_by_arm(pop, 50, rng)
        for t, z in ((1, 0), (1, 1), (2, 0), (2, 2)):
            assert int(((sub.t == t) & (sub.z == z)).sum()) == 50
        assert len(sub.y) == 200

    def test_insufficient_cell(self):
        cfg = cfg_with(n_per_arm=50)
        rng = np.random.default_rng(8)
        pop = generate_population(cfg, 100, rng)
        with pytest.raises(InsufficientCell):
            subsample_by_arm(pop, 50, rng)

    def test_subsample_means_track_cell_means(self):
        cfg = cfg_with(n_per_arm=2_000)
        rng = np.random.default_rng(9)
        pop = generate_population(cfg, 40_000, rng)
        sub = subsample_by_arm(pop, 2_000, rng)
        cell = (pop.t == 2) & (pop.z == 2)
        sub_cell = (sub.t == 2) & (sub.z == 2)
        np.testing.assert_allclose(
            sub.x[sub_cell].mean(axis=0), pop.x[cell].mean(axis=0), atol=0.06
        )


def quadrature_delta(cfg, n_oracle, nodes=100):
    """true_delta's contrast, and its Monte Carlo SE at n_oracle rows, by
    Gauss-Hermite quadrature.  The selection index selection . x and the
    active arm's outcome index (prognostic + interaction) . x are multiples
    of v = x1 + ... + x4 (test_matches_an_independent_quadrature asserts
    it), and v is N(0, 4 + 12 shared), N(0, 6.4), under the covariance
    .8*I + .2 (four variances of 1, twelve covariances of .2).  So each mean
    is a 1-D ratio E[s(v) e(v)] / E[s(v)], s the selection probability and e
    the outcome probability.  The SE is the delta method's over the
    n_oracle * P(trial 2) rows the oracle keeps."""
    share, m1, m2, s, e1, e2 = quadrature_pieces(cfg, nodes)
    h = cfg.scale.g_prime(m1) * e1 - cfg.scale.g_prime(m2) * e2
    var = s @ (h - s @ h / s.sum()) ** 2 / s.sum()
    return cfg.scale.g(m1) - cfg.scale.g(m2), math.sqrt(var / (n_oracle * share))


def quadrature_pieces(cfg, nodes=100):
    """quadrature_delta's Gauss-Hermite pieces, with every coefficient read
    from cfg.dgp: P(trial 2), the trial-2 means m1 (had they received the
    IPD treatment) and m2 (their own treatment), and at each node the
    weighted selection probability s and the two outcome probabilities."""
    dgp = cfg.dgp
    t, w = np.polynomial.hermite.hermgauss(nodes)
    v = math.sqrt(2 * (4 + 12 * dgp.shared)) * t
    s = w / (1.0 + np.exp(-(dgp.selection[0] * v)))
    e1, e2 = (1.0 / (1.0 + np.exp(-(dgp.intercept + dgp.treated_shift + shift
                                    + (dgp.prognostic + dgp.interaction)[0] * v)))
              for shift in (0.0, dgp.arm2_shift))
    return s.sum() / math.sqrt(math.pi), s @ e1 / s.sum(), s @ e2 / s.sum(), s, e1, e2


class TestTrueDelta:
    def test_no_confounding_identity_closed_form(self):
        cfg = cfg_with(confounding=Confounding.NONE)
        expected = 1 / (1 + math.exp(0.9)) - 1 / (1 + math.exp(0.4))
        assert expected == pytest.approx(-0.11226, abs=1e-5)
        assert true_delta(cfg, n_oracle=10_000) == pytest.approx(expected, abs=1e-12)

    def test_no_confounding_logit_closed_form(self):
        cfg = cfg_with(confounding=Confounding.NONE, scale=Scale.LOGIT)
        assert true_delta(cfg, n_oracle=10_000) == pytest.approx(-0.5, abs=1e-12)

    @staticmethod
    def reference_true_delta(cfg, n_oracle):
        """The oracle as first written, copying x[t2] before the product, on
        the oracle's own stream."""
        rng = np.random.default_rng([cfg.seed, 0xFFFFFFFF])
        dgp = cfg.dgp
        x = math.sqrt(1.0 - dgp.shared) * rng.standard_normal((n_oracle, cfg.p))
        x += math.sqrt(dgp.shared) * rng.standard_normal((n_oracle, 1))
        t2 = rng.random(n_oracle) < 1.0 / (1.0 + np.exp(-(x @ dgp.selection)))
        xt2 = x[t2]
        active = xt2 @ (dgp.prognostic + dgp.interaction) + dgp.intercept + dgp.treated_shift
        m1 = float((1.0 / (1.0 + np.exp(-active))).mean())
        m2 = float((1.0 / (1.0 + np.exp(-(active + dgp.arm2_shift)))).mean())
        return cfg.scale.g(m1) - cfg.scale.g(m2)

    @pytest.mark.parametrize("confounding", list(Confounding))
    @pytest.mark.parametrize("scale", list(Scale))
    def test_equals_reference_formula(self, confounding, scale):
        # one row short of a chunk, one chunk, one row into the second, and a
        # ragged last chunk; alpha_slope 0.0 under no confounding gives every
        # covariate a zero coefficient, so the oracle reads none
        chunk = simulation.ORACLE_CHUNK_ROWS
        for p, seed, alpha_slope in ((4, 1, 0.7), (7, 2, 0.7), (12, 3, None), (12, 4, 0.0)):
            cfg = cfg_with(confounding=confounding, scale=scale, p=p, alpha_slope=alpha_slope,
                           seed=seed)
            for n in (chunk - 1, chunk, chunk + 1, 3 * chunk + 17):
                assert true_delta(cfg, n_oracle=n) == self.reference_true_delta(cfg, n), (p, n)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_equals_reference_formula_near_chunk_multiples(self, data):
        chunk = data.draw(st.sampled_from([simulation.ORACLE_CHUNK_ROWS, 100]))
        n = data.draw(st.integers(1, 3)) * chunk + data.draw(st.integers(-3, 3))
        cfg = cfg_with(seed=data.draw(st.integers(0, 2**32 - 1)),
                       p=data.draw(st.integers(4, 12)),
                       confounding=data.draw(st.sampled_from(list(Confounding))),
                       scale=data.draw(st.sampled_from(list(Scale))),
                       alpha_slope=data.draw(st.sampled_from([None, 0.0, 0.7])))
        with mock.patch.object(simulation, "ORACLE_CHUNK_ROWS", chunk):
            got = true_delta(cfg, n_oracle=n)
        assert got == self.reference_true_delta(cfg, n)

    @pytest.mark.parametrize("p", [5, 12])
    def test_oracle_holds_only_the_columns_it_reads(self, p):
        # the four covariates with a nonzero coefficient, whatever p is; an
        # oracle that held all p columns would exceed the bound at p = 5 already
        n = 2_000_000
        tracemalloc.start()
        try:
            true_delta(cfg_with(p=p), n_oracle=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * n * 4

    @pytest.mark.parametrize("n_oracle", [0, -1])
    def test_an_oracle_without_rows_is_rejected_by_name(self, n_oracle):
        with pytest.raises(ValueError, match="n_oracle must be at least 1"):
            true_delta(cfg_with(), n_oracle=n_oracle)

    @pytest.mark.parametrize("scale", list(Scale))
    def test_a_draw_without_aggregate_trial_rows_is_named(self, scale):
        # seed 2's one row falls in trial 1
        cfg = cfg_with(scale=scale, seed=2)
        with pytest.raises(InsufficientCell, match="no aggregate-trial row; raise n_oracle"):
            true_delta(cfg, n_oracle=1)

    def test_a_steep_selection_slope_overflows_no_exp_warning(self):
        # exp(-v) overflows for v below about -709, where expit is 0 either way
        cfg = cfg_with(alpha_slope=1000, seed=5)
        with np.errstate(over="ignore"):
            want = self.reference_true_delta(cfg, 10_000)
        assert true_delta(cfg, n_oracle=10_000) == want
        assert math.isfinite(true_delta(cfg_with(alpha_slope=1000), n_oracle=10_000))

    @pytest.mark.parametrize("confounding", list(Confounding))
    def test_matches_an_independent_quadrature(self, confounding):
        cfg = cfg_with(confounding=confounding, scale=Scale.LOGIT)
        dgp = cfg.dgp
        first_four = np.array([1.0] * 4 + [0.0] * (cfg.p - 4))
        for index in (dgp.selection, dgp.prognostic + dgp.interaction):  # the premise
            assert np.array_equal(index, index[0] * first_four), confounding
        want, mc_se = quadrature_delta(cfg, 2_000_000)
        # without confounding the outcome index is 0, so the SE is too
        assert abs(true_delta(cfg) - want) <= 4 * mc_se + 1e-12

    @pytest.mark.parametrize("confounding", list(Confounding))
    def test_the_sampler_draws_the_oracles_dgp(self, confounding):
        # the sampler's selection and active-arm outcome against the
        # quadrature that test_matches_an_independent_quadrature ties to the
        # oracle, so a term added to the sampler's outcome model alone fails
        cfg, n = cfg_with(confounding=confounding), 400_000
        pop = generate_population(cfg, n, np.random.default_rng(12))
        share, _, m2, *_ = quadrature_pieces(cfg)
        t2 = pop.t == 2
        assert abs(t2.mean() - share) <= 4 * math.sqrt(share * (1 - share) / n)
        cell = pop.y[t2 & (pop.z == 2)]
        assert abs(cell.mean() - m2) <= 4 * math.sqrt(m2 * (1 - m2) / len(cell))

    def test_moderate_oracle_is_stable(self):
        a = true_delta(cfg_with(scale=Scale.LOGIT, seed=1), n_oracle=1_000_000)
        b = true_delta(cfg_with(scale=Scale.LOGIT, seed=2), n_oracle=1_000_000)
        assert a == pytest.approx(b, abs=5e-4)


class TestRunReplicate:
    def test_deterministic(self):
        cfg = cfg_with(scale=Scale.LOGIT)
        a = run_replicate(cfg, 3)
        b = run_replicate(cfg, 3)
        assert a.deltas == b.deltas
        assert a.ses == b.ses
        assert a.negcontrol_reject == b.negcontrol_reject

    def test_all_outputs_present(self):
        r = run_replicate(cfg_with(), 0)
        assert set(r.deltas) == {"maic-nab", "maic-acb", "bucher", "stc"}
        assert set(r.ses) == {"fo", "po", "cs", "sw", "full"}
        assert type(r.negcontrol_reject) is bool

    def test_each_failing_strategy_is_filed_on_its_own(self, monkeypatch):
        # a singular moment Jacobian fails po, cs and full but not fo or sw
        cfg, failed = cfg_with(replicates=4), (SeStrategy.PO, SeStrategy.CS, SeStrategy.FULL)
        clean = run_block(cfg, range(cfg.replicates))
        assert not any(r.errors for r in clean)
        monkeypatch.setattr(inference, "se_block", failing_se_block(failed, {1}))
        got = run_block(cfg, range(cfg.replicates))
        assert got[1].ses == {s: clean[1].ses[s] for s in ("fo", "sw")}
        assert got[1].errors == {f"maic-nab/{s.value}": "SingularJacobian: moment Jacobian "
                                 "is singular" for s in failed}
        assert (got[1].deltas, got[1].negcontrol_reject) == (clean[1].deltas,
                                                            clean[1].negcontrol_reject)
        for b in (0, 2, 3):
            assert pickle.dumps(got[b]) == pickle.dumps(clean[b])

    def test_a_failed_maic_nab_skips_only_its_ses(self, monkeypatch):
        # the null check reads the fit and the comparator arms, not maic-nab
        cfg = cfg_with(replicates=4)
        clean = run_block(cfg, range(cfg.replicates))
        assert not any(r.errors for r in clean)
        monkeypatch.setattr(inference, "estimate_block",
                            failing_estimate_block(Method.MAIC_NAB, {1}))
        got = run_block(cfg, range(cfg.replicates))
        assert got[1].errors == {"maic-nab": "BoundaryProportion: logit scale requires a "
                                 "mean in (0, 1), got 0.0"}
        assert got[1].ses == {}
        assert got[1].deltas == {m: d for m, d in clean[1].deltas.items() if m != "maic-nab"}
        assert clean[1].negcontrol_reject is not None
        assert got[1].negcontrol_reject == clean[1].negcontrol_reject
        for b in (0, 2, 3):
            assert pickle.dumps(got[b]) == pickle.dumps(clean[b])

    def test_a_failed_null_check_is_filed_under_the_report_key(self):
        results = run_block(TestBlocks.failing_cfg(), [1])
        assert "negative_control" in results[0].errors
        assert results[0].negcontrol_reject is None
        assert not {"variance", "negcontrol"} & set(results[0].errors)

    def test_a_steep_selection_slope_draws_without_an_exp_warning(self):
        # trial membership is all but the sign of x1 + ... + x4, so the IPD
        # cannot reach the aggregate trial's means and the fit fails by name
        r = run_replicate(cfg_with(alpha_slope=1000), 0)
        assert r.errors["weights"].startswith("NonConvergence: ")
        assert set(r.deltas) == {"bucher", "stc"}

    def test_tight_oversampling_still_fills_cells(self):
        # factor 1 draws exactly 4n, often short in a cell; regeneration
        # doubles the factor until every cell fills
        r = run_replicate(cfg_with(oversample_factor=1), 0)
        assert r.deltas


class TestRunStudy:
    def test_report_structure_and_determinism(self):
        cfg = cfg_with(replicates=8)
        a = run_study(cfg, threads=1, n_oracle=50_000)
        b = run_study(cfg, threads=2, n_oracle=50_000)
        assert a.to_dict() == b.to_dict()
        assert set(a.percent_bias) == {"maic-nab", "maic-acb", "bucher", "stc"}
        assert set(a.coverage) == {"fo", "po", "cs", "sw", "full"}
        assert a.failure_counts == {m: 0 for m in a.percent_bias}
        assert a.negcontrol_rejection_rate is not None

    def test_single_replicate_has_null_spread_cells(self):
        report = run_study(cfg_with(replicates=1), n_oracle=50_000)
        assert report.empirical_sd is None
        assert all(v is None for v in report.relative_length.values())
        assert all(v is None for v in report.bias_mc_se.values())

    def test_a_strategy_no_replicate_estimated_has_no_metrics(self, monkeypatch):
        cfg = cfg_with(replicates=3)
        monkeypatch.setattr(inference, "se_block", failing_se_block([SeStrategy.PO], {0, 1, 2}))
        report = run_study(cfg, n_oracle=50_000)
        for metric in (report.coverage, report.coverage_mc_se, report.relative_length,
                       report.mean_se):
            assert metric["po"] is None
            assert all(v is not None for s, v in metric.items() if s != "po")

    def test_tidy_rows_cover_all_metrics(self):
        report = run_study(cfg_with(replicates=3), n_oracle=50_000)
        rows = report.tidy_rows()
        metrics = {r["metric"] for r in rows}
        assert metrics == {"percent_bias", "coverage", "relative_length",
                           "mean_se", "empirical_sd", "rejection_rate"}
        assert all("confounding" in r and "n_per_arm" in r for r in rows)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_are_rejected_by_name(self, threads):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_study(cfg_with(), threads=threads, n_oracle=1_000)

    def test_pool_workers_never_outnumber_the_blocks(self, monkeypatch):
        pools, tasks = [], []

        class SerialPool:
            """Records max_workers and the order of its tasks, and runs each
            task in this process as it is submitted."""
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                tasks.append(fn.__name__)
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialPool)
        cfg = cfg_with(n_per_arm=10, replicates=8)
        want = run_study(cfg, n_oracle=1_000).to_dict()
        pair = 2 * 4 * cfg.n_per_arm  # two replicates per block: four blocks
        # the oracle is one task beside the blocks; the CPUs are those of the
        # affinity mask where there is one, else os.cpu_count(), which counts
        # as one when it is None
        for rows, threads, affinity, cpus, workers in (
                (simulation.BLOCK_ROWS, 5000, 64, 64, [2]),
                (pair, 5000, 64, 64, [5]),
                (pair, 3, 64, 64, [3]),
                (pair, 5000, 2, 64, [2]),
                (pair, 5000, None, 3, [3]),
                (pair, 3, None, None, [])):
            monkeypatch.setattr(simulation, "BLOCK_ROWS", rows)
            if affinity is None:
                monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(simulation.os, "sched_getaffinity",
                                    lambda pid, n=affinity: set(range(n)), raising=False)
            monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
            pools.clear()
            tasks.clear()
            assert run_study(cfg, threads=threads, n_oracle=1_000).to_dict() == want
            assert pools == workers
            blocks = len(range(0, cfg.replicates, simulation.block_size(cfg)))
            assert tasks == (["true_delta"] + ["run_block"] * blocks if workers else [])

    def test_a_pooled_oracle_error_is_the_serial_one(self, monkeypatch):
        # two usable CPUs, so threads=2 starts a real pool on any host
        monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        cfg = cfg_with(n_per_arm=10, replicates=4)
        errors = []
        for threads in (1, 2):
            with pytest.raises(ValueError, match="n_oracle must be at least 1") as e:
                run_study(cfg, threads=threads, n_oracle=0)
            errors.append((type(e.value), str(e.value)))
        assert errors[0] == errors[1]

    def test_a_failing_oracle_cancels_the_queued_blocks(self, monkeypatch):
        ran = []

        class LazyFuture(Future):
            """Runs its task when its result is first asked for, unless it
            was cancelled before."""
            def __init__(self, fn, args):
                super().__init__()
                self.task = fn, args

            def run(self):
                if not self.done():
                    fn, args = self.task
                    ran.append(fn.__name__)
                    try:
                        self.set_result(fn(*args))
                    except Exception as e:
                        self.set_exception(e)

            def result(self, timeout=None):
                self.run()
                return super().result(timeout)

        class LazyPool:
            """Like a pool, runs every task not cancelled by the time it
            shuts down."""
            def __init__(self, max_workers):
                self.futures = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.shutdown()
                return False

            def submit(self, fn, *args):
                self.futures.append(LazyFuture(fn, args))
                return self.futures[-1]

            def shutdown(self, wait=True, cancel_futures=False):
                for future in self.futures:
                    if cancel_futures:
                        future.cancel()
                    future.run()

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(simulation.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(simulation, "BLOCK_ROWS", 4 * 10)  # one replicate per block
        with pytest.raises(ValueError, match="n_oracle must be at least 1"):
            run_study(cfg_with(n_per_arm=10, replicates=4), threads=8, n_oracle=0)
        assert ran == ["true_delta"]

    def test_json_serializable(self):
        import json

        report = run_study(cfg_with(replicates=2), n_oracle=50_000)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["config"]["n_per_arm"] == 100


class TestBlocks:
    """Replicates run in blocks through one stacked core; the output must not
    depend on the block size or the thread count."""

    @staticmethod
    def failing_cfg():
        # 10 patients per arm under severe confounding: most replicates have
        # some failure (weights, estimators, null check), one has none
        return cfg_with(p=4, n_per_arm=10, confounding=Confounding.SEVERE,
                        scale=Scale.LOGIT, replicates=12, seed=1)

    def test_report_bytes_independent_of_block_size_and_threads(self, monkeypatch, tmp_path):
        cfg = self.failing_cfg()
        rows_per_replicate = 4 * cfg.n_per_arm
        reports = set()
        for rows, size in ((rows_per_replicate, 1), (3 * rows_per_replicate, 3),
                           (simulation.BLOCK_ROWS, None)):
            monkeypatch.setattr(simulation, "BLOCK_ROWS", rows)
            if size is not None:
                assert simulation.block_size(cfg) == size
            for threads in (1, 2):
                report = run_study(cfg, threads=threads, n_oracle=20_000)
                path = tmp_path / f"report-{rows}-{threads}.json"
                write_json(path, report.to_dict())
                reports.add(path.read_bytes())
        assert len(reports) == 1
        assert any(report.failure_counts.values())

    @staticmethod
    def reference_population(cfg, n_star, rng):
        """The DGP as first written, on the config's Dgp: t, z and y over
        every drawn row."""
        dgp = cfg.dgp
        x = math.sqrt(1.0 - dgp.shared) * rng.standard_normal((n_star, cfg.p))
        x += math.sqrt(dgp.shared) * rng.standard_normal((n_star, 1))
        t = np.where(rng.random(n_star) < 1.0 / (1.0 + np.exp(-(x @ dgp.selection))), 2, 1)
        z = np.where(rng.random(n_star) < 0.5, t, 0)
        lin = (dgp.intercept + x @ dgp.prognostic
               + (z > 0) * (x @ dgp.interaction + dgp.treated_shift) + (z == 2) * dgp.arm2_shift)
        y = (rng.random(n_star) < 1.0 / (1.0 + np.exp(-lin))).astype(float)
        return y, z, t, x

    @staticmethod
    def reference_subsample(y, z, t, x, n_per_arm, rng):
        """The subsample as first written: three masks per cell."""
        keep = []
        for tc, zc in ((1, 0), (1, 1), (2, 0), (2, 2)):
            idx = np.nonzero((t == tc) & (z == zc))[0]
            if len(idx) < n_per_arm:
                raise InsufficientCell(
                    f"cell (trial={tc}, arm={zc}) has {len(idx)} < {n_per_arm} members")
            keep.append(rng.choice(idx, size=n_per_arm, replace=False))
        sel = np.sort(np.concatenate(keep))
        return y[sel], z[sel], t[sel], x[sel]

    @classmethod
    def reference_replicate(cls, cfg, r):
        """replicate_datasets as first written, on the reference DGP: the IPD
        arrays, the AGD summaries and the aggregate trial's records."""
        rng = np.random.default_rng([cfg.seed, r])
        factor = cfg.oversample_factor
        while True:
            pop = cls.reference_population(cfg, factor * 4 * cfg.n_per_arm, rng)
            try:
                y, z, t, x = cls.reference_subsample(*pop, cfg.n_per_arm, rng)
                break
            except InsufficientCell:
                factor *= 2
        t1, t2 = t == 1, t == 2
        arms = [(float(y[m].mean()), float(y[m].var(ddof=1)), x[m].mean(axis=0),
                 x[m].var(axis=0, ddof=1)) for m in (t2 & (z == 2), t2 & (z == 0))]
        return (y[t1], z[t1], x[t1]), arms, (y[t2], z[t2], x[t2]), factor

    @pytest.mark.parametrize("p", [4, 5, 7])
    @pytest.mark.parametrize("alpha_slope", [None, 0.0])
    def test_population_and_subsample_equal_the_reference_formulas(self, p, alpha_slope):
        cfg = cfg_with(p=p, confounding=Confounding.SEVERE, alpha_slope=alpha_slope)
        for seed, n_star, n_per_arm in ((1, 40, 10), (2, 400, 100), (3, 4_000, 300)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            pop = generate_population(cfg, n_star, rng)
            ref = self.reference_population(cfg, n_star, ref_rng)
            got = (pop.y, pop.z, pop.t, pop.x)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
            try:
                sub = subsample_by_arm(pop, n_per_arm, rng)
                got = (sub.y, sub.z, sub.t, sub.x)
            except InsufficientCell as e:
                got = str(e)
            try:
                want = self.reference_subsample(*ref, n_per_arm, ref_rng)
            except InsufficientCell as e:
                want = str(e)
            assert pickle.dumps(got) == pickle.dumps(want)
            # the same draws were consumed, up to the first short cell
            assert rng.random() == ref_rng.random()

    def assert_slots_equal_the_reference(self, cfg, indices):
        """Each slot of the block of `indices`, and each lone replicate, equals
        reference_replicate bit for bit; returns the reference's factors."""
        block, agds, records = simulation.replicate_block(cfg, indices)
        refs = [self.reference_replicate(cfg, i) for i in indices]
        for b, (i, (ref_ipd, ref_arms, ref_records, _)) in enumerate(zip(indices, refs)):
            ipd, agd, recs = simulation.replicate_datasets(cfg, i)
            for got in ((ipd.y, ipd.z, ipd.x), (block.y[b], block.z[b], block.x[b])):
                assert all(a.tobytes() == r.tobytes() for a, r in zip(got, ref_ipd))
            assert pickle.dumps(agd) == pickle.dumps(agds.study(b))
            for arm, (y_mean, y_var, x_mean, x_var) in zip(agd.arms, ref_arms):
                assert (arm.n, arm.y_mean, arm.y_var) == (cfg.n_per_arm, y_mean, y_var)
                assert (arm.x_mean.tobytes(), arm.x_var.tobytes()) == (x_mean.tobytes(),
                                                                      x_var.tobytes())
            for got in ((recs.y, recs.z, recs.x), (records.y[b], records.z[b], records.x[b])):
                assert all(a.tobytes() == r.tobytes() for a, r in zip(got, ref_records))
        return {factor for *_, factor in refs}

    @pytest.mark.parametrize("p", [4, 7])
    def test_lone_datasets_equal_their_slots_in_the_block(self, p):
        # 2 patients per arm from 16 draws: some replicates fill every cell
        # at once and some redraw with twice the oversampling
        cfg = cfg_with(p=p, n_per_arm=2, oversample_factor=2, replicates=10, seed=p)
        assert self.assert_slots_equal_the_reference(cfg, [0, 1, 2, 4, 6, 9]) == {2, 4}

    def test_a_realistic_block_equals_the_reference_slot_by_slot(self):
        cfg = cfg_with(p=5, n_per_arm=300, confounding=Confounding.SEVERE, replicates=3, seed=8)
        assert self.assert_slots_equal_the_reference(cfg, [0, 1, 2]) == {4}

    def test_the_stacks_are_c_contiguous(self):
        # a strided stack would make every arm_rows reshape a copy
        block, _, records = simulation.replicate_block(cfg_with(n_per_arm=20), [0, 1, 2])
        for a in (block.y, block.z, block.x, records.y, records.z, records.x):
            assert a.flags.c_contiguous

    def test_lone_replicate_equals_its_place_in_a_block(self):
        cfg = self.failing_cfg()
        for indices in (list(range(cfg.replicates)), [0, 1, 3]):
            block = run_block(cfg, indices)
            assert sum(bool(r.errors) for r in block) not in (0, len(block))
            for i, res in zip(indices, block):
                assert pickle.dumps(run_replicate(cfg, i)) == pickle.dumps(res)
