import math
import warnings

import numpy as np
import pytest

from maic.data_model import OutcomeKind
from maic.errors import (InvalidLevel, MissingWeightModel, NoComparatorArm, RequiresFullIpd,
                         ZeroSe)
from maic.estimators import Method, Scale
from maic.inference import (
    build_comparison_report,
    negative_control_test,
    norm_quantile,
    wald_ci,
    wald_test,
)
from maic.variance import SeStrategy
from maic.weighting import solve_weights

from conftest import make_agd, make_arm, make_ipd

ALL_METHODS = [Method.MAIC_NAB, Method.MAIC_ACB, Method.BUCHER, Method.STC,
               Method.NAIVE]


class TestNormal:
    def test_cdf_quantile_inverse(self):
        # the Wald p-value at the q-quantile is the two-sided tail 2 min(q, 1 - q)
        for q in (0.025, 0.5, 0.975):
            p = wald_test(norm_quantile(q), 1.0)[1]
            assert p == pytest.approx(2 * min(q, 1 - q), abs=1e-12)

    def test_standard_quantile(self):
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


class TestWaldCi:
    def test_symmetric_interval(self):
        lo, hi = wald_ci(0.0, 0.1)
        assert lo == pytest.approx(-0.196, abs=1e-3)
        assert hi == pytest.approx(0.196, abs=1e-3)

    def test_zero_se_degenerates(self):
        assert wald_ci(0.4, 0.0) == (0.4, 0.4)

    def test_negative_se_is_rejected(self):
        with pytest.raises(ZeroSe, match="nonnegative"):
            wald_ci(0.4, -0.1)

    def test_reported_odds_ratio_interval(self):
        # log OR 0.13 with SE 0.30 was reported as OR CI (0.64, 2.04)
        lo, hi = wald_ci(0.13, 0.30)
        assert math.exp(lo) == pytest.approx(0.64, abs=0.015)
        assert math.exp(hi) == pytest.approx(2.04, abs=0.015)

    def test_width_monotone_in_level_and_se(self):
        widths_level = [
            np.diff(wald_ci(0.0, 1.0, lv))[0] for lv in (0.8, 0.9, 0.95, 0.99)
        ]
        assert all(a < b for a, b in zip(widths_level, widths_level[1:]))
        widths_se = [np.diff(wald_ci(0.0, s))[0] for s in (0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(widths_se, widths_se[1:]))

    def test_invalid_level(self):
        with pytest.raises(InvalidLevel):
            wald_ci(0.0, 1.0, level=1.2)


class TestWaldTest:
    def test_null_delta(self):
        z, p = wald_test(0.0, 0.3)
        assert z == 0.0
        assert p == 1.0

    def test_reported_negative_log_or(self):
        # log OR -0.54 with SE 0.27 was reported as p = 0.04
        z, p = wald_test(-0.54, 0.27)
        assert z == pytest.approx(-2.0)
        assert p == pytest.approx(0.0455, abs=1e-3)
        assert p == pytest.approx(0.04, abs=0.01)

    def test_reported_positive_log_or(self):
        _, p = wald_test(0.13, 0.30)
        assert p == pytest.approx(0.665, abs=1e-2)

    def test_sign_invariance(self):
        assert wald_test(0.7, 0.2)[1] == wald_test(-0.7, 0.2)[1]

    def test_zero_se(self):
        with pytest.raises(ZeroSe):
            wald_test(0.1, 0.0)


def two_arm_problem(rng, n=200, mu0_agd=None):
    x = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.5).astype(float)
    z = np.concatenate([np.ones(n // 2, int), np.zeros(n // 2, int)])
    ipd = make_ipd(y, z, x, outcome_kind=OutcomeKind.BINARY)
    target = x.mean(axis=0)
    if mu0_agd is None:
        mu0_agd = float(y[z == 0].mean())
    agd = make_agd(
        active=make_arm(n=80, y_mean=0.55, y_var=0.25, x_mean=target),
        comparator=make_arm(n=80, y_mean=mu0_agd, y_var=0.25, x_mean=target),
        names=ipd.covariate_names,
    )
    model = solve_weights(ipd, target)
    return ipd, agd, model


class TestNegativeControl:
    def test_matched_comparator_means_do_not_reject(self, rng):
        ipd, agd, model = two_arm_problem(rng)
        result = negative_control_test(ipd, agd, model)
        assert result.z == pytest.approx(0.0, abs=1e-10)
        assert not result.reject_at_level
        assert result.p_value == pytest.approx(1.0, abs=1e-8)

    def test_large_discrepancy_rejects(self, rng):
        ipd, agd, model = two_arm_problem(rng, mu0_agd=0.95)
        result = negative_control_test(ipd, agd, model)
        assert abs(result.z) > norm_quantile(0.975)
        assert result.reject_at_level

    def test_needs_a_fitted_weight_model(self, rng):
        ipd, agd, _ = two_arm_problem(rng)
        with pytest.raises(MissingWeightModel):
            negative_control_test(ipd, agd, None)

    def test_needs_comparator_arms(self, rng):
        ipd, agd, model = two_arm_problem(rng)
        single = make_agd(active=agd.active_arm, names=agd.covariate_names)
        with pytest.raises(NoComparatorArm):
            negative_control_test(ipd, single, model)

    @pytest.mark.parametrize("alpha", [2.0, 0.0, 1.0, -0.1, math.nan, math.inf])
    def test_alpha_outside_the_unit_interval_is_rejected(self, rng, alpha):
        ipd, agd, model = two_arm_problem(rng)
        with pytest.raises(InvalidLevel, match="alpha"):
            negative_control_test(ipd, agd, model, alpha_level=alpha)

    def test_levels_whose_normal_quantile_is_infinite_are_rejected(self, rng):
        # 1 - alpha/2 and (1 + level)/2 round to 1 in floating point
        ipd, agd, model = two_arm_problem(rng)
        with pytest.raises(InvalidLevel, match="alpha level"):
            negative_control_test(ipd, agd, model, alpha_level=1e-17)
        with pytest.raises(InvalidLevel, match="confidence level"):
            build_comparison_report(ipd, agd, model, [Method.MAIC_NAB],
                                    level=0.9999999999999999)

    @pytest.mark.parametrize("scale", list(Scale))
    def test_se0_is_fo_on_the_comparator_pair_bit_for_bit(self, rng, scale):
        # fo on the comparator pair written out: the fixed-weight variance of
        # the weighted IPD comparator mean plus the reported mean's term
        for _ in range(10):
            ipd, agd, model = two_arm_problem(rng, n=2 * int(rng.integers(20, 150)),
                                              mu0_agd=float(rng.uniform(0.3, 0.7)))
            result = negative_control_test(ipd, agd, model, scale)
            arm, w, cmp = agd.comparator_arm, model.weights, ipd.z == 0
            n_total = ipd.n + agd.n_total
            mu0 = float((w[cmp] * ipd.y[cmp]).sum() / w[cmp].sum())
            mask = cmp.astype(float)
            phi0 = scale.g_prime(mu0) * ((ipd.y - mu0) * w * mask / ((w * mask).sum() / n_total))
            var = float((phi0**2).sum() / n_total - (phi0.sum() / n_total) ** 2)
            var_agd = scale.g_prime(arm.y_mean) ** 2 * arm.y_var / (arm.n / n_total)
            assert result.se0.hex() == math.sqrt((var + var_agd) / n_total).hex()
            assert result.delta0 == scale.g(mu0) - scale.g(arm.y_mean)

    @pytest.mark.parametrize("scale", list(Scale))
    @pytest.mark.parametrize("mu0_agd", [None, 0.95])
    def test_result_holds_builtin_floats_and_a_bool(self, rng, scale, mu0_agd):
        # negcontrol.json is written by json.dumps, which rejects numpy's bool
        ipd, agd, model = two_arm_problem(rng, mu0_agd=mu0_agd)
        result = negative_control_test(ipd, agd, model, scale)
        assert [type(v) for v in (result.delta0, result.se0, result.z, result.p_value)] == \
            [float] * 4
        assert type(result.reject_at_level) is bool

    def test_alpha_level_threshold(self, rng):
        ipd, agd, model = two_arm_problem(rng, mu0_agd=0.62)
        loose = negative_control_test(ipd, agd, model, alpha_level=0.999)
        assert loose.reject_at_level or loose.p_value > 0.999


class TestComparisonReport:
    def test_all_methods_with_stc_point_only(self, rng):
        ipd, agd, model = two_arm_problem(rng)
        report = build_comparison_report(ipd, agd, model, ALL_METHODS)
        assert set(report.estimates) == {m.value for m in ALL_METHODS}
        assert not any(m == Method.STC.value for (m, _) in report.ses)
        rows = report.rows()
        stc_rows = [r for r in rows if r["method"] == "stc"]
        assert len(stc_rows) == 1
        assert stc_rows[0]["se"] == ""

    def test_direct_strategies_only_for_unweighted_methods(self, rng):
        ipd, agd, model = two_arm_problem(rng)
        report = build_comparison_report(ipd, agd, model, ALL_METHODS)
        for method in (Method.BUCHER, Method.NAIVE):
            strategies = {s for (m, s) in report.ses if m == method.value}
            assert strategies == {SeStrategy.FO.value, SeStrategy.SW.value}
        maic_strats = {s for (m, s) in report.ses if m == Method.MAIC_NAB.value}
        assert maic_strats == {"fo", "po", "cs", "sw"}

    def test_full_strategy_is_reported_as_requiring_the_aggregate_records(self, rng):
        # a report has no aggregate-trial records; full applies to maic-nab only
        ipd, agd, model = two_arm_problem(rng)
        report = build_comparison_report(ipd, agd, model, ALL_METHODS,
                                         strategies=[SeStrategy.FULL, SeStrategy.FO])
        assert report.errors == {
            "maic-nab/full": (f"{RequiresFullIpd.__name__}: full influence function "
                              "needs the aggregate trial's records"),
        }
        assert set(report.ses) == {(m.value, "fo") for m in ALL_METHODS if m is not Method.STC}

    def test_single_arm_agd_flags_anchored_methods_only(self, rng):
        ipd, agd, model = two_arm_problem(rng)
        single = make_agd(active=agd.active_arm, names=agd.covariate_names)
        report = build_comparison_report(ipd, single, model, ALL_METHODS)
        assert "maic-acb" in report.errors
        assert "NoComparatorArm" in report.errors["maic-acb"]
        assert "bucher" in report.errors
        assert {"maic-nab", "stc", "naive"} <= set(report.estimates)

    def test_a_missing_fit_is_filed_by_name_under_each_key_that_reads_it(self, rng):
        ipd, agd, _ = two_arm_problem(rng)
        report = build_comparison_report(ipd, agd, None,
                                         [Method.MAIC_NAB, Method.MAIC_ACB, Method.BUCHER],
                                         run_negative_control=True)
        assert set(report.errors) == {"maic-nab", "maic-acb", "negative_control"}
        assert all(e.startswith("MissingWeightModel: ") for e in report.errors.values())
        assert set(report.estimates) == {"bucher"}
        assert report.negative_control is None

    def test_null_comparison_deltas_near_zero(self, rng):
        n = 4000
        x = rng.normal(size=(n, 1))
        y = (rng.random(n) < 0.5).astype(float)
        z = np.concatenate([np.ones(n // 2, int), np.zeros(n // 2, int)])
        ipd = make_ipd(y, z, x, outcome_kind=OutcomeKind.BINARY)
        agd = make_agd(
            active=make_arm(n=n // 2, y_mean=float(y[z == 1].mean()), y_var=0.25,
                            x_mean=[float(x.mean())]),
            comparator=make_arm(n=n // 2, y_mean=float(y[z == 0].mean()), y_var=0.25,
                                x_mean=[float(x.mean())]),
            names=ipd.covariate_names,
        )
        model = solve_weights(ipd, np.array([float(x.mean())]))
        report = build_comparison_report(ipd, agd, model, ALL_METHODS)
        for name, est in report.estimates.items():
            assert abs(est.delta) < 0.1, name

    @staticmethod
    def singular_jacobian_problem(rng):
        # x2 is constant and on target, so the moment Jacobian is singular
        n = 60
        x = np.column_stack([rng.normal(size=n), np.full(n, 0.5)])
        y = (rng.random(n) < 0.5).astype(float)
        z = np.concatenate([np.ones(n // 2, int), np.zeros(n // 2, int)])
        ipd = make_ipd(y, z, x, outcome_kind=OutcomeKind.BINARY)
        target = np.array([float(x[:, 0].mean()) + 0.1, 0.5])
        agd = make_agd(
            active=make_arm(n=80, y_mean=0.55, y_var=0.25, x_mean=target),
            comparator=make_arm(n=80, y_mean=0.45, y_var=None, x_mean=target),
            names=ipd.covariate_names,
        )
        with pytest.warns(UserWarning, match="singular Hessian"):
            model = solve_weights(ipd, target)
        return ipd, agd, model

    def test_unweighted_ses_survive_a_singular_moment_jacobian(self, rng):
        # bucher and naive estimate no weight coefficients and never need it
        ipd, agd, model = self.singular_jacobian_problem(rng)
        methods = [Method.BUCHER, Method.NAIVE]
        fitted = build_comparison_report(ipd, agd, model, methods)
        unfitted = build_comparison_report(ipd, agd, None, methods)
        assert fitted.errors == {}
        assert set(fitted.ses) == {(m.value, s) for m in methods for s in ("fo", "sw")}
        assert fitted.to_dict()["methods"] == unfitted.to_dict()["methods"]

    def test_fo_and_sw_survive_a_singular_moment_jacobian(self, rng):
        # fo and sw omit the weight-coefficient terms, so only po and cs,
        # which solve the moment Jacobian, fail
        ipd, agd, model = self.singular_jacobian_problem(rng)
        methods = [Method.MAIC_NAB, Method.MAIC_ACB]
        # the null check, fo on the comparator pair, solves no Jacobian either:
        # it is reported, and no condition-number warning is raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = build_comparison_report(ipd, agd, model, methods,
                                             run_negative_control=True)
        assert caught == []
        assert set(report.ses) == {(m.value, s) for m in methods for s in ("fo", "sw")}
        assert set(report.errors) == {f"{m.value}/{s}" for m in methods for s in ("po", "cs")}
        assert all(e.startswith("SingularJacobian") for e in report.errors.values())
        assert report.negative_control is not None and report.negative_control.se0 > 0

    def test_json_round_trip_and_csv(self, rng, tmp_path):
        import csv
        import json

        ipd, agd, model = two_arm_problem(rng)
        report = build_comparison_report(
            ipd, agd, model, ALL_METHODS, run_negative_control=True
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert "negative_control" in doc
        assert doc["diagnostics"]["balance_max_norm"] <= 1e-10
        out = tmp_path / "report.csv"
        report.write_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {m.value for m in ALL_METHODS}

    def test_ci_and_p_are_consistent(self, rng):
        ipd, agd, model = two_arm_problem(rng)
        report = build_comparison_report(ipd, agd, model, [Method.MAIC_NAB])
        for key, se in report.ses.items():
            lo, hi = report.cis[key]
            delta = report.estimates[key[0]].delta
            assert lo <= delta <= hi
            covers_zero = lo <= 0.0 <= hi
            assert covers_zero == (report.p_values[key] > 0.05)
