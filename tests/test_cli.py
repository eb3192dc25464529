import builtins
import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maic
from maic import errors
from maic.cli import main
from maic.errors import MaicError

from test_data_model import REFUSED, not_utf8_file, piped


@pytest.fixture
def io_pair(tmp_path):
    """A balanced toy IPD/AGD pair: target equals the IPD covariate mean."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = (rng.random(40) < 0.5).astype(int)
    z = np.array([1] * 20 + [0] * 20)
    ipd = tmp_path / "ipd.csv"
    with open(ipd, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "z", "x1", "x2"])
        for yi, zi, xi in zip(y, z, x):
            writer.writerow([yi, zi, *xi])
    agd = tmp_path / "agd.json"
    agd.write_text(json.dumps({
        "covariates": ["x1", "x2"],
        "arms": {
            "active": {"n": 50, "y_mean": 0.52, "y_var": 0.25,
                       "x_mean": list(x.mean(axis=0)), "x_var": [1.0, 1.0]},
            "comparator": {"n": 50, "y_mean": 0.48, "y_var": 0.25,
                           "x_mean": list(x.mean(axis=0)), "x_var": [1.0, 1.0]},
        },
    }))
    return ipd, agd


def no_covariate_pair(tmp_path):
    """An IPD CSV with only y and z and an AGD document with no covariates."""
    ipd = tmp_path / "yz.csv"
    ipd.write_text("y,z\n1,1\n0,1\n1,1\n0,0\n1,0\n0,0\n")
    arm = {"n": 50, "y_mean": 0.4, "y_var": 0.24, "x_mean": []}
    agd = tmp_path / "none.json"
    agd.write_text(json.dumps({"covariates": [], "arms": {"active": arm, "comparator": arm}}))
    return ipd, agd


class TestFit:
    def test_balanced_inputs_give_null_weights(self, io_pair, tmp_path):
        ipd, agd = io_pair
        out = tmp_path / "fit"
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "model.json").read_text())
        np.testing.assert_allclose(doc["alpha1"], 0.0, atol=1e-10)
        assert doc["ess"]["1"] == pytest.approx(20.0)
        assert doc["diagnostics"]["balance_max_norm"] <= 1e-10
        assert (out / "weights.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["input_digests"]) == {str(ipd), str(agd)}
        assert manifest["command"] == "fit"

    def test_target_outside_hull_exits_2(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["active"]["x_mean"] = [50.0, 50.0]
        doc["arms"]["comparator"]["x_mean"] = [50.0, 50.0]
        agd.write_text(json.dumps(doc))
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(tmp_path / "fit2")])
        assert code == 2
        err = capsys.readouterr().err
        assert "coordinate" in err
        assert "residual" in err
        assert "np.float64" not in err

    def test_second_moments_without_x_var_exit_1(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        del doc["arms"]["active"]["x_var"]
        agd.write_text(json.dumps(doc))
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd),
                     "--moments", "first+second", "--out", str(tmp_path / "f3")])
        assert code == 1
        assert "MissingVariance" in capsys.readouterr().err

    @pytest.mark.parametrize("arm", ["active", "comparator"])
    @pytest.mark.parametrize("command", ["fit", "compare", "negcontrol"])
    def test_second_moments_without_x_var_name_the_file_and_the_arm(self, io_pair, tmp_path,
                                                                    capsys, command, arm):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        del doc["arms"][arm]["x_var"]
        agd.write_text(json.dumps(doc))
        code = main([command, "--ipd", str(ipd), "--agd", str(agd),
                     "--moments", "first+second", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: MissingVariance: {agd}: ")
        assert f"the {arm} arm" in err

    @pytest.mark.parametrize("command", [["fit"], ["compare"], ["negcontrol"],
                                         ["compare", "--methods", "bucher,naive"]],
                             ids=["fit", "compare", "negcontrol", "compare-bucher,naive"])
    def test_an_arm_size_beyond_a_float_names_the_file_and_n(self, io_pair, tmp_path, capsys,
                                                             command):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["active"]["n"] = 10**400
        agd.write_text(json.dumps(doc))
        code = main([*command, "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: SchemaError: {agd}: arm sample size n exceeds 2**53")
        assert "Traceback" not in err

    def test_bad_csv_exits_1(self, io_pair, tmp_path, capsys):
        _, agd = io_pair
        bad = tmp_path / "bad.csv"
        bad.write_text("y,z,x1,x2\n1,7,0.1,0.2\n")
        code = main(["fit", "--ipd", str(bad), "--agd", str(agd),
                     "--out", str(tmp_path / "f4")])
        assert code == 1
        assert "InvalidArmCode" in capsys.readouterr().err

    def test_covariate_name_mismatch_names_the_agd_file(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["covariates"] = ["age", "x2"]
        agd.write_text(json.dumps(doc))
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(tmp_path / "f5")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"DimensionMismatch: {agd}: IPD/AGD covariate names differ" in err

    def test_binary_outcome_not_coded_01_exits_1(self, io_pair, tmp_path, capsys):
        _, agd = io_pair
        bad = tmp_path / "half.csv"
        bad.write_text("y,z,x1,x2\n1,1,0.1,0.2\n0.5,0,0.3,0.1\n")
        code = main(["fit", "--ipd", str(bad), "--agd", str(agd),
                     "--out", str(tmp_path / "f5")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"NonNumericValue: {bad}:3: binary outcome '0.5'" in err
        assert "in 'y'" in err


    def test_comparator_only_ipd_names_the_file(self, io_pair, tmp_path, capsys):
        _, agd = io_pair
        bad = tmp_path / "no_active.csv"
        bad.write_text("y,z,x1,x2\n1,0,0.1,0.2\n0,0,0.3,0.1\n")
        code = main(["fit", "--ipd", str(bad), "--agd", str(agd),
                     "--out", str(tmp_path / "f7")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"EmptyStudy: {bad}: " in err

    @pytest.mark.parametrize("n", ["abc", 50.5, True])
    def test_bad_agd_arm_size_names_the_file(self, io_pair, tmp_path, capsys, n):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["active"]["n"] = n
        agd.write_text(json.dumps(doc))
        out = tmp_path / "bad_n"
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"SchemaError: {agd}: AGD arm field 'n'" in err
        assert not (out / "model.json").exists()

    def test_agd_vector_that_is_not_flat_exits_1(self, tmp_path, capsys):
        # one covariate: a nested x_mean passes a length check of 1
        ipd = tmp_path / "ipd.csv"
        ipd.write_text("y,z,x1\n1,1,0.2\n0,1,-0.1\n1,0,0.4\n0,0,0.1\n")
        arm = {"n": 30, "y_mean": 0.5, "y_var": 0.25, "x_mean": [[0.1, 0.0]]}
        agd = tmp_path / "agd.json"
        agd.write_text(json.dumps({"covariates": ["x1"],
                                   "arms": {"active": arm, "comparator": arm}}))
        for command in ("fit", "compare"):
            code = main([command, "--ipd", str(ipd), "--agd", str(agd),
                         "--out", str(tmp_path / command)])
            err = capsys.readouterr().err
            assert code == 1
            assert f"SchemaError: {agd}: AGD arm field 'x_mean'" in err

    def test_repeated_csv_header_name_exits_1(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        ipd.write_text(ipd.read_text().replace("y,z,x1,x2", "y,z,x2,x2", 1))
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(tmp_path / "dup")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"SchemaError: {ipd}: column 'x2' appears more than once in the header" in err

    @pytest.mark.parametrize("command", ["fit", "negcontrol"])
    def test_no_covariate_columns_exits_1_by_name(self, tmp_path, capsys, command):
        ipd, agd = no_covariate_pair(tmp_path)
        out = tmp_path / command
        code = main([command, "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "DimensionMismatch: the weights need at least one covariate" in err
        assert not out.exists() or not any(out.glob("*.json"))

    def test_weight_underflowing_to_zero_exits_0(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=200), [-1500.0]])
        ipd = tmp_path / "far.csv"
        ipd.write_text("y,z,x1\n" + "".join(f"{i % 2},1,{v}\n" for i, v in enumerate(x.tolist())))
        agd = tmp_path / "far.json"
        agd.write_text(json.dumps({"covariates": ["x1"], "arms": {
            "active": {"n": 50, "y_mean": 0.5, "y_var": 0.25, "x_mean": [1.0]}}}))
        out = tmp_path / "f6"
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["diagnostics"]["balance_max_norm"] <= 1e-10
        assert min(doc["diagnostics"]["largest_weights"]) > 0.0
        with open(out / "weights.csv", newline="") as fh:
            weights = [float(r["weight"]) for r in csv.DictReader(fh)]
        assert weights.count(0.0) == 1 and weights[-1] == 0.0


class TestCompare:
    def test_binary_mean_outside_unit_interval_exits_1(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["active"]["y_mean"] = 1.5
        del doc["arms"]["active"]["y_var"]
        agd.write_text(json.dumps(doc))
        out = tmp_path / "cmp_bad"
        with pytest.warns(UserWarning, match="without y_var"):
            code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"SchemaError: {agd}: active arm y_mean 1.5" in err
        assert not (out / "report.json").exists()

    def test_continuous_stc_is_least_squares(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 60
        x = rng.normal(size=(n, 2))
        z = np.repeat([1, 0], n // 2)
        y = 0.4 + x @ np.array([1.3, -0.7]) + rng.normal(size=n)
        ipd = tmp_path / "cont.csv"
        ipd.write_text("y,z,x1,x2\n" + "".join(
            f"{yi},{zi},{x1},{x2}\n" for yi, zi, (x1, x2) in zip(y.tolist(), z, x.tolist())))
        agd = tmp_path / "cont.json"
        agd.write_text(json.dumps({"covariates": ["x1", "x2"], "arms": {
            "active": {"n": 40, "y_mean": 0.9, "y_var": 1.2, "x_mean": [0.2, -0.1]},
            "comparator": {"n": 60, "y_mean": 0.3, "y_var": 1.1, "x_mean": [0.1, 0.3]}}}))
        out = tmp_path / "cmp_stc"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--outcome-kind", "continuous", "--methods", "stc", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["errors"] == {}
        # normal equations on the active arm, evaluated at the pooled AGD means
        design = np.column_stack([np.ones(n // 2), x[z == 1]])
        coef = np.linalg.solve(design.T @ design, design.T @ y[z == 1])
        xbar = (40 * np.array([0.2, -0.1]) + 60 * np.array([0.1, 0.3])) / 100
        mu1 = coef[0] + xbar @ coef[1:]
        stc = doc["methods"]["stc"]
        assert stc["mu1"] == pytest.approx(mu1, rel=1e-12)
        assert stc["delta"] == pytest.approx(mu1 - 0.9, rel=1e-12)

    def test_stc_far_outside_the_ipd_support_exits_0(self, tmp_path, capsys):
        # the logistic prediction at x = -500 has a linear predictor far
        # below -709, where exp(-v) overflows a double
        rng = np.random.default_rng(5)
        x = rng.normal(size=200)
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-3.0 * x))).astype(int)
        ipd = tmp_path / "steep.csv"
        ipd.write_text("y,z,x1\n" + "".join(f"{yi},1,{xi}\n" for yi, xi in zip(y, x.tolist())))
        agd = tmp_path / "far.json"
        agd.write_text(json.dumps({"covariates": ["x1"], "arms": {
            "active": {"n": 50, "y_mean": 0.4, "y_var": 0.24, "x_mean": [-500.0]}}}))
        out = tmp_path / "cmp_far"
        with pytest.warns(UserWarning, match="extrapolating"):
            code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                         "--methods", "stc", "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["errors"] == {}
        mu1 = doc["methods"]["stc"]["mu1"]
        assert 0.0 <= mu1 < 1e-300
        assert doc["methods"]["stc"]["delta"] == mu1 - 0.4

    # the outcome means overflow to inf on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_exits_2_and_writes_no_report(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        z = np.repeat([1, 0], 20)
        y = np.where(np.arange(40) % 2, 1.7e308, -1.7e308)
        ipd = tmp_path / "huge.csv"
        ipd.write_text("y,z,x1,x2\n" + "".join(
            f"{yi!r},{zi},{x1!r},{x2!r}\n" for yi, zi, (x1, x2) in zip(y.tolist(), z, x.tolist())))
        agd = tmp_path / "huge.json"
        agd.write_text(json.dumps({"covariates": ["x1", "x2"], "arms": {
            "active": {"n": 50, "y_mean": 0.5, "y_var": 1.0, "x_mean": [0.1, 0.0]},
            "comparator": {"n": 50, "y_mean": 0.4, "y_var": 1.0, "x_mean": [0.1, 0.0]}}}))
        out = tmp_path / "cmp_huge"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--outcome-kind", "continuous", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"NonFiniteResult: {out / 'report.json'}: " in err
        assert not out.exists()

    def test_se_full_is_rejected_by_name(self, io_pair, tmp_path, capsys):
        # full needs the aggregate trial's raw records, which compare never has
        ipd, agd = io_pair
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--se", "fo,full", "--out", str(tmp_path / "cmp_full")])
        err = capsys.readouterr().err
        assert code == 1
        assert "KeyError" not in err and "Traceback" not in err
        assert "full" in err and "simulation" in err
        assert not (tmp_path / "cmp_full" / "report.json").exists()

    @pytest.mark.parametrize("flag, value, accepted", [
        ("--methods", "maic-nab,bogus", "maic-nab, maic-acb, bucher, stc, naive"),
        ("--se", "xx", "fo, po, cs, sw (or all alone"),
        ("--se", "fo,full", "fo, po, cs, sw (or all alone"),
    ])
    def test_unknown_method_or_strategy_is_named(self, io_pair, tmp_path, capsys, flag,
                                                 value, accepted):
        ipd, agd = io_pair
        out = tmp_path / "cmp_choice"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), flag, value,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: InvalidChoice: {flag}: ")
        assert accepted in err
        assert not out.exists() or not any(out.iterdir())

    def test_full_report(self, io_pair, tmp_path):
        ipd, agd = io_pair
        out = tmp_path / "cmp"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--scale", "logit", "--methods", "naive,maic-nab,stc",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["methods"]) == {"naive", "maic-nab", "stc"}
        assert doc["methods"]["stc"]["se"] == {}
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        stc_rows = [r for r in rows if r["method"] == "stc"]
        assert len(stc_rows) == 1 and stc_rows[0]["se"] == ""

    def test_matched_populations_have_null_deltas(self, io_pair, tmp_path):
        ipd, agd = io_pair
        # align the AGD outcome means with the IPD arms exactly
        with open(ipd, newline="") as fh:
            rows = list(csv.DictReader(fh))
        y = [int(r["y"]) for r in rows]
        z = [int(r["z"]) for r in rows]
        mu1 = np.mean([yi for yi, zi in zip(y, z) if zi == 1])
        mu0 = np.mean([yi for yi, zi in zip(y, z) if zi == 0])
        doc = json.loads(agd.read_text())
        doc["arms"]["active"]["y_mean"] = float(mu1)
        doc["arms"]["comparator"]["y_mean"] = float(mu0)
        agd.write_text(json.dumps(doc))
        out = tmp_path / "cmp0"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--methods", "maic-nab,maic-acb,bucher,naive",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        for name, entry in doc["methods"].items():
            assert abs(entry["delta"]) < 1e-10, name

    def test_se_all_keyword(self, io_pair, tmp_path):
        ipd, agd = io_pair
        out = tmp_path / "cmp2"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--methods", "maic-nab", "--se", "all", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["methods"]["maic-nab"]["se"]) == {"fo", "po", "cs", "sw"}

    def test_a_repeated_method_or_strategy_writes_the_report_of_one(self, io_pair, tmp_path):
        ipd, agd = io_pair
        pair = ["--ipd", str(ipd), "--agd", str(agd)]
        assert main(["compare", *pair, "--methods", "maic-nab", "--se", "all",
                     "--out", str(tmp_path / "one")]) == 0
        assert main(["compare", *pair, "--methods", "maic-nab,maic-nab",
                     "--se", "fo,po,cs,sw,fo", "--out", str(tmp_path / "two")]) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        one, two = (json.loads((tmp_path / d / "manifest.json").read_text())["config"]
                    for d in ("one", "two"))
        assert two == one and two["methods"] == ["maic-nab"]

    def test_naive_alone_gets_unit_weight_ses(self, io_pair, tmp_path, capsys):
        # no MAIC method means no fitted weight model
        ipd, agd = io_pair
        out = tmp_path / "cmp3"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--methods", "naive", "--se", "fo", "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["methods"]["naive"]["se"]["fo"]["se"] > 0
        assert doc["errors"] == {}

    def test_negcontrol_without_a_weighted_method_fits_the_weights(self, io_pair, tmp_path):
        ipd, agd = io_pair
        pair = ["--ipd", str(ipd), "--agd", str(agd)]
        assert main(["compare", *pair, "--methods", "bucher,naive", "--negcontrol",
                     "--out", str(tmp_path / "cmp")]) == 0
        assert main(["negcontrol", *pair, "--out", str(tmp_path / "neg")]) == 0
        doc = json.loads((tmp_path / "cmp" / "report.json").read_text())
        assert doc["errors"] == {}
        assert doc["negative_control"] == json.loads((tmp_path / "neg" / "negcontrol.json")
                                                     .read_text())

    def test_negcontrol_fit_that_does_not_converge_exits_2(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        for arm in doc["arms"].values():
            arm["x_mean"] = [50.0, 50.0]
        agd.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--methods", "bucher",
                     "--negcontrol", "--out", str(out)])
        assert code == 2
        assert "residual" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flag", [[], ["--negcontrol"]])
    def test_manifest_records_negcontrol(self, io_pair, tmp_path, flag):
        ipd, agd = io_pair
        out = tmp_path / "cmp"
        assert main(["compare", "--ipd", str(ipd), "--agd", str(agd), *flag,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "compare"
        assert manifest["config"]["negcontrol"] is bool(flag)

    def test_single_patient_arm_without_variance_files_each_se_error(self, io_pair, tmp_path):
        # the Bernoulli fallback needs n >= 2; the point estimate does not
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["active"].update(n=1)
        for key in ("y_var", "x_var"):
            del doc["arms"]["active"][key]
        agd.write_text(json.dumps(doc))
        out = tmp_path / "one"
        with pytest.warns(UserWarning, match="y_var"):
            code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                         "--methods", "maic-nab", "--se", "all", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "delta" in report["methods"]["maic-nab"]
        assert set(report["errors"]) == {f"maic-nab/{s}" for s in ("fo", "po", "cs", "sw")}
        assert all(e.startswith("MissingAgdVariance: ") and "n >= 2" in e
                   for e in report["errors"].values())

    def test_no_covariates_files_the_stc_error(self, tmp_path):
        # naive and bucher weight no covariates; stc regresses on them
        ipd, agd = no_covariate_pair(tmp_path)
        out = tmp_path / "yz"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--methods", "naive,bucher,stc", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["methods"]) == {"naive", "bucher"}
        assert report["errors"] == {"stc": "DimensionMismatch: stc needs at least one covariate"}

    @pytest.mark.parametrize("key, value", [("y_var", "nan"), ("y_mean", "nan"),
                                            ("x_mean", ["nan", 0.0]), ("x_var", ["inf", 1.0])])
    def test_non_finite_agd_string_exits_1_by_name(self, io_pair, tmp_path, capsys, key, value):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["comparator"][key] = value
        agd.write_text(json.dumps(doc))
        out = tmp_path / "nan"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--moments", "first+second", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"SchemaError: {agd}: AGD arm field {key!r}" in err
        assert not (out / "report.json").exists()

    def test_ipd_row_with_an_extra_cell_exits_1_by_line(self, io_pair, tmp_path, capsys):
        # an unquoted decimal comma in the first data row
        ipd, agd = io_pair
        lines = ipd.read_text().splitlines()
        lines[1] = "1,1,1,5,0.3"
        ipd.write_text("\n".join(lines) + "\n")
        out = tmp_path / "long"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"SchemaError: {ipd}:2: 5 cells under 4 header names" in err
        assert not (out / "report.json").exists()

    def test_covariates_given_as_a_string_exit_1_by_name(self, tmp_path, capsys):
        # "x" must not load as the one name 'x' and match an IPD column x
        ipd = tmp_path / "ipd.csv"
        ipd.write_text("y,z,x\n1,1,0.2\n0,1,-0.1\n1,0,0.4\n0,0,0.1\n")
        arm = {"n": 30, "y_mean": 0.5, "y_var": 0.25, "x_mean": [0.1]}
        agd = tmp_path / "agd.json"
        agd.write_text(json.dumps({"covariates": "x", "arms": {"active": arm, "comparator": arm}}))
        out = tmp_path / "names"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"SchemaError: {agd}: AGD document field 'covariates'" in err
        assert not (out / "report.json").exists()

    @staticmethod
    def collinear_pair(tmp_path):
        """An IPD/AGD pair whose two covariates are nearly collinear."""
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=40)
        x2 = x1 + 1e-7 * rng.normal(size=40)
        ipd = tmp_path / "ipd.csv"
        with open(ipd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "z", "x1", "x2"])
            writer.writerows(zip([1, 0] * 20, [1] * 20 + [0] * 20, x1, x2))
        arm = {"n": 50, "y_mean": 0.5, "y_var": 0.25, "x_mean": [x1.mean(), x2.mean()]}
        agd = tmp_path / "agd.json"
        agd.write_text(json.dumps({"covariates": ["x1", "x2"],
                                   "arms": {"active": arm, "comparator": arm}}))
        return ipd, agd

    def test_nearly_collinear_covariates_warn_of_the_moment_jacobian(self, tmp_path):
        ipd, agd = self.collinear_pair(tmp_path)
        out = tmp_path / "collinear"
        with pytest.warns(UserWarning, match="moment Jacobian condition number .* exceeds"):
            code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                         "--methods", "maic-nab", "--se", "po", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()

    def test_a_covariate_with_a_large_mean_does_not_warn_of_the_moment_jacobian(self, tmp_path):
        # a raw calendar year and its square: the moment Jacobian's condition
        # number exceeds 1e12 only through the moments' scales, and the
        # centred year gives the same SEs without a warning
        rng = np.random.default_rng(3)
        age, year = rng.normal(60.0, 8.0, 200), 2015.0 + 3.0 * rng.integers(-3, 4, 200)
        y, z = (rng.random(200) < 0.4).astype(int), np.repeat([1, 0], 100)
        ses = []
        for name, offset in (("raw", 0.0), ("centred", 2015.0)):
            x = np.column_stack([age, year - offset])
            ipd = tmp_path / f"{name}.csv"
            with open(ipd, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["y", "z", "age", "year"])
                writer.writerows(zip(y, z, *x.T.tolist()))
            arm = {"n": 150, "y_mean": 0.45, "y_var": 0.25,
                   "x_mean": [61.0, 2016.5 - offset], "x_var": [60.0, 31.5]}
            agd = tmp_path / f"{name}.json"
            agd.write_text(json.dumps({"covariates": ["age", "year"],
                                       "arms": {"active": arm, "comparator": arm}}))
            out = tmp_path / f"out-{name}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--moments",
                             "first+second", "--methods", "maic-nab,maic-acb", "--se", "po",
                             "--out", str(out)])
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            ses.append([m["se"]["po"]["se"] for m in report["methods"].values()])
        assert ses[0] == pytest.approx(ses[1], rel=1e-9)

    @pytest.mark.parametrize("se", ["fo", "sw", "fo,sw"])
    def test_fo_and_sw_build_no_moment_jacobian(self, tmp_path, monkeypatch, se):
        # neither solves the Jacobian, so neither builds it or warns of it
        ipd, agd = self.collinear_pair(tmp_path)
        calls = []
        build = maic.variance._moment_jacobians
        monkeypatch.setattr(maic.variance, "_moment_jacobians",
                            lambda *a: calls.append(a) or build(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--methods",
                         "maic-nab,maic-acb", "--se", se, "--negcontrol",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert calls == []
        with pytest.warns(UserWarning, match="moment Jacobian condition number"):
            main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--methods", "maic-nab",
                  "--se", "po", "--out", str(tmp_path / "po")])
        assert len(calls) == 1

    def test_the_moment_jacobian_warns_once_per_fit(self, tmp_path):
        # maic-nab and maic-acb solve the one Jacobian of the one fit
        ipd, agd = self.collinear_pair(tmp_path)
        with pytest.warns(UserWarning) as record:
            code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--methods",
                         "maic-nab,maic-acb", "--se", "po", "--out", str(tmp_path / "out")])
        assert code == 0
        assert [str(w.message).split(" exceeds")[0] for w in record] == [
            str(record[0].message).split(" exceeds")[0]]
        assert "moment Jacobian condition number" in str(record[0].message)

    def test_a_crlf_copy_with_a_byte_order_mark_writes_the_same_report(self, tmp_path):
        # numpy's reader parses the IPD rows from the path itself; neither the
        # line endings nor a byte-order mark may reach a report byte
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 3))
        z = np.arange(300) % 2
        y = (rng.random(300) < 0.3 + 0.3 * z).astype(int)
        text = "".join(f"{a},{b}," + ",".join(map(repr, r)) + "\n"
                       for a, b, r in zip(y, z, x.tolist()))
        text = "y,z,x1,x2,x3\n" + text
        (tmp_path / "lf.csv").write_bytes(text.encode())
        (tmp_path / "crlf.csv").write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())

        def arm(m):
            return {"n": 150, "y_mean": m, "y_var": m * (1 - m) * 150 / 149,
                    "x_mean": [0.2, -0.1, 0.1]}

        agd = tmp_path / "agd.json"
        agd.write_text(json.dumps({"covariates": ["x1", "x2", "x3"],
                                   "arms": {"active": arm(0.5), "comparator": arm(0.35)}}))
        reports = []
        for name in ("lf", "crlf"):
            out = tmp_path / f"out-{name}"
            assert main(["compare", "--ipd", str(tmp_path / f"{name}.csv"), "--agd", str(agd),
                         "--se", "all", "--negcontrol", "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert b'"negative_control"' in reports[0]

    def test_misspelt_comparator_arm_exits_1_by_name(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["comparater"] = doc["arms"].pop("comparator")
        agd.write_text(json.dumps(doc))
        out = tmp_path / "typo"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"SchemaError: {agd}: unknown AGD arms key 'comparater'" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("level", ["2", "0", "1", "nan", "inf"])
    def test_level_outside_the_unit_interval_is_named(self, io_pair, tmp_path, capsys, level):
        ipd, agd = io_pair
        out = tmp_path / "cmp_level"
        code = main(["compare", "--ipd", str(ipd), "--agd", str(agd),
                     "--level", level, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: InvalidLevel: --level must lie in (0, 1), got ")
        assert not out.exists()


class TestNegControl:
    def test_writes_result(self, io_pair, tmp_path):
        ipd, agd = io_pair
        out = tmp_path / "neg"
        code = main(["negcontrol", "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "negcontrol.json").read_text())
        assert {"delta0", "se0", "z", "p_value", "reject"} <= set(doc)

    def test_single_arm_agd_exits_1(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        del doc["arms"]["comparator"]
        agd.write_text(json.dumps(doc))
        code = main(["negcontrol", "--ipd", str(ipd), "--agd", str(agd),
                     "--out", str(tmp_path / "neg2")])
        assert code == 1
        assert "NoComparatorArm" in capsys.readouterr().err

    def test_single_patient_comparator_without_variance_exits_1(self, io_pair, tmp_path,
                                                                 capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        doc["arms"]["comparator"].update(n=1)
        for key in ("y_var", "x_var"):
            del doc["arms"]["comparator"][key]
        agd.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="y_var"):
            code = main(["negcontrol", "--ipd", str(ipd), "--agd", str(agd),
                         "--out", str(tmp_path / "neg1")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: MissingAgdVariance: ") and "n >= 2" in err

    @pytest.mark.parametrize("alpha", ["2", "0", "1", "-0.1", "nan", "inf"])
    def test_alpha_outside_the_unit_interval_is_named(self, io_pair, tmp_path, capsys, alpha):
        ipd, agd = io_pair
        out = tmp_path / "neg_alpha"
        code = main(["negcontrol", "--ipd", str(ipd), "--agd", str(agd),
                     "--alpha", alpha, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: InvalidLevel: --alpha ")
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, flag, value", [("compare", "--level", "0.9999999999999999"),
                                                   ("negcontrol", "--alpha", "1e-17")])
def test_a_level_whose_normal_quantile_is_infinite_is_named(io_pair, tmp_path, capsys,
                                                            command, flag, value):
    # (1 + level)/2 and 1 - alpha/2 round to 1, where the normal quantile is infinite
    ipd, agd = io_pair
    out = tmp_path / "extreme_level"
    code = main([command, "--ipd", str(ipd), "--agd", str(agd), flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: InvalidLevel: {flag} {value} ")
    assert not out.exists()


class TestSimulate:
    def _config(self, tmp_path, **overrides):
        cfg = {"p": 4, "n_per_arm": 60, "confounding": "moderate",
               "scale": "identity", "replicates": 4, "seed": 5}
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_outputs_and_byte_identical_rerun(self, tmp_path):
        cfg = self._config(tmp_path)
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("report.json", "report.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_single_replicate_nulls(self, tmp_path):
        cfg = self._config(tmp_path, replicates=1)
        out = tmp_path / "one"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["empirical_sd"] is None
        assert all(v is None for v in doc["relative_length"].values())

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg = self._config(tmp_path, p=2)
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "bad")])
        assert code == 1
        assert "covariates" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["replicate"] = doc.pop("replicates")
        cfg.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "typo")])
        assert code == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "'replicate'" in err and str(cfg) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("n_per_arm", 0), ("n_per_arm", 1), ("seed", -1), ("confounding", "bogus"),
        ("scale", "probit"), ("replicates", "many"), ("p", 3), ("alpha_slope", "nan"),
    ])
    def test_bad_scenario_value_names_the_file_and_key(self, tmp_path, capsys, key, value):
        cfg = self._config(tmp_path, **{key: value})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"SchemaError: {cfg}: " in err and key in err

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_a_slope_whose_index_can_overflow_exits_1(self, tmp_path, capsys, value):
        cfg = self._config(tmp_path, alpha_slope=value)
        out = tmp_path / "steep"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"SchemaError: {cfg}: " in err and "alpha_slope" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, why", [
        ('{"p": 4,', "invalid JSON"), ("[1, 2]", "must be an object"),
    ])
    def test_scenario_file_that_is_not_an_object_is_named(self, tmp_path, capsys, text, why):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"SchemaError: {cfg}: " in err and why in err

    # numpy refuses both sizes before it allocates anything: the first asks
    # for 568 PiB of covariates, the second for more rows than an array holds
    @pytest.mark.parametrize("overrides", [
        {"p": 5, "n_per_arm": 10**15, "replicates": 1}, {"oversample_factor": 10**18},
    ])
    def test_a_size_numpy_refuses_names_the_file(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "big")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"SchemaError: {cfg}: " in err

    def test_negative_seed_flag_is_named(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        code = main(["simulate", "--config", str(cfg), "--seed", "-3",
                     "--out", str(tmp_path / "neg")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert "SchemaError: --seed: seed" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_named(self, tmp_path, capsys, threads):
        cfg = self._config(tmp_path)
        out = tmp_path / "threads"
        code = main(["simulate", "--config", str(cfg), "--threads", threads,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: InvalidChoice: --threads must be at least 1, got {threads}")
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "seeded"
        assert main(["simulate", "--config", str(cfg), "--seed", "99",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 99


class TestNotUtf8:
    @pytest.mark.parametrize("kind", ["ipd_header", "ipd_row", "agd", "scenario"])
    def test_a_byte_that_is_not_utf8_exits_1_naming_the_file(self, io_pair, tmp_path,
                                                             capsys, kind):
        ipd, agd = io_pair
        (tmp_path / "bad").mkdir()
        path, line = not_utf8_file(tmp_path / "bad", kind)
        out = str(tmp_path / "out")
        if kind == "scenario":
            argv = ["simulate", "--config", str(path), "--out", out]
        else:
            ipd, agd = (path, agd) if kind.startswith("ipd") else (ipd, path)
            argv = ["compare", "--ipd", str(ipd), "--agd", str(agd), "--out", out]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith(f"error: SchemaError: {path}:{line}: not UTF-8 text")


class TestOnlyRegularFiles:
    """The manifest digests each input by reading it again, so an input that
    is not a regular file is refused before anything is analysed: a pipe
    would be digested as the empty input it has become."""

    def test_the_manifest_digests_the_bytes_that_were_read(self, io_pair, tmp_path):
        ipd, agd = io_pair
        out = tmp_path / "out"
        assert main(["fit", "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)]) == 0
        digests = json.loads((out / "manifest.json").read_text())["input_digests"]
        assert digests == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (ipd, agd)}

    @pytest.mark.parametrize("kind", ["agd", "config"])
    def test_a_piped_input_exits_1_naming_it(self, io_pair, tmp_path, capsys, kind):
        ipd, agd = io_pair
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": 4, "n_per_arm": 20, "replicates": 2}))
        out = tmp_path / "out"
        with piped((agd if kind == "agd" else config).read_bytes()) as path:
            if kind == "agd":
                argv = ["compare", "--ipd", str(ipd), "--agd", path, "--out", str(out)]
            else:
                argv = ["simulate", "--config", path, "--out", str(out)]
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: SchemaError: {path}: {REFUSED}\n"
        assert not (out / "manifest.json").exists()

    def test_a_device_as_agd_exits_1_naming_it(self, io_pair, tmp_path, capsys):
        ipd, _ = io_pair
        code = main(["compare", "--ipd", str(ipd), "--agd", "/dev/null",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: SchemaError: /dev/null: {REFUSED}\n"


class TestOutOnlyWithResults:
    """--out is made with the first result written, so a run refused on its
    inputs or stopped by a numerical failure leaves no directory behind."""

    @pytest.mark.parametrize("command", ["fit", "compare", "negcontrol"])
    @pytest.mark.parametrize("fault, code, named", [
        pytest.param("csv cell", 1, "NonNumericValue: {ipd}:42: non-numeric value 'abc'",
                     id="csv-cell"),
        pytest.param("agd json", 1, "SchemaError: {agd}: invalid JSON", id="agd-json"),
        pytest.param("no convergence", 2, "\nbalance residual: [", id="no-convergence"),
    ])
    def test_a_failed_pair_command_leaves_no_out(self, io_pair, tmp_path, capsys, command,
                                                 fault, code, named):
        ipd, agd = io_pair
        if fault == "csv cell":
            ipd.write_text(ipd.read_text() + "1,1,abc,0.2\n")
        elif fault == "agd json":
            agd.write_text(agd.read_text()[:-1])
        else:
            doc = json.loads(agd.read_text())
            for arm in doc["arms"].values():
                arm["x_mean"] = [50.0, 50.0]
            agd.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--ipd", str(ipd), "--agd", str(agd), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named.format(ipd=ipd, agd=agd) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_piped_config_leaves_no_out(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": 4, "n_per_arm": 20, "replicates": 2}))
        out = tmp_path / "out"
        with piped(config.read_bytes()) as path:
            assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: SchemaError: {path}: {REFUSED}\n"
        assert not out.exists()


class TestParserReuse:
    def test_a_call_inherits_nothing_from_the_one_before(self, io_pair, tmp_path):
        # main reuses one parser per process; a run after a run with other
        # flags must write what the same command line writes in a new process
        ipd, agd = io_pair
        pair = ["--ipd", str(ipd), "--agd", str(agd)]
        assert main(["compare", *pair, "--negcontrol", "--level", "0.9",
                     "--out", str(tmp_path / "first")]) == 0
        argv = ["compare", *pair, "--methods", "naive", "--se", "fo"]
        assert main([*argv, "--out", str(tmp_path / "reused")]) == 0
        src = Path(maic.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-m", "maic.cli", *argv, "--out", str(tmp_path / "alone")],
                       check=True, env={**os.environ, "PYTHONPATH": str(src)})
        report = (tmp_path / "reused" / "report.json").read_bytes()
        assert report == (tmp_path / "alone" / "report.json").read_bytes()
        config = json.loads((tmp_path / "reused" / "manifest.json").read_text())["config"]
        assert config["negcontrol"] is False and config["level"] == 0.95


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "maic" in capsys.readouterr().out


# cells and JSON values that a corrupted input file may hold
FUZZ_CELLS = ["", "abc", "nan", "-inf", "1e400", "1e308", "-1e308", "2", "-1", "0.5", "1",
              "0", "1e-320", '"1"', "1,2", "\u0661"]
FUZZ_VALUES = [None, True, -1, 0, 1, 2, 0.5, 1e308, -1e308, "x", "", [], [1.0], [[1.0]],
               [1.0, 2.0, 3.0], [[0.1, -0.1]], [True, 0.2], {}, {"n": 5}]
# a fresh copy per draw, since fuzz_runs edits the AGD document it builds in
# place: a shared {} set as an arm and then edited could come to hold itself
FUZZ_VALUE = st.sampled_from(FUZZ_VALUES).map(copy.deepcopy)
PRISTINE_FUZZ_VALUES = copy.deepcopy(FUZZ_VALUES)
AGD_PATHS = [("covariates",), ("arms",), ("arms", "active"), ("arms", "comparator"),
             *(("arms", arm, key) for arm in ("active", "comparator")
               for key in ("n", "y_mean", "y_var", "x_mean", "x_var"))]


FUZZ_ARM = {"n": 30, "y_mean": 0.5, "y_var": 0.25, "x_mean": [0.1, -0.1], "x_var": [1.0, 1.0]}
# a valid IPD whose covariate hull holds the AGD means, so its weights converge
FUZZ_IPD = ("y,z,x1,x2\n1,1,0.5,0.4\n0,1,-0.4,-0.6\n1,1,0.3,-0.5\n0,1,-0.2,0.3\n"
            "1,0,0.6,-0.3\n0,0,-0.5,0.2\n1,0,0.2,0.5\n0,0,-0.1,-0.4\n")
FUZZ_FLAGS = ["--moments", "first", "--outcome-kind", "binary"]
COMPARE_FLAGS = [*FUZZ_FLAGS, "--scale", "identity", "--level", "0.95"]


def fuzz_agd(*arms, drop=(), covariates=("x1", "x2"), **fields) -> str:
    """The valid fuzz AGD document as JSON, with `fields` set on the named
    arms and the keys in `drop` removed from them."""
    agd = {"covariates": list(covariates),
           "arms": {"active": dict(FUZZ_ARM), "comparator": dict(FUZZ_ARM)}}
    for arm in arms:
        agd["arms"][arm].update(fields)
        for key in drop:
            del agd["arms"][arm][key]
    return json.dumps(agd)


@st.composite
def fuzz_runs(draw):
    """A fit, compare or negcontrol command line over an IPD CSV and an AGD
    JSON document, each valid or corrupted, with a random mix of flags."""
    n = draw(st.integers(2, 12))
    # y, z (the first row is active), x1, x2
    rows = [[str(draw(st.sampled_from([0, 1]))),
             str(1 if i == 0 else draw(st.sampled_from([0, 1]))),
             *(repr(draw(st.floats(-3, 3))) for _ in range(2))] for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(FUZZ_CELLS))
    header = draw(st.sampled_from([["y", "z", "x1", "x2"]] * 4
                                  + [["y", "z", "x1"], ["z", "x1", "x2"], ["y", "z"]]))
    lines = [",".join(header)] + [",".join(r[:len(header)]) for r in rows]
    if draw(st.integers(0, 7)) == 0:
        lines = lines[:draw(st.integers(0, len(lines) - 1))]  # cut short, down to nothing
    ipd = "\n".join(lines) + "\n"

    agd = json.loads(fuzz_agd())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        path, parent = draw(st.sampled_from(AGD_PATHS)), agd
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if draw(st.booleans()):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = draw(FUZZ_VALUE)
    arms = agd.get("arms")
    if isinstance(arms, dict) and draw(st.integers(0, 3)) == 0:
        # a one-patient arm that reports no variances
        one = arms.get(draw(st.sampled_from(["active", "comparator"])))
        if isinstance(one, dict):
            one.update(n=1)
            for key in ("y_var", "x_var"):
                one.pop(key, None)
    agd_text = draw(st.sampled_from([json.dumps(agd)] * 12 + ["", "[1]", "{", "NaN"]))

    command = draw(st.sampled_from(["fit", "compare", "negcontrol"]))
    flags = ["--moments", draw(st.sampled_from(["first", "first+second"])),
             "--outcome-kind", draw(st.sampled_from(["binary", "continuous"]))]
    if command != "fit":
        flags += ["--scale", draw(st.sampled_from(["identity", "logit"]))]
    if command == "compare":
        flags += ["--methods", draw(st.sampled_from(
                      ["maic-nab,maic-acb,bucher,stc,naive", "naive", "stc,bucher", "bogus"])),
                  "--se", draw(st.sampled_from(["all", "fo", "po,cs", "sw", "full", "xx"])),
                  "--level", draw(st.sampled_from(["0.95"] * 3 + ["0", "1.5", "nan"]))]
        flags += ["--negcontrol"] if draw(st.booleans()) else []
    if command == "negcontrol":
        flags += ["--alpha", draw(st.sampled_from(["0.05"] * 3 + ["2", "nan"]))]
    return command, ipd, agd_text, flags


class TestCliFuzz:
    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(FUZZ_VALUE, min_size=1))
    def test_editing_drawn_values_leaves_the_fuzz_values_pristine(self, values):
        for value in values:
            if isinstance(value, (dict, list)):
                value.clear()
        assert FUZZ_VALUES == PRISTINE_FUZZ_VALUES

    @settings(max_examples=150, deadline=None)
    @given(run=fuzz_runs())
    # paths the draws reach too rarely to catch a regression on one run
    @example(run=("compare", FUZZ_IPD, fuzz_agd("comparator", drop=("y_var", "x_var"), n=1),
                  [*COMPARE_FLAGS, "--se", "fo"]))
    @example(run=("fit", FUZZ_IPD, fuzz_agd("active", x_mean=0.3), FUZZ_FLAGS))
    @example(run=("compare", FUZZ_IPD, fuzz_agd("comparator", x_mean=[[0.1, -0.1]]),
                  COMPARE_FLAGS))
    @example(run=("compare", "y,z\n1,1\n0,1\n1,0\n0,0\n",
                  fuzz_agd("active", "comparator", covariates=(), x_mean=[], x_var=[]),
                  [*COMPARE_FLAGS, "--methods", "stc,bucher"]))
    @example(run=("compare", FUZZ_IPD, fuzz_agd("active", y_var="nan"), COMPARE_FLAGS))
    def test_exit_code_is_0_1_or_2_and_no_traceback(self, tmp_path_factory, run):
        command, ipd_text, agd_text, flags = run
        tmp = tmp_path_factory.mktemp("fuzz")
        ipd, agd = tmp / "ipd.csv", tmp / "agd.json"
        ipd.write_text(ipd_text, encoding="utf-8")
        agd.write_text(agd_text, encoding="utf-8")
        argv = [command, "--ipd", str(ipd), "--agd", str(agd), *flags, "--out", str(tmp / "out")]
        err = io.StringIO()
        # the suite turns warnings into errors; a CLI run only reports them
        with warnings.catch_warnings(record=True), contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            # an input or flag error is a named MaicError, or an OSError
            name = re.match(r"error: (\w+): ", err.getvalue()).group(1)
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            assert isinstance(cls, type) and issubclass(cls, (MaicError, OSError)), err.getvalue()
