import csv
import json

import numpy as np
import pytest

from maic.cli import main


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

    def test_second_moments_without_x_var_exit_1(self, io_pair, tmp_path, capsys):
        ipd, agd = io_pair
        doc = json.loads(agd.read_text())
        del doc["arms"]["active"]["x_var"]
        agd.write_text(json.dumps(doc))
        code = main(["fit", "--ipd", str(ipd), "--agd", str(agd),
                     "--moments", "first+second", "--out", str(tmp_path / "f3")])
        assert code == 1
        assert "MissingVariance" in capsys.readouterr().err

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

    def test_seed_override(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "seeded"
        assert main(["simulate", "--config", str(cfg), "--seed", "99",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 99


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "maic" in capsys.readouterr().out
