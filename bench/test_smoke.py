"""Tiny-size smoke test of the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import harness, reenact, run
from bench.fixtures import write_compare_fixture
from bench.hostspeed import SHARE, HostSpeed
from bench.spans import NullTracer, Tracer, covered, span_table, tail_percentile
from maic import cli
from maic.simulation import Confounding, ScenarioConfig, run_replicate

ROOT = Path(__file__).resolve().parent.parent


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_self_time_is_duration_minus_children():
    spans = [(0, -1, "op", 0.0, 10.0), (1, 0, "a", 1.0, 3.0), (2, 0, "b", 4.0, 8.0),
             (3, 2, "c", 5.0, 6.0)]
    table = span_table(spans)
    assert table["op"]["self"] == [pytest.approx(4.0)]
    assert table["b"]["self"] == [pytest.approx(3.0)]
    assert table["c"]["self"] == [pytest.approx(1.0)]


def test_tracer_links_parents_and_closes_on_error():
    tr = Tracer()
    with tr.span("outer"):
        with pytest.raises(ValueError):
            with tr.span("inner"):
                raise ValueError("boom")
    (oid, oparent, oname, ostart, oend), (iid, iparent, iname, istart, iend) = tr.spans
    assert (oparent, iparent) == (-1, oid)
    assert ostart <= istart <= iend <= oend


@pytest.mark.parametrize("processes", [1, 2])
def test_host_speed_counts_units(processes):
    hs = HostSpeed(processes=processes)
    try:
        hs.keep_up(0.2)
        assert hs.units > 0 and hs.seconds >= SHARE * 0.2 and hs.factor > 0
    finally:
        hs.close()


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(1000) == 99
    assert tail_percentile(200) == 95
    assert tail_percentile(100) == 90
    assert tail_percentile(50) is None


@pytest.mark.parametrize("confounding", [Confounding.MODERATE, Confounding.SEVERE])
def test_replicate_reenactment_is_bit_identical(confounding):
    cfg = ScenarioConfig(p=5, n_per_arm=60, confounding=confounding, replicates=4, seed=5)
    for i in range(4):
        res, _fit = reenact.run_replicate(cfg, i, Tracer())
        assert reenact.result_mismatches(res, run_replicate(cfg, i)) == []


def test_compare_fixture_and_reenactment(tmp_path):
    a = write_compare_fixture(9, tmp_path / "a")
    b = write_compare_fixture(9, tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert cli.main(reenact.compare_argv(*a, tmp_path / "cli")) == 0
    reenact.compare(reenact.compare_argv(*a, tmp_path / "re"), NullTracer())
    assert ((tmp_path / "cli" / "report.json").read_bytes()
            == (tmp_path / "re" / "report.json").read_bytes())


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Six replicates per study, output and stored references under tmp_path."""
    for name, w in harness.WORKLOADS.items():
        if w["kind"] == "sim":
            monkeypatch.setitem(harness.WORKLOADS, name, {**w, "replicates": 6})
    monkeypatch.setattr(harness, "OUT", tmp_path)
    monkeypatch.setattr(harness, "REFERENCE_FILE", tmp_path / "references.json")
    harness.write_references()
    return tmp_path


def short_run(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sim-n100", "compare-cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_short_run(workload, trace, tiny, capsys):
    code, _out, last = short_run(workload, trace, capsys)
    assert code == 0 and last["correct"] is True
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(last["metrics"]) == want
    assert (tiny / f"BENCH_{workload}_s3_t{trace}.json").exists()


def test_stored_reference_mismatch_fails_by_name(tiny, capsys):
    doc = json.loads((tiny / "references.json").read_text())
    doc["digests"]["sim-n100"]["report"] = "0" * 64
    (tiny / "references.json").write_text(json.dumps(doc))
    code, out, last = short_run("sim-n100", 0, capsys)
    assert code == 1 and last["correct"] is False
    assert "check stored_reference_report: FAILED" in out


def test_stored_references_are_current():
    """bench/references.json names this seed and every workload."""
    doc = json.loads(harness.REFERENCE_FILE.read_text())
    assert doc["seed"] == harness.REFERENCE_SEED
    assert set(doc["digests"]) == set(harness.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-n100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
