"""Workloads, measurement, correctness checks and reporting (entry: bench/run.py)."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from bench import reenact
from bench.fixtures import write_compare_fixture
from bench.hostspeed import HostSpeed
from bench.spans import NullTracer, Tracer, percentile, span_table, tail_percentile
from maic import cli
from maic.data_model import MomentSpec, OutcomeKind, load_agd, load_ipd, pooled_target_moments
from maic.estimators import Method, Scale
from maic.inference import build_comparison_report
from maic.simulation import Confounding, ScenarioConfig, run_replicate, run_study, true_delta
from maic.variance import SeStrategy
from maic.weighting import SolverConfig, balance_check, solve_weights

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFERENCE_FILE = Path(__file__).with_name("references.json")
REFERENCE_SEED = 1910   # every run also runs this seed and checks it against REFERENCE_FILE

# Why each workload exists is recorded in bench/README.md.
WORKLOADS = {
    "sim-n100": {"kind": "sim", "n_per_arm": 100, "confounding": "moderate",
                 "replicates": 500, "threads": 1, "ref_threads": 2},
    "sim-n2000-t2": {"kind": "sim", "n_per_arm": 2000, "confounding": "severe",
                     "replicates": 300, "threads": 2, "ref_threads": 1},
    "compare-cli": {"kind": "compare"},
}
SETUP_REPEATS = 7       # set-ups per run (one here, the rest in fresh processes)
SETUP_CALIBRATION_S = 0.2   # host-speed loop right after each set-up
REENACT_CHECKS = 8      # replicates re-enacted and compared per untraced sim run
MIN_COMPARE_CALLS = 10
BALANCE_TOL = 1e-10


class Run:
    """Collects metrics, sample counts, check results and failures of one run."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}   # printed, not in the JSON line
        self.samples: dict[str, int] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.failures: Counter = Counter()              # (layer, exception type) -> n
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit, n=None, extra=False):
        (self.extra if extra else self.metrics)[name] = (float(value), unit)
        if n is not None:
            self.samples[name] = int(n)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def tally(self, errors: dict[str, str], layer_of) -> None:
        """Count `{key: "ExceptionType: message"}` errors by (layer, type)."""
        for key, text in errors.items():
            self.failures[(layer_of(key), text.split(":", 1)[0])] += 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def peak_rss_mb() -> float:
    """Own peak resident set plus the peak of the largest child waited for so
    far (a pool worker; with two workers the other is not counted).  Linux
    reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _replicate_layer(key: str) -> str:
    return {"weights": "weighting.solve_weights", "variance": "variance",
            "negcontrol": "inference.negative_control_test"}.get(key, f"estimators.{key}")


def _report_layer(key: str) -> str:
    if key == "negative_control":
        return "inference.negative_control_test"
    return f"variance.{key}" if "/" in key else f"estimators.{key}"


def put_throughput(run: Run, ops: int, busy_s: float, hs: HostSpeed, n: int) -> None:
    """throughput_per_s scaled to the reference host's speed; the raw figure
    and the host speed are printed."""
    raw = ops / busy_s
    run.put("throughput_per_s", raw / hs.factor, "1/s", n=n)
    run.put("throughput_per_s.raw", raw, "1/s", n=n, extra=True)
    run.put("host.speed", hs.factor, "ratio", n=hs.units, extra=True)


def _span_seconds(tr: Tracer, name: str) -> float:
    """Duration of the most recent span called `name`."""
    for _sid, _parent, span_name, start, end in reversed(tr.spans):
        if span_name == name:
            return end - start
    raise LookupError(name)


# ------------------------------------------------------------------------ set-up

def study_config(w: dict, seed: int, j: int) -> ScenarioConfig:
    """Study j of a run: its own seed, so no two studies share an RNG stream."""
    return ScenarioConfig(p=5, n_per_arm=w["n_per_arm"],
                          confounding=Confounding(w["confounding"]),
                          scale=Scale.LOGIT, replicates=w["replicates"],
                          seed=seed * 1000 + j)


def prepare(w: dict, seed: int, workdir: Path):
    """One set-up.  Simulations: warm numpy/linalg on replicates no study
    runs.  compare-cli: write the fixture pair and make one warm-up call.
    Returns the fixture paths (None for simulations)."""
    if w["kind"] == "sim":
        cfg = study_config(w, seed, 0)
        for k in range(3):
            run_replicate(cfg, cfg.replicates + k)
        return None
    fixture = write_compare_fixture(seed, workdir / "fixture")
    rc = cli.main(reenact.compare_argv(*fixture, workdir / "warmup"))
    if rc != 0:
        raise RuntimeError(f"warm-up compare exited {rc}")
    return fixture


def repeat_setup(args, run: Run) -> list[dict]:
    """The remaining set-ups, each in a fresh interpreter, so every sample
    includes the imports.  Returns what each child printed."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            run.check("setup_repeat", False, proc.stderr.strip()[-300:])
            continue
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# --------------------------------------------------------------------------- sims

def report_digest(report, path: Path) -> str:
    """sha256 of the report.json `maic simulate` would write for this report."""
    cli.write_json(path, report.to_dict())
    return sha256_file(path)


def check_reenactment(run: Run, cfg, indices) -> None:
    """Re-enact replicates and compare each with run_replicate bit for bit;
    every converged fit must balance to BALANCE_TOL."""
    bad, worst = [], 0.0
    for i in indices:
        ref = run_replicate(cfg, i)
        res, fit = reenact.run_replicate(cfg, i, NullTracer())
        diff = reenact.result_mismatches(res, ref)
        if diff:
            bad.append(f"replicate {i}: {','.join(diff)}")
        if fit.model is not None:
            worst = max(worst, balance_check(fit.model, fit.ipd, fit.target)[1])
    run.check("reenactment_equals_run_replicate", not bad, "; ".join(bad[:5]))
    run.check("balance_le_1e-10", worst <= BALANCE_TOL, f"worst {worst:.3g}")


def sim_untraced(w: dict, seed: int, seconds: float, workdir: Path, run: Run,
                 hs: HostSpeed) -> None:
    studies = []
    busy = 0.0
    t_begin = time.perf_counter()
    while len(studies) < 2 or time.perf_counter() - t_begin < seconds:
        cfg = study_config(w, seed, len(studies))
        t0 = time.perf_counter()
        try:
            rep = run_study(cfg, threads=w["threads"])
        except Exception as e:  # a study that raises is a failed operation, not a crash
            traceback.print_exc()
            rep = e
        studies.append((cfg, rep, time.perf_counter() - t0))
        busy += studies[-1][2]
        hs.keep_up(busy)
    rss = peak_rss_mb()

    done = [(c, r, dt) for c, r, dt in studies if not isinstance(r, Exception)]
    run.attempted = sum(c.replicates for c, _, _ in studies)
    for c, r, _ in studies:
        if isinstance(r, Exception):
            run.failed += c.replicates
            run.failures[("simulation.run_study", type(r).__name__)] += 1
            continue
        # run_study keeps only per-method counts: the largest is the number
        # of replicates known to have failed (a lower bound)
        run.failed += max(r.failure_counts.values(), default=0)
        for m, n in r.failure_counts.items():
            if n:
                run.failures[(f"estimators.{m}", "unrecorded")] += n
    run.check("studies_completed", len(done) == len(studies),
              f"{len(studies) - len(done)} of {len(studies)} raised")
    if not done:
        return
    secs = [dt for _, _, dt in done]
    put_throughput(run, sum(c.replicates for c, _, _ in done), sum(secs), hs, len(done))
    run.put("latency_ms_p50", statistics.median(secs) * 1e3, "ms", n=len(done), extra=True)
    run.put("peak_rss_mb", rss, "MB")

    # reference: study 0 again at the other thread count; digests must agree
    cfg0, rep0, dt0 = done[0]
    t0 = time.perf_counter()
    ref = run_study(cfg0, threads=w["ref_threads"])
    t_ref = time.perf_counter() - t0
    got, want = report_digest(rep0, workdir / "study-0.json"), report_digest(ref, workdir / "ref.json")
    run.check(f"report_digest_threads{w['threads']}_eq_threads{w['ref_threads']}",
              got == want, f"{got[:16]} vs {want[:16]}")
    if w["threads"] > 1:
        run.put("pool.parallel_efficiency", t_ref / (w["threads"] * dt0), "ratio", n=1,
                extra=True)
    check_reenactment(run, cfg0, range(REENACT_CHECKS))


def sim_traced(w: dict, seed: int, seconds: float, run: Run, tr: Tracer) -> dict:
    """Each replicate runs once untraced (run_replicate) and once re-enacted
    with spans, alternating which goes first; the two must agree bit for bit.
    Study 0 always completes; later studies stop at the deadline."""
    plain, traced, td_share, bad = [], [], [], []
    worst = 0.0
    t_begin = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - t_begin < seconds:
        cfg = study_config(w, seed, j)
        with tr.span("true_delta"):
            true_delta(cfg)
        td = _span_seconds(tr, "true_delta")
        study_plain = 0.0
        for i in range(cfg.replicates):
            if j and time.perf_counter() - t_begin >= seconds:
                break
            t0 = time.perf_counter()
            if i % 2:
                ref = run_replicate(cfg, i)
                t1 = time.perf_counter()
                res, fit = reenact.run_replicate(cfg, i, tr)
            else:
                res, fit = reenact.run_replicate(cfg, i, tr)
                t0 = time.perf_counter()
                ref = run_replicate(cfg, i)
                t1 = time.perf_counter()
            plain.append(t1 - t0)
            traced.append(_span_seconds(tr, "run_replicate"))
            study_plain += t1 - t0
            diff = reenact.result_mismatches(res, ref)
            if diff:
                bad.append(f"study {j} replicate {i}: {','.join(diff)}")
            if fit.model is not None:
                worst = max(worst, balance_check(fit.model, fit.ipd, fit.target)[1])
            run.attempted += 1
            run.failed += bool(res.errors)
            run.tally(res.errors, _replicate_layer)
        else:
            td_share.append(td / (td + study_plain))
        j += 1
    run.check("reenactment_equals_run_replicate", not bad, "; ".join(bad[:5]))
    run.check("balance_le_1e-10", worst <= BALANCE_TOL, f"worst {worst:.3g}")
    run.put("true_delta.share", statistics.median(td_share), "ratio", n=len(td_share),
            extra=True)
    return {"root": "run_replicate", "ops": len(traced), "plain": plain, "traced": traced}


# ------------------------------------------------------------------------ compare

def compare_reference(ipd_path, agd_path, out: Path) -> str:
    """Library-path report.json digest for the compare-cli inputs and flags."""
    ipd = load_ipd(ipd_path, outcome_kind=OutcomeKind.BINARY)
    agd = load_agd(agd_path)
    spec = MomentSpec.FIRST_AND_SECOND
    model = solve_weights(ipd, pooled_target_moments(agd, spec), spec, SolverConfig())
    report = build_comparison_report(
        ipd, agd, model, list(Method), Scale.LOGIT,
        [SeStrategy.FO, SeStrategy.PO, SeStrategy.CS, SeStrategy.SW],
        level=0.95, run_negative_control=True,
    )
    out.mkdir(parents=True, exist_ok=True)
    cli.write_json(out / "report.json", report.to_dict())
    return sha256_file(out / "report.json")


def compare_untraced(seconds: float, workdir: Path, run: Run, fixture, hs: HostSpeed) -> None:
    out = workdir / "out"
    argv = reenact.compare_argv(*fixture, out)
    times, digests, codes = [], Counter(), Counter()
    worst = 0.0
    t_begin = time.perf_counter()
    while len(times) < MIN_COMPARE_CALLS or time.perf_counter() - t_begin < seconds:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
        hs.keep_up(sum(times) + dt)
        run.attempted += 1
        codes[rc] += 1
        if rc != 0:
            run.failed += 1
            run.failures[("cli.compare", f"exit{rc}")] += 1
            if run.failed >= MIN_COMPARE_CALLS:
                break
            continue
        times.append(dt)
        digests[sha256_file(out / "report.json")] += 1
        doc = json.loads((out / "report.json").read_text())
        run.failed += bool(doc["errors"])
        run.tally(doc["errors"], _report_layer)
        worst = max(worst, doc["diagnostics"]["balance_max_norm"])
    rss = peak_rss_mb()
    run.check("compare_exit_0", set(codes) == {0}, str(dict(codes)))
    run.check("balance_le_1e-10", worst <= BALANCE_TOL, f"worst {worst:.3g}")
    if not times:
        return
    put_throughput(run, len(times), sum(times), hs, len(times))
    run.put("latency_ms_p50", statistics.median(times) * 1e3, "ms", n=len(times), extra=True)
    q = tail_percentile(len(times))
    if q:
        run.put(f"latency_ms_p{q}", percentile(times, q) * 1e3, "ms", n=len(times), extra=True)
    run.put("peak_rss_mb", rss, "MB")

    ref = compare_reference(*fixture, workdir / "reference")
    got = sorted(digests)
    run.check("report_digest_eq_library_reference", got == [ref],
              f"cli {[d[:16] for d in got]} vs library {ref[:16]}")
    reenact.compare(reenact.compare_argv(*fixture, workdir / "reenact"), NullTracer())
    again = sha256_file(workdir / "reenact" / "report.json")
    run.check("reenactment_equals_cli_report", again == ref, f"{again[:16]} vs {ref[:16]}")


def compare_traced(seconds: float, workdir: Path, run: Run, tr: Tracer, fixture) -> dict:
    """Each call runs once through cli.main and once re-enacted with spans,
    alternating which goes first; both must write the same report.json."""
    plain_out, traced_out = workdir / "out", workdir / "reenact"
    plain_argv = reenact.compare_argv(*fixture, plain_out)
    traced_argv = reenact.compare_argv(*fixture, traced_out)
    plain, traced, written, bad = [], [], [], []
    codes = Counter()
    worst = 0.0
    t_begin = time.perf_counter()
    k = 0
    while k < MIN_COMPARE_CALLS or time.perf_counter() - t_begin < seconds:
        k += 1
        run.attempted += 1
        try:
            if k % 2:
                t0 = time.perf_counter()
                rc = cli.main(plain_argv)
                t1 = time.perf_counter()
                report, fit = reenact.compare(traced_argv, tr)
            else:
                report, fit = reenact.compare(traced_argv, tr)
                t0 = time.perf_counter()
                rc = cli.main(plain_argv)
                t1 = time.perf_counter()
        except Exception as e:  # a raising call is a failed operation, not a crash
            traceback.print_exc()
            run.failed += 1
            run.failures[("cli.compare", type(e).__name__)] += 1
            if run.failed >= MIN_COMPARE_CALLS:
                break
            continue
        codes[rc] += 1
        plain.append(t1 - t0)
        traced.append(_span_seconds(tr, "compare"))
        written.append(sum((traced_out / f).stat().st_size
                           for f in ("report.json", "report.csv", "manifest.json")))
        if rc != 0:
            run.failures[("cli.compare", f"exit{rc}")] += 1
        elif sha256_file(plain_out / "report.json") != sha256_file(traced_out / "report.json"):
            bad.append(f"call {k}")
        run.failed += rc != 0 or bool(report.errors)
        run.tally(report.errors, _report_layer)
        worst = max(worst, balance_check(fit.model, fit.ipd, fit.target)[1])
    run.check("compare_exit_0", set(codes) == {0}, str(dict(codes)))
    run.check("reenactment_equals_cli_report", not bad, "; ".join(bad[:5]))
    run.check("balance_le_1e-10", worst <= BALANCE_TOL, f"worst {worst:.3g}")
    if written:
        run.put("cli.bytes_written", statistics.median(written), "bytes", n=len(written),
                extra=True)
    return {"root": "compare", "ops": len(traced), "plain": plain, "traced": traced}


# ------------------------------------------------------------- stored references

def reference_digests(name: str, workdir: Path, threads: int) -> dict:
    """Digests of the outputs at REFERENCE_SEED: study 0's report.json for a
    simulation; the fixture pair, the exit code and report.json for compare-cli."""
    w = WORKLOADS[name]
    if w["kind"] == "sim":
        report = run_study(study_config(w, REFERENCE_SEED, 0), threads=threads)
        return {"report": report_digest(report, workdir / "reference.json")}
    fixture = write_compare_fixture(REFERENCE_SEED, workdir / "reference_fixture")
    out = workdir / "reference_out"
    rc = cli.main(reenact.compare_argv(*fixture, out))
    return {"fixture": [sha256_file(p) for p in fixture], "exit_code": rc,
            "report": sha256_file(out / "report.json") if rc == 0 else None}


def reference_env() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def check_stored_references(name: str, workdir: Path, run: Run) -> None:
    """Run REFERENCE_SEED at the workload's thread count and compare every
    digest with the one stored in REFERENCE_FILE (made at threads=1)."""
    stored = json.loads(REFERENCE_FILE.read_text())
    got = reference_digests(name, workdir, WORKLOADS[name].get("threads", 1))
    made, here = stored["made_with"], reference_env()
    note = "" if made == here else f" (stored with {made}, running {here})"
    run.check("stored_reference_seed", stored["seed"] == REFERENCE_SEED,
              f"{stored['seed']} vs {REFERENCE_SEED}")
    for key, want in stored["digests"][name].items():
        run.check(f"stored_reference_{key}", got[key] == want,
                  f"{got[key]} vs stored {want}{note}")


def write_references() -> None:
    """Rewrite REFERENCE_FILE from the current code, every workload at
    threads=1.  A change that alters the outputs at REFERENCE_SEED (the RNG
    stream, say) does this and says so in CHANGES.md."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"references_{os.getpid()}"
    workdir.mkdir()
    try:
        digests = {name: reference_digests(name, workdir, threads=1) for name in WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if digests["compare-cli"]["exit_code"] != 0:
        raise RuntimeError(f"reference compare exited {digests['compare-cli']['exit_code']}")
    doc = {"seed": REFERENCE_SEED, "made_with": reference_env(), "digests": digests}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")


# ------------------------------------------------------------------ layer metrics

def layer_metrics(run: Run, tr: Tracer, info: dict, kind: str) -> None:
    """Per-layer metrics from the spans and counters of a traced run."""
    table = span_table(tr.spans)
    ops = max(info["ops"], 1)

    def dur(name):
        return table.get(name, {"dur": []})["dur"]

    def put_p50(metric, values, scale, unit, extra=False):
        if values:
            run.put(metric, percentile(values, 50) * scale, unit, n=len(values), extra=extra)

    def put_span(name, scale, unit, extra=False):
        put_p50(f"{name}.{unit}_p50", dur(name), scale, unit, extra)

    root = info["root"]
    put_p50("op.ms_p50", dur(root), 1e3, "ms")
    q = tail_percentile(len(dur(root)))
    if q:
        run.put(f"op.ms_p{q}", percentile(dur(root), q) * 1e3, "ms", n=len(dur(root)),
                extra=True)
    if kind == "sim":
        put_p50("inputs.ms_p50", dur("replicate_datasets"), 1e3, "ms")
    else:
        put_p50("inputs.ms_p50", [a + b for a, b in zip(dur("load_ipd"), dur("load_agd"))],
                1e3, "ms")
    put_span("pooled_target_moments", 1e6, "us")
    put_span("solve_weights", 1e3, "ms")
    solves = dur("solve_weights")
    iters = tr.counters.get("solve_weights.iterations", 0.0)
    failed_solves = sum(n for (layer, _), n in run.failures.items()
                        if layer == "weighting.solve_weights")
    if solves:
        run.put("solve_weights.iterations_mean", iters / max(len(solves) - failed_solves, 1),
                "count", n=len(solves))
        run.put("solve_weights.us_per_iteration", sum(solves) / max(iters, 1) * 1e6, "us",
                n=len(solves))
        run.put("solve_weights.failed_ratio", failed_solves / len(solves), "ratio",
                n=len(solves))
    for name in ("maic_nab", "maic_acb", "bucher"):
        put_span(name, 1e6, "us")
    put_span("stc", 1e3, "ms")
    put_span("influence_components", 1e6, "us")
    run.put("influence_components.calls_per_op", len(dur("influence_components")) / ops,
            "count/op", n=info["ops"])
    for s in ("fo", "po", "cs", "sw"):
        put_span(f"sigma2_{s}", 1e6, "us")
    put_span("negative_control_test", 1e6, "us")
    self_root = table.get(root, {"self": []})["self"]
    if self_root:
        run.put("unattributed.share", sum(self_root) / sum(dur(root)), "ratio",
                n=len(self_root))
    run.put("failed_ratio", run.failed / max(run.attempted, 1), "ratio", n=run.attempted)
    if info["plain"]:
        run.put("tracing.overhead.share", sum(info["traced"]) / sum(info["plain"]) - 1.0,
                "ratio", n=len(info["traced"]))

    if kind == "sim":
        put_span("run_replicate", 1e3, "ms", extra=True)
        put_span("generate_population", 1e3, "ms", extra=True)
        put_span("subsample_by_arm", 1e3, "ms", extra=True)
        put_p50("agd_collapse.ms_p50", table.get("replicate_datasets", {"self": []})["self"],
                1e3, "ms", extra=True)
        put_span("sigma2_full", 1e6, "us", extra=True)
        put_p50("true_delta.s", dur("true_delta"), 1.0, "s", extra=True)
        drawn = tr.counters.get("generate_population.rows_drawn", 0.0)
        if drawn:
            run.put("generate_population.kept_ratio",
                    tr.counters.get("generate_population.rows_kept", 0.0) / drawn, "ratio",
                    extra=True)
        run.put("generate_population.retries",
                tr.counters.get("generate_population.retries", 0.0), "count", extra=True)
    else:
        put_span("load_ipd", 1e3, "ms", extra=True)
        if dur("load_ipd"):
            run.put("load_ipd.rows_per_s",
                    tr.counters.get("load_ipd.rows", 0.0) / sum(dur("load_ipd")), "1/s",
                    n=len(dur("load_ipd")), extra=True)
        put_span("load_agd", 1e3, "ms", extra=True)
        put_span("build_comparison_report", 1e3, "ms", extra=True)
        put_span("naive", 1e6, "us", extra=True)
        layers = ("load_ipd", "load_agd", "pooled_target_moments", "solve_weights",
                  "build_comparison_report")
        own = [total - sum(parts) for total, *parts in zip(dur("compare"), *map(dur, layers))]
        put_p50("cli.compare.self_ms_p50", own, 1e3, "ms", extra=True)


# ---------------------------------------------------------------------- reporting

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, w: dict, run: Run) -> dict:
    return {
        "workload": args.workload,
        "workload_config": w,
        "seed": args.seed,
        "reference_seed": REFERENCE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "samples": run.samples,
    }


def check_metric_names(run: Run, trace: int) -> None:
    """The JSON line must carry exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(run.metrics)
    run.check("metrics_match_BENCHMARK.json", got == want,
              f"missing {sorted(want - got)} unexpected {sorted(got - want)}")


def emit(args, w: dict, run: Run, tr: Tracer | None) -> int:
    check_metric_names(run, args.trace)
    env = environment(args, w, run)
    failures = {f"{layer}:{kind}": n for (layer, kind), n in sorted(run.failures.items())}
    base = "replicates" if w["kind"] == "sim" else "compare calls"
    for name, (value, unit) in {**run.metrics, **run.extra}.items():
        n = run.samples.get(name)
        line = f"{name:38s} {value:14.6g} {unit:8s}" + (f" n={n}" if n is not None else "")
        print(line + ("" if name in run.metrics else "  (printed only)"))
    for name, ok, detail in run.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    print(f"failed {run.failed} of {run.attempted} {base}; by (layer, type): "
          + json.dumps(failures))
    print("env " + json.dumps(env, sort_keys=True))

    def entries(metrics):
        return {k: {"value": v, "unit": u, "samples": run.samples.get(k)}
                for k, (v, u) in metrics.items()}

    record = {
        "env": env, "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed, "failure_base": base, "failures": failures,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "metrics": entries(run.metrics), "printed_only": entries(run.extra),
    }
    tag = f"{args.workload}_s{args.seed}"
    with open(OUT / f"BENCH_{tag}_t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tr is not None:
        tr.write(OUT / f"spans_{tag}.json")
    print(json.dumps({
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }))
    return 0 if run.correct else 1


def main(args, t_start: float) -> int:
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work_{args.workload}_s{args.seed}_t{args.trace}_{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        fixture = prepare(w, args.seed, workdir)
        setup_s = time.perf_counter() - t_start
        digests = [sha256_file(p) for p in fixture] if fixture else []
        calibration = HostSpeed()
        calibration.run_for(SETUP_CALIBRATION_S)
        setup_speed = calibration.factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "host_speed": setup_speed,
                              "fixture_sha256": digests}))
            return 0

        run = Run()
        tr = Tracer() if args.trace else None
        if w["kind"] == "sim" and args.trace:
            info = sim_traced(w, args.seed, args.seconds, run, tr)
        elif w["kind"] == "sim":
            # the loop runs in as many processes as the study keeps busy
            hs = HostSpeed(processes=w["threads"])
            try:
                sim_untraced(w, args.seed, args.seconds, workdir, run, hs)
            finally:
                hs.close()
        elif args.trace:
            info = compare_traced(args.seconds, workdir, run, tr, fixture)
        else:
            compare_untraced(args.seconds, workdir, run, fixture, HostSpeed())

        check_stored_references(args.workload, workdir, run)
        if args.trace:
            layer_metrics(run, tr, info, w["kind"])
        else:
            # after the timed window, so these processes stay out of peak_rss_mb
            others = repeat_setup(args, run)
            samples = [(setup_s, setup_speed)] + [(o["setup_s"], o["host_speed"]) for o in others]
            # a set-up at the reference host's speed: raw time x host speed
            run.put("setup_s", statistics.median(raw * speed for raw, speed in samples), "s",
                    n=len(samples))
            run.put("setup_s.raw", statistics.median(raw for raw, _ in samples), "s",
                    n=len(samples), extra=True)
            if fixture:
                distinct = {tuple(digests)} | {tuple(o["fixture_sha256"]) for o in others}
                run.check("fixture_deterministic", len(distinct) == 1,
                          f"{len(distinct)} distinct fixture pairs from one seed")
        return emit(args, w, run, tr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
