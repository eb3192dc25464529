"""Benchmark of maic: Monte Carlo studies and `maic compare`, end to end and per layer.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload sim-n100 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing traced.  `--trace 1`
re-enacts each operation step by step with a span around every public call
(bench/reenact.py) and reports the per-layer metrics.  Both modes check the
program's outputs.  Human-readable lines go first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when every check passed, 1 when one failed and 2 on a usage or
environment error.  `--write-references` rewrites bench/references.json, the
stored digests every run checks.  See bench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workload_names() + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do one set-up, print its time and exit (used by the "
                             "benchmark itself to repeat set-up in fresh processes)")
    parser.add_argument("--write-references", action="store_true",
                        help="rewrite bench/references.json from the current code "
                             "and exit")
    args = parser.parse_args(argv)
    if args.write_references:
        return args
    if None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in its own process, one after the other; exit 1 if any
    run failed a check."""
    worst = 0
    for name in workload_names():
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.write_references:
        return run_all(args)
    if not (SRC / "maic" / "__init__.py").is_file():
        print(f"bench: the maic sources are missing ({SRC / 'maic'} not found); "
              "run from the root of a maic checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench import harness
    if args.write_references:
        harness.write_references()
        return 0
    return harness.main(args, T_START)


if __name__ == "__main__":
    sys.exit(main())
