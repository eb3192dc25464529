"""Command-line interface: `fit`, `compare`, `negcontrol`, and `simulate`.

Every command writes its artifacts (JSON reports, CSV tables) plus a run
manifest into the directory named by --out, so a run can be audited and
reproduced later.  Exit codes: 0 on success, 1 on input or schema errors,
2 on numerical failure (weight non-convergence, separation, or a result
holding a non-finite number).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .data_model import (MomentSpec, OutcomeKind, load_agd, load_ipd, pooled_target_moments,
                         read_input, write_rows)
from .errors import (InvalidChoice, MaicError, MissingVariance, NonConvergence, NonFiniteResult,
                     SchemaError, SeparationError)
from .estimators import Method, Scale
from .inference import build_comparison_report, check_level, negative_control_test
from .simulation import ScenarioConfig, run_study
from .variance import REPORT_STRATEGIES, SeStrategy
from .weighting import SolverConfig, fit_diagnostics, overlap_diagnostics, solve_weights


def write_json(path: Path, obj) -> None:
    # json writes the shortest repr of each float, which reads back to the
    # same double; the text is built first, so a NaN or an infinity, which
    # strict JSON cannot carry, leaves no partial file; the directory is made
    # only then, so each command's --out appears with its first result
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NonFiniteResult(f"{path}: the result holds a non-finite number ({e})") from None
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_manifest(out_dir: Path, command: str, config: dict, inputs: list, seed=None) -> None:
    write_json(out_dir / "manifest.json", {
        "command": command,
        "config": config,
        # each input is read again through the loaders' reader, which refused
        # a pipe up front: a pipe would read back here as empty input
        "input_digests": {str(p): hashlib.sha256(read_input(p)).hexdigest() for p in inputs},
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _load_pair(args):
    ipd = load_ipd(args.ipd, outcome_kind=OutcomeKind(args.outcome_kind))
    agd = load_agd(args.agd)
    try:
        agd.check_alignment(ipd)
    except MaicError as e:
        raise type(e)(f"{args.agd}: {e}") from None
    return ipd, agd


def _fit_weights(args, ipd, agd):
    """The weights that balance the IPD's --moments against the pooled AGD
    target; an AGD study that lacks what the target needs is named by path."""
    spec = MomentSpec(args.moments)
    try:
        target = pooled_target_moments(agd, spec)
    except MissingVariance as e:
        raise MissingVariance(f"{args.agd}: {e}") from None
    return solve_weights(ipd, target, spec, SolverConfig())


def cmd_fit(args) -> int:
    ipd, agd = _load_pair(args)
    model = _fit_weights(args, ipd, agd)
    doc = model.to_dict()
    doc["diagnostics"] = {**fit_diagnostics(model, ipd),
                          "largest_weights": overlap_diagnostics(model, ipd).largest_weights}
    out = Path(args.out)
    write_json(out / "model.json", doc)
    write_rows(out / "weights.csv", [{"index": i, "arm": int(z), "weight": repr(float(w))}
                                     for i, (z, w) in enumerate(zip(ipd.z, model.weights))],
               ["index", "arm", "weight"])
    write_manifest(out, "fit", {"moments": args.moments, "outcome_kind": args.outcome_kind},
                   [args.ipd, args.agd])
    return 0


def _parse_choices(flag: str, text: str, accepted: dict, also: str = "") -> list:
    """The values of a comma list of the names in `accepted`, each once, in
    first-seen order; for any other token, InvalidChoice naming the flag and
    listing the names, then `also`."""
    out = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        if tok not in accepted:
            raise InvalidChoice(f"{flag}: {tok!r} is not one of {', '.join(accepted)}{also}")
        out.append(accepted[tok])
    return list(dict.fromkeys(out))


def _parse_strategies(text: str) -> list[SeStrategy]:
    if text.strip() == "all":
        return list(REPORT_STRATEGIES)
    return _parse_choices("--se", text, {s.value: s for s in REPORT_STRATEGIES},
                          f" (or all alone; {SeStrategy.FULL.value} needs the aggregate "
                          "trial's raw records and is available in simulation only)")


def cmd_compare(args) -> int:
    methods = _parse_choices("--methods", args.methods, {m.value: m for m in Method})
    strategies = _parse_strategies(args.se)
    check_level(args.level, "--level")
    ipd, agd = _load_pair(args)
    scale = Scale(args.scale)
    # the null check reads the fitted weights, so --negcontrol fits them too
    fit = args.negcontrol or any(m.weighted for m in methods)
    model = _fit_weights(args, ipd, agd) if fit else None
    report = build_comparison_report(
        ipd, agd, model, methods, scale, strategies, level=args.level,
        run_negative_control=args.negcontrol,
    )
    out = Path(args.out)
    write_json(out / "report.json", report.to_dict())
    report.write_csv(out / "report.csv")
    write_manifest(out, "compare", {
        "methods": [m.value for m in methods],
        "se": [s.value for s in strategies],
        "scale": scale.value, "moments": args.moments, "level": args.level,
        "outcome_kind": args.outcome_kind, "negcontrol": args.negcontrol,
    }, [args.ipd, args.agd])
    return 0


def cmd_negcontrol(args) -> int:
    check_level(args.alpha, "--alpha")
    ipd, agd = _load_pair(args)
    scale = Scale(args.scale)
    model = _fit_weights(args, ipd, agd)
    result = negative_control_test(ipd, agd, model, scale, alpha_level=args.alpha)
    out = Path(args.out)
    write_json(out / "negcontrol.json", result.to_dict())
    write_manifest(out, "negcontrol", {
        "scale": scale.value, "moments": args.moments, "alpha": args.alpha,
        "outcome_kind": args.outcome_kind,
    }, [args.ipd, args.agd])
    return 0


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise InvalidChoice(f"--threads must be at least 1, got {args.threads}")
    cfg = ScenarioConfig.from_json_file(args.config)
    if args.seed is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ValueError as e:
            raise SchemaError(f"--seed: {e}") from None
    try:
        report = run_study(cfg, threads=args.threads)
    except (MemoryError, ValueError) as e:  # numpy refuses an array the sizes ask for
        raise SchemaError(f"{args.config}: numpy refuses the scenario's arrays: {e}") from None
    out = Path(args.out)
    write_json(out / "report.json", report.to_dict())
    rows = report.tidy_rows()
    write_rows(out / "report.csv", rows, list(rows[0]))
    write_manifest(out, "simulate", cfg.to_dict(), [args.config], seed=cfg.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maic",
        description="Population-adjusted indirect comparisons from IPD and "
                    "aggregate trial data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_pair=True):
        if need_pair:
            p.add_argument("--ipd", required=True, help="IPD trial CSV")
            p.add_argument("--agd", required=True, help="aggregate trial JSON")
            p.add_argument("--moments", choices=[s.value for s in MomentSpec],
                           default=MomentSpec.FIRST.value)
            p.add_argument("--outcome-kind", choices=[k.value for k in OutcomeKind],
                           default=OutcomeKind.BINARY.value)
        p.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="solve moment-matching weights")
    add_io(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="run estimators with SEs and CIs")
    add_io(p_cmp)
    p_cmp.add_argument("--methods", default="maic-nab,maic-acb,bucher,stc,naive")
    p_cmp.add_argument("--se", default="all",
                       help="comma list of fo,po,cs,sw or 'all' (all four)")
    p_cmp.add_argument("--level", type=float, default=0.95)
    p_cmp.add_argument("--negcontrol", action="store_true",
                       help="also run the comparator-arm null check")
    p_cmp.set_defaults(func=cmd_compare)

    p_neg = sub.add_parser("negcontrol", help="comparator-arm null check")
    add_io(p_neg)
    p_neg.add_argument("--alpha", type=float, default=0.05)
    p_neg.set_defaults(func=cmd_negcontrol)
    for p in (p_cmp, p_neg):
        p.add_argument("--scale", choices=[s.value for s in Scale], default=Scale.IDENTITY.value)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--config", required=True, help="scenario JSON")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.add_argument("--threads", type=int, default=1, help="worker processes")
    add_io(p_sim, need_pair=False)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


# parsing leaves no state on the parser, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        if e.residual is not None:
            print(f"balance residual: {[float(v) for v in e.residual]}", file=sys.stderr)
        return 2
    except (SeparationError, NonFiniteResult) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (MaicError, OSError, ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
