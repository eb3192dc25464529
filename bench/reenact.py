"""Step-by-step re-enactments of one simulation replicate and one `maic compare`.

Each function makes the same public calls, in the same order and with the
same arguments, as the code it mirrors (`maic.simulation.run_replicate`,
`maic.cli.cmd_compare` with `maic.inference.build_comparison_report`), with
a span around every call.  The spans live here, never inside `src/maic`.
The benchmark checks that each re-enactment gives bit-identical results to
the code it mirrors, so a drift between the two fails the run by name.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import numpy as np

from maic import cli
from maic.data_model import (
    AgdArm,
    AgdStudy,
    IpdStudy,
    MomentSpec,
    OutcomeKind,
    TrialRecords,
    load_agd,
    load_ipd,
    pooled_target_moments,
)
from maic.errors import InsufficientCell, MaicError
from maic.estimators import Method, Scale, bucher, maic_acb, maic_nab, naive, stc
from maic.inference import ComparisonReport, negative_control_test, wald_ci, wald_test
from maic.simulation import ReplicateResult, generate_population, subsample_by_arm
from maic.variance import (
    SeStrategy,
    influence_components,
    sigma2_cs,
    sigma2_fo,
    sigma2_full,
    sigma2_po,
    sigma2_sw,
)
from maic.weighting import (
    SolverConfig,
    balance_check,
    effective_sample_size,
    overlap_diagnostics,
    solve_weights,
)

# span name of each estimator call, by method
ESTIMATOR_SPAN = {
    Method.MAIC_NAB: "maic_nab",
    Method.MAIC_ACB: "maic_acb",
    Method.BUCHER: "bucher",
    Method.STC: "stc",
    Method.NAIVE: "naive",
}
_SIGMA2 = {SeStrategy.FO: sigma2_fo, SeStrategy.PO: sigma2_po, SeStrategy.CS: sigma2_cs}


@dataclasses.dataclass
class Fit:
    """What a re-enactment hands back for the balance check."""

    ipd: IpdStudy
    target: np.ndarray
    model: object  # WeightModel, or None when the solve failed


def replicate_datasets(cfg, replicate_index: int, tr):
    """Mirror of `maic.simulation.replicate_datasets`.  The AGD collapse is
    the span's self time: the time left after generate/subsample."""
    with tr.span("replicate_datasets"):
        rng = np.random.default_rng([cfg.seed, replicate_index])
        factor = cfg.oversample_factor
        for _ in range(12):
            n_star = factor * 4 * cfg.n_per_arm
            with tr.span("generate_population"):
                pop = generate_population(cfg, n_star, rng)
            tr.count("generate_population.rows_drawn", n_star)
            try:
                with tr.span("subsample_by_arm"):
                    sub = subsample_by_arm(pop, cfg.n_per_arm, rng)
                break
            except InsufficientCell:
                tr.count("generate_population.retries")
                factor *= 2
        else:
            raise InsufficientCell("could not fill all cells after repeated oversampling")
        tr.count("generate_population.rows_kept", len(sub.y))

        names = tuple(f"x{j + 1}" for j in range(cfg.p))
        t1 = sub.t == 1
        ipd = IpdStudy(sub.y[t1], sub.z[t1], sub.x[t1], names, OutcomeKind.BINARY)
        t2 = sub.t == 2

        def make_arm(z: int) -> AgdArm:
            m = t2 & (sub.z == z)
            return AgdArm(
                n=int(m.sum()),
                y_mean=float(sub.y[m].mean()),
                y_var=float(sub.y[m].var(ddof=1)),
                x_mean=sub.x[m].mean(axis=0),
                x_var=sub.x[m].var(axis=0, ddof=1),
            )

        agd = AgdStudy(make_arm(2), make_arm(0), names)
        agd_records = TrialRecords(sub.y[t2], sub.z[t2], sub.x[t2])
    return ipd, agd, agd_records


def run_replicate(cfg, replicate_index: int, tr) -> tuple[ReplicateResult, Fit]:
    """Mirror of `maic.simulation.run_replicate`, one span per public call."""
    with tr.span("run_replicate"):
        ipd, agd, agd_records = replicate_datasets(cfg, replicate_index, tr)
        res = ReplicateResult()
        with tr.span("pooled_target_moments"):
            target = pooled_target_moments(agd, MomentSpec.FIRST)
        try:
            with tr.span("solve_weights"):
                model = solve_weights(ipd, target, MomentSpec.FIRST, SolverConfig())
            tr.count("solve_weights.iterations", model.iterations)
        except MaicError as e:
            res.errors["weights"] = f"{type(e).__name__}: {e}"
            model = None

        runners = {
            Method.MAIC_NAB: lambda: maic_nab(ipd, agd, model, cfg.scale),
            Method.MAIC_ACB: lambda: maic_acb(ipd, agd, model, cfg.scale),
            Method.BUCHER: lambda: bucher(ipd, agd, cfg.scale),
            Method.STC: lambda: stc(ipd, agd, cfg.scale),
        }
        nab = None
        for method, run in runners.items():
            if model is None and method in (Method.MAIC_NAB, Method.MAIC_ACB):
                continue
            try:
                with tr.span(ESTIMATOR_SPAN[method]):
                    est = run()
            except MaicError as e:
                res.errors[method.value] = f"{type(e).__name__}: {e}"
                continue
            res.deltas[method.value] = est.delta
            if method is Method.MAIC_NAB:
                nab = est

        if nab is not None:
            res.ess_active = model.ess.get(1)
            try:
                with tr.span("influence_components"):
                    pieces = influence_components(ipd, agd, model, nab, cfg.scale)
                for strategy, fn in _SIGMA2.items():
                    with tr.span(f"sigma2_{strategy.value}"):
                        res.ses[strategy.value] = fn(pieces).se
                with tr.span("sigma2_sw"):
                    res.ses[SeStrategy.SW.value] = sigma2_sw(ipd, agd, model, nab, cfg.scale).se
                with tr.span("sigma2_full"):
                    res.ses[SeStrategy.FULL.value] = sigma2_full(
                        ipd, agd, agd_records, model, nab, cfg.scale
                    ).se
            except MaicError as e:
                res.errors["variance"] = f"{type(e).__name__}: {e}"
            try:
                with tr.span("negative_control_test"):
                    res.negcontrol_reject = negative_control_test(
                        ipd, agd, model, cfg.scale
                    ).reject_at_level
            except MaicError as e:
                res.errors["negcontrol"] = f"{type(e).__name__}: {e}"
    return res, Fit(ipd, target, model)


def result_mismatches(a: ReplicateResult, b: ReplicateResult) -> list[str]:
    """Names of the fields that differ bit for bit (pickle keeps float bits,
    numpy scalar types and dict order)."""
    return [f.name for f in dataclasses.fields(ReplicateResult)
            if pickle.dumps(getattr(a, f.name)) != pickle.dumps(getattr(b, f.name))]


def compare_argv(ipd_path, agd_path, out_dir) -> list[str]:
    """The compare-cli command line: k=16 moments, logit, every SE, null check."""
    return ["compare", "--ipd", str(ipd_path), "--agd", str(agd_path),
            "--moments", "first+second", "--scale", "logit", "--se", "all",
            "--negcontrol", "--out", str(out_dir)]


def _unit_weight_model(model, ipd: IpdStudy):
    """The unit-weight model the report uses for Bucher SEs (no covariate
    adjustment), built from public fields of the fitted model."""
    k = len(model.centering)
    ones = np.ones(ipd.n)
    return dataclasses.replace(
        model, alpha1=np.zeros(k), weights=ones, converged=True, iterations=0,
        objective=1.0,
        ess={int(z): effective_sample_size(np.ones((ipd.z == z).sum()))
             for z in np.unique(ipd.z)},
    )


def build_comparison_report(ipd, agd, model, methods, scale, strategies, level,
                            run_negative_control, tr) -> ComparisonReport:
    """Mirror of `maic.inference.build_comparison_report` for a fitted model."""
    with tr.span("build_comparison_report"):
        report = ComparisonReport(scale=scale, level=level)
        agd.check_alignment(ipd)
        runners = {
            Method.MAIC_NAB: lambda: maic_nab(ipd, agd, model, scale),
            Method.MAIC_ACB: lambda: maic_acb(ipd, agd, model, scale),
            Method.BUCHER: lambda: bucher(ipd, agd, scale),
            Method.STC: lambda: stc(ipd, agd, scale),
            Method.NAIVE: lambda: naive(ipd, agd, scale),
        }
        for method in methods:
            try:
                with tr.span(ESTIMATOR_SPAN[method]):
                    est = runners[method]()
            except MaicError as e:
                report.errors[method.value] = f"{type(e).__name__}: {e}"
                continue
            report.estimates[method.value] = est
            if method is Method.STC:
                continue
            se_model = _unit_weight_model(model, ipd) if method is Method.BUCHER else model
            se_est = (dataclasses.replace(est, method=Method.MAIC_ACB)
                      if method is Method.BUCHER else est)
            method_strategies = list(strategies)
            if method in (Method.BUCHER, Method.NAIVE):
                method_strategies = [s for s in method_strategies
                                     if s in (SeStrategy.FO, SeStrategy.SW)]
            for strategy in method_strategies:
                try:
                    if strategy is SeStrategy.SW:
                        with tr.span("sigma2_sw"):
                            se = sigma2_sw(ipd, agd, se_model, se_est, scale)
                    else:
                        with tr.span("influence_components"):
                            pieces = influence_components(ipd, agd, se_model, se_est, scale)
                        with tr.span(f"sigma2_{strategy.value}"):
                            se = _SIGMA2[strategy](pieces)
                except MaicError as e:
                    report.errors[f"{method.value}/{strategy.value}"] = (
                        f"{type(e).__name__}: {e}"
                    )
                    continue
                key = (method.value, strategy.value)
                with tr.span("wald"):
                    report.ses[key] = se
                    report.cis[key] = wald_ci(est.delta, se.se, level)
                    report.p_values[key] = wald_test(est.delta, se.se)[1] if se.se > 0 else 1.0

        with tr.span("balance_check"):
            residual, max_norm = balance_check(model, ipd, model.centering)
        with tr.span("overlap_diagnostics"):
            overlap = overlap_diagnostics(model, ipd)
        report.diagnostics = {
            "ess": {str(k): v for k, v in model.ess.items()},
            "balance_residual": residual.tolist(),
            "balance_max_norm": max_norm,
            "low_ess_arms": overlap.low_ess_arms,
            "max_weight_share": overlap.max_weight_share,
        }
        if run_negative_control:
            try:
                with tr.span("negative_control_test"):
                    report.negative_control = negative_control_test(ipd, agd, model, scale)
            except MaicError as e:
                report.errors["negative_control"] = f"{type(e).__name__}: {e}"
    return report


def compare(argv: list[str], tr) -> tuple[ComparisonReport, Fit]:
    """Mirror of `maic.cli.main(argv)` for a `compare` command line with at
    least one MAIC method.  Writes the same three files into --out."""
    with tr.span("compare"):
        with tr.span("parse_args"):
            args = cli.build_parser().parse_args(argv)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with tr.span("load_ipd"):
            ipd = load_ipd(args.ipd, outcome_kind=OutcomeKind(args.outcome_kind))
        tr.count("load_ipd.rows", ipd.n)
        with tr.span("load_agd"):
            agd = load_agd(args.agd)
        agd.check_alignment(ipd)
        scale = Scale(args.scale)
        methods = [Method(tok.strip()) for tok in args.methods.split(",") if tok.strip()]
        if args.se.strip() == "all":
            strategies = [SeStrategy.FO, SeStrategy.PO, SeStrategy.CS, SeStrategy.SW]
        else:
            strategies = [SeStrategy(tok.strip()) for tok in args.se.split(",") if tok.strip()]
        spec = MomentSpec(args.moments)
        with tr.span("pooled_target_moments"):
            target = pooled_target_moments(agd, spec)
        with tr.span("solve_weights"):
            model = solve_weights(ipd, target, spec, SolverConfig())
        tr.count("solve_weights.iterations", model.iterations)
        report = build_comparison_report(
            ipd, agd, model, methods, scale, strategies, args.level, args.negcontrol, tr,
        )
        with tr.span("write_json"):
            cli.write_json(out / "report.json", report.to_dict())
        with tr.span("write_csv"):
            report.write_csv(out / "report.csv")
        with tr.span("write_manifest"):
            cli.write_manifest(out, "compare", {
                "methods": [m.value for m in methods],
                "se": [s.value for s in strategies],
                "scale": scale.value, "moments": spec.value, "level": args.level,
                "outcome_kind": args.outcome_kind,
            }, [args.ipd, args.agd])
    return report, Fit(ipd, target, model)
