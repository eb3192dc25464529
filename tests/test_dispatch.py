"""The two stage functions against the lone estimators and SE functions.

estimate_block and se_block are the only code that picks a computation by
method or strategy.  In a block of one or of three same-shaped studies,
every outcome (an Estimate, a SeEstimate or a MaicError) must equal, bit for
bit, what the lone public function gives for that study.  The stages take one
stacked IPD block, which gathers arm rows by the indices it found once.
report_block, which assembles the reports of both units of work, gives each
study of a block its block-of-one report, so a simulation replicate equals
the comparison report of its datasets.
"""

import pickle
import warnings
from types import ModuleType

import numpy as np
import pytest

import maic
from maic import data_model, estimators, inference
from maic.data_model import (MomentSpec, OutcomeKind, TrialRecords, pooled_moments,
                             pooled_target_moments, stack_agd, stack_ipd)
from maic.errors import MaicError, NonConvergence, capture
from maic.estimators import (CONTRASTS, NULL_CHECK, Method, Scale, bucher, estimate_block,
                             maic_acb, maic_nab, naive, stc)
from maic.inference import (build_comparison_report, negative_control_block,
                            negative_control_test, report_block)
from maic.simulation import (SIM_METHODS, Confounding, ScenarioConfig, replicate_datasets,
                             run_block, run_replicate)
from maic.variance import (
    REPORT_STRATEGIES,
    SeStrategy,
    influence_components,
    se_block,
    sigma2_cs,
    sigma2_fo,
    sigma2_full,
    sigma2_po,
    sigma2_sw,
)
from maic.weighting import FitBlock, SolverConfig, solve_weights, solve_weights_block

from conftest import make_agd, make_arm, make_ipd

N_IPD, N_AGD = 60, 50

LONE_ESTIMATE = {
    Method.MAIC_NAB: lambda ipd, agd, model, scale: maic_nab(ipd, agd, model, scale),
    Method.MAIC_ACB: lambda ipd, agd, model, scale: maic_acb(ipd, agd, model, scale),
    Method.BUCHER: lambda ipd, agd, model, scale: bucher(ipd, agd, scale),
    Method.NAIVE: lambda ipd, agd, model, scale: naive(ipd, agd, scale),
    Method.STC: lambda ipd, agd, model, scale: stc(ipd, agd, scale),
}
FROM_PIECES = {SeStrategy.FO: sigma2_fo, SeStrategy.PO: sigma2_po, SeStrategy.CS: sigma2_cs}
# the strategies that apply to each method (README table)
APPLICABLE = {
    Method.MAIC_NAB: set(SeStrategy),
    Method.MAIC_ACB: set(SeStrategy) - {SeStrategy.FULL},
    Method.BUCHER: {SeStrategy.FO, SeStrategy.SW},
    Method.NAIVE: {SeStrategy.FO, SeStrategy.SW},
    Method.STC: set(),
}


def study(rng, scale, comparator, singular=False):
    """An IPD study, an AGD study collapsed from the aggregate trial's
    records, those records, and the weight model fitted to the AGD means.
    When `singular`, the last covariate is the constant 0.5 in both trials,
    so the moment Jacobian is singular."""
    binary = scale is Scale.LOGIT

    def draw(n, shift):
        x = rng.normal(size=(n, 2)) + shift
        if singular:
            x[:, -1] = 0.5
        lin = x @ np.array([0.5, -0.3])
        if binary:
            return (rng.random(n) < 1.0 / (1.0 + np.exp(-lin))).astype(float), x
        return lin + rng.normal(size=n), x

    y, x = draw(N_IPD, 0.0)
    kind = OutcomeKind.BINARY if binary else OutcomeKind.CONTINUOUS
    ipd = make_ipd(y, np.repeat([1, 0], N_IPD // 2), x, outcome_kind=kind)
    y2, x2 = draw(N_AGD, 0.2)
    z2 = np.where(np.arange(N_AGD) % 2 == 0, 2, 0) if comparator else np.full(N_AGD, 2)

    def arm(code):
        m = z2 == code
        return make_arm(n=int(m.sum()), y_mean=float(y2[m].mean()),
                        y_var=float(y2[m].var(ddof=1)), x_mean=x2[m].mean(axis=0))

    agd = make_agd(active=arm(2), comparator=arm(0) if comparator else None,
                   names=ipd.covariate_names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singular Hessian
        model = solve_weights(ipd, pooled_target_moments(agd, MomentSpec.FIRST))
    return ipd, agd, TrialRecords(y2, z2, x2), model


def lone_se(strategy, ipd, agd, model, est, scale, records):
    """The lone public SE function's result for one strategy, or its MaicError."""
    if strategy is SeStrategy.SW:
        return capture(sigma2_sw, ipd, agd, model, est, scale)
    if strategy is SeStrategy.FULL:
        return capture(sigma2_full, ipd, agd, records, model, est, scale)
    pieces = capture(influence_components, ipd, agd, model, est, scale)
    return pieces if isinstance(pieces, MaicError) else capture(FROM_PIECES[strategy], pieces)


def same(a, b) -> bool:
    """Bit-for-bit equality of outcomes (pickle keeps float bits and types)."""
    return pickle.dumps(a) == pickle.dumps(b)


def stack_records(records) -> TrialRecords:
    """The aggregate trial's records of the studies of a block, stacked."""
    return TrialRecords(*(np.stack([getattr(r, f) for r in records]) for f in "yzx"))


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("scale", list(Scale))
@pytest.mark.parametrize("comparator", [True, False])
@pytest.mark.parametrize("singular", [False, True])
def test_blocks_equal_lone_results(rng, size, scale, comparator, singular):
    # with `singular`, the middle study of a block of three (the only study
    # of a block of one) has the singular moment Jacobian
    flags = [singular] if size == 1 else [False, singular, False]
    studies = [study(rng, scale, comparator, s) for s in flags]
    ipds, agds, records, models = (list(t) for t in zip(*studies))
    block, agd = stack_ipd(ipds), stack_agd(agds)
    fits, stacked = FitBlock.of(models), stack_records(records)
    # the stages before the estimates: the pooled targets and the solves
    targets = pooled_moments(agd, MomentSpec.FIRST)
    assert all(same(t, pooled_target_moments(a, MomentSpec.FIRST)) for t, a in zip(targets, agds))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singular Hessian
        solved = solve_weights_block(block, targets, MomentSpec.FIRST, SolverConfig())
    assert all(same(solved.outcome(b), model) for b, model in enumerate(models))
    assert all(same(got, capture(negative_control_test, ipd, a, model, scale))
               for got, ipd, a, model in zip(negative_control_block(block, agd, fits, scale),
                                             ipds, agds, models))
    strategies = list(SeStrategy)[::-1]  # any requested order is kept
    for method in Method:
        block_fits = fits if method.weighted else None
        ests = estimate_block(block, agd, block_fits, scale, method)
        lone = [capture(LONE_ESTIMATE[method], *s[:2], s[3], scale) for s in studies]
        assert all(same(a, b) for a, b in zip(ests, lone)), method
        if any(isinstance(e, MaicError) for e in ests):
            # a single-arm AGD fails the anchored methods; a constant
            # covariate leaves stc's outcome-model design rank deficient
            assert ((len(CONTRASTS[method].pairs) > 1 and not comparator)
                    or (method is Method.STC and singular))
            continue
        ses = se_block(block, agd, block_fits, ests, scale, strategies, stacked)
        assert list(ses) == [s for s in strategies if s in APPLICABLE[method]]
        for strategy, outcomes in ses.items():
            for (ipd, a, recs, model), est, got in zip(studies, ests, outcomes):
                model = model if method.weighted else None
                want = lone_se(strategy, ipd, a, model, est, scale, recs)
                assert same(got, want), (method, strategy)
        if singular and method.weighted:
            failed = [s for s, outs in ses.items() if isinstance(outs[size // 2], MaicError)]
            assert set(failed) == APPLICABLE[method] - {SeStrategy.FO, SeStrategy.SW}
            assert all(type(ses[s][size // 2]).__name__ == "SingularJacobian" for s in failed)



class _NoEquality(np.ndarray):
    """Arm codes that refuse `==` and `!=`: a stage that masks z to find the
    rows of an arm fails."""

    def __eq__(self, other):
        raise AssertionError("a block stage compared arm codes")

    __ne__ = __eq__


def run_stages(block, agd, fits, scale, records):
    """Every block stage on a block: the solves, each method's estimates,
    its SEs under every strategy, and the null check."""
    targets = pooled_moments(agd, MomentSpec.FIRST)
    solved = solve_weights_block(block, targets, MomentSpec.FIRST, SolverConfig())
    out = [[solved.outcome(b) for b in range(len(block))],
           negative_control_block(block, agd, fits, scale)]
    for method in Method:
        ests = estimate_block(block, agd, fits, scale, method)
        out.append(ests)
        if not any(isinstance(e, MaicError) for e in ests):
            out.append(se_block(block, agd, fits, ests, scale, list(SeStrategy), records))
    return out


@pytest.mark.parametrize("scale", list(Scale))
def test_block_stages_gather_arm_rows_by_index(rng, scale):
    studies = [study(rng, scale, comparator=True) for _ in range(3)]
    ipds, agds, records, models = (list(t) for t in zip(*studies))
    block, agd, fits = stack_ipd(ipds), stack_agd(agds), FitBlock.of(models)
    want = run_stages(block, agd, fits, scale, stack_records(records))
    block.z = block.z.view(_NoEquality)
    got = run_stages(block, agd, fits, scale, stack_records(records))
    assert pickle.dumps(got) == pickle.dumps(want)


def test_the_ipd_is_stacked_once_per_block_and_per_report(rng, monkeypatch):
    calls, stack = [], data_model.stack_ipd

    def counting_stack(ipds):
        calls.append(len(ipds))
        return stack(ipds)

    for module in vars(maic).values():
        if isinstance(module, ModuleType) and hasattr(module, "stack_ipd"):
            monkeypatch.setattr(module, "stack_ipd", counting_stack)
    cfg = ScenarioConfig(p=4, n_per_arm=30, confounding=Confounding.SEVERE,
                         scale=Scale.LOGIT, replicates=4, seed=3)
    assert all(not r.errors for r in run_block(cfg, [0, 1, 2, 3]))
    assert len(calls) <= 1
    ipd, agd, _, model = study(rng, Scale.LOGIT, comparator=True)
    calls.clear()
    report = build_comparison_report(ipd, agd, model, list(Method), Scale.LOGIT,
                                     run_negative_control=True)
    assert report.negative_control is not None and len(report.ses) == 12
    assert calls == [1]


@pytest.mark.parametrize("scale", list(Scale))
def test_a_replicate_equals_the_comparison_report_of_its_datasets(scale):
    cfg = ScenarioConfig(p=5, n_per_arm=60, scale=scale, replicates=20, seed=4)
    for r in range(cfg.replicates):
        ipd, agd, _ = replicate_datasets(cfg, r)
        model = solve_weights(ipd, pooled_target_moments(agd, MomentSpec.FIRST))
        report = build_comparison_report(ipd, agd, model, list(SIM_METHODS), scale,
                                         REPORT_STRATEGIES, run_negative_control=True)
        got = run_replicate(cfg, r)
        assert not got.errors and not report.errors
        assert same(got.deltas, {m: est.delta for m, est in report.estimates.items()})
        assert same({s: v for s, v in got.ses.items() if s != SeStrategy.FULL.value},
                    {s: se.se for (m, s), se in report.ses.items() if m == "maic-nab"})
        assert got.negcontrol_reject is report.negative_control.reject_at_level


def test_each_weighted_method_reads_the_shared_jacobian_as_its_own(rng):
    # the AGD studies 1 and 3 report no comparator arm, so maic-acb runs on
    # studies 0 and 2 and maic-nab on all four; study 2's Jacobian is singular
    studies = [study(rng, Scale.LOGIT, comparator=c, singular=s)
               for c, s in ((True, False), (False, False), (True, True), (False, False))]
    ipds, agds, records, models = (list(t) for t in zip(*studies))
    block, agd, fits = stack_ipd(ipds), stack_agd(agds), FitBlock.of(models)

    def reports(methods):
        return report_block(block, agd, fits, methods, Scale.LOGIT, list(SeStrategy),
                            se_methods=methods, records=stack_records(records))

    weighted = [Method.MAIC_NAB, Method.MAIC_ACB]
    both = reports(weighted)
    assert ["maic-acb" in r.estimates for r in both] == [True, False, True, False]
    assert "maic-acb/po" in both[2].errors and "maic-nab/po" in both[2].errors
    for method in weighted:
        for got, alone in zip(both, reports([method])):
            assert same({k: se for k, se in got.ses.items() if k[0] == method.value},
                        alone.ses)
            assert same({k: e for k, e in got.errors.items()
                         if k.split("/")[0] == method.value}, alone.errors)


def test_se_block_gives_the_same_bits_with_a_fresh_store_and_a_shared_one(rng):
    # the store holds the arm pieces and the moment Jacobians that the first
    # call builds; a call that finds them there reads them as its own, and
    # fo and sw asked alone, which build no Jacobian, give the bits they give
    # beside po, cs and full
    ipd, agd, records, model = study(rng, Scale.LOGIT, comparator=True)
    block, agd, fits, records = stack_ipd([ipd]), stack_agd([agd]), FitBlock.of([model]), \
        stack_records([records])
    shared = {}
    for method in (Method.MAIC_NAB, Method.MAIC_ACB):
        ests = estimate_block(block, agd, fits, Scale.LOGIT, method)
        every = se_block(block, agd, fits, ests, Scale.LOGIT, list(SeStrategy), records)
        for strategy in APPLICABLE[method]:
            fresh = se_block(block, agd, fits, ests, Scale.LOGIT, [strategy], records)
            stored = se_block(block, agd, fits, ests, Scale.LOGIT, [strategy], records,
                              shared=shared)
            assert list(fresh) == list(stored) == [strategy]
            assert same(fresh[strategy], stored[strategy]), (method, strategy)
            assert same(fresh[strategy], every[strategy]), (method, strategy)
    assert "jacobians" in shared


def test_a_failed_fit_skips_the_weighted_stages_and_a_missing_fit_files_each(rng):
    # models: a fit, a failed fit and no fit; the failed fit is filed once
    studies = [study(rng, Scale.LOGIT, comparator=True) for _ in range(3)]
    ipds, agds, records, fits = (list(t) for t in zip(*studies))
    failed = NonConvergence("target outside the convex hull of the IPD moments")
    methods = list(Method)

    def reports(members, models):  # every method with its SEs, and the null check
        return report_block(stack_ipd([ipds[b] for b in members]),
                            stack_agd([agds[b] for b in members]), FitBlock.of(models), methods,
                            Scale.LOGIT, list(SeStrategy), se_methods=methods,
                            records=stack_records([records[b] for b in members]),
                            negative_control=True)

    fit, lost, none = reports([0, 1, 2], [fits[0], failed, None])
    assert same(fit, reports([0], [fits[0]])[0])
    assert fit.negative_control is not None and not fit.errors
    assert lost.errors["weights"] == f"NonConvergence: {failed}"
    assert not any("MissingWeightModel" in e for e in lost.errors.values())
    assert not {"maic-nab", "maic-acb", "negative_control"} & set(lost.errors)
    assert lost.negative_control is None
    assert {k for k, e in none.errors.items() if e.startswith("MissingWeightModel: ")} == {
        "maic-nab", "maic-acb", "negative_control"}
    assert "weights" not in none.errors and none.negative_control is None
    for report in (fit, lost, none):
        assert {"bucher", "stc"} <= set(report.estimates)
        assert {("bucher", "fo"), ("bucher", "sw")} <= set(report.ses)
    for report in (lost, none):
        assert set(report.estimates) == {m.value for m in methods if not m.weighted}


@pytest.mark.parametrize("scale", list(Scale))
def test_se_block_reads_each_estimates_means_and_computes_none(rng, monkeypatch, scale):
    # the estimates hold their IPD means; no SE, and not the null check's
    # fo, forms a weighted arm mean again
    ipd, agd, records, model = study(rng, scale, comparator=True)
    block, agd, fits, records = stack_ipd([ipd]), stack_agd([agd]), FitBlock.of([model]), \
        stack_records([records])
    runs = [(method, None) for method in Method if APPLICABLE[method]] \
        + [(Method.MAIC_NAB, NULL_CHECK)]
    ests = {run: estimate_block(block, agd, fits if run[0].weighted else None, scale, *run)
            for run in runs}
    calls = []
    means = estimators._weighted_means
    monkeypatch.setattr(estimators, "_weighted_means", lambda *a: calls.append(a) or means(*a))
    for (method, contrast), run_ests in ests.items():
        strategies = list(SeStrategy) if contrast is None else [SeStrategy.FO]
        ses = se_block(block, agd, fits if method.weighted else None, run_ests, scale,
                       strategies, records)
        assert list(ses) == [s for s in strategies if s in APPLICABLE[method]]
        assert not any(isinstance(se, MaicError) for outs in ses.values() for se in outs)
    assert calls == []


def test_a_simulated_block_files_no_wald_interval_or_p_value(monkeypatch):
    # a replicate keeps only its SEs; the one Wald test each replicate runs is
    # the null check's
    counts = {"_interval": 0, "_wald_or_null": 0}
    for name in counts:
        def counted(*a, _name=name, _f=getattr(inference, name)):
            counts[_name] += 1
            return _f(*a)
        monkeypatch.setattr(inference, name, counted)
    results = run_block(ScenarioConfig(p=5, n_per_arm=40, seed=3), range(8))
    assert counts == {"_interval": 0,
                      "_wald_or_null": sum(r.negcontrol_reject is not None for r in results)}
    assert counts["_wald_or_null"] > 0


@pytest.mark.parametrize("scale", list(Scale))
def test_every_se_estimate_holds_builtin_floats(rng, scale):
    ipd, agd, records, model = study(rng, scale, comparator=True)
    report = build_comparison_report(ipd, agd, model, list(Method), scale, REPORT_STRATEGIES)
    full = sigma2_full(ipd, agd, records, model, maic_nab(ipd, agd, model, scale), scale)
    # four SEs each for the MAIC methods, two each for bucher and naive, and
    # maic-nab's full
    ses = [*report.ses.values(), full]
    assert not report.errors and len(ses) == 13
    assert all(type(se.sigma2) is float and type(se.se) is float for se in ses)


def test_each_arm_piece_is_built_once_per_report(rng, monkeypatch):
    # four (weights, arm) pieces exist: maic-nab, maic-acb and the null check
    # read the fitted weights, bucher and naive unit weights, each on two arms
    built, arm_mask = [], data_model.IpdBlock.arm_mask

    def counting_mask(block, code):
        built.append(code)
        return arm_mask(block, code)

    monkeypatch.setattr(data_model.IpdBlock, "arm_mask", counting_mask)
    ipd, agd, _, model = study(rng, Scale.LOGIT, comparator=True)
    report = build_comparison_report(ipd, agd, model, list(Method), Scale.LOGIT,
                                     run_negative_control=True)
    assert not report.errors and report.negative_control is not None
    assert sorted(built) == [0, 0, 1, 1]
