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
from maic import data_model
from maic.data_model import (MomentSpec, OutcomeKind, TrialRecords, pooled_target_moments,
                             stack_ipd)
from maic.errors import MaicError, NonConvergence, capture
from maic.estimators import Method, Scale, bucher, estimate_block, maic_acb, maic_nab, naive, stc
from maic.inference import build_comparison_report, negative_control_block, report_block
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
from maic.weighting import SolverConfig, solve_weights, solve_weights_block

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
    block = stack_ipd(ipds)
    strategies = list(SeStrategy)[::-1]  # any requested order is kept
    for method in Method:
        block_models = models if method.weighted else [None] * size
        ests = estimate_block(block, agds, block_models, scale, method)
        lone = [capture(LONE_ESTIMATE[method], *s[:2], s[3], scale) for s in studies]
        assert all(same(a, b) for a, b in zip(ests, lone)), method
        if any(isinstance(e, MaicError) for e in ests):
            # a single-arm AGD fails the anchored methods; a constant
            # covariate leaves stc's outcome-model design rank deficient
            assert ((method.anchored and not comparator)
                    or (method is Method.STC and singular))
            continue
        ses = se_block(block, agds, block_models, ests, scale, strategies, records)
        assert list(ses) == [s for s in strategies if s in APPLICABLE[method]]
        for strategy, outcomes in ses.items():
            for (ipd, agd, recs, _), model, est, got in zip(studies, block_models, ests,
                                                            outcomes):
                want = lone_se(strategy, ipd, agd, model, est, scale, recs)
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


def run_stages(block, agds, models, scale, records):
    """Every block stage on a block: the solves, each method's estimates,
    its SEs under every strategy, and the null check."""
    targets = np.stack([pooled_target_moments(agd, MomentSpec.FIRST) for agd in agds])
    out = [solve_weights_block(block, targets, MomentSpec.FIRST, SolverConfig()),
           negative_control_block(block, agds, models, scale)]
    for method in Method:
        ests = estimate_block(block, agds, models, scale, method)
        out.append(ests)
        if not any(isinstance(e, MaicError) for e in ests):
            out.append(se_block(block, agds, models, ests, scale, list(SeStrategy), records))
    return out


@pytest.mark.parametrize("scale", list(Scale))
def test_block_stages_gather_arm_rows_by_index(rng, scale):
    studies = [study(rng, scale, comparator=True) for _ in range(3)]
    ipds, agds, records, models = (list(t) for t in zip(*studies))
    block = stack_ipd(ipds)
    want = run_stages(block, agds, models, scale, records)
    block.z = block.z.view(_NoEquality)
    got = run_stages(block, agds, models, scale, records)
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


def test_a_failed_fit_skips_the_weighted_stages_and_a_missing_fit_files_each(rng):
    # models: a fit, a failed fit and no fit; the failed fit is filed once
    studies = [study(rng, Scale.LOGIT, comparator=True) for _ in range(3)]
    ipds, agds, records, fits = (list(t) for t in zip(*studies))
    failed = NonConvergence("target outside the convex hull of the IPD moments")
    methods = list(Method)

    def reports(members, models):  # every method with its SEs, and the null check
        return report_block(stack_ipd([ipds[b] for b in members]), [agds[b] for b in members],
                            models, methods, Scale.LOGIT, list(SeStrategy), 0.95,
                            se_methods=methods, records=[records[b] for b in members],
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
