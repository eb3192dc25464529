"""Influence-function components and asymptotic-variance estimators.

The contrast estimator is asymptotically linear; its variance splits into
a term from the aggregate-study outcome mean, a term from the weighted
IPD mean, a term from estimating the weight coefficients, and a term from
estimating the target covariate means.  The last two involve patient-level
data from the aggregate study, so four feasible strategies are offered:

- fo: omit both weight-coefficient and target-mean contributions,
- po: include the weight-coefficient contribution, omit the target-mean one,
- cs: additionally bound the target-mean contribution via Cauchy-Schwarz,
- sw: heteroskedasticity-robust (HC0) variance of the weighted mean with
  weights treated as fixed.  It equals fo: each arm's weighted residuals
  sum to zero, so the variance of phi_mu1 is its uncentred second moment,
  which is exactly the HC0 sum.  sw_block computes that number a second
  way, and the two agree to rounding.

A fifth strategy (full) evaluates the complete influence function,
phi_mu1 + phi_alpha on the IPD rows and phi_mu2 + phi_mu_x2 on the
aggregate trial's records, and is available only when those records are at
hand (the simulation benchmark).  All estimators return sigma2 on the
asymptotic scale; the standard error of the contrast is sqrt(sigma2 / N)
with N the combined size of both trials.

Each contrast with an SE is the signed list of arm pairs its Estimate read
from the one table estimators.CONTRASTS (Estimate.pairs), each (sign, IPD
arm code, IPD mean, AGD arm, AGD mean): the active pair with sign +1 and,
for anchored estimates, the comparator pair with sign -1; the null check
is maic-nab on the comparator pair (estimators.NULL_CHECK).  One core
(_derive, _pair_influence, _var_over_n) maps IPD weights and a pair list
to the per-record phi, the AGD-variance term and, for the MAIC methods,
ctilde over the centred moments t(X_i) - target that the weight fit solved
over and carries (WeightModel.moments).  The moment Jacobian
J_alpha = -sum_i w_i c_i c_i^T / N, w * c and J_alpha's condition number
(with the COND_WARN warning) depend on the fit alone, so there is one per
fit (_moment_jacobians): report_block's SE stage builds it once for every
weighted method, each method solves its own right-hand side ctilde
against it for po, cs and full, and se_block drops it once the influence
pieces are built.  fo reads nothing it adds: without it, fo holds the
weights fixed and gives the same bits.  So do bucher and naive, with unit
weights and no fitted model, and the null check, whose SE is fo: they
carry no weight-coefficient or target-mean terms.

se_block is the one map from strategy to computation: it owns which
strategies apply to which method (none to stc; fo and sw to bucher and
naive; fo, po, cs and sw to the MAIC methods; full to maic-nab alone, given
the aggregate trial's records).  It derives each block's weights and pair
terms once (_derive), hands them to both the influence path, which gives
fo, po, cs and full, and the sw path.  The reference arrays of the full
influence function and the plug-in lemma terms live with the tests.

The *_block functions run the studies of one stacked IPD block
(data_model.IpdBlock) and return a result or the MaicError per study; the
single-study functions are blocks of one.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import (
    AgdArm,
    AgdStudy,
    IpdBlock,
    IpdStudy,
    OutcomeKind,
    TrialRecords,
    stack_ipd,
    take_rows,
)
from .errors import (
    MaicError,
    MissingAgdVariance,
    RequiresFullIpd,
    SingularJacobian,
    capture,
    succeeded,
    unwrap,
)
from .estimators import Estimate, Method, Scale, _block_weights
from .weighting import WeightModel, moment_matrix, solve_each

COND_WARN = 1e12


class SeStrategy(enum.Enum):
    FO = "fo"
    PO = "po"
    CS = "cs"
    SW = "sw"
    FULL = "full"


# the strategies a comparison report can compute: every one but full, which
# needs the aggregate trial's raw records
REPORT_STRATEGIES = (SeStrategy.FO, SeStrategy.PO, SeStrategy.CS, SeStrategy.SW)

# the strategies that apply to each method: stc carries a point estimate
# only, bucher and naive estimate no weight coefficients (fo and sw), and
# the full influence function is derived for maic-nab
_APPLICABLE = {Method.MAIC_NAB: tuple(SeStrategy), Method.MAIC_ACB: REPORT_STRATEGIES,
               Method.BUCHER: (SeStrategy.FO, SeStrategy.SW),
               Method.NAIVE: (SeStrategy.FO, SeStrategy.SW), Method.STC: ()}


@dataclass(frozen=True)
class SeEstimate:
    strategy: SeStrategy
    sigma2: float
    se: float


@dataclass(frozen=True)
class InfluencePieces:
    """Empirical influence components, already scaled by the link derivative
    on the logit scale.

    phi_mu1 and phi_alpha are per-IPD-record arrays (zero on the aggregate
    side); variances are taken over the combined size n_total.  For anchored
    estimates phi_mu1 and the outcome-covariate moment vector ctilde fold in
    the comparator-arm analogues.  Weights held fixed (bucher, naive, the
    null check) carry no weight-coefficient terms: phi_alpha, ew_t1 and
    j_alpha_inv_ctilde are None, v_mu_x2 is zero, and po and cs equal fo.
    When the moment Jacobian is singular, jacobian_error holds the
    SingularJacobian that the strategies needing the weight-coefficient
    terms (po, cs, full) raise; phi_alpha, v_mu_x2 and j_alpha_inv_ctilde
    are then None.
    """

    phi_mu1: np.ndarray
    phi_alpha: np.ndarray | None
    var_phi_mu2: float
    v_mu_x2: float | None
    n_total: int
    p_t2: float
    ew_t1: float | None
    j_alpha_inv_ctilde: np.ndarray | None
    jacobian_error: SingularJacobian | None = None

    def require_weight_terms(self) -> None:
        """Raise the Jacobian error when the weight-coefficient terms are missing."""
        if self.jacobian_error is not None:
            raise self.jacobian_error


def arm_outcome_variance(arm: AgdArm, outcome_kind: OutcomeKind) -> float:
    """Reported outcome sample variance, with the Bernoulli fallback
    ybar(1-ybar)*n/(n-1) when a binary arm of n >= 2 omits it."""
    if arm.y_var is not None:
        return float(arm.y_var)
    if outcome_kind is not OutcomeKind.BINARY:
        raise MissingAgdVariance(
            "AGD arm reports no outcome variance and the outcome is not binary"
        )
    if arm.n < 2:
        raise MissingAgdVariance(
            "AGD arm reports no outcome variance, and the binary fallback "
            "ybar(1-ybar)*n/(n-1) needs n >= 2"
        )
    ybar = arm.y_mean
    return float(ybar * (1.0 - ybar) * arm.n / (arm.n - 1))


@dataclass(frozen=True)
class _MomentJacobians:
    """The moment Jacobian of each fitted study of a block and what builds
    it: the centred moments c (B, n, k) the fit solved over, w * c with w
    the fitted weights, and J_alpha = -sum_i w_i c_i c_i^T / N (B, k, k)
    with N the combined size; `finite` marks the studies whose J_alpha has a
    finite condition number.  They depend on the fit alone, so a report's
    SE stage builds them once for every weighted method."""

    c: np.ndarray
    wc: np.ndarray
    j_alpha: np.ndarray
    finite: np.ndarray

    def take(self, rows) -> _MomentJacobians:
        """The Jacobians of the block rows `rows`, ascending."""
        return _MomentJacobians(*(take_rows(a, rows)
                                  for a in (self.c, self.wc, self.j_alpha, self.finite)))


def _moment_jacobians(block: IpdBlock, agds, models) -> _MomentJacobians:
    """The moment Jacobians of a block's fitted studies, with one warning
    per study whose condition number exceeds COND_WARN."""
    c = np.stack([m.moments for m in models])
    wc = _block_weights(block, models, True)[:, :, None] * c
    n_total = np.array([block.n + agd.n_total for agd in agds])
    j_alpha = np.matmul(-wc.transpose(0, 2, 1), c) / n_total[:, None, None]
    cond = np.linalg.cond(j_alpha)
    for v in cond[np.isfinite(cond) & (cond > COND_WARN)]:
        warnings.warn(
            f"moment Jacobian condition number {v:.3g} exceeds {COND_WARN:.0e}; "
            "heavily correlated covariates suspected",
            stacklevel=3,
        )
    return _MomentJacobians(c, wc, j_alpha, np.isfinite(cond))


def _solve_neg_definite(jac: _MomentJacobians, rhs: np.ndarray):
    """Solve J_alpha @ x = rhs for each (negative definite) moment Jacobian
    of a block: x, and a SingularJacobian or None per replicate."""
    errors = [None if f else SingularJacobian("moment Jacobian is singular") for f in jac.finite]
    finite = np.flatnonzero(jac.finite)
    x = np.zeros_like(rhs)
    x[finite], singular = solve_each(jac.j_alpha[finite], rhs[finite])
    for b in finite[singular]:
        errors[b] = SingularJacobian("moment Jacobian is singular")
    return x, errors


def _derive(block: IpdBlock, agds, models, ests, scale: Scale):
    """What the influence and sw paths share, derived once for a block whose
    estimates share one method: the weights (B, n), the combined sizes and
    each study's pair terms, (sign * g'(IPD mean), IPD arm code, IPD mean,
    AGD variance term) per arm pair its estimate read (Estimate.pairs), or
    the MaicError deriving them raised.  The AGD term is the variance
    contribution of the reported AGD arm mean over the combined size."""
    if ests[0].method is Method.STC:
        raise ValueError("stc is an outcome-model estimator and weights no records")
    w = _block_weights(block, models, ests[0].method.weighted)
    n_total = [block.n + agd.n_total for agd in agds]

    def terms(agd, est, nt):
        arms = [getattr(agd, pair[3]) for pair in est.pairs]
        return [(sign * scale.g_prime(mu_ipd), z, mu_ipd,
                 scale.g_prime(mu_agd) ** 2 * arm_outcome_variance(arm, block.outcome_kind)
                 / (arm.n / nt))
                for (sign, z, mu_ipd, _, mu_agd), arm in zip(est.pairs, arms)]

    return w, n_total, [capture(terms, a, e, nt) for a, e, nt in zip(agds, ests, n_total)]


def _pair_influence(block: IpdBlock, w: np.ndarray, terms: list, n_total: list[int],
                    c: np.ndarray | None = None):
    """Per-record phi (B, n) and, when the centred moments c (B, n, k) are
    given, ctilde (B, k), summed over the signed arm pairs of each study of
    a block; terms[b] comes from _derive."""
    y = block.y
    phi = np.zeros(y.shape)
    ctilde = None if c is None else np.zeros((len(y), c.shape[2]))
    nt = np.array(n_total)[:, None]
    for i, (_, code, _, _) in enumerate(terms[0]):
        sg = np.array([t[i][0] for t in terms])[:, None]
        mu = np.array([t[i][2] for t in terms])[:, None]
        mask = block.arm_mask(code)
        j = (w * mask).sum(axis=1)[:, None] / nt
        resid = (y - mu) * w * mask
        phi += sg * (resid / j)
        if c is not None:
            ctilde += (sg * (np.matmul(c.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]
                             / nt)) / j
    return phi, ctilde


def influence_components(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> InfluencePieces:
    """Evaluate the empirical influence components for an estimate.

    Supported methods: maic-nab and maic-acb (fitted weights), bucher and
    naive (unit weights; `model` is not read).  Anchored estimates extend
    the weight-coefficient contribution with the comparator-arm analogue of
    the outcome-covariate moment vector.
    """
    return unwrap(influence_block(stack_ipd([ipd]), [agd], [model], [est], scale)[0])


def influence_block(block: IpdBlock, agds, models, ests, scale: Scale) -> list:
    """influence_components for each study of a block whose estimates share
    one method and whose models share one moment spec: InfluencePieces or
    the MaicError per study."""
    return _influence(block, *_derive(block, agds, models, ests, scale),
                      _moment_jacobians(block, agds, models) if ests[0].method.weighted else None)


def _centred_moments(x: np.ndarray, models, ok: list[int]) -> np.ndarray:
    """The moments of the aggregate trial's records x (B, m, p) of the
    studies ok of a block, centred on each study's fitted target: (B, m, k).
    The IPD rows' centred moments come with each fit (WeightModel.moments)."""
    centering = np.stack([models[b].centering for b in ok])
    return moment_matrix(x, models[ok[0]].spec) - centering[:, None, :]


def _influence(block: IpdBlock, w: np.ndarray, n_total: list[int], terms: list,
               jac: _MomentJacobians | None = None) -> list:
    """InfluencePieces or the MaicError per study of a block, from what
    _derive gives.  The moment Jacobians `jac` of the fitted weights add the
    weight-coefficient terms, which solve them; without them (bucher, naive
    and the null check) the weights are held fixed and nothing is solved."""
    ok = succeeded(terms)
    if not ok:
        return terms
    sub = block.take(ok)
    w, nts = take_rows(w, ok), [n_total[b] for b in ok]
    out = list(terms)
    if jac is None:
        phi, _ = _pair_influence(sub, w, [terms[b] for b in ok], nts)
        for i, b in enumerate(ok):
            nt = n_total[b]
            out[b] = InfluencePieces(phi_mu1=phi[i], phi_alpha=None,
                                     var_phi_mu2=sum(t[3] for t in terms[b]), v_mu_x2=0.0,
                                     n_total=nt, p_t2=(nt - block.n) / nt, ew_t1=None,
                                     j_alpha_inv_ctilde=None)
        return out

    jac = jac.take(ok)
    sums = w.sum(axis=1)
    phi, ctilde = _pair_influence(sub, w, [terms[b] for b in ok], nts, jac.c)
    sol, errors = _solve_neg_definite(jac, ctilde)
    phi_alpha = np.matmul(jac.wc, sol[:, :, None])[:, :, 0]
    dots = np.matmul(ctilde[:, None, :], sol[:, :, None])[:, 0, 0]
    for i, b in enumerate(ok):
        nt = n_total[b]
        p_t2 = (nt - block.n) / nt  # the aggregate trial's share
        ew_t1 = float(sums[i] / nt)
        solved = errors[i] is None
        out[b] = InfluencePieces(
            phi_mu1=phi[i],
            phi_alpha=phi_alpha[i] if solved else None,
            var_phi_mu2=sum(t[3] for t in terms[b]),
            v_mu_x2=max(float(-(ew_t1 / p_t2) * dots[i]), 0.0) if solved else None,
            n_total=nt,
            p_t2=p_t2,
            ew_t1=ew_t1,
            j_alpha_inv_ctilde=sol[i] if solved else None,
            jacobian_error=errors[i],
        )
    return out


def _var_over_n(values: np.ndarray, n_total: list[int]) -> list[float]:
    """Sample variance of each row of `values` over its combined size;
    records absent from `values` (the aggregate side) contribute exactly
    zero."""
    s = values.sum(axis=1)
    sq = (values**2).sum(axis=1)
    return [float(sq[b] / n_total[b] - (s[b] / n_total[b]) ** 2) for b in range(len(values))]


def sigma2_fo(pieces: InfluencePieces) -> SeEstimate:
    return unwrap(influence_ses(SeStrategy.FO, [pieces])[0])


def sigma2_po(pieces: InfluencePieces) -> SeEstimate:
    return unwrap(influence_ses(SeStrategy.PO, [pieces])[0])


def sigma2_cs(pieces: InfluencePieces) -> SeEstimate:
    return unwrap(influence_ses(SeStrategy.CS, [pieces])[0])


def influence_ses(strategy: SeStrategy, pieces: list) -> list:
    """The fo, po or cs variance of each InfluencePieces of a block, or of
    the MaicError in its place: a SeEstimate or the MaicError per replicate.
    The pieces of a block share one method, so either all that hold their
    weight-coefficient terms carry phi_alpha or none do (fixed weights)."""
    def check(p):
        unwrap(p)
        if strategy is not SeStrategy.FO:
            p.require_weight_terms()

    out = [capture(check, p) for p in pieces]
    ok = [b for b in range(len(pieces)) if out[b] is None]
    if not ok:
        return out
    phi = np.stack([pieces[b].phi_mu1 for b in ok])
    if strategy is not SeStrategy.FO and pieces[ok[0]].phi_alpha is not None:
        phi = phi + np.stack([pieces[b].phi_alpha for b in ok])
    var = _var_over_n(phi, [pieces[b].n_total for b in ok])
    for v, b in zip(var, ok):
        p = pieces[b]
        sigma2 = v + p.var_phi_mu2
        if strategy is SeStrategy.CS:
            sigma2 = sigma2 + p.v_mu_x2 + 2.0 * np.sqrt(p.var_phi_mu2 * p.v_mu_x2)
        out[b] = SeEstimate(strategy, sigma2, np.sqrt(sigma2 / p.n_total))
    return out


def sigma2_sw(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> SeEstimate:
    """HC0 sandwich variance of the weighted mean(s), weights fixed."""
    block = stack_ipd([ipd])
    return unwrap(sw_block(block, *_derive(block, [agd], [model], [est], scale))[0])


def sw_block(block: IpdBlock, w: np.ndarray, n_total: list[int], terms: list) -> list:
    """sigma2_sw for each study of a block, from what _derive gives: a
    SeEstimate or the MaicError per study."""
    ok = succeeded(terms)
    out = list(terms)
    if not ok:
        return out
    sub, w = block.take(ok), take_rows(w, ok)
    sums = []
    for i, (_, code, _, _) in enumerate(terms[ok[0]]):
        wz = sub.arm_rows(w, code)
        rz = sub.arm_rows(sub.y, code) - np.array([terms[b][i][2] for b in ok])[:, None]
        sums.append((np.sum(wz**2 * rz**2, axis=1), np.sum(wz, axis=1)))
    for j, b in enumerate(ok):
        nt, sigma2 = n_total[b], 0.0
        for (g, _, _, var_agd), (num, den) in zip(terms[b], sums):
            sigma2 += nt * (g**2 * float(num[j] / den[j] ** 2))
            sigma2 += var_agd
        out[b] = SeEstimate(SeStrategy.SW, float(sigma2), np.sqrt(sigma2 / nt))
    return out


def se_block(block: IpdBlock, agds, models, ests, scale: Scale, strategies,
             records=None, jacobians: _MomentJacobians | None = None) -> dict:
    """Each requested strategy that applies to the estimates' method (see
    _APPLICABLE), in the order requested, mapped to a SeEstimate or the
    MaicError per study, for a block whose estimates share one method and
    whose models share one moment spec.  The weights and pair terms are
    derived once for every strategy.
    `records` holds the aggregate trial's raw records per replicate, which
    full needs; without them full gives RequiresFullIpd.  `jacobians` holds
    the moment Jacobians of the block's fits (_moment_jacobians), which a
    weighted method's po, cs and full solve; fo's bits do not need them."""
    wanted = [s for s in strategies if s in _APPLICABLE[ests[0].method]]
    if not wanted:
        return {}
    if jacobians is None and not set(wanted) <= {SeStrategy.FO, SeStrategy.SW}:
        raise ValueError("a weighted method's po, cs and full solve its moment Jacobians")
    derived = _derive(block, agds, models, ests, scale)
    out, pieces = {}, None
    for strategy in wanted:
        if strategy is SeStrategy.SW:
            out[strategy] = sw_block(block, *derived)
            continue
        if pieces is None:
            pieces = _influence(block, *derived, jacobians)
            jacobians = None  # the pieces hold what the rest reads: free the (B, n, k) arrays
        if strategy is SeStrategy.FULL:
            out[strategy] = _full_ses(records, models, ests, scale, pieces)
        else:
            out[strategy] = influence_ses(strategy, pieces)
    return out


def sigma2_full(
    ipd: IpdStudy,
    agd: AgdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> SeEstimate:
    pieces = influence_block(stack_ipd([ipd]), [agd], [model], [est], scale)
    return unwrap(_full_ses([agd_records], [model], [est], scale, pieces)[0])


def _full_ses(records, models, ests, scale: Scale, pieces: list) -> list:
    """sigma2_full for a block of maic-nab estimates whose influence pieces
    (or their MaicErrors) are given: a SeEstimate or the MaicError per
    replicate.  The full influence function of a replicate is phi_mu1 +
    phi_alpha on its IPD rows and phi_mu2 + phi_mu_x2 on the aggregate
    trial's records; sigma2 is its variance over both."""
    def check(b):
        if ests[b].method is not Method.MAIC_NAB:
            raise ValueError("full influence benchmark is defined for maic-nab")
        p = unwrap(pieces[b])
        if records is None or records[b] is None:
            raise RequiresFullIpd("full influence function needs the aggregate trial's records")
        if p.n_total != len(p.phi_mu1) + len(records[b].y):
            raise RequiresFullIpd(
                "aggregate records inconsistent with the AGD summary sample sizes"
            )
        g2 = scale.g_prime(ests[b].mu2)
        p.require_weight_terms()
        return g2

    out = [capture(check, b) for b in range(len(pieces))]
    ok = succeeded(out)
    if not ok:
        return out
    n_total = np.array([pieces[b].n_total for b in ok])[:, None]
    ry = np.stack([records[b].y for b in ok])
    z2 = np.stack([records[b].z for b in ok]) == 2
    p_z2t2 = z2.sum(axis=1)[:, None] / n_total
    g2 = np.array([out[b] for b in ok])[:, None]
    mu2 = np.array([ests[b].mu2 for b in ok])[:, None]
    phi_mu2 = g2 * (mu2 - ry) * z2 / p_z2t2

    c2 = _centred_moments(np.stack([records[b].x for b in ok]), models, ok)
    # ctilde already carries g'(mu1) and 1/J^{mu1}; only U^{muX2} remains
    coef = np.array([-(pieces[b].ew_t1 / pieces[b].p_t2) for b in ok])[:, None, None]
    sol = np.stack([pieces[b].j_alpha_inv_ctilde for b in ok])
    phi_mu_x2 = np.matmul(coef * c2, sol[:, :, None])[:, :, 0]

    phi = np.concatenate([np.stack([pieces[b].phi_mu1 for b in ok])
                          + np.stack([pieces[b].phi_alpha for b in ok]),
                          phi_mu2 + phi_mu_x2], axis=1)
    for b, sigma2 in zip(ok, map(float, np.var(phi, axis=1))):
        out[b] = SeEstimate(SeStrategy.FULL, sigma2, np.sqrt(sigma2 / phi.shape[1]))
    return out
