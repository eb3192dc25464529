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

Each contrast with an SE is a signed list of arm pairs read off the
Estimate alone, (sign, IPD arm code, IPD mean, AGD arm, AGD mean): the
active pair with sign +1 and, for anchored estimates, the comparator pair
with sign -1.  One core (_pair_terms, _pair_influence, _var_over_n) maps
IPD weights and a pair list to the per-record phi, the AGD-variance term
and, given centred moments, ctilde.  Bucher and naive use unit weights,
need no fitted model, and have zero weight-coefficient and target-mean
terms.  The comparator-arm null check is fo on its one comparator pair,
(+1, arm 0, weighted IPD comparator mean, AGD comparator arm, its mean),
with the fitted weights held fixed (comparator_fo_block); it solves no
moment Jacobian.

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
import math
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
    the comparator-arm analogues.  For unweighted methods phi_alpha is zero,
    v_mu_x2 is zero, and j_alpha_inv_ctilde is empty.  When the moment
    Jacobian is singular, jacobian_error holds the SingularJacobian that
    the strategies needing the weight-coefficient terms (po, cs, full)
    raise; phi_alpha, v_mu_x2 and j_alpha_inv_ctilde are then None.
    """

    phi_mu1: np.ndarray
    phi_alpha: np.ndarray | None
    var_phi_mu2: float
    v_mu_x2: float | None
    n_total: int
    p_t2: float
    ew_t1: float
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


def _solve_neg_definite(j_alpha: np.ndarray, rhs: np.ndarray):
    """Solve j_alpha @ x = rhs for each (negative definite) moment Jacobian
    of a block: x, and a SingularJacobian or None per replicate."""
    cond = np.linalg.cond(j_alpha)
    errors = [None if np.isfinite(v) else SingularJacobian("moment Jacobian is singular")
              for v in cond]
    for v in cond[np.isfinite(cond) & (cond > COND_WARN)]:
        warnings.warn(
            f"moment Jacobian condition number {v:.3g} exceeds {COND_WARN:.0e}; "
            "heavily correlated covariates suspected",
            stacklevel=4,
        )
    finite = np.flatnonzero(np.isfinite(cond))
    x = np.zeros_like(rhs)
    x[finite], singular = solve_each(j_alpha[finite], rhs[finite])
    for b in finite[singular]:
        errors[b] = SingularJacobian("moment Jacobian is singular")
    return x, errors


def _arm_pairs(agd: AgdStudy, est: Estimate) -> list[tuple]:
    """(sign, IPD arm code, IPD arm mean, AGD arm, AGD arm mean) per arm pair."""
    pairs = [(1.0, 1, est.mu1, agd.active_arm, est.mu2)]
    if est.anchor_terms is not None:
        mu0_ipd, mu0_agd = est.anchor_terms
        pairs.append((-1.0, 0, mu0_ipd, agd.comparator_arm, mu0_agd))
    return pairs


def _pair_terms(block: IpdBlock, pairs, n_total: list[int], scale: Scale) -> list:
    """Each study's (sign * g'(IPD mean), IPD arm code, IPD mean, AGD
    variance term) per arm pair of pairs[b], or the MaicError deriving them
    raised; the AGD term is the variance contribution of the reported AGD
    arm mean over the combined size n_total[b]."""
    def terms(study_pairs, nt):
        return [(sign * scale.g_prime(mu_ipd), z, mu_ipd,
                 scale.g_prime(mu_agd) ** 2 * arm_outcome_variance(arm, block.outcome_kind)
                 / (arm.n / nt))
                for sign, z, mu_ipd, arm, mu_agd in study_pairs]

    return [capture(terms, p, nt) for p, nt in zip(pairs, n_total)]


def _derive(block: IpdBlock, agds, models, ests, scale: Scale):
    """The weights (B, n), the combined sizes and each study's pair terms
    (see _pair_terms) of a block whose estimates share one method: what the
    influence and sw paths share, derived once."""
    w = _block_weights(block, models, ests[0].method)
    n_total = [block.n + agd.n_total for agd in agds]
    return w, n_total, _pair_terms(block, [_arm_pairs(a, e) for a, e in zip(agds, ests)],
                                   n_total, scale)


def _pair_influence(block: IpdBlock, w: np.ndarray, terms: list, n_total: list[int],
                    c: np.ndarray | None = None):
    """Per-record phi (B, n) and, when the centred moments c (B, n, k) are
    given, ctilde (B, k), summed over the signed arm pairs of each study of
    a block; terms[b] comes from _pair_terms."""
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
                      models if ests[0].method.weighted else None)


def _influence(block: IpdBlock, w: np.ndarray, n_total: list[int], terms: list,
               models=None) -> list:
    """InfluencePieces or the MaicError per study of a block, from what
    _derive gives.  The fitted `models` add the weight-coefficient terms,
    which solve each moment Jacobian; without them (bucher and naive) the
    weights are held fixed, phi_alpha is zero and nothing is solved."""
    ok = succeeded(terms)
    if not ok:
        return terms
    sub = block.take(ok)
    w, nts = take_rows(w, ok), [n_total[b] for b in ok]
    sums = w.sum(axis=1)

    if models is None:
        phi, _ = _pair_influence(sub, w, [terms[b] for b in ok], nts)
        sol = np.zeros((len(ok), 0))
        phi_alpha = np.zeros(phi.shape)
        errors = [None] * len(ok)
    else:
        centering = np.stack([models[b].centering for b in ok])
        c = moment_matrix(sub.x, models[ok[0]].spec) - centering[:, None, :]
        wc = w[:, :, None] * c
        j_alpha = np.matmul(-wc.transpose(0, 2, 1), c) / np.array(nts)[:, None, None]
        phi, ctilde = _pair_influence(sub, w, [terms[b] for b in ok], nts, c)
        sol, errors = _solve_neg_definite(j_alpha, ctilde)
        phi_alpha = np.matmul(wc, sol[:, :, None])[:, :, 0]
        dots = np.matmul(ctilde[:, None, :], sol[:, :, None])[:, 0, 0]

    out = list(terms)
    for i, b in enumerate(ok):
        nt = n_total[b]
        p_t2 = (nt - block.n) / nt  # the aggregate trial's share
        ew_t1 = float(sums[i] / nt)
        solved = errors[i] is None
        if models is None:
            v_mu_x2 = 0.0
        elif solved:
            v_mu_x2 = max(float(-(ew_t1 / p_t2) * dots[i]), 0.0)
        out[b] = InfluencePieces(
            phi_mu1=phi[i],
            phi_alpha=phi_alpha[i] if solved else None,
            var_phi_mu2=sum(t[3] for t in terms[b]),
            v_mu_x2=v_mu_x2 if solved else None,
            n_total=nt,
            p_t2=p_t2,
            ew_t1=ew_t1,
            j_alpha_inv_ctilde=sol[i] if solved else None,
            jacobian_error=errors[i],
        )
    return out


def comparator_fo_block(block: IpdBlock, agds, w: np.ndarray, mu0, scale: Scale) -> list:
    """The fo standard error of each study's single comparator pair (+1,
    IPD arm 0, mu0[b], AGD comparator arm, its reported mean), the weights w
    held fixed: the null check's SE.  It has no weight-coefficient term and
    solves no moment Jacobian.  A float or the MaicError per study."""
    pairs = [[(1.0, 0, m, agd.comparator_arm, agd.comparator_arm.y_mean)]
             for agd, m in zip(agds, mu0)]
    n_total = [block.n + agd.n_total for agd in agds]
    out = _pair_terms(block, pairs, n_total, scale)
    ok = succeeded(out)
    if not ok:
        return out
    nts = [n_total[b] for b in ok]
    phi, _ = _pair_influence(block.take(ok), take_rows(w, ok), [out[b] for b in ok], nts)
    for v, b, nt in zip(_var_over_n(phi, nts), ok, nts):
        [(_, _, _, var_agd)] = out[b]
        out[b] = math.sqrt((v + var_agd) / nt)
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
    the MaicError in its place: a SeEstimate or the MaicError per replicate."""
    def check(p):
        unwrap(p)
        if strategy is not SeStrategy.FO:
            p.require_weight_terms()

    out = [capture(check, p) for p in pieces]
    ok = [b for b in range(len(pieces)) if out[b] is None]
    if not ok:
        return out
    phi = np.stack([pieces[b].phi_mu1 for b in ok])
    if strategy is not SeStrategy.FO:
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
             records=None) -> dict:
    """Each requested strategy that applies to the estimates' method (see
    _APPLICABLE), in the order requested, mapped to a SeEstimate or the
    MaicError per study, for a block whose estimates share one method and
    whose models share one moment spec.  The weights and pair terms are
    derived once for every strategy.
    `records` holds the aggregate trial's raw records per replicate, which
    full needs; without them full gives RequiresFullIpd."""
    wanted = [s for s in strategies if s in _APPLICABLE[ests[0].method]]
    if not wanted:
        return {}
    derived = _derive(block, agds, models, ests, scale)
    out, pieces = {}, None
    for strategy in wanted:
        if strategy is SeStrategy.SW:
            out[strategy] = sw_block(block, *derived)
            continue
        if pieces is None:
            pieces = _influence(block, *derived, models if ests[0].method.weighted else None)
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

    rx = np.stack([records[b].x for b in ok])
    centering = np.stack([models[b].centering for b in ok])
    c2 = moment_matrix(rx, models[ok[0]].spec) - centering[:, None, :]
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
