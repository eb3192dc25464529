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

A fifth strategy (full) evaluates the complete influence function and is
available only when the aggregate study's raw records are at hand (the
simulation benchmark).  All estimators return sigma2 on the asymptotic
scale; the standard error of the contrast is sqrt(sigma2 / N) with N the
combined size of both trials.

Each contrast with an SE is a signed list of arm pairs read off the
Estimate alone, (sign, IPD arm code, IPD mean, AGD arm, AGD mean): the
active pair with sign +1 and, for anchored estimates, the comparator pair
with sign -1; the null check is one comparator pair.  One core maps IPD
weights and a pair list to the per-record phi, the AGD-variance term and,
given centred moments, ctilde.  Bucher and naive use unit weights, need no
fitted model, and have zero weight-coefficient and target-mean terms.

se_block is the one map from strategy to computation: it owns which
strategies apply to which method (none to stc; fo and sw to bucher and
naive; fo, po, cs and sw to the MAIC methods; full to maic-nab alone, given
the aggregate trial's records) and computes fo, po, cs and full from one
influence_block call.

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
    MomentSpec,
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
    estimates phi_mu1 and ctilde fold in the comparator-arm analogues.  For
    unweighted methods phi_alpha is zero, v_mu_x2 is zero, and ctilde and
    j_alpha_inv_ctilde are empty.  When the moment Jacobian is singular,
    jacobian_error holds the SingularJacobian that the strategies needing
    the weight-coefficient terms (po, cs, full) raise; phi_alpha, v_mu_x2
    and j_alpha_inv_ctilde are then None.
    """

    phi_mu1: np.ndarray
    phi_alpha: np.ndarray | None
    ctilde: np.ndarray
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
    ybar(1-ybar)*n/(n-1) when a binary arm omits it."""
    if arm.y_var is not None:
        return float(arm.y_var)
    if outcome_kind is OutcomeKind.BINARY:
        ybar = arm.y_mean
        return float(ybar * (1.0 - ybar) * arm.n / (arm.n - 1))
    raise MissingAgdVariance(
        "AGD arm reports no outcome variance and the outcome is not binary"
    )


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


def _pair_terms(pairs: list[tuple], scale: Scale, outcome_kind: OutcomeKind,
                n_total: int) -> list[tuple]:
    """One replicate's (sign * g'(IPD mean), IPD arm code, IPD mean, AGD
    variance term) per arm pair; the AGD term is the variance contribution
    of the reported AGD arm mean."""
    return [(sign * scale.g_prime(mu_ipd), z, mu_ipd,
             scale.g_prime(mu_agd) ** 2 * arm_outcome_variance(arm, outcome_kind)
             / (arm.n / n_total))
            for sign, z, mu_ipd, arm, mu_agd in pairs]


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
    w = _block_weights(block, models, ests[0].method)
    n_total = [block.n + agd.n_total for agd in agds]
    prep = [capture(_pair_terms, _arm_pairs(agd, est), scale, block.outcome_kind, nt)
            for agd, est, nt in zip(agds, ests, n_total)]
    ok = succeeded(prep)
    if not ok:
        return prep
    sub = block.take(ok)
    w, nts = take_rows(w, ok), [n_total[b] for b in ok]
    terms = [prep[b] for b in ok]
    sums = w.sum(axis=1)

    unweighted = not ests[0].method.weighted
    if unweighted:
        phi, _ = _pair_influence(sub, w, terms, nts)
        ctilde = sol = np.zeros((len(ok), 0))
        phi_alpha = np.zeros(phi.shape)
        errors = [None] * len(ok)
    else:
        centering = np.stack([models[b].centering for b in ok])
        c = moment_matrix(sub.x, models[ok[0]].spec) - centering[:, None, :]
        wc = w[:, :, None] * c
        j_alpha = np.matmul(-wc.transpose(0, 2, 1), c) / np.array(nts)[:, None, None]
        phi, ctilde = _pair_influence(sub, w, terms, nts, c)
        sol, errors = _solve_neg_definite(j_alpha, ctilde)
        phi_alpha = np.matmul(wc, sol[:, :, None])[:, :, 0]
        dots = np.matmul(ctilde[:, None, :], sol[:, :, None])[:, 0, 0]

    out = list(prep)
    for i, b in enumerate(ok):
        nt = n_total[b]
        p_t2 = agds[b].n_total / nt
        ew_t1 = float(sums[i] / nt)
        solved = errors[i] is None
        if unweighted:
            v_mu_x2 = 0.0
        elif solved:
            v_mu_x2 = max(float(-(ew_t1 / p_t2) * dots[i]), 0.0)
        out[b] = InfluencePieces(
            phi_mu1=phi[i],
            phi_alpha=phi_alpha[i] if solved else None,
            ctilde=ctilde[i],
            var_phi_mu2=sum(t[3] for t in prep[b]),
            v_mu_x2=v_mu_x2 if solved else None,
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
    return unwrap(sw_block(stack_ipd([ipd]), [agd], [model], [est], scale)[0])


def sw_block(block: IpdBlock, agds, models, ests, scale: Scale) -> list:
    """sigma2_sw for each study of a block whose estimates share one
    method: a SeEstimate or the MaicError per study."""
    w = _block_weights(block, models, ests[0].method)
    pairs = [_arm_pairs(agd, est) for agd, est in zip(agds, ests)]
    sums = []
    for i, (_, code, _, _, _) in enumerate(pairs[0]):
        wz = block.arm_rows(w, code)
        rz = block.arm_rows(block.y, code) - np.array([p[i][2] for p in pairs])[:, None]
        sums.append((np.sum(wz**2 * rz**2, axis=1), np.sum(wz, axis=1)))

    def se(b):
        n_total = block.n + agds[b].n_total
        sigma2 = 0.0
        terms = _pair_terms(pairs[b], scale, block.outcome_kind, n_total)
        for (g, _, _, var_agd), (num, den) in zip(terms, sums):
            sigma2 += n_total * (g**2 * float(num[b] / den[b] ** 2))
            sigma2 += var_agd
        return SeEstimate(SeStrategy.SW, float(sigma2), np.sqrt(sigma2 / n_total))

    return [capture(se, b) for b in range(len(block))]


def se_block(block: IpdBlock, agds, models, ests, scale: Scale, strategies,
             records=None) -> dict:
    """Each requested strategy that applies to the estimates' method (see
    _APPLICABLE), in the order requested, mapped to a SeEstimate or the
    MaicError per study, for a block whose estimates share one method and
    whose models share one moment spec.
    `records` holds the aggregate trial's raw records per replicate, which
    full needs; without them full gives RequiresFullIpd."""
    wanted = [s for s in strategies if s in _APPLICABLE[ests[0].method]]
    out, pieces = {}, None
    for strategy in wanted:
        if strategy is SeStrategy.SW:
            out[strategy] = sw_block(block, agds, models, ests, scale)
            continue
        if pieces is None:
            pieces = influence_block(block, agds, models, ests, scale)
        if strategy is SeStrategy.FULL:
            out[strategy] = _full_ses(records, models, ests, scale, pieces)
        else:
            out[strategy] = influence_ses(strategy, pieces)
    return out


def full_influence_arrays(
    ipd: IpdStudy,
    agd: AgdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> dict[str, np.ndarray]:
    """Per-record influence arrays over both trials (IPD rows first, then the
    aggregate trial's raw records), link-scaled.  Simulation benchmark only."""
    pieces = influence_block(stack_ipd([ipd]), [agd], [model], [est], scale)
    outcomes, arrays = _full_arrays([agd_records], [model], [est], scale, pieces)
    unwrap(outcomes[0])
    return {key: a[0] for key, a in arrays.items()}


def _full_arrays(records, models, ests, scale: Scale, pieces: list):
    """The full influence arrays of a block whose influence pieces (or
    their MaicErrors) are given: the outcomes, g'(mu2) or the MaicError per
    replicate, and a dict of arrays (len(ok), n_total) stacked over the
    replicates ok that succeeded."""
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
        return out, {}
    n_total = np.array([pieces[b].n_total for b in ok])[:, None]
    ry = np.stack([records[b].y for b in ok])
    z2 = np.stack([records[b].z for b in ok]) == 2
    p_z2t2 = z2.sum(axis=1)[:, None] / n_total
    g2 = np.array([out[b] for b in ok])[:, None]
    mu2 = np.array([ests[b].mu2 for b in ok])[:, None]
    phi_mu2_t2 = g2 * (mu2 - ry) * z2 / p_z2t2

    rx = np.stack([records[b].x for b in ok])
    centering = np.stack([models[b].centering for b in ok])
    c2 = moment_matrix(rx, models[ok[0]].spec) - centering[:, None, :]
    # ctilde already carries g'(mu1) and 1/J^{mu1}; only U^{muX2} remains
    coef = np.array([-(pieces[b].ew_t1 / pieces[b].p_t2) for b in ok])[:, None, None]
    sol = np.stack([pieces[b].j_alpha_inv_ctilde for b in ok])
    phi_mu_x2_t2 = np.matmul(coef * c2, sol[:, :, None])[:, :, 0]

    phi_mu1 = np.stack([pieces[b].phi_mu1 for b in ok])
    zeros_ipd = np.zeros(phi_mu1.shape)
    zeros_t2 = np.zeros(ry.shape)
    return out, {
        "phi_mu2": np.concatenate([zeros_ipd, phi_mu2_t2], axis=1),
        "phi_mu1": np.concatenate([phi_mu1, zeros_t2], axis=1),
        "phi_alpha": np.concatenate([np.stack([pieces[b].phi_alpha for b in ok]), zeros_t2],
                                    axis=1),
        "phi_mu_x2": np.concatenate([zeros_ipd, phi_mu_x2_t2], axis=1),
    }


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
    are given: the variance of each replicate's summed influence arrays, a
    SeEstimate or the MaicError per replicate."""
    out, arrays = _full_arrays(records, models, ests, scale, pieces)
    ok = succeeded(out)
    if not ok:
        return out
    phi = sum(arrays.values())
    n_total = phi.shape[1]
    for b, sigma2 in zip(ok, map(float, np.var(phi, axis=1))):
        out[b] = SeEstimate(SeStrategy.FULL, sigma2, np.sqrt(sigma2 / n_total))
    return out


@dataclass(frozen=True)
class LemmaTerms:
    """Plug-in simplifications of the weight-estimation and target-mean
    variance contributions (correct-trial-model forms)."""

    var_phi_alpha: float
    cov_mu1_alpha: float
    var_phi_mu_x2: float
    cov_mu2_mu_x2: float


def lemma_variance_terms(
    ipd: IpdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
) -> LemmaTerms:
    """Evaluate the simplified variance contributions with empirical
    outcome-covariate covariances and the aggregate-trial covariate
    dispersion.  First-moment weighting on the identity scale only."""
    if agd_records is None:
        raise RequiresFullIpd("lemma terms need the aggregate trial's records")
    if model.spec is not MomentSpec.FIRST:
        raise ValueError("lemma terms are defined for first-moment weighting")
    w = model.weights
    c = ipd.x - model.centering
    n_ipd = ipd.n
    n2 = len(agd_records.y)
    n_total = n_ipd + n2
    p_t2 = n2 / n_total
    ew_t1 = w.sum() / n_total
    p_z1_t1 = (ipd.z == 1).mean()

    # trial-selection odds up to the (estimable) normalizing constant
    omega = w * p_t2 / ew_t1

    active = (ipd.z == 1).astype(float)
    resid = (ipd.y - est.mu1) * active
    ctilde = c.T @ (resid * w) / n_total
    c1 = ctilde / (p_z1_t1 * ew_t1)

    x2c = agd_records.x - model.centering
    var_x_t2 = x2c.T @ x2c / n2 - np.outer(x2c.mean(axis=0), x2c.mean(axis=0))
    z2 = agd_records.z == 2
    y2 = agd_records.y[z2] - agd_records.y[z2].mean()
    x2a = agd_records.x[z2] - agd_records.x[z2].mean(axis=0)
    c2 = x2a.T @ y2 / z2.sum()

    vinv_c1 = np.linalg.solve(var_x_t2, c1)
    vinv_c2 = np.linalg.solve(var_x_t2, c2)

    m = (c * (omega**2)[:, None]).T @ c / n_total / p_t2
    var_phi_alpha = float(vinv_c1 @ m @ vinv_c1 / p_t2)
    e_resid = c.T @ (resid * omega**2) / n_total / (p_z1_t1 * p_t2)
    cov_mu1_alpha = float(-(vinv_c1 @ e_resid) / p_t2)
    var_phi_mu_x2 = float(c1 @ vinv_c1 / p_t2)
    cov_mu2_mu_x2 = float(-(c1 @ vinv_c2) / p_t2)
    return LemmaTerms(var_phi_alpha, cov_mu1_alpha, var_phi_mu_x2, cov_mu2_mu_x2)
