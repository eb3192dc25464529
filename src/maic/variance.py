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
over and carries (FitBlock.moments).  The IPD and AGD means of each pair
are the ones its Estimate read, so no mean is computed again and no
boundary check repeated.  Each (weights, arm) piece of the core (J^mu and
the weighted residuals) depends on the weights and the arm alone, so a
report builds it once for every method and the null check on the same
studies (_arm_piece).  The moment Jacobian
J_alpha = -sum_i w_i c_i c_i^T / N and its condition number depend on the
fit alone, so there is one per fit (_moment_jacobians): se_block builds it
the first time po, cs or full solves it, warns there when its condition
number with a unit diagonal exceeds COND_WARN, and keeps it in the same
store, where every weighted method solves its own right-hand side ctilde
against it.  fo, sw, bucher, naive and the null check (whose SE is fo)
build none: they carry no weight-coefficient or target-mean terms, and
without the Jacobian fo holds the weights fixed and gives the same bits.

se_block is the one map from strategy to computation: it owns which
strategies apply to which method (none to stc; fo and sw to bucher and
naive; fo, po, cs and sw to the MAIC methods; full to maic-nab alone, given
the aggregate trial's records).  It derives each block's weights and pair
terms once (_derive), hands them to both the influence path, which gives
fo, po, cs and full, and the sw path.  The reference arrays of the full
influence function and the plug-in lemma terms live with the tests.

The *_block functions run the studies of one stacked IPD block
(data_model.IpdBlock) with their stacked AGD summaries (data_model.AgdBlock)
and weight fits (weighting.FitBlock), as arrays over the block, and return
a result or the MaicError per study; the single-study functions are blocks
of one.  Where a lone study squares a float, the block squares each element
through Python's float pow (data_model.squares), as the lone study does.
InfluencePieces is stacked too: influence_components returns a lone study's
as a block of one, which sigma2_fo, sigma2_po and sigma2_cs read via _ses.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data_model import (
    AGD_ARMS,
    AgdBlock,
    AgdStudy,
    IpdBlock,
    IpdStudy,
    OutcomeKind,
    TrialRecords,
    squares,
)
from .errors import MissingAgdVariance, RequiresFullIpd, SingularJacobian, unwrap
from .estimators import Estimate, Method, Scale, _block_weights, _file_first, _one
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


def _outcome_variances(y_var: np.ndarray, n: np.ndarray, ybar: np.ndarray,
                       outcome_kind: OutcomeKind, errors: list) -> np.ndarray:
    """The outcome variance of one arm of each study of a block from its
    reported variance (NaN when unreported), size and mean, with the binary
    fallback ybar(1-ybar)*n/(n-1), which needs n >= 2; a study whose arm has
    no usable variance gets the MissingAgdVariance unless it has an error."""
    missing = np.isnan(y_var)
    if not missing.any():
        return y_var
    if outcome_kind is not OutcomeKind.BINARY:
        _file_first(errors, missing, lambda b: MissingAgdVariance(
            "AGD arm reports no outcome variance and the outcome is not binary"))
    else:
        _file_first(errors, missing & (n < 2), lambda b: MissingAgdVariance(
            "AGD arm reports no outcome variance, and the binary fallback "
            "ybar(1-ybar)*n/(n-1) needs n >= 2"))
    return np.where(missing, ybar * (1.0 - ybar) * n / np.maximum(n - 1, 1), y_var)


@dataclass(frozen=True)
class _MomentJacobians:
    """The moment Jacobian J_alpha = -sum_i w_i c_i c_i^T / N (B, k, k) of
    each fitted study of a block, with c the centred moments the fit solved
    over, w its weights and N the combined size; `finite` marks the studies
    whose J_alpha has a finite condition number.  They depend on the fit
    alone, so se_block builds them once per arm pieces store, the first
    time po, cs or full solves them."""

    j_alpha: np.ndarray
    finite: np.ndarray


def _moment_jacobians(block: IpdBlock, agd: AgdBlock, fits) -> _MomentJacobians:
    """The moment Jacobians of a block's studies from their fits (a
    FitBlock, each study fitted), with one warning per study whose
    condition number exceeds COND_WARN both as built and with J_alpha
    scaled to a unit diagonal: the scaling removes what the covariates'
    units and offsets add, so only correlated moments warn.  `finite` and
    the SingularJacobian read the unscaled number."""
    c = fits.moments
    wc = fits.weights[:, :, None] * c
    j_alpha = np.matmul(-wc.transpose(0, 2, 1), c) / (block.n + agd.n_total)[:, None, None]
    cond = np.linalg.cond(j_alpha)
    large = j_alpha[np.isfinite(cond) & (cond > COND_WARN)]
    d = 1.0 / np.sqrt(-np.diagonal(large, axis1=1, axis2=2))
    scaled = np.linalg.cond(large * d[:, :, None] * d[:, None, :])
    for v in scaled[scaled > COND_WARN]:
        warnings.warn(
            f"moment Jacobian condition number {v:.3g} exceeds {COND_WARN:.0e}; "
            "heavily correlated covariates suspected",
            stacklevel=4,
        )
    return _MomentJacobians(j_alpha, np.isfinite(cond))


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


class _Derived(NamedTuple):
    """What the influence and sw paths share for a block: the weights
    (B, n), the combined sizes (B,), per arm pair of the contrast its
    (sign * g'(IPD mean), IPD arm code, IPD mean, AGD variance term), each
    term (B,), the MaicError or None per study, whether the weights are
    fitted, and the arm pieces store (_arm_piece).  The means are the
    estimates' own."""

    w: np.ndarray
    n_total: np.ndarray
    pairs: list
    errors: list
    weighted: bool
    shared: dict


def _derive(block: IpdBlock, agd: AgdBlock, fits, ests, scale: Scale,
            shared: dict | None = None) -> _Derived:
    """_Derived of a block whose estimates share one method and one
    contrast, read off the first estimate.  The IPD and AGD means of each
    pair are the ones each study's Estimate read (Estimate.pairs), so they
    are not recomputed; an Estimate exists only where they lie in the
    scale's domain.  A study whose AGD arm has no usable variance gets the
    MissingAgdVariance.  The AGD term is the variance contribution of the
    reported AGD arm mean over the combined size.  `shared` holds the arm
    pieces of the block's studies that other calls on the same studies
    have built; they depend only on the weights and the arm."""
    method = ests[0].method
    if method is Method.STC:
        raise ValueError("stc is an outcome-model estimator and weights no records")
    w = _block_weights(block, fits, method.weighted)
    shared = {} if shared is None else shared
    n_total = block.n + agd.n_total
    signs, codes, _, arms, _ = zip(*ests[0].pairs)
    cols, agd_row = [AGD_ARMS.index(arm) for arm in arms], len(arms)
    # the IPD means of the pairs, then their AGD means: (2 * pairs, B)
    mu = np.array([[est.pairs[i][side] for est in ests] for side in (2, 4)
                   for i in range(agd_row)])
    errors, variances = [None] * len(block), []
    for i, col in enumerate(cols):
        variances.append(_outcome_variances(agd.y_var[:, col], agd.n[:, col], mu[agd_row + i],
                                            block.outcome_kind, errors))
    g = scale.g_prime(mu)
    g_agd = squares(g[agd_row:])
    pairs = [(signs[i] * g[i], codes[i], mu[i],
              g_agd[i] * variances[i] / (agd.n[:, cols[i]] / n_total)) for i in range(agd_row)]
    return _Derived(w, n_total, pairs, errors, method.weighted, shared)


def _arm_piece(block: IpdBlock, w: np.ndarray, code: int, mu: np.ndarray, weighted: bool,
               shared: dict, n_total: np.ndarray, c: np.ndarray | None = None) -> dict:
    """The SE pieces of arm `code`, whose weighted mean outcome is mu (B,),
    under the weights w (fitted when `weighted`, else unit) for each study
    of a block, built once per store `shared` and read by every SE and null
    check on the same studies: J^mu = the arm's weight sum over the
    combined size "j" (B, 1), the weighted residuals "resid" and resid / j
    "r" (B, n) and, given the centred moments c, c^T resid over the
    combined size "ct" (B, k)."""
    piece = shared.setdefault((weighted, code), {})
    if "r" not in piece:
        mask = block.arm_mask(code)
        piece["j"] = (w * mask).sum(axis=1)[:, None] / n_total[:, None]
        piece["resid"] = (block.y - mu[:, None]) * w * mask
        piece["r"] = piece["resid"] / piece["j"]
    if c is not None and "ct" not in piece:
        piece["ct"] = (np.matmul(c.transpose(0, 2, 1), piece["resid"][:, :, None])[:, :, 0]
                       / n_total[:, None])
    return piece


def _pair_influence(block: IpdBlock, derived: _Derived, c: np.ndarray | None = None):
    """Per-record phi (B, n) and, when the centred moments c (B, n, k) are
    given, ctilde (B, k), summed over the signed arm pairs of each study of
    a block."""
    phi = np.zeros(block.y.shape)
    ctilde = None if c is None else np.zeros((len(block), c.shape[2]))
    for sg, code, mu, _ in derived.pairs:
        piece = _arm_piece(block, derived.w, code, mu, derived.weighted, derived.shared,
                           derived.n_total, c)
        phi += sg[:, None] * piece["r"]
        if c is not None:
            ctilde += (sg[:, None] * piece["ct"]) / piece["j"]
    return phi, ctilde


@dataclass(frozen=True, eq=False)
class InfluencePieces:
    """Empirical influence components of each study of a block, already
    scaled by the link derivative on the logit scale: per-IPD-record phi_mu1
    and phi_alpha (B, n), the scalar terms (B,) and j_alpha_inv_ctilde
    (B, k).  Variances are taken over the combined size n_total.  For
    anchored estimates phi_mu1 and ctilde fold in the comparator-arm
    analogues.  With fixed weights (bucher, naive, the null check)
    phi_alpha, ew_t1 and j_alpha_inv_ctilde are None, v_mu_x2 is zero, and
    po and cs equal fo.  errors[b] is the MaicError that replaces study b's
    pieces, and jacobian_errors[b] its SingularJacobian, which the
    strategies that need the weight-coefficient terms (po, cs, full) raise
    (its v_mu_x2 is then NaN)."""

    phi_mu1: np.ndarray
    phi_alpha: np.ndarray | None
    var_phi_mu2: np.ndarray
    v_mu_x2: np.ndarray
    n_total: np.ndarray
    p_t2: np.ndarray
    ew_t1: np.ndarray | None
    j_alpha_inv_ctilde: np.ndarray | None
    errors: list
    jacobian_errors: list


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
    the outcome-covariate moment vector.  `est` must be the library's
    estimate on these studies and scale: its means are read, not
    recomputed.  Returns the pieces as a block of one, or raises the
    study's MaicError.
    """
    pieces = influence_block(*_one(ipd, agd, model), [est], scale)
    return unwrap(pieces.errors[0] or pieces)


def influence_block(block: IpdBlock, agd: AgdBlock, fits, ests, scale: Scale) -> InfluencePieces:
    """influence_components for each study of a block whose estimates share
    one method and whose fits share one moment spec."""
    return _influence(block, _derive(block, agd, fits, ests, scale), fits,
                      _moment_jacobians(block, agd, fits) if ests[0].method.weighted else None)


def _influence(block: IpdBlock, derived: _Derived, fits,
               jac: _MomentJacobians | None) -> InfluencePieces:
    """The InfluencePieces of a block, from what _derive gives.  The
    moment Jacobians `jac` of the fits add the weight-coefficient terms,
    which solve them; without them (bucher, naive, the null check and fo)
    the weights are held fixed and nothing is solved.  Every study's rows
    are computed, each on its own; a study with an error keeps it."""
    n_total = derived.n_total
    p_t2 = (n_total - block.n) / n_total  # the aggregate trial's share
    var_phi_mu2 = 0.0  # summed from 0, pair by pair, as a lone sum is
    for pair in derived.pairs:
        var_phi_mu2 = var_phi_mu2 + pair[3]
    if jac is None:
        phi, _ = _pair_influence(block, derived)
        return InfluencePieces(phi, None, var_phi_mu2, np.zeros(len(block)), n_total, p_t2,
                               None, None, derived.errors, [None] * len(block))
    phi, ctilde = _pair_influence(block, derived, fits.moments)
    sol, jacobian_errors = _solve_neg_definite(jac, ctilde)
    phi_alpha = np.matmul(derived.w[:, :, None] * fits.moments, sol[:, :, None])[:, :, 0]
    dots = np.matmul(ctilde[:, None, :], sol[:, :, None])[:, 0, 0]
    ew_t1 = derived.w.sum(axis=1) / n_total
    v = -(ew_t1 / p_t2) * dots
    v_mu_x2 = np.where([e is None for e in jacobian_errors], np.where(v < 0.0, 0.0, v), np.nan)
    return InfluencePieces(phi, phi_alpha, var_phi_mu2, v_mu_x2, n_total, p_t2, ew_t1, sol,
                           derived.errors, jacobian_errors)


def _var_over_n(values: np.ndarray, n_total: np.ndarray) -> np.ndarray:
    """Sample variance of each row of `values` over its combined size;
    records absent from `values` (the aggregate side) contribute exactly
    zero."""
    return (values**2).sum(axis=1) / n_total - squares(values.sum(axis=1) / n_total)


def sigma2_fo(pieces: InfluencePieces) -> SeEstimate:
    return unwrap(_ses(SeStrategy.FO, pieces)[0])


def sigma2_po(pieces: InfluencePieces) -> SeEstimate:
    return unwrap(_ses(SeStrategy.PO, pieces)[0])


def sigma2_cs(pieces: InfluencePieces) -> SeEstimate:
    return unwrap(_ses(SeStrategy.CS, pieces)[0])


def _ses(strategy: SeStrategy, inf: InfluencePieces) -> list:
    """The fo, po or cs variance of each study of a block from its stacked
    influence pieces: a SeEstimate or the MaicError per study.  po and cs
    need the weight-coefficient terms, so a study whose Jacobian is
    singular gets its SingularJacobian."""
    out = list(inf.errors)
    if strategy is not SeStrategy.FO:
        out = [e or j for e, j in zip(out, inf.jacobian_errors)]
    phi = inf.phi_mu1
    if strategy is not SeStrategy.FO and inf.phi_alpha is not None:
        phi = phi + inf.phi_alpha
    sigma2 = _var_over_n(phi, inf.n_total) + inf.var_phi_mu2
    if strategy is SeStrategy.CS:
        sigma2 = sigma2 + inf.v_mu_x2 + 2.0 * np.sqrt(inf.var_phi_mu2 * inf.v_mu_x2)
    return [e or SeEstimate(strategy, v, se)
            for e, v, se in zip(out, sigma2.tolist(), np.sqrt(sigma2 / inf.n_total).tolist())]


def sigma2_sw(
    ipd: IpdStudy,
    agd: AgdStudy,
    model: WeightModel | None,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> SeEstimate:
    """HC0 sandwich variance of the weighted mean(s), weights fixed.  `est`
    must be the library's estimate on these studies and scale: its means
    are read, not recomputed."""
    block, agd_block, fits = _one(ipd, agd, model)
    return unwrap(sw_block(block, _derive(block, agd_block, fits, [est], scale))[0])


def sw_block(block: IpdBlock, derived: _Derived) -> list:
    """sigma2_sw for each study of a block, from what _derive gives: a
    SeEstimate or the MaicError per study."""
    sigma2 = 0.0
    for sg, code, mu, var_agd in derived.pairs:
        wz = block.arm_rows(derived.w, code)
        rz = block.arm_rows(block.y, code) - mu[:, None]
        num, den = np.sum(wz**2 * rz**2, axis=1), np.sum(wz, axis=1)
        sigma2 = sigma2 + derived.n_total * (squares(sg) * (num / squares(den)))
        sigma2 = sigma2 + var_agd
    return [e or SeEstimate(SeStrategy.SW, v, se)
            for e, v, se in zip(derived.errors, sigma2.tolist(),
                                np.sqrt(sigma2 / derived.n_total).tolist())]


def se_block(block: IpdBlock, agd: AgdBlock, fits, ests, scale: Scale, strategies,
             records=None, shared: dict | None = None) -> dict:
    """Each requested strategy that applies to the estimates' method (see
    _APPLICABLE), in the order requested, mapped to a SeEstimate or the
    MaicError per study, for a block whose estimates share one method and
    whose fits share one moment spec.  The weights and pair terms are
    derived once for every strategy.
    `records` holds the aggregate trial's raw records, stacked (a
    TrialRecords of (B, m) arrays), which full needs; without them full
    gives RequiresFullIpd.  `shared` is the arm pieces store of these
    studies (_arm_piece).  A weighted method's po, cs and full solve the
    moment Jacobians of the block's fits (_moment_jacobians), which are
    built, and warn, the first time any method on the store's studies needs
    them and are kept in the store; fo and sw read nothing they add, so a
    request of those alone builds none."""
    wanted = [s for s in strategies if s in _APPLICABLE[ests[0].method]]
    if not wanted:
        return {}
    derived = _derive(block, agd, fits, ests, scale, shared)
    out, inf = {}, None
    for strategy in wanted:
        if strategy is SeStrategy.SW:
            out[strategy] = sw_block(block, derived)
            continue
        if inf is None:
            jac = None
            if derived.weighted and not set(wanted) <= {SeStrategy.FO, SeStrategy.SW}:
                if "jacobians" not in derived.shared:
                    derived.shared["jacobians"] = _moment_jacobians(block, agd, fits)
                jac = derived.shared["jacobians"]
            inf = _influence(block, derived, fits, jac)
        if strategy is SeStrategy.FULL:
            out[strategy] = _full_ses(records, fits, ests, scale, inf)
        else:
            out[strategy] = _ses(strategy, inf)
    return out


def sigma2_full(
    ipd: IpdStudy,
    agd: AgdStudy,
    agd_records: TrialRecords,
    model: WeightModel,
    est: Estimate,
    scale: Scale = Scale.IDENTITY,
) -> SeEstimate:
    """The full influence-function variance of a maic-nab estimate, given
    the aggregate trial's records.  `est` must be the library's estimate on
    these studies and scale: its means are read, not recomputed."""
    block, agd_block, fits = _one(ipd, agd, model)
    inf = influence_block(block, agd_block, fits, [est], scale)
    records = agd_records and TrialRecords(agd_records.y[None], agd_records.z[None],
                                           agd_records.x[None])
    return unwrap(_full_ses(records, fits, [est], scale, inf)[0])


def _full_ses(records, fits, ests, scale: Scale, inf: InfluencePieces) -> list:
    """sigma2_full for a block of maic-nab estimates from their stacked
    influence pieces: a SeEstimate or the MaicError per study.  The full
    influence function of a study is phi_mu1 + phi_alpha on its IPD rows
    and phi_mu2 + phi_mu_x2 on the aggregate trial's records (`records`,
    stacked); sigma2 is its variance over both."""
    if ests[0].method is not Method.MAIC_NAB:
        raise ValueError("full influence benchmark is defined for maic-nab")
    out = list(inf.errors)
    if records is None:
        return [e or RequiresFullIpd("full influence function needs the aggregate trial's "
                                     "records") for e in out]
    mu2 = np.array([est.mu2 for est in ests])
    n_ipd = inf.phi_mu1.shape[1]
    _file_first(out, inf.n_total != n_ipd + records.y.shape[1], lambda b: RequiresFullIpd(
        "aggregate records inconsistent with the AGD summary sample sizes"))
    out = [e or j for e, j in zip(out, inf.jacobian_errors)]
    if all(e is not None for e in out):
        return out
    n_total = inf.n_total[:, None]
    z2 = records.z == 2
    p_z2t2 = z2.sum(axis=1)[:, None] / n_total
    g2 = scale.g_prime(mu2)[:, None]
    phi_mu2 = g2 * (mu2[:, None] - records.y) * z2 / p_z2t2
    c2 = moment_matrix(records.x, fits.spec) - fits.centering[:, None, :]
    # ctilde already carries g'(mu1) and 1/J^{mu1}; only U^{muX2} remains
    coef = (-(inf.ew_t1 / inf.p_t2))[:, None, None]
    phi_mu_x2 = np.matmul(coef * c2, inf.j_alpha_inv_ctilde[:, :, None])[:, :, 0]
    phi = np.concatenate([inf.phi_mu1 + inf.phi_alpha, phi_mu2 + phi_mu_x2], axis=1)
    sigma2 = np.var(phi, axis=1)
    return [e or SeEstimate(SeStrategy.FULL, v, se)
            for e, v, se in zip(out, sigma2.tolist(), np.sqrt(sigma2 / phi.shape[1]).tolist())]
