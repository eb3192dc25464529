"""Monte Carlo study: joint two-trial data generation, fixed-per-arm
subsampling, a deterministic replication engine, and bias/coverage metrics.

A config's Dgp (ScenarioConfig.dgp) is the one description of its
data-generating process: the replicate sampler and the oracle read every
number of it there, and mix their covariates through its one Dgp.mix.
Covariates are equicorrelated standard normals (covariance .8*I + .2),
trial membership follows a logistic model in the selection slopes,
treatment is randomized within trial, and the binary outcome follows a
logistic model with a trial-by-covariate interaction; both logistics are
estimators._expit, the package's one array logistic.  Confounding names
preset slope vectors on the first four covariates; each replicate
subsamples a fixed number of patients per (trial, arm) cell, collapses the
second trial to aggregate summaries, and runs every estimator and SE
strategy.

Replicate r of a study draws from an independent RNG stream keyed by
(seed, r).  Replicates run in blocks.  Each replicate draws its covariates,
cells and outcome uniforms and picks its subsample on its own stream, and
gathers each trial's kept rows, in row order, straight into that trial's
slot of the block's stacks; then, for the whole block at once, the kept
rows' outcomes are computed, trial 1's slot becomes the stacked IPD block
(with the row indices of each arm, found once), trial 2's arms are
collapsed to one stacked AGD block of means and variances, the weights are
solved, and inference.report_block assembles the rest from the IPD block,
the AGD block and the solver's own stacks.  The
study's oracle contrast (true_delta) is a pure function of the config that
holds only the covariates its linear predictors read; with more than one
worker process it runs as the first pool task, beside the blocks.  The
arithmetic per replicate is that of a lone replicate, so the output is the
same for any thread count and any block size.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .data_model import (
    AgdBlock,
    AgdStudy,
    IpdBlock,
    IpdStudy,
    MomentSpec,
    OutcomeKind,
    TrialRecords,
    json_float,
    json_int,
    load_json_object,
    mean_rows,
    pooled_moments,
    read_object,
    var_rows,
)
from .errors import InsufficientCell, SchemaError
from .estimators import Method, Scale, _expit
from .inference import norm_quantile, report_block
from .variance import SeStrategy
from .weighting import SolverConfig, solve_weights_block

class Confounding(enum.Enum):
    NONE = "none"
    MODERATE = "moderate"
    SEVERE = "severe"


# each preset's (selection slope, prognostic slope, interaction slope) on
# the first four covariates; zero elsewhere
_SCENARIO = {
    Confounding.NONE: (0.25, 0.0, 0.0),
    Confounding.MODERATE: (0.25, 0.15, 0.1),
    Confounding.SEVERE: (0.30, 0.25, 0.15),
}

# the largest |alpha_slope|: the trial-assignment index sums four products of
# the slope and a covariate, and a covariate mixes two standard normals that
# NumPy's ziggurat keeps below 14 in absolute value, so it stays below 25 and
# the index below 1e308, short of the largest float
ALPHA_SLOPE_MAX = 1e306


@dataclass(frozen=True, eq=False)
class Dgp:
    """A scenario's data-generating process, which the sampler and the oracle
    both read.  Each covariate mixes its own standard normal with one shared
    normal of variance `shared` (mix), so the covariance is
    (1 - shared) * I + shared.  A row joins trial 2 with probability
    expit(x . selection).  Its outcome's linear predictor is
    intercept + x . prognostic, plus x . interaction + treated_shift under
    either treatment, plus arm2_shift under the aggregate trial's own."""

    selection: np.ndarray    # (p,)
    prognostic: np.ndarray   # (p,)
    interaction: np.ndarray  # (p,)
    intercept: float = -1.0
    treated_shift: float = 0.1
    arm2_shift: float = 0.5
    shared: float = 0.2

    def mix(self, eps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The covariates of the standard normals eps (n, k), in place:
        sqrt(1 - shared) eps + sqrt(shared) u, with u one normal per row drawn
        next on rng."""
        eps *= math.sqrt(1.0 - self.shared)
        eps += math.sqrt(self.shared) * rng.standard_normal((len(eps), 1))
        return eps


@dataclass(frozen=True)
class ScenarioConfig:
    p: int = 5
    n_per_arm: int = 500
    confounding: Confounding = Confounding.MODERATE
    scale: Scale = Scale.LOGIT
    replicates: int = 2000
    seed: int = 0
    oversample_factor: int = 4
    # optional override of the trial-assignment slope (0.0 gives random
    # trial membership independent of X); None keeps the scenario value
    alpha_slope: float | None = None

    def __post_init__(self):
        for name, floor, why in (
            ("p", 4, "the scenario places signal on the first 4 covariates"),
            ("n_per_arm", 2, "each AGD arm reports a sample variance"),
            ("replicates", 1, "a study runs at least one replicate"),
            ("seed", 0, "RNG seeds are nonnegative"),
            ("oversample_factor", 1, "each draw holds at least the kept patients"),
        ):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be at least {floor}: {why}")
        if self.alpha_slope is not None and not math.isfinite(self.alpha_slope):
            raise ValueError(f"alpha_slope must be finite, got {self.alpha_slope}")
        if self.alpha_slope is not None and abs(self.alpha_slope) > ALPHA_SLOPE_MAX:
            raise ValueError(f"alpha_slope must be at most {ALPHA_SLOPE_MAX:g} in absolute "
                             "value: beyond it the trial-assignment index can overflow, "
                             f"got {self.alpha_slope:g}")

    @property
    def dgp(self) -> Dgp:
        """The scenario's Dgp: its preset's slopes on the first four
        covariates, the selection slope replaced by alpha_slope when set."""
        slopes = _SCENARIO[self.confounding]
        if self.alpha_slope is not None:
            slopes = (self.alpha_slope, *slopes[1:])
        return Dgp(*(np.array([v] * 4 + [0.0] * (self.p - 4), dtype=float) for v in slopes))

    def to_dict(self) -> dict:
        """The fields by name, enums as their values."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, d) -> "ScenarioConfig":
        """The config of a JSON document; absent keys keep the field defaults.
        A value that does not convert or is out of range is a SchemaError
        naming its key."""
        try:
            return cls(**read_object("scenario", d, _COERCE))
        except ValueError as e:
            raise SchemaError(str(e)) from None

    @classmethod
    def from_json_file(cls, path) -> "ScenarioConfig":
        return load_json_object(path, cls.from_dict)


# the type of each ScenarioConfig field, applied to a JSON value
_COERCE = {
    "p": json_int, "n_per_arm": json_int, "confounding": Confounding, "scale": Scale,
    "replicates": json_int, "seed": json_int, "oversample_factor": json_int,
    "alpha_slope": lambda v: None if v is None else json_float(v),
}


@dataclass(frozen=True)
class PooledSample:
    """Unconstrained draw from the two-trial super-population."""

    y: np.ndarray
    z: np.ndarray
    t: np.ndarray
    x: np.ndarray


# the (trial, arm) cells each replicate fills, in subsampling order; a row's
# cell code is its cell's index here
_CELLS = ((1, 0), (1, 1), (2, 0), (2, 2))


def _draw(dgp: Dgp, n_star: int, rng: np.random.Generator):
    """n_star rows of dgp up to the outcome: covariates (n_star, p), cell
    codes and the outcome uniforms, in the DGP's stream order.  Every DGP
    number comes from dgp."""
    x = dgp.mix(rng.standard_normal((n_star, len(dgp.selection))), rng)
    trial2 = rng.random(n_star) < _expit(x @ dgp.selection)
    treated = rng.random(n_star) < 0.5
    return x, 2 * trial2 + treated, rng.random(n_star)


def _trial_arm(cell: np.ndarray):
    """The trial (1 or 2) and arm code (0, 1 or 2) of each cell code."""
    t = 1 + (cell >> 1)
    return t, t * (cell & 1)


def _outcome(dgp: Dgp, x: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binary outcomes of dgp for rows with covariates x (..., p), arm codes z
    and outcome uniforms u, over any leading axes; each row's arithmetic is
    the same wherever it sits."""
    lin = (dgp.intercept + x @ dgp.prognostic + (z > 0) * (x @ dgp.interaction + dgp.treated_shift)
           + (z == 2) * dgp.arm2_shift)
    return (u < _expit(lin)).astype(float)


def _pick(cell: np.ndarray, n_per_arm: int, rng: np.random.Generator) -> list:
    """The row indices of a uniform subsample of exactly n_per_arm rows per
    cell, drawn cell by cell: one array per cell, in _CELLS order, in draw
    order; InsufficientCell at the first short cell."""
    keep = []
    for code, (t, z) in enumerate(_CELLS):
        idx = np.flatnonzero(cell == code)
        if len(idx) < n_per_arm:
            raise InsufficientCell(
                f"cell (trial={t}, arm={z}) has {len(idx)} < {n_per_arm} members"
            )
        keep.append(rng.choice(idx, size=n_per_arm, replace=False))
    return keep


def generate_population(cfg: ScenarioConfig, n_star: int, rng: np.random.Generator) -> PooledSample:
    """Simulate n_star unconstrained observations from the scenario's Dgp."""
    dgp = cfg.dgp
    x, cell, u = _draw(dgp, n_star, rng)
    t, z = _trial_arm(cell)
    return PooledSample(y=_outcome(dgp, x, z, u), z=z, t=t, x=x)


def subsample_by_arm(
    pop: PooledSample, n_per_arm: int, rng: np.random.Generator
) -> PooledSample:
    """Uniform subsample of exactly n_per_arm patients per (trial, arm) cell."""
    sel = np.sort(np.concatenate(_pick(2 * (pop.t - 1) + (pop.z > 0), n_per_arm, rng)))
    return PooledSample(y=pop.y[sel], z=pop.z[sel], t=pop.t[sel], x=pop.x[sel])


def true_delta(cfg: ScenarioConfig, n_oracle: int = 2_000_000) -> float:
    """Oracle contrast in the aggregate-trial population, from counterfactual
    outcome probabilities on a large simulated draw of the scenario's Dgp.

    Its stream, keyed by (cfg.seed, 0xFFFFFFFF), holds, in order, every
    covariate normal, then every row's shared normal, then every row's
    selection uniform.  It is drawn in chunks of ORACLE_CHUNK_ROWS rows in
    stream order, and chunked draws equal one draw.  The two linear predictors
    read only the covariates with a nonzero coefficient (the first four in
    every scenario), so each chunk keeps only those columns: the first pass
    mixes in each chunk's shared normals in place (Dgp.mix), the second pops
    each chunk into the read columns of one zeroed (rows, p) buffer, draws
    its uniforms and keeps the trial-2 rows' linear predictor.  An unread
    column adds a zero product either way, and the products keep their
    shape, so they are the bits of a pass over all of x.  NumPy's pairwise
    sum depends on the array length, so the means are taken once over all
    kept rows; the result is the same bits as one full-length pass."""
    if n_oracle < 1:
        raise ValueError(f"n_oracle must be at least 1: the oracle is a mean over its draw, "
                         f"got {n_oracle}")
    rng = np.random.default_rng([cfg.seed, 0xFFFFFFFF])
    dgp = cfg.dgp
    # the active arm's outcome index, less its intercept and shifts
    index = dgp.prognostic + dgp.interaction
    read = np.flatnonzero((dgp.selection != 0) | (index != 0))
    sizes = [min(ORACLE_CHUNK_ROWS, n_oracle - i) for i in range(0, n_oracle, ORACLE_CHUNK_ROWS)]
    chunks = [rng.standard_normal((m, cfg.p))[:, read] for m in sizes]
    for xc in chunks:
        dgp.mix(xc, rng)
    buf = np.zeros((sizes[0], cfg.p))
    kept = []
    for m in sizes:
        x = buf[:m]
        x[:, read] = chunks.pop(0)
        t2 = rng.random(m) < _expit(x @ dgp.selection)
        kept.append((x @ index)[t2])
    active = np.concatenate(kept) + dgp.intercept + dgp.treated_shift
    if not len(active):
        raise InsufficientCell(f"the oracle's {n_oracle} rows hold no aggregate-trial "
                               "row; raise n_oracle")
    m1 = float(_expit(active).mean())                   # had they received the IPD treatment
    m2 = float(_expit(active + dgp.arm2_shift).mean())  # their own trial's treatment
    return cfg.scale.g(m1) - cfg.scale.g(m2)


@dataclass
class ReplicateResult:
    """A replicate's deltas by method, maic-nab's SEs by strategy, and each
    failure under weights, <method>, maic-nab/<strategy> or negative_control."""

    deltas: dict[str, float] = field(default_factory=dict)
    ses: dict[str, float] = field(default_factory=dict)
    negcontrol_reject: bool | None = None
    errors: dict[str, str] = field(default_factory=dict)


_SOLVER = SolverConfig()

# the estimators a replicate runs, in the order its results are filed
SIM_METHODS = (Method.MAIC_NAB, Method.MAIC_ACB, Method.BUCHER, Method.STC)

# cap on the patient rows (4 * n_per_arm per replicate) that run_study puts
# in one block of replicates; it bounds the stacked arrays' memory
BLOCK_ROWS = 16_384

# rows per chunk of true_delta's draws and passes; it bounds the per-chunk
# temporaries, so the covariate columns it reads are the oracle's one store
# that grows with its rows
ORACLE_CHUNK_ROWS = 1 << 16


def replicate_block(cfg: ScenarioConfig, indices) -> tuple[IpdBlock, AgdBlock, TrialRecords]:
    """Draw and subsample each replicate of a block on its own (seed, r)
    stream, redrawing with twice the oversampling while a cell is short, and
    gather each trial's kept rows, in row order, straight into its slot of
    the block's stacks: trial 1 in slot 0, trial 2 in slot 1.  Then, stacked
    over the block, compute the kept rows' outcomes and collapse trial 2's
    arms to aggregate summaries.  Returns the IPD block, the AGD block and
    the aggregate trial's raw records, stacked (B, 2 * n_per_arm)."""
    dgp = cfg.dgp
    n_rep, m, p = len(indices), 2 * cfg.n_per_arm, cfg.p
    # C-contiguous, so each trial's slot is a C-contiguous block
    x = np.empty((2, n_rep, m, p))
    cell = np.empty((2, n_rep, m), dtype=int)
    u = np.empty((2, n_rep, m))
    for b, r in enumerate(indices):
        rng = np.random.default_rng([cfg.seed, r])
        factor = cfg.oversample_factor
        for _ in range(12):
            drawn = _draw(dgp, factor * 4 * cfg.n_per_arm, rng)
            try:
                picks = _pick(drawn[1], cfg.n_per_arm, rng)
                break
            except InsufficientCell:
                factor *= 2
        else:
            raise InsufficientCell("could not fill all cells after repeated oversampling")
        for trial in (0, 1):
            sel = np.sort(np.concatenate(picks[2 * trial:2 * trial + 2]))
            # mode="clip" writes straight into out; the indices are in range
            for src, dst in zip(drawn, (x, cell, u)):
                np.take(src, sel, axis=0, out=dst[trial, b], mode="clip")
    _, z = _trial_arm(cell)
    y = _outcome(dgp, x, z, u)
    ipd = IpdBlock(y[0], z[0], x[0], OutcomeKind.BINARY)
    records = TrialRecords(y[1], z[1], x[1])

    # arm means and ddof=1 variances: the active arm, then the comparator,
    # from flat indices (B, 2, n_per_arm) into the records' rows
    arms = np.stack([np.flatnonzero(z[1] == code).reshape(n_rep, -1) for code in (2, 0)], axis=1)
    ya = y[1].reshape(-1).take(arms)
    xa = x[1].reshape(-1, p).take(arms.reshape(2 * n_rep, -1), axis=0)
    xa_mean = mean_rows(xa)
    agd = AgdBlock(np.full((n_rep, 2), cfg.n_per_arm), ya.mean(axis=2), ya.var(axis=2, ddof=1),
                   xa_mean.reshape(n_rep, 2, p), var_rows(xa, xa_mean).reshape(n_rep, 2, p),
                   tuple(f"x{j + 1}" for j in range(p)))
    return ipd, agd, records


def replicate_datasets(
    cfg: ScenarioConfig, replicate_index: int
) -> tuple[IpdStudy, AgdStudy, TrialRecords]:
    """Draw and subsample one replicate, collapsing trial 2 to aggregate
    summaries while retaining its raw records for benchmark variances.
    Deterministic given (cfg.seed, replicate_index)."""
    block, agd, records = replicate_block(cfg, [replicate_index])
    ipd = IpdStudy(block.y[0], block.z[0], block.x[0], agd.covariate_names, block.outcome_kind)
    return ipd, agd.study(0), TrialRecords(records.y[0], records.z[0], records.x[0])


def run_replicate(cfg: ScenarioConfig, replicate_index: int) -> ReplicateResult:
    """One replicate: draw, subsample, collapse trial 2 to summaries, and
    run all estimators and SE strategies.  Deterministic given
    (cfg.seed, replicate_index); failures are recorded, not raised."""
    return run_block(cfg, [replicate_index])[0]


def run_block(cfg: ScenarioConfig, indices) -> list[ReplicateResult]:
    """run_replicate for each replicate index: the weights solved stacked over
    the block, then inference.report_block with maic-nab's SEs and the null
    check; each result equals its lone run_replicate bit for bit."""
    block, agd, records = replicate_block(cfg, indices)
    fits = solve_weights_block(block, pooled_moments(agd, MomentSpec.FIRST), MomentSpec.FIRST,
                               _SOLVER)
    reports = report_block(block, agd, fits, SIM_METHODS, cfg.scale, tuple(SeStrategy),
                           (Method.MAIC_NAB,), records=records, negative_control=True)
    return [ReplicateResult({m: est.delta for m, est in r.estimates.items()},
                            {s: se.se for (_, s), se in r.ses.items()},
                            r.negative_control and r.negative_control.reject_at_level,
                            r.errors) for r in reports]


@dataclass
class SimulationReport:
    config: ScenarioConfig
    true_delta: float
    percent_bias: dict[str, float]
    bias_mc_se: dict[str, float]
    coverage: dict[str, float]
    coverage_mc_se: dict[str, float]
    relative_length: dict[str, float | None]
    mean_se: dict[str, float]
    empirical_sd: float | None
    negcontrol_rejection_rate: float | None
    n_used: dict[str, int]
    failure_counts: dict[str, int]

    def to_dict(self) -> dict:
        """The fields by name, with the config as its own dict."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return values | {"config": self.config.to_dict()}

    def tidy_rows(self) -> list[dict]:
        """One row per estimator/strategy and metric, for external plotting."""
        cfg = self.config.to_dict()
        rows = []
        def row(kind, name, metric, value, mc_se=""):
            rows.append({**cfg, "kind": kind, "name": name, "metric": metric,
                         "value": "" if value is None else value, "mc_se": mc_se})
        for m, v in self.percent_bias.items():
            row("estimator", m, "percent_bias", v, self.bias_mc_se.get(m, ""))
        for s, v in self.coverage.items():
            row("strategy", s, "coverage", v, self.coverage_mc_se.get(s, ""))
        for s, v in self.relative_length.items():
            row("strategy", s, "relative_length", v)
        for s, v in self.mean_se.items():
            row("strategy", s, "mean_se", v)
        row("study", "maic-nab", "empirical_sd", self.empirical_sd)
        row("study", "negcontrol", "rejection_rate", self.negcontrol_rejection_rate)
        return rows


def block_size(cfg: ScenarioConfig) -> int:
    """Replicates per block: as many as fit in BLOCK_ROWS patient rows."""
    return max(1, BLOCK_ROWS // (4 * cfg.n_per_arm))


def run_study(cfg: ScenarioConfig, threads: int = 1, n_oracle: int = 2_000_000) -> SimulationReport:
    """Run all replicates and aggregate bias, coverage, and length metrics.

    The oracle true_delta(cfg, n_oracle) and the blocks of block_size(cfg)
    replicates, each through run_block, run on up to `threads` (at least 1)
    worker processes, never more than the blocks + 1 or the CPUs this
    process may use.  With one worker the oracle runs first, then the
    blocks, in this process; with more, the oracle is the first pool task,
    beside the blocks, and its error, if any, is the one raised, with the
    queued blocks cancelled.
    Replicates with estimator failures are excluded from the affected cell
    averages and tallied in failure_counts.  Output is a pure function of
    cfg regardless of thread count and block size.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    size = block_size(cfg)
    blocks = [list(range(i, min(i + size, cfg.replicates)))
              for i in range(0, cfg.replicates, size)]
    # a pool forks all its workers at once, and workers beyond one per task
    # (the oracle and each block) or per usable CPU would sit idle
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, len(blocks) + 1, cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tasks = [pool.submit(true_delta, cfg, n_oracle)]
            tasks += [pool.submit(run_block, cfg, b) for b in blocks]
            try:
                # in submission order, so a failing oracle is the error raised
                delta, *done = [t.result() for t in tasks]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        delta = true_delta(cfg, n_oracle=n_oracle)
        done = [run_block(cfg, b) for b in blocks]
    results = [r for block in done for r in block]

    # each method's deltas over the replicates that estimated it, in order
    deltas = {m.value: np.array([r.deltas[m.value] for r in results if m.value in r.deltas])
              for m in SIM_METHODS}
    n_used = {m: len(vals) for m, vals in deltas.items()}
    failures = {m: cfg.replicates - n for m, n in n_used.items()}
    percent_bias, bias_mc_se = {}, {}
    for m, vals in deltas.items():
        rel = (vals - delta) / delta * 100.0
        percent_bias[m] = float(rel.mean()) if len(rel) else None
        bias_mc_se[m] = float(rel.std(ddof=1) / np.sqrt(len(rel))) if len(rel) > 1 else None

    nab = Method.MAIC_NAB.value
    emp_sd = float(deltas[nab].std(ddof=1)) if n_used[nab] > 1 else None

    zcrit = norm_quantile(0.975)
    coverage, cov_mc_se, rel_length, mean_se = {}, {}, {}, {}
    for s in (strategy.value for strategy in SeStrategy):
        # run_block files SEs only for replicates with a maic-nab estimate
        pairs = [(r.deltas[nab], r.ses[s]) for r in results if s in r.ses]
        if not pairs:
            coverage[s] = cov_mc_se[s] = rel_length[s] = mean_se[s] = None
            continue
        d = np.array([p[0] for p in pairs])
        se = np.array([p[1] for p in pairs])
        cov = float(np.mean(np.abs(d - delta) <= zcrit * se))
        coverage[s] = cov
        cov_mc_se[s] = float(np.sqrt(cov * (1 - cov) / len(d)))
        mean_se[s] = float(se.mean())
        rel_length[s] = float(se.mean() / emp_sd) if emp_sd else None

    rejects = [r.negcontrol_reject for r in results if r.negcontrol_reject is not None]
    reject_rate = float(np.mean(rejects)) if rejects else None

    return SimulationReport(
        config=cfg,
        true_delta=delta,
        percent_bias=percent_bias,
        bias_mc_se=bias_mc_se,
        coverage=coverage,
        coverage_mc_se=cov_mc_se,
        relative_length=rel_length,
        mean_se=mean_se,
        empirical_sd=emp_sd,
        negcontrol_rejection_rate=reject_rate,
        n_used=n_used,
        failure_counts=failures,
    )
