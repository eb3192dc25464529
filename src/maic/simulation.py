"""Monte Carlo study: joint two-trial data generation, fixed-per-arm
subsampling, a deterministic replication engine, and bias/coverage metrics.

Covariates are equicorrelated standard normals (covariance .8*I + .2),
trial membership follows a logistic model in the first four covariates,
treatment is randomized within trial, and the binary outcome follows a
logistic model with a trial-by-covariate interaction.  Confounding is
dialed through the coefficient vectors; each replicate subsamples a fixed
number of patients per (trial, arm) cell, collapses the second trial to
aggregate summaries, and runs every estimator and SE strategy.

Replicate r of a study draws from an independent RNG stream keyed by
(seed, r).  Replicates run in blocks.  Each replicate draws its covariates,
cells and outcome uniforms and picks its subsample on its own stream; then,
for the whole block at once, the kept rows' outcomes are computed, trial 1
is split off as one stacked IPD block (with the row indices of each arm,
found once), trial 2's arms are collapsed to means and variances, the
weights are solved, and inference.report_block assembles the rest.  The
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
    AgdArm,
    AgdStudy,
    IpdBlock,
    IpdStudy,
    MomentSpec,
    OutcomeKind,
    TrialRecords,
    json_float,
    json_int,
    load_json_object,
    pooled_target_moments,
    read_object,
)
from .errors import InsufficientCell, SchemaError
from .estimators import Method, Scale
from .inference import norm_quantile, report_block
from .variance import SeStrategy
from .weighting import SolverConfig, solve_weights_block

BETA0 = -1.0
BETA2 = 0.1
BETA4 = 0.5
ALPHA0 = 0.0


class Confounding(enum.Enum):
    NONE = "none"
    MODERATE = "moderate"
    SEVERE = "severe"


# (trial-assignment slope, prognostic slope, interaction slope) on the
# first four covariates; zero elsewhere
_SCENARIO = {
    Confounding.NONE: (0.25, 0.0, 0.0),
    Confounding.MODERATE: (0.25, 0.15, 0.1),
    Confounding.SEVERE: (0.30, 0.25, 0.15),
}


def _config_vectors(cfg: "ScenarioConfig"):
    """The trial-assignment, prognostic and interaction coefficient vectors
    (p,) of a config: the scenario's slopes on the first four covariates,
    the trial-assignment slope replaced by alpha_slope when it is set."""
    a, b1, b3 = _SCENARIO[cfg.confounding]
    if cfg.alpha_slope is not None:
        a = cfg.alpha_slope
    return tuple(np.array([v] * 4 + [0.0] * (cfg.p - 4), dtype=float)
                 for v in (a, b1, b3))


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


def _expit(v):
    return 1.0 / (1.0 + np.exp(-v))


# the (trial, arm) cells each replicate fills, in subsampling order; a row's
# cell code is its cell's index here
_CELLS = ((1, 0), (1, 1), (2, 0), (2, 2))


def _draw(cfg: ScenarioConfig, n_star: int, rng: np.random.Generator):
    """n_star rows of the scenario DGP up to the outcome: covariates (n_star,
    p), cell codes and the outcome uniforms, in the DGP's stream order."""
    a1, _, _ = _config_vectors(cfg)
    # X = sqrt(.8) eps + sqrt(.2) u gives covariance .8*I + .2 exactly
    x = rng.standard_normal((n_star, cfg.p))
    x *= math.sqrt(0.8)
    x += math.sqrt(0.2) * rng.standard_normal((n_star, 1))
    trial2 = rng.random(n_star) < _expit(ALPHA0 + x @ a1)
    treated = rng.random(n_star) < 0.5
    return x, 2 * trial2 + treated, rng.random(n_star)


def _trial_arm(cell: np.ndarray):
    """The trial (1 or 2) and arm code (0, 1 or 2) of each cell code."""
    t = 1 + (cell >> 1)
    return t, t * (cell & 1)


def _outcome(cfg: ScenarioConfig, x: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binary outcomes of rows with covariates x (..., p), arm codes z and
    outcome uniforms u, over any leading axes; each row's arithmetic is the
    same wherever it sits."""
    _, b1, b3 = _config_vectors(cfg)
    lin = BETA0 + x @ b1 + (z > 0) * (x @ b3 + BETA2) + (z == 2) * BETA4
    return (u < _expit(lin)).astype(float)


def _pick(cell: np.ndarray, n_per_arm: int, rng: np.random.Generator) -> np.ndarray:
    """The ascending row indices of a uniform subsample of exactly n_per_arm
    rows per cell, drawn cell by cell; InsufficientCell at the first short
    cell."""
    keep = []
    for code, (t, z) in enumerate(_CELLS):
        idx = np.flatnonzero(cell == code)
        if len(idx) < n_per_arm:
            raise InsufficientCell(
                f"cell (trial={t}, arm={z}) has {len(idx)} < {n_per_arm} members"
            )
        keep.append(rng.choice(idx, size=n_per_arm, replace=False))
    return np.sort(np.concatenate(keep))


def generate_population(cfg: ScenarioConfig, n_star: int, rng: np.random.Generator) -> PooledSample:
    """Simulate n_star unconstrained observations from the scenario DGP."""
    x, cell, u = _draw(cfg, n_star, rng)
    t, z = _trial_arm(cell)
    return PooledSample(y=_outcome(cfg, x, z, u), z=z, t=t, x=x)


def subsample_by_arm(
    pop: PooledSample, n_per_arm: int, rng: np.random.Generator
) -> PooledSample:
    """Uniform subsample of exactly n_per_arm patients per (trial, arm) cell."""
    sel = _pick(2 * (pop.t - 1) + (pop.z > 0), n_per_arm, rng)
    return PooledSample(y=pop.y[sel], z=pop.z[sel], t=pop.t[sel], x=pop.x[sel])


def true_delta(cfg: ScenarioConfig, n_oracle: int = 2_000_000, rng=None) -> float:
    """Oracle contrast in the aggregate-trial population, from counterfactual
    outcome probabilities on a large simulated draw.

    The stream holds, in order, every covariate normal, then every row's
    shared normal, then every row's selection uniform.  It is drawn in chunks
    of ORACLE_CHUNK_ROWS rows in stream order, and chunked draws equal one
    draw.  The two linear predictors read only the covariates with a nonzero
    coefficient (the first four in every scenario), so each chunk keeps only
    those columns: the first pass mixes in each chunk's shared normals in
    place, the second pops each chunk into the read columns of one zeroed
    (rows, p) buffer, draws its uniforms and keeps the trial-2 rows' linear
    predictor.  An unread column adds a zero product either way, and the
    products keep their shape, so they are the bits of a pass over all of x.
    NumPy's pairwise sum depends on the array length, so the means are taken
    once over all kept rows; the result is the same bits as one full-length
    pass."""
    if n_oracle < 1:
        raise ValueError(f"n_oracle must be at least 1: the oracle is a mean over its draw, "
                         f"got {n_oracle}")
    if rng is None:
        rng = np.random.default_rng([cfg.seed, 0xFFFFFFFF])
    a1, b1, b3 = _config_vectors(cfg)
    read = np.flatnonzero((a1 != 0) | (b1 + b3 != 0))
    sizes = [min(ORACLE_CHUNK_ROWS, n_oracle - i) for i in range(0, n_oracle, ORACLE_CHUNK_ROWS)]
    # X = sqrt(.8) eps + sqrt(.2) u, as in _draw
    chunks = [rng.standard_normal((m, cfg.p))[:, read] for m in sizes]
    for xc in chunks:
        xc *= math.sqrt(0.8)
        xc += math.sqrt(0.2) * rng.standard_normal((len(xc), 1))
    buf = np.zeros((sizes[0], cfg.p))
    kept = []
    for m in sizes:
        x = buf[:m]
        x[:, read] = chunks.pop(0)
        t2 = rng.random(m) < _expit(ALPHA0 + x @ a1)
        kept.append((x @ (b1 + b3))[t2])
    active = np.concatenate(kept) + BETA0 + BETA2
    if not len(active):
        raise InsufficientCell(f"the oracle's {n_oracle} rows hold no aggregate-trial "
                               "row; raise n_oracle")
    m1 = float(_expit(active).mean())            # had they received the IPD treatment
    m2 = float(_expit(active + BETA4).mean())    # their own trial's treatment
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


def replicate_block(cfg: ScenarioConfig, indices) -> tuple[IpdBlock, list, list]:
    """Draw and subsample each replicate of a block on its own (seed, r)
    stream, redrawing with twice the oversampling while a cell is short;
    then, stacked over the block, compute the kept rows' outcomes, split off
    trial 1 as the stacked IPD and collapse trial 2's arms to aggregate
    summaries.  Returns the IPD block, and the AGD study and the aggregate
    trial's raw records of each replicate."""
    kept = []
    for r in indices:
        rng = np.random.default_rng([cfg.seed, r])
        factor = cfg.oversample_factor
        for _ in range(12):
            x, cell, u = _draw(cfg, factor * 4 * cfg.n_per_arm, rng)
            try:
                sel = _pick(cell, cfg.n_per_arm, rng)
                break
            except InsufficientCell:
                factor *= 2
        else:
            raise InsufficientCell("could not fill all cells after repeated oversampling")
        kept.append((x[sel], cell[sel], u[sel]))
    x, cell, u = (np.stack(a) for a in zip(*kept))
    _, z = _trial_arm(cell)
    y = _outcome(cfg, x, z, u)

    n_rep, n = len(kept), cfg.n_per_arm

    def rows(mask, *arrays):
        """The rows at mask of each array, in row order: the same number
        per replicate, so (B, m, ...) arrays gathered by flat index."""
        idx = np.flatnonzero(mask).reshape(n_rep, -1)
        return [a.reshape((-1,) + a.shape[2:])[idx] for a in arrays]

    t1 = cell < 2
    ipd = IpdBlock(*rows(t1, y, z, x), OutcomeKind.BINARY)
    y2, z2, x2 = rows(~t1, y, z, x)
    records = [TrialRecords(y2[b], z2[b], x2[b]) for b in range(n_rep)]

    summaries = []  # arm means and ddof=1 variances: the active arm, then the comparator
    for code in (_CELLS.index((2, 2)), _CELLS.index((2, 0))):
        ya, xa = rows(cell == code, y, x)
        summaries.append((ya.mean(axis=1), ya.var(axis=1, ddof=1),
                          xa.mean(axis=1), xa.var(axis=1, ddof=1)))
    names = tuple(f"x{j + 1}" for j in range(cfg.p))
    agds = [AgdStudy(*(AgdArm(n, float(ym[b]), float(yv[b]), xm[b], xv[b])
                       for ym, yv, xm, xv in summaries), names)
            for b in range(n_rep)]
    return ipd, agds, records


def replicate_datasets(
    cfg: ScenarioConfig, replicate_index: int
) -> tuple[IpdStudy, AgdStudy, TrialRecords]:
    """Draw and subsample one replicate, collapsing trial 2 to aggregate
    summaries while retaining its raw records for benchmark variances.
    Deterministic given (cfg.seed, replicate_index)."""
    block, (agd,), (records,) = replicate_block(cfg, [replicate_index])
    ipd = IpdStudy(block.y[0], block.z[0], block.x[0], agd.covariate_names, block.outcome_kind)
    return ipd, agd, records


def run_replicate(cfg: ScenarioConfig, replicate_index: int) -> ReplicateResult:
    """One replicate: draw, subsample, collapse trial 2 to summaries, and
    run all estimators and SE strategies.  Deterministic given
    (cfg.seed, replicate_index); failures are recorded, not raised."""
    return run_block(cfg, [replicate_index])[0]


def run_block(cfg: ScenarioConfig, indices) -> list[ReplicateResult]:
    """run_replicate for each replicate index: the weights solved stacked over
    the block, then inference.report_block with maic-nab's SEs and the null
    check; each result equals its lone run_replicate bit for bit."""
    block, agds, records = replicate_block(cfg, indices)
    targets = np.stack([pooled_target_moments(agd, MomentSpec.FIRST) for agd in agds])
    models = solve_weights_block(block, targets, MomentSpec.FIRST, _SOLVER)
    reports = report_block(block, agds, models, SIM_METHODS, cfg.scale, tuple(SeStrategy), 0.95,
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
