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
(seed, r).  Replicates run in blocks: each is generated on its own stream,
then the block goes through one stacked solve/estimate/SE core whose
arithmetic per replicate is that of a lone replicate, so the output is the
same for any thread count and any block size.
"""

from __future__ import annotations

import enum
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data_model import (
    AgdArm,
    AgdStudy,
    IpdStudy,
    MomentSpec,
    OutcomeKind,
    TrialRecords,
    pooled_target_moments,
)
from .errors import InsufficientCell, MaicError, SchemaError
from .estimators import Method, Scale, estimate_block
from .inference import negative_control_block, norm_quantile
from .variance import SeStrategy, se_block
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


def scenario_vectors(confounding: Confounding, p: int):
    a, b1, b3 = _SCENARIO[confounding]
    def vec(v):
        out = np.zeros(p)
        out[:4] = v
        return out
    return vec(a), vec(b1), vec(b3)


def _config_vectors(cfg: "ScenarioConfig"):
    a1, b1, b3 = scenario_vectors(cfg.confounding, cfg.p)
    if cfg.alpha_slope is not None:
        a1 = np.zeros(cfg.p)
        a1[:4] = cfg.alpha_slope
    return a1, b1, b3


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
        if self.p < 4:
            raise ValueError("scenario places signal on the first 4 covariates; p >= 4")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n_per_arm": self.n_per_arm,
            "confounding": self.confounding.value,
            "scale": self.scale.value,
            "replicates": self.replicates,
            "seed": self.seed,
            "oversample_factor": self.oversample_factor,
            "alpha_slope": self.alpha_slope,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """The config of a JSON document; absent keys keep the field defaults."""
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise SchemaError(f"unknown scenario key {unknown[0]!r}")
        return cls(**{key: _COERCE[key](value) for key, value in d.items()})

    @classmethod
    def from_json_file(cls, path) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            return cls.from_dict(doc)
        except SchemaError as e:
            raise SchemaError(f"{path}: {e}") from None


# the type of each ScenarioConfig field, applied to a JSON value
_COERCE = {
    "p": int, "n_per_arm": int, "confounding": Confounding, "scale": Scale,
    "replicates": int, "seed": int, "oversample_factor": int,
    "alpha_slope": lambda v: None if v is None else float(v),
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


def generate_population(cfg: ScenarioConfig, n_star: int, rng: np.random.Generator) -> PooledSample:
    """Simulate n_star unconstrained observations from the scenario DGP."""
    p = cfg.p
    a1, b1, b3 = _config_vectors(cfg)
    # X = sqrt(.8) eps + sqrt(.2) u gives covariance .8*I + .2 exactly
    x = math.sqrt(0.8) * rng.standard_normal((n_star, p))
    x += math.sqrt(0.2) * rng.standard_normal((n_star, 1))
    t = np.where(rng.random(n_star) < _expit(ALPHA0 + x @ a1), 2, 1)
    z = np.where(rng.random(n_star) < 0.5, t, 0)
    lin = BETA0 + x @ b1 + (z > 0) * (x @ b3 + BETA2) + (z == 2) * BETA4
    y = (rng.random(n_star) < _expit(lin)).astype(float)
    return PooledSample(y=y, z=z, t=t, x=x)


_CELLS = ((1, 0), (1, 1), (2, 0), (2, 2))


def subsample_by_arm(
    pop: PooledSample, n_per_arm: int, rng: np.random.Generator
) -> PooledSample:
    """Uniform subsample of exactly n_per_arm patients per (trial, arm) cell."""
    keep = []
    for t, z in _CELLS:
        idx = np.nonzero((pop.t == t) & (pop.z == z))[0]
        if len(idx) < n_per_arm:
            raise InsufficientCell(
                f"cell (trial={t}, arm={z}) has {len(idx)} < {n_per_arm} members"
            )
        keep.append(rng.choice(idx, size=n_per_arm, replace=False))
    sel = np.sort(np.concatenate(keep))
    return PooledSample(y=pop.y[sel], z=pop.z[sel], t=pop.t[sel], x=pop.x[sel])


def true_delta(cfg: ScenarioConfig, n_oracle: int = 2_000_000, rng=None) -> float:
    """Oracle contrast in the aggregate-trial population, from counterfactual
    outcome probabilities on a large simulated draw."""
    if rng is None:
        rng = np.random.default_rng([cfg.seed, 0xFFFFFFFF])
    p = cfg.p
    a1, b1, b3 = _config_vectors(cfg)
    # x is scaled in place and the trial-2 rows are taken after the product,
    # so no second (n_oracle, p) array is held; every element is unchanged
    x = rng.standard_normal((n_oracle, p))
    x *= math.sqrt(0.8)
    x += math.sqrt(0.2) * rng.standard_normal((n_oracle, 1))
    t2 = rng.random(n_oracle) < _expit(ALPHA0 + x @ a1)
    active = (x @ (b1 + b3))[t2] + BETA0 + BETA2
    m1 = float(_expit(active).mean())            # had they received the IPD treatment
    m2 = float(_expit(active + BETA4).mean())    # their own trial's treatment
    return cfg.scale.g(m1) - cfg.scale.g(m2)


@dataclass
class ReplicateResult:
    deltas: dict[str, float] = field(default_factory=dict)
    ses: dict[str, float] = field(default_factory=dict)
    negcontrol_reject: bool | None = None
    errors: dict[str, str] = field(default_factory=dict)
    ess_active: float | None = None


_SOLVER = SolverConfig()

# the estimators a replicate runs, in the order its results are filed
SIM_METHODS = (Method.MAIC_NAB, Method.MAIC_ACB, Method.BUCHER, Method.STC)

# cap on the patient rows (4 * n_per_arm per replicate) that run_study puts
# in one block of replicates; it bounds the stacked arrays' memory
BLOCK_ROWS = 16_384


def replicate_datasets(
    cfg: ScenarioConfig, replicate_index: int
) -> tuple[IpdStudy, AgdStudy, TrialRecords]:
    """Draw and subsample one replicate, collapsing trial 2 to aggregate
    summaries while retaining its raw records for benchmark variances.
    Deterministic given (cfg.seed, replicate_index)."""
    rng = np.random.default_rng([cfg.seed, replicate_index])
    factor = cfg.oversample_factor
    for _ in range(12):
        pop = generate_population(cfg, factor * 4 * cfg.n_per_arm, rng)
        try:
            sub = subsample_by_arm(pop, cfg.n_per_arm, rng)
            break
        except InsufficientCell:
            factor *= 2
    else:
        raise InsufficientCell("could not fill all cells after repeated oversampling")

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


def run_replicate(cfg: ScenarioConfig, replicate_index: int) -> ReplicateResult:
    """One replicate: draw, subsample, collapse trial 2 to summaries, and
    run all estimators and SE strategies.  Deterministic given
    (cfg.seed, replicate_index); failures are recorded, not raised."""
    return run_block(cfg, [replicate_index])[0]


def run_block(cfg: ScenarioConfig, indices) -> list[ReplicateResult]:
    """run_replicate for each replicate index, with the weight solves, the
    estimators, the SEs and the null checks of the whole block computed
    stacked; each result equals its lone run_replicate bit for bit."""
    ipds, agds, records = zip(*(replicate_datasets(cfg, i) for i in indices))
    results = [ReplicateResult() for _ in indices]
    scale = cfg.scale

    def pick(members, *seqs):
        return [[seq[b] for b in members] for seq in seqs]

    def record(members, outcomes, key, store=lambda res, out: None) -> list[int]:
        """Hand each success to `store` and file each MaicError under `key`,
        in the order run_replicate meets them; returns the members that
        succeeded."""
        kept = []
        for b, out in zip(members, outcomes):
            if isinstance(out, MaicError):
                results[b].errors[key] = f"{type(out).__name__}: {out}"
            else:
                store(results[b], out)
                kept.append(b)
        return kept

    everyone = list(range(len(indices)))
    targets = np.stack([pooled_target_moments(agd, MomentSpec.FIRST) for agd in agds])
    models = solve_weights_block(ipds, targets, MomentSpec.FIRST, _SOLVER)
    fitted = record(everyone, models, "weights")
    nab, ests = [], {}  # the replicates with a maic-nab estimate, and the estimates
    for method in SIM_METHODS:
        members = fitted if method.weighted else everyone
        if not members:
            continue
        outs = estimate_block(*pick(members, ipds, agds, models), scale, method)
        kept = record(members, outs, method.value,
                      lambda res, est: res.deltas.update({est.method.value: est.delta}))
        if method is Method.MAIC_NAB:
            nab, ests = kept, dict(zip(members, outs))
    if not nab:
        return results

    for b in nab:
        results[b].ess_active = models[b].ess.get(1)
    ses = se_block(*pick(nab, ipds, agds, models, ests), scale, tuple(SeStrategy),
                   records=[records[b] for b in nab])
    for i, b in enumerate(nab):
        # a replicate's first failing strategy is filed and ends its SEs
        for strategy, outs in ses.items():
            if not record([b], [outs[i]], "variance",
                          lambda res, se, key=strategy.value: res.ses.update({key: se.se})):
                break

    outs = negative_control_block(*pick(nab, ipds, agds, models), scale)
    record(nab, outs, "negcontrol",
           lambda res, result: setattr(res, "negcontrol_reject", result.reject_at_level))
    return results


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
        return {
            "config": self.config.to_dict(),
            "true_delta": self.true_delta,
            "percent_bias": self.percent_bias,
            "bias_mc_se": self.bias_mc_se,
            "coverage": self.coverage,
            "coverage_mc_se": self.coverage_mc_se,
            "relative_length": self.relative_length,
            "mean_se": self.mean_se,
            "empirical_sd": self.empirical_sd,
            "negcontrol_rejection_rate": self.negcontrol_rejection_rate,
            "n_used": self.n_used,
            "failure_counts": self.failure_counts,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

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


def _block_task(args) -> list[ReplicateResult]:
    cfg_dict, indices = args
    return run_block(ScenarioConfig.from_dict(cfg_dict), indices)


def block_size(cfg: ScenarioConfig) -> int:
    """Replicates per block: as many as fit in BLOCK_ROWS patient rows."""
    return max(1, BLOCK_ROWS // (4 * cfg.n_per_arm))


def run_study(cfg: ScenarioConfig, threads: int = 1, n_oracle: int = 2_000_000) -> SimulationReport:
    """Run all replicates and aggregate bias, coverage, and length metrics.

    Replicates run in blocks of block_size(cfg), each through run_block.
    Replicates with estimator failures are excluded from the affected cell
    averages and tallied in failure_counts.  Output is a pure function of
    cfg regardless of thread count and block size.
    """
    delta = true_delta(cfg, n_oracle=n_oracle)
    size = block_size(cfg)
    blocks = [list(range(i, min(i + size, cfg.replicates)))
              for i in range(0, cfg.replicates, size)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(_block_task, ((cfg.to_dict(), b) for b in blocks)))
    else:
        done = [run_block(cfg, b) for b in blocks]
    results = [r for block in done for r in block]

    methods = [m.value for m in SIM_METHODS]
    strategies = [s.value for s in SeStrategy]

    percent_bias, bias_mc_se, n_used, failures = {}, {}, {}, {}
    for m in methods:
        vals = np.array([r.deltas[m] for r in results if m in r.deltas])
        n_used[m] = len(vals)
        failures[m] = cfg.replicates - len(vals)
        if len(vals):
            rel = (vals - delta) / delta * 100.0
            percent_bias[m] = float(rel.mean())
            bias_mc_se[m] = float(rel.std(ddof=1) / np.sqrt(len(rel))) if len(rel) > 1 else None
        else:
            percent_bias[m] = None
            bias_mc_se[m] = None

    nab = Method.MAIC_NAB.value
    nab_deltas = np.array([r.deltas[nab] for r in results if nab in r.deltas])
    emp_sd = float(nab_deltas.std(ddof=1)) if len(nab_deltas) > 1 else None

    zcrit = norm_quantile(0.975)
    coverage, cov_mc_se, rel_length, mean_se = {}, {}, {}, {}
    for s in strategies:
        pairs = [
            (r.deltas[nab], r.ses[s])
            for r in results
            if nab in r.deltas and s in r.ses
        ]
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
