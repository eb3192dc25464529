"""Population-adjusted indirect treatment comparisons.

One trial contributes individual patient data, the other only published
summaries; exponential-tilting weights rebalance the patient-level trial
to the aggregate population so the two active arms can be contrasted,
with influence-function standard errors and a Monte Carlo study harness.
"""

from .data_model import (
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
from .errors import MaicError, NonConvergence
from .estimators import (
    Estimate,
    Method,
    Scale,
    bucher,
    naive,
    stc,
)
from .inference import (
    ComparisonReport,
    NegControlResult,
    build_comparison_report,
    negative_control_test,
    wald_ci,
    wald_test,
)
from .simulation import (
    Confounding,
    ScenarioConfig,
    SimulationReport,
    run_study,
    true_delta,
)
from .variance import (
    SeEstimate,
    SeStrategy,
)
from .weighting import (
    WeightModel,
    balance_check,
    effective_sample_size,
    overlap_diagnostics,
    solve_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AgdArm",
    "AgdStudy",
    "ComparisonReport",
    "Confounding",
    "Estimate",
    "IpdStudy",
    "MaicError",
    "Method",
    "MomentSpec",
    "NegControlResult",
    "NonConvergence",
    "OutcomeKind",
    "Scale",
    "ScenarioConfig",
    "SeEstimate",
    "SeStrategy",
    "SimulationReport",
    "TrialRecords",
    "WeightModel",
    "balance_check",
    "bucher",
    "build_comparison_report",
    "effective_sample_size",
    "load_agd",
    "load_ipd",
    "naive",
    "negative_control_test",
    "overlap_diagnostics",
    "pooled_target_moments",
    "run_study",
    "solve_weights",
    "stc",
    "true_delta",
    "wald_ci",
    "wald_test",
    "__version__",
]
