"""Golden simulation reports.

Three small studies pin the data-generating process and the replicate engine
end to end: a study whose tight oversampling makes replicates redraw their
population (the InsufficientCell retry path), a severe-confounding study of
10 patients per arm where most replicates fail somewhere (weights,
estimators, null check), and a study with random trial membership
(`alpha_slope=0.0`) on the identity scale.  Each `run_study(...).to_dict()`,
at one thread and at two (where the oracle is a pool task beside the
blocks), is compared with the one stored in `tests/data/golden_simulation.json`:
keys, counts and None cells exactly, floats to a relative 1e-12 (other BLAS
builds may move the last bits).

Regenerate the file with `PYTHONPATH=src python tests/test_simulation_golden.py`
only when a change is meant to move reported numbers or the RNG stream.
"""

import json
from pathlib import Path

import pytest

from maic.estimators import Scale
from maic.simulation import Confounding, ScenarioConfig, run_study

from test_report_golden import assert_matches

GOLDEN = Path(__file__).parent / "data" / "golden_simulation.json"
N_ORACLE = 50_000

CONFIGS = {
    "retry-n60": ScenarioConfig(p=7, n_per_arm=60, confounding=Confounding.MODERATE,
                                scale=Scale.LOGIT, replicates=16, seed=5,
                                oversample_factor=1),
    "severe-n10": ScenarioConfig(p=4, n_per_arm=10, confounding=Confounding.SEVERE,
                                 scale=Scale.LOGIT, replicates=12, seed=1),
    "random-membership-identity": ScenarioConfig(p=5, n_per_arm=50, scale=Scale.IDENTITY,
                                                 replicates=16, seed=3, alpha_slope=0.0),
}


def run_config(name: str, threads: int = 1) -> dict:
    report = run_study(CONFIGS[name], threads=threads, n_oracle=N_ORACLE)
    return json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("name", list(CONFIGS))
def test_study_matches_golden(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        stored = json.load(fh)[name]
    assert_matches(run_config(name), stored, name)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pooled_study_matches_golden(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        stored = json.load(fh)[name]
    assert_matches(run_config(name, threads=2), stored, name)


if __name__ == "__main__":
    doc = {name: run_config(name) for name in CONFIGS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
