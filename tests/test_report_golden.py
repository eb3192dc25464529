"""Golden comparison reports.

Small stored IPD/AGD pairs cover the identity and logit scales, AGD studies
with and without a comparator arm, and first and first+second moment
matching.  Each pair is run through every method and every SE strategy plus
the null check, once with a fitted weight model and once without one, and
the report dicts are compared with those stored in
`tests/data/golden_reports.json`: keys, strategy sets and error strings
exactly, floats to a relative 1e-12 (other BLAS builds may move the last
bits).  The balance residual is solver noise below the 1e-10 tolerance and
is compared to that absolute tolerance.

Regenerate the file with `PYTHONPATH=src python tests/test_report_golden.py`
only when a change is meant to move reported numbers.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from maic.data_model import (
    AgdArm,
    AgdStudy,
    IpdStudy,
    MomentSpec,
    OutcomeKind,
    pooled_target_moments,
)
from maic.estimators import Method, Scale
from maic.inference import build_comparison_report
from maic.variance import SeStrategy
from maic.weighting import solve_weights

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
ALL_METHODS = list(Method)
ALL_STRATEGIES = [SeStrategy.FO, SeStrategy.PO, SeStrategy.CS, SeStrategy.SW]
BALANCE_TOL = 1e-10


def ipd_to_dict(ipd: IpdStudy) -> dict:
    """The stored form of an IPD study."""
    return {"covariates": list(ipd.covariate_names), "outcome_kind": ipd.outcome_kind.value,
            "y": ipd.y.tolist(), "z": ipd.z.tolist(), "x": ipd.x.tolist()}


def ipd_from_dict(d: dict) -> IpdStudy:
    return IpdStudy(d["y"], d["z"], d["x"], d["covariates"], OutcomeKind(d["outcome_kind"]))


def make_cases(seed: int = 1910) -> list[dict]:
    """The stored inputs: one IPD/AGD pair per (scale, comparator, moments)."""
    rng = np.random.default_rng(seed)
    cases = []
    for scale in Scale:
        for with_comparator in (True, False):
            for spec in MomentSpec:
                n = 48
                x = rng.normal(size=(n, 2))
                z = np.repeat([1, 0], n // 2)
                lin = x @ np.array([0.6, -0.4]) + 0.3 * z
                if scale is Scale.LOGIT:
                    kind = OutcomeKind.BINARY
                    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-lin))).astype(float)
                else:
                    kind = OutcomeKind.CONTINUOUS
                    y = lin + rng.normal(size=n)
                target = x.mean(axis=0) + rng.uniform(-0.2, 0.2, size=2)
                x_var = x.var(axis=0, ddof=1) * rng.uniform(0.8, 1.2, size=2)

                def arm(n_arm, y_mean, y_var):
                    return AgdArm(n_arm, float(y_mean), y_var, target, x_var)

                # the binary comparator omits y_var: the Bernoulli fallback applies
                active = arm(60, rng.uniform(0.3, 0.7), 0.8 if kind is OutcomeKind.CONTINUOUS else 0.24)
                comparator = (
                    arm(55, rng.uniform(0.3, 0.7), 0.9 if kind is OutcomeKind.CONTINUOUS else None)
                    if with_comparator else None
                )
                names = ("x1", "x2")
                cases.append({
                    "name": f"{scale.value}-{'anchored' if with_comparator else 'single'}-{spec.value}",
                    "scale": scale.value,
                    "moments": spec.value,
                    "ipd": ipd_to_dict(IpdStudy(y, z, x, names, kind)),
                    "agd": AgdStudy(active, comparator, names).to_dict(),
                })
    return cases


def run_case(case: dict) -> dict:
    ipd = ipd_from_dict(case["ipd"])
    agd = AgdStudy.from_dict(case["agd"])
    scale = Scale(case["scale"])
    spec = MomentSpec(case["moments"])
    model = solve_weights(ipd, pooled_target_moments(agd, spec), spec)
    reports = {}
    for label, m in (("fitted", model), ("unfitted", None)):
        report = build_comparison_report(
            ipd, agd, m, ALL_METHODS, scale, ALL_STRATEGIES,
            run_negative_control=True,
        )
        reports[label] = json.loads(json.dumps(report.to_dict()))
    return reports


def assert_matches(actual, expected, path: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), path
        abs_tol = BALANCE_TOL if ".balance_" in path else 0.0
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=abs_tol), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, path


def _stored() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", [c["name"] for c in make_cases()])
def test_report_matches_golden(name):
    stored = {c["inputs"]["name"]: c for c in _stored()["cases"]}[name]
    assert_matches(run_case(stored["inputs"]), stored["reports"], name)


if __name__ == "__main__":
    cases = make_cases()
    doc = {"cases": [{"inputs": c, "reports": run_case(c)} for c in cases]}
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
