"""Invariance properties: reparametrising the covariates or reordering the
patient rows changes no reported number.

Exponential-tilting weights depend on the covariates only through the span
of the balanced moments.  A per-covariate affine map x -> a x + b (a != 0)
and a column permutation preserve that span, also for the squares, which
are affine in x and x^2.  The influence terms that carry the weights are
invariant under the same change of moment basis, and stc's logistic fit is
affine-equivariant.  Reordering the patient rows changes only the order of
the sums.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maic.data_model import (AgdArm, AgdStudy, IpdStudy, MomentSpec, OutcomeKind,
                             pooled_target_moments)
from maic.estimators import Method, Scale
from maic.inference import build_comparison_report
from maic.weighting import SolverConfig, solve_weights

# Both fits stop once the moments balance to the solver's max-norm
# tolerance, each in its own coordinates, so the two weight vectors, and
# every number derived from them, agree only to a multiple of it: across
# 800 drawn examples the largest relative change was 3.3e-10, here 1e-7
TOL = 1e3 * SolverConfig().grad_tol


def problem(seed: int, p: int) -> tuple:
    """A binary-outcome IPD of 2 x 60 rows and p covariates drawn from
    `seed`, and an AGD study whose means lie inside its covariate cloud."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(120, p))
    z = np.repeat([1, 0], 60)
    v = x @ rng.uniform(-0.6, 0.6, p) + 0.5 * z
    y = (rng.random(120) < 1.0 / (1.0 + np.exp(-v))).astype(float)
    names = tuple(f"x{j + 1}" for j in range(p))
    ipd = IpdStudy(y, z, x, names, OutcomeKind.BINARY)
    arms = [AgdArm(80, float(rng.uniform(0.3, 0.7)), 0.24,
                   x.mean(axis=0) + rng.uniform(-0.3, 0.3, p),
                   x.var(axis=0, ddof=1) * rng.uniform(0.8, 1.2, p)) for _ in range(2)]
    return ipd, AgdStudy(*arms, names)


@st.composite
def problems(draw):
    """A problem(seed, p) with p in 1..3, a moment spec and a scale."""
    return (*problem(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 3))),
            draw(st.sampled_from(list(MomentSpec))), draw(st.sampled_from(list(Scale))))


def reported(ipd, agd, spec, scale) -> dict:
    """Every estimate, SE, CI, p-value and null-check value of a full
    comparison, and the keys of the failures it filed."""
    model = solve_weights(ipd, pooled_target_moments(agd, spec), spec)
    report = build_comparison_report(ipd, agd, model, list(Method), scale,
                                     run_negative_control=True).to_dict()
    return {"methods": report["methods"], "negative_control": report["negative_control"],
            "errors": sorted(report["errors"])}


def assert_close(got, want, path="report"):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=TOL, abs_tol=TOL), (path, got, want)
    else:
        assert got == want, path


def moved(ipd, agd, a, b, perm) -> tuple:
    """The IPD and AGD study with each covariate mapped to a x + b, then
    the columns taken in the order `perm`."""
    names = tuple(ipd.covariate_names[j] for j in perm)
    moved_ipd = IpdStudy(ipd.y, ipd.z, (ipd.x * a + b)[:, perm], names, ipd.outcome_kind)
    moved_agd = AgdStudy(*(AgdArm(arm.n, arm.y_mean, arm.y_var, (arm.x_mean * a + b)[perm],
                                  (arm.x_var * a**2)[perm]) for arm in agd.arms), names)
    return moved_ipd, moved_agd


@settings(max_examples=40, deadline=None)
@given(problem=problems(), data=st.data())
def test_an_affine_map_and_a_permutation_of_the_covariates_change_nothing(problem, data):
    ipd, agd, spec, scale = problem
    p = len(ipd.covariate_names)
    a = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=p, max_size=p)))
    a = a * 10.0 ** np.array(data.draw(st.lists(st.floats(-0.7, 0.7), min_size=p, max_size=p)))
    b = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=p, max_size=p)))
    perm = data.draw(st.permutations(range(p)))
    assert_close(reported(*moved(ipd, agd, a, b, perm), spec, scale),
                 reported(ipd, agd, spec, scale))


@pytest.mark.parametrize("spec", list(MomentSpec))
@pytest.mark.parametrize("seed", [53, 66])
def test_a_shift_that_moves_stcs_coefficients_far_from_zero_changes_nothing(seed, spec):
    # a draw the property once failed on: the shift b = 6 of a shrunk third
    # covariate grows stc's intercept, and a divergence check on the raw
    # coefficients took its sound logistic fit for separation
    ipd, agd = problem(seed, 3)
    a, b = np.array([-1.0, -1.0, -10.0**-0.6875]), np.array([0.0, 0.0, 6.0])
    assert_close(reported(*moved(ipd, agd, a, b, range(3)), spec, Scale.IDENTITY),
                 reported(ipd, agd, spec, Scale.IDENTITY))


@settings(max_examples=40, deadline=None)
@given(problem=problems(), data=st.data())
def test_a_permutation_of_the_patient_rows_changes_nothing(problem, data):
    ipd, agd, spec, scale = problem
    order = np.array(data.draw(st.permutations(range(ipd.n))))
    moved = IpdStudy(ipd.y[order], ipd.z[order], ipd.x[order], ipd.covariate_names,
                     ipd.outcome_kind)
    assert_close(reported(moved, agd, spec, scale), reported(ipd, agd, spec, scale))
