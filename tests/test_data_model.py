import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maic.data_model import (
    AgdArm,
    AgdStudy,
    IpdStudy,
    MomentSpec,
    OutcomeKind,
    load_agd,
    load_ipd,
    pooled_target_moments,
)
from maic.errors import (
    DimensionMismatch,
    EmptyStudy,
    InvalidArmCode,
    MissingColumn,
    MissingVariance,
    NegativeVariance,
    NonNumericValue,
    SchemaError,
)

from conftest import make_agd, make_arm, make_ipd


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadIpd:
    def test_basic_csv(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n0,0,-0.1\n")
        study = load_ipd(p)
        assert study.n == 2
        assert study.p == 1
        assert study.covariate_names == ("x1",)
        np.testing.assert_allclose(study.y, [1.0, 0.0])
        np.testing.assert_allclose(study.x[:, 0], [0.2, -0.1])

    def test_invalid_arm_code(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n1,3,0.2\n")
        with pytest.raises(InvalidArmCode, match=re.escape(f"{p}:3: arm code 3.0")):
            load_ipd(p)

    @pytest.mark.parametrize("cell", ["0.5", "2", "-1"])
    def test_binary_outcome_not_coded_01_names_line_and_column(self, tmp_path, cell):
        p = write(tmp_path / "ipd.csv", f"y,z,x1\n1,1,0.2\n{cell},0,0.1\n")
        with pytest.raises(NonNumericValue,
                           match=re.escape(f"{p}:3: binary outcome {cell!r}") + ".*'y'"):
            load_ipd(p, outcome_kind=OutcomeKind.BINARY)
        assert load_ipd(p).y[1] == float(cell)

    def test_single_arm_study_is_valid(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n0,1,0.4\n")
        study = load_ipd(p)
        assert (study.z == 1).all()

    def test_non_numeric_value_names_line_and_column(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n0,0,oops\n")
        with pytest.raises(NonNumericValue, match="x1"):
            load_ipd(p)

    def test_missing_value_rejected(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,\n")
        with pytest.raises(NonNumericValue):
            load_ipd(p)

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,arm,x1\n1,1,0.2\n")
        with pytest.raises(MissingColumn):
            load_ipd(p)

    def test_covariate_selection_orders_columns(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,a,b\n1,1,1,2\n0,1,3,4\n")
        study = load_ipd(p, covariates=["b", "a"])
        assert study.covariate_names == ("b", "a")
        np.testing.assert_allclose(study.x[0], [2.0, 1.0])

    def test_row_order_preserved(self, tmp_path):
        rows = "\n".join(f"{i % 2},1,{i}" for i in range(10))
        p = write(tmp_path / "ipd.csv", "y,z,x1\n" + rows + "\n")
        study = load_ipd(p)
        np.testing.assert_allclose(study.x[:, 0], np.arange(10))

    def test_spaces_around_header_names(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y, z, x1\n1,1,0.2\n0,0,-0.1\n")
        study = load_ipd(p)
        assert study.covariate_names == ("x1",)
        np.testing.assert_array_equal(study.z, [1, 0])

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_value_names_line_and_column(self, tmp_path, cell):
        p = write(tmp_path / "ipd.csv", f"y,z,x1\n1,1,0.2\n0,0,{cell}\n")
        with pytest.raises(NonNumericValue, match=re.escape(f"{p}:3: non-finite") + ".*'x1'"):
            load_ipd(p)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "0x10", "1e"])
    def test_cells_float_would_accept_or_half_numbers_rejected(self, tmp_path, cell):
        p = write(tmp_path / "ipd.csv", f"y,z,x1\n1,1,{cell}\n")
        with pytest.raises(NonNumericValue, match=re.escape(f"{p}:2: non-numeric")):
            load_ipd(p)

    def test_error_line_is_physical_line_after_blank_lines(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n\n\n0,0,oops\n")
        with pytest.raises(NonNumericValue, match=re.escape(f"{p}:5: ") + ".*'oops'"):
            load_ipd(p)

    def test_comparator_only_file_names_the_file(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,0,0.2\n0,0,0.1\n")
        with pytest.raises(EmptyStudy, match=re.escape(f"{p}: ") + ".*active-arm"):
            load_ipd(p)

    def test_header_only_file_is_empty(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n")
        with pytest.raises(EmptyStudy, match="no data rows"):
            load_ipd(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "")
        with pytest.raises(EmptyStudy, match="empty file"):
            load_ipd(p)

    @pytest.mark.parametrize("header, name", [
        ("y,z,x1,x1", "x1"), ("y,y,z,x1", "y"), ("y,z,x1, z", "z"),
    ])
    def test_repeated_header_name_is_rejected(self, tmp_path, header, name):
        # a dict over the header names would keep only the last such column
        p = write(tmp_path / "ipd.csv", f"{header}\n1,1,0.2,0.3\n0,0,-0.1,0.4\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}: column {name!r} appears more than once in the header")):
            load_ipd(p)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PAD = st.sampled_from(["", " ", "  ", "\t"])
BAD_CELLS = {
    NonNumericValue: ["", "abc", "1_000", "\u0661\u0662", "0x1p3", "1e", "+-1",
                      "nan", "-inf", "Infinity", "1e400"],
    InvalidArmCode: ["2", "-1", "0.5", "1.5"],
}


@st.composite
def ipd_tables(draw):
    """A random finite IPD table written as CSV text: shuffled columns, padded
    cells, blank lines, and an optional covariate subset.  Returns the lines,
    the physical line number of each data row, the `covariates` argument,
    the expected covariate names and the expected arrays."""
    p = draw(st.integers(0, 4))
    n = draw(st.integers(1, 12))
    names = draw(st.permutations(["y", "z", *(f"x{j}" for j in range(p))]))
    covs_in_file = [c for c in names if c not in ("y", "z")]
    subset = draw(st.none() | st.permutations(covs_in_file).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda k: list(perm[:k]))))
    selected = covs_in_file if subset is None else subset
    rows = [{"y": draw(FINITE), "z": 1 if i == 0 else draw(st.sampled_from([0, 1])),
             **{c: draw(FINITE) for c in covs_in_file}} for i in range(n)]
    lines = [",".join(draw(PAD) + c + draw(PAD) for c in names)]
    row_lines = []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2))
        cells = [str(row[c]) if c == "z" else repr(row[c]) for c in names]
        lines.append(",".join(draw(PAD) + cell + draw(PAD) for cell in cells))
        row_lines.append(len(lines))
    expected = (
        np.array([r["y"] for r in rows]),
        np.array([r["z"] for r in rows]),
        np.array([[r[c] for c in selected] for r in rows]).reshape(n, len(selected)),
    )
    return lines, row_lines, subset, tuple(selected), expected


class TestLoadIpdProperties:
    @settings(max_examples=100, deadline=None)
    @given(table=ipd_tables())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, table):
        lines, _, subset, selected, (y, z, x) = table
        p = write(tmp_path_factory.mktemp("ipd") / "ipd.csv", "\n".join(lines) + "\n")
        study = load_ipd(p, covariates=subset)
        assert study.covariate_names == selected
        np.testing.assert_array_equal(study.y.view(np.uint64), y.view(np.uint64))
        np.testing.assert_array_equal(study.z, z)
        np.testing.assert_array_equal(study.x.view(np.uint64), x.view(np.uint64))
        for arr in (study.y, study.z, study.x):
            assert arr.flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(table=ipd_tables(), data=st.data())
    def test_one_bad_cell_raises_named_error_on_its_line(self, tmp_path_factory, table, data):
        lines, row_lines, subset, selected, _ = table
        error = data.draw(st.sampled_from(sorted(BAD_CELLS, key=lambda e: e.__name__)))
        col = "z" if error is InvalidArmCode else data.draw(
            st.sampled_from(["y", "z", *selected]))
        cell = data.draw(st.sampled_from(BAD_CELLS[error]))
        line = data.draw(st.sampled_from(row_lines))
        header = [h.strip() for h in lines[0].split(",")]
        cells = lines[line - 1].split(",")
        cells[header.index(col)] = data.draw(PAD) + cell
        lines = [*lines[:line - 1], ",".join(cells), *lines[line:]]
        p = write(tmp_path_factory.mktemp("ipd") / "ipd.csv", "\n".join(lines) + "\n")
        with pytest.raises(error) as info:
            load_ipd(p, covariates=subset)
        assert str(info.value).startswith(f"{p}:{line}: ")
        if error is NonNumericValue:
            assert repr(col) in str(info.value)


class TestIpdStudy:
    def test_requires_active_arm(self):
        with pytest.raises(EmptyStudy):
            make_ipd([1.0], [0], [[0.5]])

    def test_rejects_foreign_arm_codes(self):
        with pytest.raises(InvalidArmCode):
            make_ipd([1.0, 0.0], [1, 2], [[0.1], [0.2]])

    def test_binary_outcome_must_be_01(self):
        with pytest.raises(NonNumericValue):
            make_ipd([0.5], [1], [[0.0]], outcome_kind=OutcomeKind.BINARY)
        with pytest.raises(NonNumericValue, match="coded 0/1"):
            make_ipd([1.0, 0.0, 0.5], [1, 0, 1], [[0.0], [1.0], [2.0]],
                     outcome_kind=OutcomeKind.BINARY)

    def test_arrays_are_immutable(self):
        study = make_ipd([1.0, 0.0], [1, 0], [[0.1], [0.2]])
        with pytest.raises(ValueError):
            study.y[0] = 2.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_ipd([1.0, 0.0], [1], [[0.1], [0.2]])

    @pytest.mark.parametrize("code", [0.7, 1.9, pytest.param([2, -1, 2], id="2,-1,2"),
                                      pytest.param(np.nan, id="nan")])
    def test_rejects_arm_codes_that_are_not_exactly_0_or_1(self, code):
        # a float arm code must not be truncated to a valid one; the bad
        # codes are listed sorted and unique
        z = np.array([1, *np.atleast_1d(code)])
        listed = str(sorted(set(np.atleast_1d(code).tolist())))
        with pytest.raises(InvalidArmCode, match=re.escape(f"got {listed}")):
            IpdStudy(np.ones(len(z)), z, np.zeros((len(z), 1)), ("x1",))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["y", "x"])
    def test_rejects_non_finite_outcomes_and_covariates(self, field, value):
        arrays = {"y": np.array([1.0, 0.0]), "x": np.array([[0.1], [0.2]])}
        arrays[field].flat[1] = value
        with pytest.raises(NonNumericValue, match="finite"):
            IpdStudy(arrays["y"], np.array([1, 0]), arrays["x"], ("x1",))


class TestAgd:
    def test_load_single_arm_document(self, tmp_path):
        doc = {"covariates": ["x1"],
               "arms": {"active": {"n": 90, "y_mean": 0.4, "y_var": 0.24,
                                   "x_mean": [0.1]}}}
        p = write(tmp_path / "agd.json", json.dumps(doc))
        study = load_agd(p)
        assert study.comparator_arm is None
        assert study.active_arm.n == 90
        assert study.n_total == 90

    def test_negative_x_var(self):
        with pytest.raises(NegativeVariance):
            make_arm(x_mean=[0.1], x_var=[-0.1])

    def test_negative_y_var(self):
        with pytest.raises(NegativeVariance):
            make_arm(y_var=-0.2)

    def test_x_mean_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AgdStudy(make_arm(x_mean=[0.1, 0.2]), None, ("a", "b", "c"))

    def test_variance_needs_two_patients(self):
        with pytest.raises(SchemaError):
            make_arm(n=1, y_var=0.2)

    def test_missing_y_var_warns_on_load(self, tmp_path):
        doc = {"covariates": ["x1"],
               "arms": {"active": {"n": 90, "y_mean": 0.4, "x_mean": [0.1]}}}
        p = write(tmp_path / "agd.json", json.dumps(doc))
        with pytest.warns(UserWarning, match="y_var"):
            load_agd(p)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_rejected(self, tmp_path, token):
        text = ('{"covariates": ["x1"], "arms": {"active": '
                f'{{"n": 90, "y_mean": {token}, "y_var": 0.24, "x_mean": [0.1]}}}}}}')
        p = write(tmp_path / "agd.json", text)
        with pytest.raises(SchemaError, match=re.escape(f"{p}: non-finite")):
            load_agd(p)

    def test_schema_error_on_missing_field(self, tmp_path):
        p = write(tmp_path / "agd.json", json.dumps({"covariates": ["x1"]}))
        with pytest.raises(SchemaError):
            load_agd(p)

    @pytest.mark.parametrize("n", [100.7, 2.5, True, False, "abc", [90]])
    def test_arm_size_that_is_not_an_integer_is_named(self, n):
        with pytest.raises(SchemaError, match="'n'"):
            AgdArm.from_dict({"n": n, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1]})

    @pytest.mark.parametrize("key, value", [
        ("y_mean", True), ("y_var", False), ("x_mean", [True]), ("x_var", [False]),
    ])
    def test_a_boolean_in_a_float_field_is_named(self, key, value):
        d = {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1], "x_var": [1.0], key: value}
        with pytest.raises(SchemaError, match=f"'{key}'.*expected a number, got"):
            AgdArm.from_dict(d)

    @pytest.mark.parametrize("key", ["x_mean", "x_var"])
    @pytest.mark.parametrize("value", [[[0.1, 0.0]], [[0.1], [0.2]], 0.3, [[]], "12"])
    def test_a_vector_that_is_not_flat_is_named(self, key, value):
        d = {"n": 90, "y_mean": 0.4, "x_mean": [0.1], key: value}
        with pytest.raises(SchemaError, match=f"'{key}'"):
            AgdArm.from_dict(d)
        with pytest.raises(SchemaError, match=f"'{key}' must be a flat list of numbers"):
            make_arm(**{"x_mean": [0.1], key: value})

    def test_float_fields_keep_their_values(self):
        arm = AgdArm.from_dict({"n": 90, "y_mean": 1, "y_var": "0.25", "x_mean": [0, 0.5],
                                "x_var": [2, "1.5"]})
        assert (arm.y_mean, arm.y_var) == (1.0, 0.25)
        assert type(arm.y_mean) is float and type(arm.y_var) is float
        assert arm.x_mean.tolist() == [0.0, 0.5] and arm.x_var.tolist() == [2.0, 1.5]

    @pytest.mark.parametrize("n", [90, 90.0, "90"])
    def test_integral_arm_size_loads_as_an_int(self, n):
        arm = AgdArm.from_dict({"n": n, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1]})
        assert arm.n == 90 and type(arm.n) is int

    @pytest.mark.parametrize("arm, why", [
        ({"n": "abc", "y_mean": 0.4, "x_mean": [0.1]}, "'n'"),
        ({"n": 90.5, "y_mean": 0.4, "x_mean": [0.1]}, "'n'"),
        ({"n": 90, "y_mean": 0.4}, "missing field 'x_mean'"),
        ({"n": 90, "y_mean": "high", "x_mean": [0.1]}, "'y_mean'"),
        ([90, 0.4], "must be a JSON object"),
    ])
    def test_load_errors_name_the_file(self, tmp_path, arm, why):
        p = write(tmp_path / "agd.json",
                  json.dumps({"covariates": ["x1"], "arms": {"active": arm}}))
        with pytest.raises(SchemaError, match=re.escape(f"{p}: ") + ".*" + re.escape(why)):
            load_agd(p)

    def test_round_trip_dict(self):
        study = make_agd(
            active=make_arm(n=90, y_mean=0.4, x_mean=[0.1], x_var=[0.5]),
            comparator=make_arm(n=110, y_mean=0.3, x_mean=[0.2]),
        )
        back = AgdStudy.from_dict(study.to_dict())
        assert back.to_dict() == study.to_dict()

    def test_alignment_check(self):
        study = make_agd(names=("x1",))
        ipd = make_ipd([1.0], [1], [[0.0]], names=("age",))
        with pytest.raises(DimensionMismatch):
            study.check_alignment(ipd)

    @pytest.mark.parametrize("arm", ["active", "comparator"])
    @pytest.mark.parametrize("y_mean", [1.5, -0.25])
    def test_binary_mean_outside_unit_interval(self, arm, y_mean):
        ipd = make_ipd([1.0, 0.0], [1, 0], [[0.0], [1.0]], outcome_kind=OutcomeKind.BINARY)
        arms = {"active": make_arm(), "comparator": make_arm()}
        arms[arm] = make_arm(y_mean=y_mean, y_var=None)
        study = make_agd(**arms)
        with pytest.raises(SchemaError, match=rf"{arm} arm y_mean {y_mean} .*\[0, 1\]"):
            study.check_alignment(ipd)

    def test_binary_mean_bounds_are_inclusive(self):
        ipd = make_ipd([1.0, 0.0], [1, 0], [[0.0], [1.0]], outcome_kind=OutcomeKind.BINARY)
        make_agd(make_arm(y_mean=1.0), make_arm(y_mean=0.0)).check_alignment(ipd)
        # a continuous outcome mean is not bounded
        make_agd(make_arm(y_mean=1.5)).check_alignment(make_ipd([1.0], [1], [[0.0]]))


class TestPooledTargetMoments:
    def test_single_arm_first_moment_is_exact(self):
        agd = make_agd(active=make_arm(x_mean=[0.5]))
        np.testing.assert_array_equal(
            pooled_target_moments(agd, MomentSpec.FIRST), [0.5]
        )

    def test_weighted_pool_across_arms(self):
        agd = make_agd(active=make_arm(n=10, x_mean=[0.0]),
                       comparator=make_arm(n=30, x_mean=[1.0]))
        np.testing.assert_allclose(
            pooled_target_moments(agd, MomentSpec.FIRST), [0.75]
        )

    def test_second_moment_population_correction(self):
        # sample variance 4/3 on n=4 -> population second moment 1 + 1 = 2
        agd = make_agd(active=make_arm(n=4, x_mean=[1.0], x_var=[4.0 / 3.0]))
        np.testing.assert_allclose(
            pooled_target_moments(agd, MomentSpec.FIRST_AND_SECOND), [1.0, 2.0]
        )

    def test_second_moments_require_x_var(self):
        agd = make_agd(active=make_arm(x_mean=[0.5]))
        with pytest.raises(MissingVariance):
            pooled_target_moments(agd, MomentSpec.FIRST_AND_SECOND)

    def test_invariant_to_arm_ordering(self):
        a = make_arm(n=10, x_mean=[0.0, 1.0], x_var=[1.0, 2.0])
        b = make_arm(n=30, x_mean=[1.0, -1.0], x_var=[0.5, 0.25])
        one = AgdStudy(a, b, ("u", "v"))
        two = AgdStudy(b, a, ("u", "v"))
        for spec in MomentSpec:
            np.testing.assert_allclose(
                pooled_target_moments(one, spec), pooled_target_moments(two, spec)
            )
