import bz2
import contextlib
import gzip
import json
import lzma
import os
import pickle
import re
import signal
import sys
import urllib.request

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
    mean_rows,
    pooled_moments,
    pooled_target_moments,
    reduce_rows,
    stack_agd,
    stack_ipd,
    var_rows,
)
from maic.errors import (
    DimensionMismatch,
    EmptyStudy,
    InvalidArmCode,
    MaicError,
    MissingColumn,
    MissingVariance,
    NegativeVariance,
    NonNumericValue,
    SchemaError,
)
from maic.simulation import ScenarioConfig

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

    def test_every_other_column_is_a_covariate_in_file_order(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "b,y,a,z\n2,1,1,1\n4,0,3,1\n")
        study = load_ipd(p)
        assert study.covariate_names == ("b", "a")
        np.testing.assert_array_equal(study.x, [[2.0, 1.0], [4.0, 3.0]])
        np.testing.assert_array_equal(study.y, [1.0, 0.0])

    def test_a_row_with_more_cells_than_the_header_is_named(self, tmp_path):
        # an unquoted decimal comma must not load as x2 = 5.0 and drop 0.3
        p = write(tmp_path / "ipd.csv", "y,z,x1,x2\n1,1,1,5,0.3\n0,0,0.1,0.2\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:2: 5 cells under 4 header names")):
            load_ipd(p)

    def test_a_table_whose_every_row_is_one_cell_too_long_is_named(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2,7\n\n0,0,0.1,8\n1,0,0.3,9\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:2: 4 cells under 3 header names")):
            load_ipd(p)

    def test_a_short_row_is_a_missing_value(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1,x2\n1,1,0.2,0.3\n0,0,0.1\n")
        with pytest.raises(NonNumericValue, match=re.escape(f"{p}:3: missing value in 'x2'")):
            load_ipd(p)

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

    def test_a_header_name_beyond_csvs_field_limit_is_named(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z," + "x" * 200_000 + "\n1,1,0.2\n")
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"{p}:1: unreadable CSV (field larger than field limit (131072))") + "$"):
            load_ipd(p)

    def test_a_bad_row_beyond_csvs_field_limit_is_named(self, tmp_path):
        # numpy's reader refuses the cell, and the scan for the bad cell
        # reaches its row
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n0,0," + "x" * 200_000 + "\n")
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"{p}:3: unreadable CSV (field larger than field limit (131072))") + "$"):
            load_ipd(p)

    def test_a_long_numeric_cell_loads(self, tmp_path):
        p = write(tmp_path / "ipd.csv", "y,z,x1\n1,1,0.2\n0,0,0.25" + "0" * 200_000 + "\n")
        assert load_ipd(p).x.tolist() == [[0.2], [0.25]]

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a BOM before the first header name
        text = "y,z,x1\n1,1,0.2\n0,0,-0.1\n"
        plain = load_ipd(write(tmp_path / "plain.csv", text))
        p = tmp_path / "bom.csv"
        p.write_text(text, encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        study = load_ipd(p)
        assert study.covariate_names == plain.covariate_names == ("x1",)
        assert study.y.tolist() == plain.y.tolist() and study.x.tolist() == plain.x.tolist()
        # a bad cell is still named on its physical line
        p.write_text(text + "1,1,oops\n", encoding="utf-8-sig")
        with pytest.raises(NonNumericValue, match=re.escape(f"{p}:4: non-numeric value 'oops'")):
            load_ipd(p)


PLAIN = "y,z,x1\n1,1,0.2\n0,0,-0.1\n"
CRLF = PLAIN.replace("\n", "\r\n")


class TestLoadIpdLayouts:
    """The header is read by csv.reader and the rows by numpy's reader, so
    the two must agree on where lines end, on a byte-order mark and on what
    follows the header.  Each layout loads PLAIN's arrays bit for bit or
    raises the error of PLAIN's layout, on the same file and line."""

    @pytest.mark.parametrize("data", [
        CRLF.encode(),
        b"\xef\xbb\xbf" + CRLF.encode(),
        PLAIN.replace("\n", "\r").encode(),
        b"y,z,x1\n1,1,0.2\r0,0,-0.1\n",  # a lone \r ends one row
        (PLAIN + "\n\n").encode(),
        (CRLF + "\r\n\r\n").encode(),
    ], ids=["crlf", "bom-crlf", "cr", "lone-cr", "trailing-blank", "trailing-blank-crlf"])
    def test_line_endings_load_the_plain_arrays(self, tmp_path, data):
        plain = load_ipd(write(tmp_path / "plain.csv", PLAIN))
        p = tmp_path / "ipd.csv"
        p.write_bytes(data)
        study = load_ipd(p)
        assert study.covariate_names == plain.covariate_names
        for got, want in ((study.y, plain.y), (study.z, plain.z), (study.x, plain.x)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype

    @pytest.mark.parametrize("header, names", [
        ('"a,b",y,z', ("a,b",)), ('"a\nb",y,z', ("a\nb",)), ('y,"z",x1', ("x1",)),
    ], ids=["comma", "newline", "quoted"])
    def test_a_quoted_header_name_is_one_column(self, tmp_path, header, names):
        # a name spanning two lines moves the first row to line 3
        p = write(tmp_path / "ipd.csv", f"{header}\n0.5,1,1\n0.25,0,0\n")
        study = load_ipd(p)
        assert study.covariate_names == names
        cov, y = ((0,), 1) if header.startswith('"a') else ((2,), 0)
        rows = np.array([[0.5, 1.0, 1.0], [0.25, 0.0, 0.0]])
        assert study.x.tobytes() == np.ascontiguousarray(rows[:, cov]).tobytes()
        assert study.y.tobytes() == rows[:, y].tobytes()
        bad = header + "\n0.5,1,1\noops,0,0\n"
        line = 3 + bad.count("\n", 0, len(header))
        with pytest.raises(NonNumericValue, match=re.escape(f"{p}:{line}: non-numeric")):
            load_ipd(write(p, bad))

    @pytest.mark.parametrize("text", ["y,z,x1", "\ufeffy,z,x1\r\n", "y,z,x1\n\n"])
    def test_a_header_only_file_has_no_data_rows(self, tmp_path, text):
        p = write(tmp_path / "ipd.csv", text)
        with pytest.raises(EmptyStudy, match="^" + re.escape(f"{p}: IPD study has no data rows")):
            load_ipd(p)

    @pytest.mark.parametrize("text, line, message", [
        (CRLF + "1,1,oops\r\n", 4, "non-numeric value 'oops' in 'x1'"),
        ("\ufeff" + CRLF + "1,1,oops\r\n", 4, "non-numeric value 'oops' in 'x1'"),
        ("y,z,x1\n1,1,0.2\n0,0\r,-0.1\n", 3, "missing value in 'x1'"),
        ("y,z,x1\r1,1,0.2\r0,0,-0.1,4\r", 3, "4 cells under 3 header names"),
    ], ids=["crlf", "bom-crlf", "lone-cr-in-row", "cr"])
    def test_a_bad_row_is_named_on_its_line(self, tmp_path, text, line, message):
        p = tmp_path / "ipd.csv"
        p.write_bytes(text.encode())
        with pytest.raises(MaicError, match="^" + re.escape(f"{p}:{line}: {message}") + "$"):
            load_ipd(p)

    @pytest.mark.parametrize("suffix, compress, byte, column", [
        (".gz", lambda b: gzip.compress(b, mtime=0), 0x8B, 2),
        (".bz2", bz2.compress, 0xE3, 12),
        (".xz", lzma.compress, 0xFD, 1),
        (".lzma", lambda b: lzma.compress(b, format=lzma.FORMAT_ALONE), 0x80, 4),
    ], ids=[".gz", ".bz2", ".xz", ".lzma"])
    def test_a_file_named_as_compressed_is_named(self, tmp_path, suffix, compress, byte,
                                                 column):
        # the suffix means nothing to the loader: compressed bytes are not
        # UTF-8 text, named by file and line, and text loads as text
        p = tmp_path / f"ipd.csv{suffix}"
        p.write_bytes(compress(PLAIN.encode()))
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"{p}:1: not UTF-8 text (byte {byte:#04x} at column {column})") + "$"):
            load_ipd(p)
        plain = load_ipd(write(tmp_path / "plain.csv", PLAIN))
        study = load_ipd(write(p, PLAIN))
        assert study.covariate_names == plain.covariate_names
        for got, want in ((study.y, plain.y), (study.z, plain.z), (study.x, plain.x)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype

    def test_the_path_is_opened_once_and_numpy_is_given_no_path(self, tmp_path, monkeypatch):
        # numpy's reader would decompress a path by its suffix or fetch one
        # that reads as a URL; it parses the bytes the loader read instead
        p = write(tmp_path / "ipd.csv", PLAIN)
        opened, listening = [], [True]

        def audit(event, args):
            if listening[0] and event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
                opened.append(os.path.realpath(args[0]))

        given = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            given.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        sys.addaudithook(audit)  # a hook stays for the process; it listens only here
        try:
            study = load_ipd(p)
        finally:
            listening[0] = False
        assert opened.count(os.path.realpath(p)) == 1
        assert len(given) == 1 and not isinstance(given[0], (str, bytes, os.PathLike))
        assert study.x.tobytes() == np.array([[0.2], [-0.1]]).tobytes()

    def test_a_pipe_is_named_before_it_is_opened(self, tmp_path):
        # the header read would take the pipe's first rows from numpy's reader;
        # with no writer, opening it blocks, so an alarm ends a loader that tries
        def opened(*args):
            raise AssertionError("the loader opened the pipe")

        p = tmp_path / "ipd.csv"
        os.mkfifo(p)
        previous = signal.signal(signal.SIGALRM, opened)
        signal.alarm(5)
        try:
            with pytest.raises(SchemaError, match="^" + re.escape(
                    f"{p}: not a regular file; a pipe or device is not read, "
                    "copy it to a file first") + "$"):
                load_ipd(p)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_a_path_that_reads_as_a_url_is_the_local_file(self, tmp_path, monkeypatch):
        # numpy's reader fetches a path that parses as scheme://host/...
        def refuse(*args, **kwargs):
            raise AssertionError("the loader reached for the network")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        local = tmp_path / "http:" / "example.invalid"
        local.mkdir(parents=True)
        write(local / "ipd.csv", PLAIN)
        monkeypatch.chdir(tmp_path)
        study = load_ipd("http://example.invalid/ipd.csv")
        plain = load_ipd(write(tmp_path / "plain.csv", PLAIN))
        assert study.x.tobytes() == plain.x.tobytes() and study.y.tobytes() == plain.y.tobytes()

    @pytest.mark.parametrize("head, ending, rows", [
        (b"", b"\r\n", 1), (b"\xef\xbb\xbf", b"\r\n", 1),
        (b"", b"\n", 5000),  # numpy's reader meets the byte in a later chunk
    ], ids=["crlf", "bom-crlf", "deep"])
    def test_a_non_utf8_byte_is_named_on_its_line(self, tmp_path, head, ending, rows):
        p = tmp_path / "ipd.csv"
        lines = [b"y,z,x1", *[b"1,1,0.2"] * rows, b"0,0,caf\xe9", b"1,0,0.4"]
        p.write_bytes(head + ending.join(lines) + ending)
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"{p}:{rows + 2}: not UTF-8 text (byte 0xe9 at column 8)") + "$"):
            load_ipd(p)


# files that hold byte 0xe9 (latin-1 for "é"), which is not UTF-8: a header
# name, a data cell, an AGD key and a scenario value
NOT_UTF8 = {
    "ipd_header": b"y,z,\xe9ge\n1,1,0.2\n0,0,-0.1\n",
    "ipd_row": b"y,z,x1\n1,1,0.2\n0,0,caf\xe9\n1,0,0.4\n",
    "agd": json.dumps({"covariates": ["caf\xe9"], "arms": {"active": {
        "n": 30, "y_mean": 0.5, "y_var": 0.25, "x_mean": [0.1]}}},
        indent=2, ensure_ascii=False).encode("latin-1"),
    "scenario": b'{\n  "p": 4,\n  "confounding": "mod\xe9rate"\n}\n',
}


def not_utf8_file(tmp_path, kind):
    """A file of NOT_UTF8[kind] and the line that holds its bad byte."""
    data = NOT_UTF8[kind]
    path = tmp_path / ("ipd.csv" if kind.startswith("ipd") else f"{kind}.json")
    path.write_bytes(data)
    return path, data[:data.index(b"\xe9")].count(b"\n") + 1


@contextlib.contextmanager
def piped(data: bytes):
    """The /dev/fd path of a pipe that holds `data` and has no writer left."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


REFUSED = "not a regular file; a pipe or device is not read, copy it to a file first"
LOADERS = {"ipd": load_ipd, "agd": load_agd, "scenario": ScenarioConfig.from_json_file}


class TestOnlyRegularFiles:
    """Every input is read through one reader that refuses anything but a
    regular file by name: the manifest digests each input by reading it
    again, which a pipe cannot give twice."""

    @pytest.mark.parametrize("kind", LOADERS)
    def test_a_device_is_refused_by_name(self, kind):
        with pytest.raises(SchemaError, match="^" + re.escape(f"/dev/null: {REFUSED}") + "$"):
            LOADERS[kind]("/dev/null")

    @pytest.mark.parametrize("kind, data", [
        ("ipd", PLAIN.encode()), ("agd", json.dumps(make_agd().to_dict()).encode()),
        ("scenario", b'{"p": 4}'),
    ], ids=list(LOADERS))
    def test_a_pipe_that_holds_a_valid_input_is_refused_by_name(self, kind, data):
        with piped(data) as path:
            with pytest.raises(SchemaError, match="^" + re.escape(f"{path}: {REFUSED}") + "$"):
                LOADERS[kind](path)

    def test_a_directory_is_refused_by_name(self, tmp_path):
        with pytest.raises(SchemaError, match="^" + re.escape(f"{tmp_path}: {REFUSED}") + "$"):
            load_agd(tmp_path)


class TestNotUtf8:
    @pytest.mark.parametrize("kind, load", [
        ("ipd_header", load_ipd), ("ipd_row", load_ipd), ("agd", load_agd),
        ("scenario", ScenarioConfig.from_json_file),
    ])
    def test_a_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path, kind, load):
        path, line = not_utf8_file(tmp_path, kind)
        with pytest.raises(SchemaError, match="^" + re.escape(f"{path}:{line}: not UTF-8 text")
                           + ".*0xe9"):
            load(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_invalid_json_is_named_on_its_line(tmp_path, ending):
    p = tmp_path / "agd.json"
    p.write_bytes(ending.join(["{", '  "covariates": ["x1"],', '  "arms": oops', "}"]).encode())
    with pytest.raises(SchemaError, match="^" + re.escape(
            f"{p}: invalid JSON (Expecting value: line 3 column 11")):
        load_agd(p)


# documents Python's JSON parser refuses with other than a JSONDecodeError:
# one nested past the recursion limit, and an integer literal past the
# 4,300-digit limit of int() on a string
UNREADABLE_JSON = {"nested": "[" * 200_000, "digits": '{"n": ' + "1" * 5000 + "}"}


@pytest.mark.parametrize("case", UNREADABLE_JSON)
@pytest.mark.parametrize("kind", ["agd", "scenario"])
def test_json_the_parser_cannot_read_is_named(tmp_path, kind, case):
    p = tmp_path / f"{kind}.json"
    p.write_text(UNREADABLE_JSON[case])
    with pytest.raises(SchemaError, match="^" + re.escape(f"{p}: invalid JSON (")):
        LOADERS[kind](p)


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
    cells and blank lines.  Returns the lines, the physical line number of
    each data row, the covariate names and the expected arrays."""
    p = draw(st.integers(0, 4))
    n = draw(st.integers(1, 12))
    names = draw(st.permutations(["y", "z", *(f"x{j}" for j in range(p))]))
    covariates = tuple(c for c in names if c not in ("y", "z"))
    rows = [{"y": draw(FINITE), "z": 1 if i == 0 else draw(st.sampled_from([0, 1])),
             **{c: draw(FINITE) for c in covariates}} for i in range(n)]
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
        np.array([[r[c] for c in covariates] for r in rows]).reshape(n, p),
    )
    return lines, row_lines, covariates, expected


class TestLoadIpdProperties:
    @settings(max_examples=100, deadline=None)
    @given(table=ipd_tables())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, table):
        lines, _, covariates, (y, z, x) = table
        p = write(tmp_path_factory.mktemp("ipd") / "ipd.csv", "\n".join(lines) + "\n")
        study = load_ipd(p)
        assert study.covariate_names == covariates
        np.testing.assert_array_equal(study.y.view(np.uint64), y.view(np.uint64))
        np.testing.assert_array_equal(study.z, z)
        np.testing.assert_array_equal(study.x.view(np.uint64), x.view(np.uint64))
        for arr in (study.y, study.z, study.x):
            assert arr.flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(table=ipd_tables(), data=st.data())
    def test_one_bad_cell_raises_named_error_on_its_line(self, tmp_path_factory, table, data):
        # a bad cell in one column, or one cell more than the header has names
        lines, row_lines, covariates, _ = table
        error = data.draw(st.sampled_from(
            sorted([*BAD_CELLS, SchemaError], key=lambda e: e.__name__)))
        line = data.draw(st.sampled_from(row_lines))
        header = [h.strip() for h in lines[0].split(",")]
        cells = lines[line - 1].split(",")
        if error is SchemaError:
            cells.append(data.draw(PAD) + data.draw(st.sampled_from(["", "0.3", "abc"])))
        else:
            col = "z" if error is InvalidArmCode else data.draw(
                st.sampled_from(["y", "z", *covariates]))
            cells[header.index(col)] = data.draw(PAD) + data.draw(
                st.sampled_from(BAD_CELLS[error]))
        lines = [*lines[:line - 1], ",".join(cells), *lines[line:]]
        p = write(tmp_path_factory.mktemp("ipd") / "ipd.csv", "\n".join(lines) + "\n")
        with pytest.raises(error) as info:
            load_ipd(p)
        assert str(info.value).startswith(f"{p}:{line}: ")
        if error is NonNumericValue:
            assert repr(col) in str(info.value)
        if error is SchemaError:
            assert f"{len(header) + 1} cells under {len(header)} header names" in str(info.value)


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

    def test_rejects_covariates_that_are_not_two_dimensional(self):
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            IpdStudy(np.ones(2), np.array([1, 0]), np.zeros(2), ("x1",))

    def test_rejects_a_study_without_rows(self):
        with pytest.raises(EmptyStudy, match="no data rows"):
            IpdStudy(np.ones(0), np.zeros(0, int), np.zeros((0, 1)), ("x1",))

    def test_rejects_covariate_columns_unequal_to_the_names(self):
        with pytest.raises(DimensionMismatch, match="2 covariate columns vs 1 covariate names"):
            IpdStudy(np.ones(2), np.array([1, 0]), np.zeros((2, 2)), ("x1",))

    def test_a_block_rejects_studies_whose_arm_sizes_differ(self):
        x = [[0.1], [0.2], [0.3]]
        a = make_ipd([1.0, 0.0, 1.0], [1, 0, 1], x)
        b = make_ipd([1.0, 0.0, 1.0], [1, 0, 0], x)
        with pytest.raises(ValueError, match="same arm sizes"):
            stack_ipd([a, b])

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
        with pytest.raises(SchemaError, match=re.escape(f"{p}: AGD arm field 'y_mean'")
                           + ".*expected a finite number"):
            load_agd(p)

    @pytest.mark.parametrize("key, text, why", [
        ("n", '"n": NaN', "expected an integer"),
        ("n", '"n": 1e400', "expected an integer"),
        ("y_var", '"y_var": Infinity', "expected a finite number"),
        ("x_mean", '"x_mean": [0.1, -Infinity]', "expected a finite number"),
        ("x_var", '"x_var": [1.0, 1e400]', "expected a finite number"),
    ], ids=["n-NaN", "n-1e400", "y_var-Infinity", "x_mean--Infinity", "x_var-1e400"])
    def test_a_non_finite_literal_is_named_by_its_field(self, tmp_path, key, text, why):
        fields = {"n": '"n": 90', "y_mean": '"y_mean": 0.4', "y_var": '"y_var": 0.24',
                  "x_mean": '"x_mean": [0.1, 0.2]', "x_var": '"x_var": [1.0, 1.0]', key: text}
        p = write(tmp_path / "agd.json", '{"covariates": ["x1", "x2"], "arms": {"active": {'
                  + ", ".join(fields.values()) + "}}}")
        with pytest.raises(SchemaError, match=re.escape(f"{p}: AGD arm field {key!r}")
                           + ".*" + why):
            load_agd(p)

    @pytest.mark.parametrize("covariates", ["x", "x1", [1.5], 5, None, ["x1", None]],
                             ids=["x", "x1", "[1.5]", "5", "null", "[x1,null]"])
    def test_covariates_that_are_not_a_list_of_names_are_named(self, tmp_path, covariates):
        # a string must not load as the names of its characters
        arm = {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1]}
        p = write(tmp_path / "agd.json",
                  json.dumps({"covariates": covariates, "arms": {"active": arm}}))
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}: AGD document field 'covariates' is malformed: expected a list of names")):
            load_agd(p)

    @pytest.mark.parametrize("arms, error, why", [
        pytest.param({"active": {"n": 0}}, SchemaError, "arm sample size must be positive",
                     id="n=0"),
        pytest.param({"comparator": {"n": 10**400}}, SchemaError,
                     "arm sample size n exceeds 2**53", id="n=10**400"),
        pytest.param({"active": {"n": 2**53 + 1}}, SchemaError,
                     "arm sample size n exceeds 2**53", id="n=2**53+1"),
        pytest.param({"active": {"x_var": [1.0, 1.0]}}, DimensionMismatch,
                     "x_var length differs from x_mean", id="x_var-length"),
        pytest.param({"active": {"n": 1, "y_var": None}}, SchemaError,
                     "n >= 2 required when x_var is supplied", id="x_var-n=1"),
        pytest.param({"comparator": {"x_mean": [0.1, 0.2], "x_var": [1.0, 1.0]}},
                     DimensionMismatch, "comparator arm has 2 covariate means, expected 1",
                     id="comparator-p"),
    ])
    def test_arm_checks_name_the_file(self, tmp_path, arms, error, why):
        arm = {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1], "x_var": [1.0]}
        doc = {"covariates": ["x1"], "arms": {name: {**arm, **fields}
                                              for name, fields in arms.items()}}
        doc["arms"].setdefault("active", arm)
        p = write(tmp_path / "agd.json", json.dumps(doc))
        with pytest.raises(error, match=re.escape(f"{p}: {why}")):
            load_agd(p)

    @pytest.mark.parametrize("key, value", [
        ("y_mean", "nan"), ("y_var", "nan"), ("x_mean", ["nan", 0.0]), ("x_var", ["inf", 1.0]),
        ("y_var", "-Infinity"),
    ])
    def test_a_non_finite_numeric_string_is_named(self, tmp_path, key, value):
        arm = {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1, 0.2], "x_var": [1.0, 1.0],
               key: value}
        p = write(tmp_path / "agd.json",
                  json.dumps({"covariates": ["x1", "x2"], "arms": {"active": arm}}))
        with pytest.raises(SchemaError, match=re.escape(f"{p}: AGD arm field {key!r}")
                           + ".*expected a finite number"):
            load_agd(p)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        doc = {"covariates": ["x1"],
               "arms": {"active": {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1]}}}
        p = tmp_path / "agd.json"
        p.write_text(json.dumps(doc), encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_agd(p).to_dict() == doc

    @pytest.mark.parametrize("where, key", [
        ((), "covariate_names"), (("arms",), "comparater"), (("arms", "active"), "y_sd"),
    ])
    def test_an_unknown_key_is_named(self, tmp_path, where, key):
        # a misspelt comparator arm must not drop the arm silently
        arm = {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1]}
        doc = {"covariates": ["x1"], "arms": {"active": arm}}
        parent = doc
        for k in where:
            parent = parent[k]
        parent[key] = dict(arm)
        p = write(tmp_path / "agd.json", json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(f"{p}: unknown AGD ") + ".*"
                           + re.escape(f"key {key!r}")):
            load_agd(p)

    def test_null_optional_fields_are_allowed(self):
        arm = {"n": 90, "y_mean": 0.4, "y_var": None, "x_mean": [0.1], "x_var": None}
        study = AgdStudy.from_dict({"covariates": ["x1"],
                                    "arms": {"active": arm, "comparator": None}})
        assert study.comparator_arm is None
        assert study.active_arm.y_var is None and study.active_arm.x_var is None

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

    @pytest.mark.parametrize("key, value", [
        ("n", "1_0"), ("n", "\u0661\u0660"), ("n", "9e1"),
        ("y_mean", "0.4_0"), ("y_mean", "\u0660.4"), ("y_var", "0.2\u0665"),
        ("x_mean", ["\u0661"]), ("x_var", ["1_0"]),
    ])
    def test_a_numeric_string_the_ipd_reader_refuses_is_named(self, key, value):
        # float() and int() read digit separators and non-ASCII digits; the
        # AGD fields accept the strings load_ipd accepts and no others
        d = {"n": 90, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1], "x_var": [1.0], key: value}
        with pytest.raises(SchemaError, match=f"'{key}'.*expected an? (integer|number), got"):
            AgdArm.from_dict(d)

    @pytest.mark.parametrize("n", [90, 90.0, "90", " +90 "])
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


# arm fields that AgdArm refuses, each with the error class it raises
REFUSED_ARMS = {
    "n < 1": (dict(n=0), SchemaError),
    "n > 2**53": (dict(n=2**53 + 1), SchemaError),
    "negative y_var": (dict(y_var=-0.5), NegativeVariance),
    "negative x_var": (dict(x_var=[1.0, -0.1]), NegativeVariance),
    "y_var with n < 2": (dict(n=1, x_var=None), SchemaError),
    "x_var with n < 2": (dict(n=1, y_var=None), SchemaError),
}


class TestAgdBlock:
    @staticmethod
    def arm_fields(**change) -> dict:
        return {"n": 40, "y_mean": 0.4, "y_var": 0.24, "x_mean": [0.1, -0.2],
                "x_var": [1.0, 0.5], **change}

    @pytest.mark.parametrize("arm", ["active", "comparator"])
    @pytest.mark.parametrize("case", list(REFUSED_ARMS))
    def test_refuses_what_an_agd_arm_refuses(self, case, arm):
        change, error = REFUSED_ARMS[case]
        fields = self.arm_fields(**change)
        with pytest.raises(error):
            AgdArm(**{k: np.asarray(v, float) if k.startswith("x_") and v is not None else v
                      for k, v in fields.items()})
        # a block holds what it is given, so the AGD document is checked
        # where it enters, on either arm
        arms = {"active": self.arm_fields(), "comparator": self.arm_fields(), arm: fields}
        with pytest.raises(error):
            AgdStudy.from_dict({"covariates": ["x1", "x2"], "arms": arms})

    def test_a_study_without_a_comparator_has_n_zero_there(self):
        one = make_agd(active=make_arm(n=30, x_mean=[0.5], x_var=[1.0]))
        two = make_agd(active=make_arm(n=30, x_mean=[0.5], x_var=[1.0]),
                       comparator=make_arm(n=20, y_var=None, x_mean=[0.1]))
        block = stack_agd([one, two])
        assert block.n.tolist() == [[30, 0], [30, 20]]
        assert block.has_comparator.tolist() == [False, True]
        assert block.n_total.tolist() == [30, 50]
        assert np.isnan(block.y_var[1, 1]) and np.isnan(block.x_var[1, 1]).all()
        for b, study in enumerate((one, two)):
            assert pickle.dumps(block.study(b)) == pickle.dumps(study)
            assert pickle.dumps(block.take([b]).study(0)) == pickle.dumps(study)

    def test_pooled_moments_equal_each_study_alone(self, rng):
        def arm(n):
            return make_arm(n=n, x_mean=rng.normal(size=3), x_var=rng.uniform(0.5, 2, 3))

        studies = [make_agd(active=arm(int(rng.integers(2, 90))),
                            comparator=arm(int(rng.integers(2, 90))) if c else None,
                            names=("a", "b", "c"))
                   for c in (True, False, True, False)]
        for spec in MomentSpec:
            block = pooled_moments(stack_agd(studies), spec)
            for row, study in zip(block, studies):
                assert row.tobytes() == pooled_target_moments(study, spec).tobytes()


@st.composite
def row_stacks(draw):
    """A (B, n, k) float array, k = 1 included, of mixed magnitudes."""
    shape = tuple(draw(st.integers(lo, hi)) for lo, hi in ((1, 9), (2, 60), (1, 7)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)


class TestRowReductions:
    @settings(max_examples=300, deadline=None)
    @given(a=row_stacks())
    def test_equal_numpys_own_bit_for_bit(self, a):
        assert mean_rows(a).tobytes() == a.mean(axis=1).tobytes()
        assert var_rows(a, mean_rows(a)).tobytes() == a.var(axis=1, ddof=1).tobytes()
        low, high = reduce_rows(a, np.minimum, np.maximum)
        assert (low.tobytes(), high.tobytes()) == (a.min(axis=1).tobytes(),
                                                   a.max(axis=1).tobytes())
