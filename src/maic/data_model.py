"""Containers and file ingestion for patient-level and aggregate study data,
and the CSV writer for result tables.

An indirect comparison pairs one study with individual patient data (IPD:
per-patient outcome, arm code, covariates) with one study reported only as
aggregate summaries (AGD: per-arm counts, outcome mean/variance, covariate
means and optionally variances).  All containers are immutable after
construction and validated eagerly; covariates are aligned by declared name.
"""

from __future__ import annotations

import codecs
import csv
import enum
import io
import json
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
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


class OutcomeKind(enum.Enum):
    BINARY = "binary"
    CONTINUOUS = "continuous"


class MomentSpec(enum.Enum):
    """Which covariate moments the weights must balance.

    FIRST balances centered first moments; FIRST_AND_SECOND additionally
    balances the squares of each covariate (no cross-products).
    """

    FIRST = "first"
    FIRST_AND_SECOND = "first+second"


@dataclass(frozen=True)
class IpdStudy:
    """Patient-level study.  Arm codes are 0 (common comparator, optional)
    and 1 (active treatment).  Row order is preserved from the source."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    covariate_names: tuple[str, ...]
    outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        z = np.asarray(self.z)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatch("covariate matrix must be 2-dimensional")
        if len(y) == 0:
            raise EmptyStudy("IPD study has no data rows")
        if not (len(y) == len(z) == x.shape[0]):
            raise DimensionMismatch("y, z, x must have equal length")
        if x.shape[1] != len(self.covariate_names):
            raise DimensionMismatch(
                f"{x.shape[1]} covariate columns vs "
                f"{len(self.covariate_names)} covariate names"
            )
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise NonNumericValue("outcomes and covariates must be finite")
        bad = (z != 0) & (z != 1)
        if bad.any():
            raise InvalidArmCode(f"arm codes must be 0 or 1, got {np.unique(z[bad]).tolist()}")
        z = z.astype(int, copy=False)
        if self.outcome_kind is OutcomeKind.BINARY and not ((y == 0) | (y == 1)).all():
            raise NonNumericValue("binary outcome must be coded 0/1")
        if not np.any(z == 1):
            raise EmptyStudy("IPD study has no active-arm (z=1) records")
        for arr in (y, z, x):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class AgdArm:
    """Published summaries for one arm of the aggregate-data study."""

    n: int
    y_mean: float
    y_var: float | None
    x_mean: np.ndarray
    x_var: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise SchemaError("arm sample size must be positive")
        if self.n > 2**53:  # every stage converts n to a float, exact only up to 2**53
            raise SchemaError("arm sample size n exceeds 2**53, beyond exact float conversion")
        if self.y_var is not None:
            if self.y_var < 0:
                raise NegativeVariance(f"y_var = {self.y_var} < 0")
            if self.n < 2:
                raise SchemaError("n >= 2 required when y_var is supplied")
        x_mean = _flat("x_mean", self.x_mean)
        x_mean.setflags(write=False)
        object.__setattr__(self, "x_mean", x_mean)
        if self.x_var is not None:
            x_var = _flat("x_var", self.x_var)
            if len(x_var) != len(x_mean):
                raise DimensionMismatch("x_var length differs from x_mean")
            if np.any(x_var < 0):
                raise NegativeVariance("x_var has a negative entry")
            if self.n < 2:
                raise SchemaError("n >= 2 required when x_var is supplied")
            x_var.setflags(write=False)
            object.__setattr__(self, "x_var", x_var)

    @property
    def p(self) -> int:
        return len(self.x_mean)

    def to_dict(self) -> dict:
        d = {"n": self.n, "y_mean": self.y_mean, "x_mean": self.x_mean.tolist()}
        if self.y_var is not None:
            d["y_var"] = self.y_var
        if self.x_var is not None:
            d["x_var"] = self.x_var.tolist()
        return d

    @classmethod
    def from_dict(cls, d) -> "AgdArm":
        """The arm of a JSON object; a missing field, or one that does not
        convert to its type, is a SchemaError naming its key."""
        return cls(**{"y_var": None, **read_object("AGD arm", d, {
            "n": json_int, "y_mean": json_float, "y_var": _nullable(json_float),
            "x_mean": _json_vector, "x_var": _nullable(_json_vector),
        }, ("n", "y_mean", "x_mean"))})


def _flat(key: str, values) -> np.ndarray:
    """A covariate vector as a 1-D float array; SchemaError naming `key`
    for any other shape."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise SchemaError(f"AGD arm field {key!r} must be a flat list of numbers")
    return v


@dataclass(frozen=True)
class AgdStudy:
    """Aggregate-data study: the active arm (z=2) and, when reported, the
    common comparator arm (z=0)."""

    active_arm: AgdArm
    comparator_arm: AgdArm | None
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        p = len(self.covariate_names)
        for name, arm in zip(("active", "comparator"), self.arms):
            if arm.p != p:
                raise DimensionMismatch(f"{name} arm has {arm.p} covariate means, expected {p}")

    @property
    def arms(self) -> list[AgdArm]:
        out = [self.active_arm]
        if self.comparator_arm is not None:
            out.append(self.comparator_arm)
        return out

    def check_alignment(self, ipd: IpdStudy) -> None:
        """Covariate names (and order) must match the paired IPD study, and
        for a binary outcome every arm's y_mean must lie in [0, 1]."""
        if tuple(self.covariate_names) != tuple(ipd.covariate_names):
            raise DimensionMismatch(
                "IPD/AGD covariate names differ: "
                f"{list(ipd.covariate_names)} vs {list(self.covariate_names)}"
            )
        if ipd.outcome_kind is OutcomeKind.BINARY:
            for name, arm in (("active", self.active_arm), ("comparator", self.comparator_arm)):
                if arm is not None and not 0.0 <= arm.y_mean <= 1.0:
                    raise SchemaError(
                        f"{name} arm y_mean {arm.y_mean} of a binary outcome is outside [0, 1]"
                    )

    def to_dict(self) -> dict:
        arms = {"active": self.active_arm.to_dict()}
        if self.comparator_arm is not None:
            arms["comparator"] = self.comparator_arm.to_dict()
        return {"covariates": list(self.covariate_names), "arms": arms}

    @classmethod
    def from_dict(cls, d) -> "AgdStudy":
        def arms(value):
            return read_object("AGD arms", value, {
                "active": AgdArm.from_dict, "comparator": _nullable(AgdArm.from_dict)}, ("active",))

        doc = read_object("AGD document", d, {"covariates": _json_names, "arms": arms},
                          ("covariates", "arms"))
        return cls(doc["arms"]["active"], doc["arms"].get("comparator"), doc["covariates"])


@dataclass(frozen=True)
class TrialRecords:
    """Raw per-patient records of the aggregate-data trial (arm codes 0/2).
    Only available in simulation; used by the full-influence benchmark.  The
    records of a block of studies stack along a leading axis."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=int))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))

    def take(self, rows) -> "TrialRecords":
        """The records of the ascending block rows `rows` of records stacked
        over a block, (B, m) and (B, m, p); themselves when all are taken."""
        if len(rows) == len(self.y):
            return self
        return TrialRecords(self.y[rows], self.z[rows], self.x[rows])


class IpdBlock:
    """B IPD studies of one shape and one outcome kind, stacked: outcomes
    y (B, n), arm codes z (B, n) and covariates x (B, n, p).  Every study
    has the same arm sizes, so the rows of arm `code` are arms[code], flat
    indices into the B * n rows, (B, m) in row order; they are found once,
    when the block is made, and every stage gathers arm rows through them."""

    def __init__(self, y: np.ndarray, z: np.ndarray, x: np.ndarray,
                 outcome_kind: OutcomeKind, arms: dict | None = None):
        self.y, self.z, self.x, self.outcome_kind = y, z, x, outcome_kind
        if arms is None:
            arms = {}
            for code in (0, 1):
                mask = z == code
                sizes = np.count_nonzero(mask, axis=1)
                if (sizes != sizes[0]).any():
                    raise ValueError("the studies of a block must have the same arm sizes")
                if sizes[0]:
                    arms[code] = np.flatnonzero(mask).reshape(len(z), sizes[0])
        self.arms = arms

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n(self) -> int:
        return self.y.shape[1]

    def take(self, rows) -> "IpdBlock":
        """The studies at the ascending block rows `rows` as a block of
        their own; the block itself when all are taken."""
        if len(rows) == len(self):
            return self
        rows = np.asarray(rows, dtype=int)
        shift = ((rows - np.arange(len(rows))) * self.n)[:, None]
        return IpdBlock(self.y[rows], self.z[rows], self.x[rows], self.outcome_kind,
                        {code: idx[rows] - shift for code, idx in self.arms.items()})

    def arm_rows(self, values: np.ndarray, code: int) -> np.ndarray:
        """The rows of arm `code` of each study, (B, m, ...), from values
        (B, n, ...) laid out like y."""
        return values.reshape((-1,) + values.shape[2:])[self.arms[code]]

    def arm_mask(self, code: int) -> np.ndarray:
        """1.0 on the rows of arm `code` and 0.0 elsewhere, (B, n)."""
        mask = np.zeros(self.y.shape)
        np.put(mask, self.arms[code], 1.0)
        return mask


def stack_ipd(ipds) -> IpdBlock:
    """The block of a list of IPD studies of one shape and one outcome kind
    whose arms have the same sizes."""
    if len(ipds) == 1:
        ipd = ipds[0]
        return IpdBlock(ipd.y[None], ipd.z[None], ipd.x[None], ipd.outcome_kind)
    return IpdBlock(np.stack([ipd.y for ipd in ipds]), np.stack([ipd.z for ipd in ipds]),
                    np.stack([ipd.x for ipd in ipds]), ipds[0].outcome_kind)


def take_rows(values: np.ndarray, rows) -> np.ndarray:
    """values[rows] for ascending block rows; no copy when all are taken."""
    return values if len(rows) == len(values) else values[rows]


def reduce_rows(a: np.ndarray, *ufuncs) -> list:
    """ufunc.reduce(a, axis=1) for each ufunc, of a (B, n, k) array, bit for
    bit.  NumPy reduces that middle axis row by row in inner loops only k
    long; an (n, B, k) copy reduced over its first axis takes the same terms
    in the same order, in inner loops B * k long.  With k = 1 NumPy drops
    the unit axis and sums each row pairwise instead, so that case keeps
    NumPy's own path."""
    if a.shape[2] > 1:
        a, axis = np.ascontiguousarray(a.transpose(1, 0, 2)), 0
    else:
        axis = 1
    return [f.reduce(a, axis=axis) for f in ufuncs]


def squares(values: np.ndarray) -> np.ndarray:
    """v ** 2 of each element through Python's float pow, as a lone float
    squares: C pow rounds some squares differently from v * v, which is
    what NumPy's array ** 2 computes."""
    return np.array([v ** 2 for v in values.ravel().tolist()]).reshape(values.shape)


def mean_rows(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=1) of a (B, n, k) array, bit for bit (reduce_rows)."""
    return reduce_rows(a, np.add)[0] / a.shape[1]


def var_rows(a: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """a.var(axis=1, ddof=1) of a (B, n, k) array whose mean_rows is mean, bit
    for bit: NumPy's steps, the squared deviations from mean summed by
    reduce_rows."""
    d = a - mean[:, None, :]
    return reduce_rows(np.multiply(d, d, out=d), np.add)[0] / (a.shape[1] - 1)


# the AGD arm fields, in the order of an AgdBlock's arm axis
AGD_ARMS = ("active_arm", "comparator_arm")


class AgdBlock:
    """B aggregate-data studies of one covariate list, stacked by arm: arm 0
    is the active arm (z=2) and arm 1 the common comparator (z=0).  n,
    y_mean and y_var are (B, 2) and x_mean and x_var (B, 2, p).  A study
    that reports no comparator has n = 0 and a NaN y_mean there; an outcome
    variance an arm does not report is NaN, and so is a covariate variance
    row it does not report (one holding a NaN).  The block checks nothing:
    AgdArm checks the summaries that come from outside (stack_agd), and a
    simulated replicate's summaries are valid as drawn (replicate_block)."""

    def __init__(self, n, y_mean, y_var, x_mean, x_var, covariate_names):
        self.n, self.y_mean, self.y_var, self.x_mean, self.x_var = n, y_mean, y_var, x_mean, x_var
        self.covariate_names = tuple(covariate_names)

    def __len__(self) -> int:
        return len(self.n)

    @property
    def has_comparator(self) -> np.ndarray:
        return self.n[:, 1] > 0

    @property
    def n_total(self) -> np.ndarray:
        return self.n.sum(axis=1)

    def take(self, rows) -> "AgdBlock":
        """The studies at the ascending block rows `rows` as a block of
        their own; the block itself when all are taken."""
        if len(rows) == len(self):
            return self
        return AgdBlock(self.n[rows], self.y_mean[rows], self.y_var[rows], self.x_mean[rows],
                        self.x_var[rows], self.covariate_names)

    def study(self, b: int) -> AgdStudy:
        """Study b as an AgdStudy."""
        arms = [AgdArm(int(self.n[b, j]), float(self.y_mean[b, j]),
                       None if np.isnan(self.y_var[b, j]) else float(self.y_var[b, j]),
                       self.x_mean[b, j],
                       None if np.isnan(self.x_var[b, j]).any() else self.x_var[b, j])
                for j in range(1 + bool(self.has_comparator[b]))]
        return AgdStudy(arms[0], arms[1] if len(arms) > 1 else None, self.covariate_names)


def stack_agd(agds) -> AgdBlock:
    """The block of a list of AGD studies of one covariate list."""
    nan = np.full(len(agds[0].covariate_names), np.nan)

    def values(arm) -> tuple:  # an absent comparator has n = 0 and NaN values
        if arm is None:
            return 0, np.nan, np.nan, nan, nan
        return (arm.n, arm.y_mean, np.nan if arm.y_var is None else arm.y_var, arm.x_mean,
                nan if arm.x_var is None else arm.x_var)

    n, y_mean, y_var, x_mean, x_var = zip(*(values(arm) for agd in agds
                                            for arm in (agd.active_arm, agd.comparator_arm)))
    shape = (len(agds), 2, len(nan))
    return AgdBlock(
        np.array(n, dtype=np.int64).reshape(shape[:2]),
        *(np.array(v, dtype=float).reshape(shape[:2]) for v in (y_mean, y_var)),
        *(np.array(v, dtype=float).reshape(shape) for v in (x_mean, x_var)),
        agds[0].covariate_names)


# a decimal or scientific number in ASCII digits, or nan/inf; the columnar
# parse rejects every other cell, and json_float every other string,
# including digit separators and non-ASCII digits that float() would accept
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|nan|inf(?:inity)?)",
    re.ASCII | re.IGNORECASE,
)


def read_input(path) -> bytes:
    """The bytes of the input file at `path`, read once.  Anything but a
    regular file is a SchemaError, named before it is opened: the manifest
    digests each input by reading it again, which a pipe cannot give twice
    and a device need not give the same.  The bytes must be UTF-8 text after
    an optional byte-order mark (as spreadsheets write); the first byte that
    is not is a SchemaError naming its line and column."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise SchemaError(f"{path}: not a regular file; a pipe or device is not read, "
                          "copy it to a file first")
    with open(path, "rb") as fh:
        data = fh.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        str(memoryview(data)[bom:], "utf-8")
    except UnicodeDecodeError as e:
        at = bom + e.start
        line, column = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        raise SchemaError(f"{path}:{line}: not UTF-8 text (byte {data[at]:#04x} "
                          f"at column {column})") from None
    return data


def _text(data: bytes, newline=None) -> io.TextIOWrapper:
    """A text stream over an input's bytes (read_input), a byte-order mark
    dropped; with newline=None, as open() gives, lines that end in CR or
    CRLF read as ending in LF."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=newline)


def load_ipd(path, outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS) -> IpdStudy:
    """Load an IPD study from a headered CSV file with the outcome in
    column `y`, the arm code in column `z` and a covariate in every other
    column, in file order; each row has one cell per header name.
    The file is read once (read_input).  csv.reader reads the header from
    its bytes in memory; numpy's reader then parses the rows from the same
    bytes, skipping the lines the header took, and is never given a path,
    which it would decompress by its suffix or fetch as a URL.
    The cells IpdStudy rejects (non-finite values, arm codes other than 0/1
    and, for a binary outcome, outcomes not coded 0/1), missing or
    non-numeric cells are named by file, line and column, and rows with more
    cells than the header has names, or a field longer than csv reads
    (_csv_rows), by file and line.
    """
    data = read_input(path)
    line, header = next(_csv_rows(path, data), (0, None))
    if header is None:
        raise EmptyStudy(f"{path}: empty file")
    index = {}
    for i, name in enumerate(name.strip() for name in header):
        if name in index:
            raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
        index[name] = i
    for col in ("y", "z"):
        if col not in index:
            raise MissingColumn(f"{path}: column {col!r} not found")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(_text(data), delimiter=",", ndmin=2, comments=None,
                              quotechar='"', skiprows=line)
    except ValueError as e:
        _raise_first_bad_cell(path, data, list(index), outcome_kind, str(e))
    if len(rows) == 0:
        raise EmptyStudy(f"{path}: IPD study has no data rows")
    if rows.shape[1] != len(index):
        _raise_first_bad_cell(path, data, list(index), outcome_kind,
                              f"{rows.shape[1]} columns under {len(index)} header names")
    covariates = [c for c in index if c not in ("y", "z")]
    try:
        # contiguous copies (take copies in C order): a strided view would change
        # reduction order downstream
        return IpdStudy(np.ascontiguousarray(rows[:, index["y"]]), rows[:, index["z"]],
                        rows.take([index[c] for c in covariates], axis=1),
                        tuple(covariates), outcome_kind)
    except (NonNumericValue, InvalidArmCode) as e:
        _raise_first_bad_cell(path, data, list(index), outcome_kind, str(e))
    except EmptyStudy as e:
        raise EmptyStudy(f"{path}: {e}") from None


def _csv_rows(path, data):
    """(line, row) for each row csv.reader reads from an input's bytes
    (read_input), line the physical line it ends on.  A row csv refuses (a
    field longer than its size limit) is a SchemaError naming the file and
    line."""
    reader = csv.reader(_text(data, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise SchemaError(f"{path}:{reader.line_num}: unreadable CSV ({e})") from None


def _raise_first_bad_cell(path, data, names, outcome_kind, message):
    """Read the file's bytes `data` row by row and raise the error for its
    first bad row or cell, on its physical line; the checks reject
    everything the columnar parse, its column count and IpdStudy reject."""
    binary = outcome_kind is OutcomeKind.BINARY
    rows = _csv_rows(path, data)
    next(rows)
    for line, row in rows:
        if not row:
            continue
        where = f"{path}:{line}"
        if len(row) > len(names):
            raise SchemaError(f"{where}: {len(row)} cells under {len(names)} header names")
        for i, col in enumerate(names):
            raw = row[i].strip() if i < len(row) else ""
            if raw == "":
                raise NonNumericValue(f"{where}: missing value in {col!r}")
            if not _NUMBER.fullmatch(raw):
                raise NonNumericValue(f"{where}: non-numeric value {raw!r} in {col!r}")
            value = float(raw)
            if not math.isfinite(value):
                raise NonNumericValue(f"{where}: non-finite value {raw!r} in {col!r}")
            if col == "z" and value not in (0.0, 1.0):
                raise InvalidArmCode(f"{where}: arm code {value} not in {{0, 1}}")
            if col == "y" and binary and value not in (0.0, 1.0):
                raise NonNumericValue(f"{where}: binary outcome {raw!r} not coded 0/1 in {col!r}")
    raise NonNumericValue(f"{path}: {message}")


def load_agd(path) -> AgdStudy:
    """Load an AGD study from its JSON document."""
    study = load_json_object(path, AgdStudy.from_dict)
    for arm in study.arms:
        if arm.y_var is None:
            warnings.warn(
                f"{path}: arm without y_var; binary-outcome fallback "
                "ybar(1-ybar)*n/(n-1) will be used where a variance is needed",
                stacklevel=2,
            )
    return study


def read_object(what: str, d, fields: dict, required=()) -> dict:
    """The present keys of the JSON object `d`, each converted by its
    converter in `fields`, in field order.  A value that is not an object,
    an unknown key, a missing `required` key or a value its converter
    rejects with a TypeError, ValueError or OverflowError is a SchemaError
    naming `what` and the key."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object, not {type(d).__name__}")
    for key in d:
        if key not in fields:
            raise SchemaError(f"unknown {what} key {key!r}")
    values = {}
    for key, convert in fields.items():
        if key not in d:
            if key in required:
                raise SchemaError(f"{what} missing field {key!r}")
            continue
        try:
            values[key] = convert(d[key])
        except (TypeError, ValueError, OverflowError) as e:
            raise SchemaError(f"{what} field {key!r} is malformed: {e}") from None
    return values


def _nullable(convert):
    """The converter `convert` that also reads a JSON null, as None."""
    return lambda value: None if value is None else convert(value)


def _json_names(value) -> tuple[str, ...]:
    """A JSON list of strings as a tuple of names."""
    if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
        raise TypeError(f"expected a list of names, got {value!r}")
    return tuple(value)


def _json_vector(value) -> list[float]:
    """A JSON list of numbers as a list of finite floats."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
    return [json_float(e) for e in value]


def json_int(value) -> int:
    """A JSON value as an int: an int, an integral float or a string of
    ASCII digits with an optional sign, spaces around it aside.  A boolean
    is a TypeError, and a non-integral number or any other string a
    ValueError, so no value is truncated and no digit separator or
    non-ASCII digit is read."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if (isinstance(value, float) and not value.is_integer()
            or isinstance(value, str) and not re.fullmatch(r"[+-]?[0-9]+", value.strip())):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_float(value) -> float:
    """A JSON value as a finite float: a number or a string that load_ipd
    would read as a number (_NUMBER).  A boolean is a TypeError, so true and
    false never load as 1.0 and 0.0, and any other string or a non-finite
    value such as "nan" or "inf" a ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, str) and not _NUMBER.fullmatch(value.strip()):
        raise ValueError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def load_json_object(path, read):
    """read(doc) for the JSON object `doc` a file holds (read_input).
    JSON the parser cannot read or another top-level value is a SchemaError
    naming the file, and any MaicError `read` raises is raised again with
    the file prefixed.  Beyond invalid JSON, the parser refuses an integer
    literal past int()'s digit limit (a ValueError) and nesting past the
    recursion limit."""
    data = read_input(path)  # outside the try: a path with a NUL byte is a ValueError
    try:
        doc = json.load(_text(data))
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    try:
        return read(doc)
    except MaicError as e:
        raise type(e)(f"{path}: {e}") from None


def write_rows(path, rows, fieldnames) -> None:
    """Write dict rows as a CSV table with a header of `fieldnames`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def pooled_target_moments(agd: AgdStudy, spec: MomentSpec) -> np.ndarray:
    """Target moment vector for the weight solver, pooled across AGD arms.

    First moments are the n-weighted pool of arm covariate means.  Second
    moments (squares) are pooled per arm as mean^2 + var*(n-1)/n, converting
    the reported sample variance to the population second moment, then
    n-weighted across arms.
    """
    return pooled_moments(stack_agd([agd]), spec)[0]


def pooled_moments(agd: AgdBlock, spec: MomentSpec) -> np.ndarray:
    """pooled_target_moments of each study of a block, (B, k).  A study
    with one arm takes that arm's terms alone; with two, the arms' terms
    are added in arm order."""
    two = agd.has_comparator[:, None]
    n = agd.n.astype(float)
    w = (n / n.sum(axis=1, keepdims=True))[:, :, None]

    def pool(terms):  # (B, 2, p) -> (B, p)
        terms = w * terms
        return np.where(two, terms[:, 0] + terms[:, 1], terms[:, 0])

    first = pool(agd.x_mean)
    if spec is MomentSpec.FIRST:
        return first
    unreported = np.isnan(agd.x_var).any(axis=2) & (agd.n > 0)
    if unreported.any():
        name = ("active", "comparator")[int(np.argmax(unreported[unreported.any(axis=1)][0]))]
        raise MissingVariance("first+second moment matching requires x_var on every AGD "
                              f"arm; the {name} arm has none")
    m = agd.n[:, :, None]
    return np.concatenate([first, pool(agd.x_mean**2 + agd.x_var * (m - 1) / m)], axis=1)
