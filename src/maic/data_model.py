"""Containers and file ingestion for patient-level and aggregate study data,
and the CSV writer for result tables.

An indirect comparison pairs one study with individual patient data (IPD:
per-patient outcome, arm code, covariates) with one study reported only as
aggregate summaries (AGD: per-arm counts, outcome mean/variance, covariate
means and optionally variances).  All containers are immutable after
construction and validated eagerly; covariates are aligned by declared name.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import re
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
    def from_dict(cls, d: dict) -> "AgdArm":
        """The arm of a JSON object; a missing field, or one that does not
        convert to its type, is a SchemaError naming its key."""

        def get(key, convert, optional=False):
            if optional and d.get(key) is None:
                return None
            try:
                return convert(d[key])
            except KeyError:
                raise SchemaError(f"AGD arm missing field {key!r}") from None
            except (TypeError, ValueError, OverflowError) as e:
                raise SchemaError(f"AGD arm field {key!r} is malformed: {e}") from None

        def vector(v):
            if not isinstance(v, list):
                raise TypeError(f"expected a list of numbers, got {type(v).__name__}")
            return [json_float(e) for e in v]

        if not isinstance(d, dict):
            raise SchemaError(f"AGD arm must be a JSON object, not {type(d).__name__}")
        return cls(n=get("n", json_int), y_mean=get("y_mean", json_float),
                   y_var=get("y_var", json_float, optional=True), x_mean=get("x_mean", vector),
                   x_var=get("x_var", vector, optional=True))


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
        if self.active_arm.p != p:
            raise DimensionMismatch(
                f"active arm has {self.active_arm.p} covariate means, expected {p}"
            )
        if self.comparator_arm is not None and self.comparator_arm.p != p:
            raise DimensionMismatch(
                f"comparator arm has {self.comparator_arm.p} covariate means, expected {p}"
            )

    @property
    def arms(self) -> list[AgdArm]:
        out = [self.active_arm]
        if self.comparator_arm is not None:
            out.append(self.comparator_arm)
        return out

    @property
    def n_total(self) -> int:
        return sum(a.n for a in self.arms)

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
    def from_dict(cls, d: dict) -> "AgdStudy":
        try:
            covariates = tuple(d["covariates"])
            arms = d["arms"]
            active = AgdArm.from_dict(arms["active"])
        except KeyError as e:
            raise SchemaError(f"AGD document missing {e}") from None
        except TypeError as e:
            raise SchemaError(f"AGD document has a malformed field: {e}") from None
        comparator = None
        if "comparator" in arms and arms["comparator"] is not None:
            comparator = AgdArm.from_dict(arms["comparator"])
        return cls(active, comparator, covariates)


@dataclass(frozen=True)
class TrialRecords:
    """Raw per-patient records of the aggregate-data trial (arm codes 0/2).
    Only available in simulation; used by the full-influence benchmark."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=int))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


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

    @property
    def has_comparator(self) -> bool:
        return 0 in self.arms

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


# a decimal or scientific number in ASCII digits, or nan/inf; the columnar
# parse rejects every other cell, including digit separators and non-ASCII
# digits that float() would accept
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|nan|inf(?:inity)?)",
    re.ASCII | re.IGNORECASE,
)


def load_ipd(
    path,
    covariates: list[str] | None = None,
    outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS,
) -> IpdStudy:
    """Load an IPD study from a headered CSV file with the outcome in
    column `y` and the arm code in column `z`.

    `covariates` selects and orders the covariate columns; by default every
    column other than y and z is used, in file order.
    The cells IpdStudy rejects (non-finite values, arm codes other than 0/1
    and, for a binary outcome, outcomes not coded 0/1), and missing or
    non-numeric cells in mapped columns, are named by file, line and column.
    """
    binary = outcome_kind is OutcomeKind.BINARY
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise EmptyStudy(f"{path}: empty file")
        index = {}
        for i, name in enumerate(name.strip() for name in header):
            if name in index:
                raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
            index[name] = i
        if covariates is None:
            covariates = [c for c in index if c not in ("y", "z")]
        columns = ["z", "y", *covariates]
        for col in columns:
            if col not in index:
                raise MissingColumn(f"{path}: column {col!r} not found")
        usecols = [index[col] for col in columns]
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2,
                                  comments=None, quotechar='"')
        except ValueError as e:
            _raise_first_bad_cell(path, columns, usecols, binary, str(e))
    try:
        # contiguous copies: a strided view would change reduction order downstream
        return IpdStudy(np.ascontiguousarray(data[:, 1]), data[:, 0],
                        np.ascontiguousarray(data[:, 2:]), tuple(covariates), outcome_kind)
    except (NonNumericValue, InvalidArmCode) as e:
        _raise_first_bad_cell(path, columns, usecols, binary, str(e))
    except EmptyStudy as e:
        raise EmptyStudy(f"{path}: {e}") from None


def _raise_first_bad_cell(path, columns, usecols, binary, message):
    """Re-read the file row by row and raise the error for its first bad
    cell, on its physical line; the checks reject everything the columnar
    parse and IpdStudy reject.  `columns[0]` is the arm column and
    `columns[1]` the outcome, which must be coded 0/1 when `binary`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            for j, (col, i) in enumerate(zip(columns, usecols)):
                raw = row[i].strip() if i < len(row) else ""
                if raw == "":
                    raise NonNumericValue(f"{where}: missing value in {col!r}")
                if not _NUMBER.fullmatch(raw):
                    raise NonNumericValue(f"{where}: non-numeric value {raw!r} in {col!r}")
                value = float(raw)
                if not math.isfinite(value):
                    raise NonNumericValue(f"{where}: non-finite value {raw!r} in {col!r}")
                if j == 0 and value not in (0.0, 1.0):
                    raise InvalidArmCode(f"{where}: arm code {value} not in {{0, 1}}")
                if j == 1 and binary and value not in (0.0, 1.0):
                    raise NonNumericValue(
                        f"{where}: binary outcome {raw!r} not coded 0/1 in {col!r}"
                    )
    raise NonNumericValue(f"{path}: {message}")


def load_agd(path) -> AgdStudy:
    """Load an AGD study from its JSON document."""

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise SchemaError(f"{path}: non-finite number {token} is not allowed")
        return value

    doc = load_json_object(path, parse_float=finite, parse_constant=finite)
    try:
        study = AgdStudy.from_dict(doc)
    except MaicError as e:
        raise type(e)(f"{path}: {e}") from None
    for arm in study.arms:
        if arm.y_var is None:
            warnings.warn(
                f"{path}: arm without y_var; binary-outcome fallback "
                "ybar(1-ybar)*n/(n-1) will be used where a variance is needed",
                stacklevel=2,
            )
    return study


def json_int(value) -> int:
    """A JSON value as an int: an int, an integral float or a digit string.
    A boolean is a TypeError and a non-integral number a ValueError, so no
    value is truncated."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_float(value) -> float:
    """A JSON value as a float: a number or a numeric string.  A boolean
    is a TypeError, so true and false never load as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def load_json_object(path, **kwargs) -> dict:
    """The JSON object a file holds (`kwargs` go to json.load); SchemaError
    naming the file for invalid JSON or another top-level value."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, **kwargs)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc


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
    arms = agd.arms
    n = np.array([a.n for a in arms], dtype=float)
    w = n / n.sum()
    first = np.sum([wi * a.x_mean for wi, a in zip(w, arms)], axis=0)
    if spec is MomentSpec.FIRST:
        return first
    for a in arms:
        if a.x_var is None:
            raise MissingVariance(
                "first+second moment matching requires x_var on every AGD arm"
            )
    second = np.sum(
        [wi * (a.x_mean**2 + a.x_var * (a.n - 1) / a.n) for wi, a in zip(w, arms)],
        axis=0,
    )
    return np.concatenate([first, second])
