"""Canonical serialization and small shared helpers.

Every JSON artifact is canonical, so that reruns with identical inputs
produce byte-identical output: keys are sorted, floats carry 17 significant
digits (enough to round-trip a double), and no timestamps or environment data
leak into the files.  Files go through ``write_canonical``; the profile
commands, which may print to stdout instead, write ``dumps_canonical``'s text.
The CSV outputs (`extract-core`'s ``beta.csv`` and the ``--format csv``
profiles) are written by the CLI, every float through ``fmt_float``.  Arrays,
and ``Table``s of array columns, take one table path: each column becomes
text in one pass, 65,536 rows at a time (floats through ``fmt_float`` once per
distinct bit pattern), and the rows are joined from those texts, with the
bytes of writing every element on its own.

Numbers from outside the package are read by ``finite_floats``, ``exact_ints``
or, one integer, ``exact_int``, which refuse what does not fit and never truncate.

``ScaleProfile`` holds coefficients across dyadic scales with their
ln2-weighted square sum; it is both ``beta.BetaProfile`` and
``carleson.EpsilonProfile``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from gmtkit.errors import InvalidInputError


def fmt_float(value: float) -> str:
    """Render a finite float with 17 significant digits, always with a '.' or exponent."""
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ValueError("non-finite values cannot be serialized")
    text = format(v, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


TABLE_CHUNK = 1 << 16  # rows turned into text per pass of the table path


class Table:
    """Equal-length columns written as one JSON list of rows, row i holding
    every column's i-th entry: ``Table(levels, rows, weights)`` with a 1-D
    int, a 2-D int and a 1-D float array writes ``[[level,[i,j],w],...]``.
    Iterating it yields those rows as lists, as loading the text back would."""

    __slots__ = ("columns",)

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        return map(list, zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns)))


def _row_format(width: int) -> str:
    return "[" + ",".join(["{}"] * width) + "]"


def _texts(column) -> list[str]:
    """The canonical text of each entry of `column` along its first axis:
    1-D float and int arrays and 2-D int arrays in one pass, anything else
    entry by entry."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        if column.dtype.kind == "f" and column.ndim == 1:
            # masses mostly repeat, so each distinct bit pattern is formatted
            # once; grouping by value would merge -0.0 with 0.0
            bits, inverse = np.unique(column.astype(np.float64).view(np.int64), return_inverse=True)
            texts = list(map(fmt_float, bits.view(np.float64).tolist()))
            return list(map(texts.__getitem__, inverse.tolist()))
        if column.dtype.kind in "iu" and column.ndim == 1:
            return list(map(str, column.tolist()))
        if column.dtype.kind in "iu" and column.ndim == 2 and column.shape[1]:
            return list(map(_row_format(column.shape[1]).format, *column.T.tolist()))
    return list(map(dumps_canonical, column))


def _encode(obj: Any, out: list[str]) -> None:
    if isinstance(obj, (np.ndarray, Table)):
        # an array is a table of one column whose rows are its entries
        columns, row = ((obj,), "{}") if isinstance(obj, np.ndarray) else (obj.columns, _row_format(len(obj.columns)))
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise ValueError(f"a table needs columns of one length, got {[len(c) for c in columns]}")
        out.append("[")
        for a in range(0, lengths.pop(), TABLE_CHUNK):
            texts = [_texts(column[a : a + TABLE_CHUNK]) for column in columns]
            out.append(("," if a else "") + ",".join(map(row.format, *texts)))
        out.append("]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj.keys())):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    parts: list[str] = []
    _encode(obj, parts)
    return "".join(parts)


def write_canonical(path: str | Path, obj: Any) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts: list[str] = []
    _encode(obj, parts)
    with path.open("w", encoding="ascii") as f:  # the parts as they are, never joined into one copy
        f.writelines(parts)
        f.write("\n")
    return path


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def finite_floats(value, message: str) -> np.ndarray:
    """`value` as a float64 array of finite numbers.  Input numpy cannot
    convert (a non-numeric string, a ragged list, an integer beyond float
    range) and any NaN or infinity are invalid input, raised with `message`."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(message) from exc
    if not np.isfinite(out).all():
        raise InvalidInputError(message)
    return out


def exact_ints(values, message: str) -> np.ndarray:
    """`values`, an integer array or any iterable of integers or of integer
    rows, as an int64 array.  A float (even 2.0), a string, an integer beyond
    int64 or an array of bools is invalid input, raised with `message`, never
    truncated.  No entries at all give an empty array."""
    try:
        out = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(message) from exc
    if out.size and (out.dtype.kind not in "iu" or out.dtype == np.uint64 and out.max() > np.iinfo(np.int64).max):
        raise InvalidInputError(message)
    return out.astype(np.int64, copy=False)


def exact_int(value, message: str) -> int:
    """`value`, one integer, as a Python int: as in `exact_ints`, a bool, a
    float, a string or an integer beyond int64 is refused with `message`."""
    out = exact_ints([value], message)
    if out.shape != (1,):
        raise InvalidInputError(message)
    return int(out[0])


LN2 = math.log(2.0)


def ln2_square_sum(values) -> float:
    """sum of v^2 ln 2 over the values, added in order."""
    total = 0.0
    for v in values:
        total += v * v * LN2
    return total


@dataclass(frozen=True)
class ScaleProfile:
    """Coefficients at dyadic scales r = 2^-j plus the ln2-weighted square sum."""

    center: tuple
    levels: tuple
    values: tuple
    total: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "levels", tuple(exact_ints(self.levels, "levels must be integers").tolist()))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.levels) != len(self.values):
            raise InvalidInputError("one value per level required")
        if any(v < 0 for v in self.values):
            raise InvalidInputError("coefficients must be nonnegative")
        check = ln2_square_sum(self.values)
        if abs(check - self.total) > 1e-12 * max(1.0, abs(check)):
            raise InvalidInputError("square-function total does not match its terms")

    @classmethod
    def of(cls, center, levels, values) -> "ScaleProfile":
        """The profile of `values`, with its square sum computed here."""
        values = tuple(float(v) for v in values)
        return cls(center, levels, values, ln2_square_sum(values))

    def pairs(self) -> list[tuple[float, float]]:
        return [(2.0 ** (-j), v) for j, v in zip(self.levels, self.values)]

    def to_json_obj(self) -> dict:
        return {
            "center": list(self.center),
            "levels": list(self.levels),
            "values": list(self.values),
            "square_sum": self.total,
        }

    def csv_rows(self) -> list[list]:
        center = list(self.center)
        return [center + [j, v] for j, v in zip(self.levels, self.values)]


def ipow(base: float, k: int) -> float:
    """Integer power by repeated multiplication.

    Multiplying out keeps exact power-of-two scaling: ipow(2*r, k) equals
    2**k * ipow(r, k) bit for bit, which plain pow() does not guarantee.
    """
    acc = 1.0
    for _ in range(k):
        acc *= base
    return acc
