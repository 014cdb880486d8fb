"""Canonical serialization and small shared helpers.

Every artifact file written by this package goes through ``write_canonical``
so that reruns with identical inputs produce byte-identical output: keys are
sorted, floats carry 17 significant digits (enough to round-trip a double),
and no timestamps or environment data leak into the files.

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


def _encode(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, item in enumerate(seq):
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
    path.write_text(dumps_canonical(obj) + "\n", encoding="ascii")
    return path


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


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
        object.__setattr__(self, "levels", tuple(int(j) for j in self.levels))
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
