"""Canonical serialization and small shared helpers.

Every artifact file written by this package goes through ``write_canonical``
so that reruns with identical inputs produce byte-identical output: keys are
sorted, floats carry 17 significant digits (enough to round-trip a double),
and no timestamps or environment data leak into the files.
"""

from __future__ import annotations

import json
import math
import os
import sys
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


def thread_count() -> int:
    """Worker cap taken from GMT_THREADS; defaults to serial execution."""
    raw = os.environ.get("GMT_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        print(f"gmtkit: GMT_THREADS={raw!r} is not an integer; running serially", file=sys.stderr)
        return 1
    return max(1, value)


def ipow(base: float, k: int) -> float:
    """Integer power by repeated multiplication.

    Multiplying out keeps exact power-of-two scaling: ipow(2*r, k) equals
    2**k * ipow(r, k) bit for bit, which plain pow() does not guarantee.
    """
    acc = 1.0
    for _ in range(k):
        acc *= base
    return acc
