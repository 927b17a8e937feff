"""Canonical JSON serialization for reproducible reports.

All floats are written with 17 significant digits (lossless for float64),
keys are sorted, and indentation is fixed, so identical values always
produce byte-identical files.  Non-finite floats are written as the quoted
strings "inf", "-inf", "nan" to stay inside strict JSON.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps(str) calls
from pathlib import Path


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _encode(obj, level: int) -> str:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [_encode(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if len(obj) == 0:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)!r}")
            parts.append(pad_in + _quote(key) + ": " + _encode(obj[key], level + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    # numpy scalars and arrays come through here
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist(), level)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    return _encode(obj, 0) + "\n"


def dump_canonical(obj, path) -> None:
    Path(path).write_text(dumps_canonical(obj))


def dump_csv(header, rows, path) -> None:
    """Rows of string fields that need no quoting, as the csv module writes them (CRLF line ends), in one write."""
    Path(path).write_text("\r\n".join(map(",".join, (header, *rows))) + "\r\n", newline="")


def load(path):
    return json.loads(Path(path).read_text())
