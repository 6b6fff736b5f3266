"""The one JSON document format, of library documents and CLI output alike: sorted
keys, no spaces, complex numbers as [re, im], floats with 17 significant digits (so
byte-stable) and finite numbers: NaN or Inf is a NonFinite out and a ParseError in."""

from __future__ import annotations

import json
import math

import numpy as np

from .exceptions import NonFinite, ParseError


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFinite(f"non-finite value {x} in output")
    return format(x or 0.0, ".17g")  # -0.0 prints as 0


def emit_json(obj) -> str:
    """json.dumps with fixed float formatting and sorted keys."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{emit_json(v)}"
                         for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return emit_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _finite(text):
    if not math.isfinite(x := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return x


def read_doc(text, what, expected, build):
    """build(the parsed text); any failure is the ParseError "<what> JSON: ..."."""
    try:
        return build(json.loads(text, parse_float=_finite, parse_constant=_finite))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError,
            RecursionError) as e:
        raise ParseError(f"{what} JSON: {e!r}", getattr(e, "pos", 0), expected) from None


def checked(value, name, kind=int):
    """value if its type is exactly ``kind`` (a bool is no int) and it is not negative."""
    if type(value) is not kind or value < 0:
        want = "true or false" if kind is bool else "a nonnegative integer"
        raise ValueError(f"{name} must be {want}, not {value!r}")
    return value
