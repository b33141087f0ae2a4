"""Canonical JSON emission.

Reports must be byte-identical across runs, so the serializer sorts keys,
fixes separators, and refuses floats.  Exact rational values are kept
lossless: a Fraction with denominator 1 becomes a plain JSON integer,
anything else the string "p/q".
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path


# Types whose values pass through jsonable unchanged, matched by exact type.
_PLAIN = frozenset({str, int, bool, type(None)})


def jsonable(value):
    """Recursively convert to types json.dumps handles deterministically.

    Values of exact type str, int, bool or None pass through before any
    isinstance test, and dict and list items of those types are copied
    without a recursive call.  Dicts (string keys only) and lists and tuples
    are rebuilt item by item; Fractions become an int or "p/q"; subclasses
    of int and str pass through; floats and anything else are refused.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out[key] = item if type(item) in _PLAIN else jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _PLAIN else jsonable(item) for item in value]
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to serialize float {value!r}; reports must be exact")
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def canonical_bytes(value) -> bytes:
    text = json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def fraction_from_json(raw, where: str) -> Fraction:
    """Accept an int or a "p/q" string; mirror of the emission rule."""
    if isinstance(raw, bool):
        raise ValueError(f"{where}: expected a rational, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: not a rational: {raw!r}") from exc
    raise ValueError(f"{where}: expected an integer or 'p/q' string, got {type(raw).__name__}")


def input_digest(doc: dict) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def emit_report(report: dict, path) -> None:
    Path(path).write_bytes(canonical_bytes(report))
