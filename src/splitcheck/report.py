"""Canonical JSON in and out.

Out: reports must be byte-identical across runs, so the serializer sorts
keys, fixes separators, and refuses floats.  It works in two steps and
copies nothing: `check_exact` reads the tree in place and raises
`CanonicalError`, a TypeError, at the first float, non-string key or
unknown type, naming the path of the value it refuses in the readers'
form below (a non-string key names the dict that holds it); then one
module-level `json.JSONEncoder` writes the tree as it is.  The json
module's C encoder would write a float, so the check is the only thing
that keeps one out of a report.  Exact rational values are kept
lossless: the encoder's `default` hook, `exact_json`, makes a Fraction
with denominator 1 a plain JSON integer and anything else the string
"p/q".

In: the readers below state once what each value of a case document must
be.  A reader takes the raw value and its path (`search.bound.note`,
`candidates[0][1][0]`) and returns the value or raises `CaseError` naming
that path.  `field` reads one key of an object: a missing key is its
default, or an error when it has none; a `null` is a value like any other,
so an optional field is absent or well typed, never null.  `array` builds
the `a[i]` paths of a list's items, so an error in an element names the
element.  `fraction_from_json` is the inbound mirror of the "p/q" rule.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable, Mapping
from fractions import Fraction
from pathlib import Path


# Types whose values need no check, matched by exact type.
_PLAIN = frozenset({str, int, bool, type(None)})


class CanonicalError(TypeError):
    """A value canonical JSON cannot hold; `path` holds the keys and list
    indices that lead to it from the checked tree, outermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: tuple[str | int, ...] = ()

    @property
    def where(self) -> str:
        """`path` as the readers name it: `key`, then `.key` and `[i]`."""
        where = ""
        for step in self.path:
            if isinstance(step, int):
                where = f"{where}[{step}]"
            else:
                where = f"{where}.{step}" if where else step
        return where


def check_exact(value) -> None:
    """Raise `CanonicalError` unless `value` is a tree the encoders write canonically.

    The tree is read in place, depth first, each dict key before its item.
    Values of exact type str, int, bool or None are accepted before any
    isinstance test, and dict and list items of those types without a
    recursive call.  Dicts (string keys only), lists and tuples are walked;
    Fractions and subclasses of int and str are accepted; floats and
    anything else are refused.  The error's path is filled in while the
    recursion unwinds, so the walk of an accepted tree pays nothing for it.
    """
    if type(value) in _PLAIN:
        return
    if isinstance(value, dict):
        try:
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CanonicalError(f"report keys must be strings, got {key!r}")
                if type(item) not in _PLAIN:
                    check_exact(item)
        except CanonicalError as exc:
            if isinstance(key, str):  # a bad key is the dict's own fault
                exc.path = (key, *exc.path)
            raise
    elif isinstance(value, (list, tuple)):
        try:
            for item in value:
                if type(item) not in _PLAIN:
                    check_exact(item)
        except CanonicalError as exc:
            # the first item of its identity, as the walk stops at the first
            # refusal; a generator here would make `value` and `item` closure
            # cells, paid on every call
            exc.path = (list(map(id, value)).index(id(item)), *exc.path)
            raise
    elif isinstance(value, float):
        raise CanonicalError(f"refusing to serialize float {value!r}; reports must be exact")
    elif not isinstance(value, (str, int, Fraction)):
        raise CanonicalError(f"cannot serialize {type(value).__name__} canonically")


def exact_json(value):
    """The encoders' `default` hook: a Fraction as an int or "p/q"."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


# check_exact has walked the tree first, and on a cycle it recurses without
# end, so the encoder's own cycle markers could never fire: they are left off.
_CANONICAL = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=False,
    check_circular=False,
    default=exact_json,
)


def canonical_bytes(value) -> bytes:
    """`value` as canonical JSON: checked by `check_exact`, then encoded."""
    check_exact(value)
    return _CANONICAL.encode(value).encode("utf-8") + b"\n"


class CaseError(ValueError):
    """Malformed case document; the message names the offending field."""


_REQUIRED = object()


def field(doc: Mapping, key: str, where: str, read: Callable, default=_REQUIRED):
    """`read` applied to doc[key] at path `where.key`; a missing key is `default`."""
    if key not in doc:
        if default is _REQUIRED:
            raise CaseError(f"{where} is missing field '{key}'")
        return default
    return read(doc[key], f"{where}.{key}" if where else key)


def obj(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise CaseError(f"{where}: expected an object, got {raw!r:.80}")
    return raw


def array(raw, where: str, item: Callable | None = None) -> list:
    """A JSON list, each element read by `item` at path `where[i]` when given."""
    if not isinstance(raw, (list, tuple)):
        raise CaseError(f"{where}: expected a list, got {raw!r:.80}")
    if item is None:
        return list(raw)
    return [item(x, f"{where}[{i}]") for i, x in enumerate(raw)]


def _is_integer(raw) -> bool:
    """A JSON integer; a bool is not one, though Python counts it as an int."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def integer(raw, where: str, low: int | None = None) -> int:
    """A JSON integer, at least `low` when given; never a bool, float or string."""
    if not _is_integer(raw):
        raise CaseError(f"{where}: expected an integer, got {raw!r:.80}")
    if low is not None and raw < low:
        raise CaseError(f"{where}: expected an integer >= {low}, got {raw}")
    return raw


def boolean(raw, where: str) -> bool:
    """A JSON true or false, never a truthiness test."""
    if not isinstance(raw, bool):
        raise CaseError(f"{where}: expected true or false, got {raw!r:.80}")
    return raw


def string(raw, where: str) -> str:
    """A JSON string, never coerced by str()."""
    if not isinstance(raw, str):
        raise CaseError(f"{where}: expected a string, got {raw!r:.80}")
    return raw


def integers(raw, where: str, length: int | None = None, low: int | None = None) -> tuple[int, ...]:
    """A list of `length` integers (any number when None), each at least `low`."""
    items = array(raw, where)
    if length is not None and len(items) != length:
        raise CaseError(f"{where}: expected {length} integers, got {len(items)}")
    for i, x in enumerate(items):
        if not _is_integer(x) or (low is not None and x < low):
            integer(x, f"{where}[{i}]", low)  # raises, naming the element
    return tuple(items)


def terms(raw, where: str, n: int, coefficient: Callable) -> list:
    """A list of [coefficient, exponents] pairs as (exponents, coefficient).

    Exponents are n nonnegative integers; `coefficient` reads the other half
    (`integer` in ring rules, `fraction_from_json` in classes).
    """
    out = []
    for i, item in enumerate(array(raw, where)):
        pair = f"{where}[{i}]"
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise CaseError(f"{pair}: expected a [coefficient, exponents] pair, got {item!r:.80}")
        coeff = coefficient(item[0], f"{pair}[0]")
        out.append((integers(item[1], f"{pair}[1]", n, 0), coeff))
    return out


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fraction_from_json(raw, where: str) -> Fraction:
    """Accept an int or a "p/q" string; mirror of the emission rule.

    A string is an optional "-", ASCII digits, and optionally "/" and
    digits: `Fraction` alone would also read decimals, exponents,
    underscores and padding such as "6e0" or " 1.0 ".
    """
    if _is_integer(raw):
        return Fraction(raw)
    if isinstance(raw, str):
        if not _RATIONAL.fullmatch(raw):
            raise CaseError(f"{where}: not a rational: {raw!r:.80}")
        try:
            return Fraction(raw)
        except ZeroDivisionError as exc:
            raise CaseError(f"{where}: not a rational: {raw!r:.80}") from exc
    raise CaseError(f"{where}: expected an integer or 'p/q' string, got {raw!r:.80}")


def input_digest(doc: dict) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def emit_report(report: dict, path) -> None:
    Path(path).write_bytes(canonical_bytes(report))
