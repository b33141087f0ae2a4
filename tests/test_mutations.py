"""Every field of every built-in document, broken ten ways, under every command.

Each path of each built-in document (a key of a mapping or an item of a
list, at any depth) is deleted or replaced by null, true, "x", 1.5, -1, 0,
10^12, [] or {}.  Each such document is run by `verify`, by `genus` when the
built-in has a genus section, and by `obstruct` and `reps` when it has an
obstruction section.  Each run must either succeed or be refused with a
`CaseError` whose message begins with a field path (`ring.relations[0].lhs`,
optionally quoted) under one of the documents' own sections; anything else,
a traceback or a run past LIMIT seconds, is a fault.  The path named is not
always the mutated one: a changed relation can surface as
`search.bound.multipliers: combined form is not positive ...`, and a
deleted ring as `'targets' requires a 'ring' section`.
"""

from __future__ import annotations

import copy
import re
import signal

import pytest

from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.cli import CaseError, run_case

# seconds per run; the whole sweep takes about two seconds
LIMIT = 5

MUTATIONS = [("delete", None), ("null", None), ("true", True), ('"x"', "x"), ("1.5", 1.5),
             ("-1", -1), ("0", 0), ("10**12", 10**12), ("[]", []), ("{}", {})]

SECTIONS = {key for name in list_builtin_cases() for key in builtin_case(name)}

_FIELD_PATH = re.compile(r"'?([A-Za-z_]\w*)(?:\.\w+|\[\d+\])*'?[: ]")


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _paths(node, path=()):
    """Every path below `node`, parents before their children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(doc, path, label, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if label == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _commands(doc) -> list[str]:
    """The commands whose sections the built-in `doc` has."""
    return ["verify"] + ["genus"] * ("genus" in doc) + ["obstruct", "reps"] * ("obstruction" in doc)


def _outcome(doc, command: str) -> str | None:
    """None if the command runs or refuses the document naming a field, else the fault."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        run_case(doc, command=command)
    except CaseError as exc:
        match = _FIELD_PATH.match(str(exc))
        if match is None or match[1] not in SECTIONS:
            return f"refused without a field path: {exc}"
    except _Timeout:
        return f"ran past {LIMIT} s"
    except Exception as exc:  # a traceback from the command line
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return None


@pytest.mark.parametrize("name", list_builtin_cases())
def test_every_mutation_runs_or_names_a_field(name):
    base = builtin_case(name)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        faults = [
            f"{command} {'.'.join(map(str, path))} <- {label}: {fault}"
            for path in _paths(base)
            for label, value in MUTATIONS
            for command in _commands(base)
            if (fault := _outcome(_mutated(base, path, label, value), command)) is not None
        ]
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert faults == []
