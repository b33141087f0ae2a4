"""Workload inputs by name and the known-answer table.

This module does not import the program, so the parent process can name
the inputs without it.  An input is a case document for
`search` and `verify-builtins`, and a ring for `genus-roots`.
"""

from __future__ import annotations

# (input name, built-in case, parameter)
SEARCH_INPUTS = [
    ("r-p.q2", "r-p", 2),
    ("r-p.q3", "r-p", 3),
    ("sp2-t2", "sp2-t2", None),
    ("su3-t2", "su3-t2", None),
    ("s2xs2", "s2xs2", None),
]

VERIFY_INPUTS = (
    [("cp2-connect-sum", "cp2-connect-sum", None)]
    + [(f"cpn-split.n{n}", "cpn-split", n) for n in (2, 3, 4)]
    + [(f"r-p-u-variant.q{q}", "r-p-u-variant", q) for q in (2, 3, 4, 5)]
    + [(f"genus-cpn.n{n}", "genus-cpn", n) for n in (1, 2, 3, 4)]
    + [("hp1-presentation", "hp1-presentation", None), ("m20-eschenburg", "m20-eschenburg", None)]
)

# Times each input runs in one pass of its workload's mix, default once.
# The cheap searches repeat so that their medians rest on as many samples
# per run as their run-to-run noise needs.
MIX_REPEATS = {"sp2-t2": 3, "su3-t2": 8, "s2xs2": 8}

# the seven rings of the genus acceptance suite
GENUS_RINGS = [
    ("roots.cp2-connect-sum", "cp2-connect-sum", None),
    ("roots.su3-t2", "su3-t2", None),
    ("roots.r-p.q2", "r-p", 2),
    ("roots.r-p-u-variant.q2", "r-p-u-variant", 2),
    ("roots.sp2-t2", "sp2-t2", None),
    ("roots.cpn-split.n3", "cpn-split", 3),
    ("roots.s2xs2", "s2xs2", None),
]

# root sets drawn per ring; enough that a ring's median verdict time hardly
# depends on which seed drew them
ROOT_SETS_PER_RING = 40

WORKLOAD_INPUTS = {
    "search": SEARCH_INPUTS,
    "verify-builtins": VERIFY_INPUTS,
    "genus-roots": GENUS_RINGS,
}

_NO_SOLUTIONS = {"exhaustive": True, "solutions": []}
_CONGRUENCE_FAILS = {"congruence": {"holds": False}}

# Known answers, from the acceptance criteria.  Each entry is a partial
# view of the report's sections: every key given must be present and equal.
EXPECTED: dict[str, dict] = {
    "r-p.q2": {"search": _NO_SOLUTIONS},
    "r-p.q3": {"search": _NO_SOLUTIONS},
    "sp2-t2": {"search": _NO_SOLUTIONS},
    "su3-t2": {"search": _NO_SOLUTIONS},
    "s2xs2": {"search": {"exhaustive": True, "solutions": [[[2, 0], [0, 2]]]}},
    "cp2-connect-sum": {
        "matching": [{"matched": False}],
        "search": _NO_SOLUTIONS,
        "genus": _CONGRUENCE_FAILS,
    },
    **{f"cpn-split.n{n}": {"search": _NO_SOLUTIONS} for n in (2, 3, 4)},
    **{
        f"r-p-u-variant.q{q}": {"ring": {"basis_sizes": {"0": 1, "2": 3, "4": 3, "6": 1}}}
        for q in (2, 3, 4, 5)
    },
    **{
        f"genus-cpn.n{n}": {"genus": {"chi_y": [(-1) ** p for p in range(n + 1)]}}
        for n in (1, 2, 3, 4)
    },
    "hp1-presentation": {"obstruction": {"verdict": "NO-VALID-V"}, "genus": _CONGRUENCE_FAILS},
    "m20-eschenburg": {"obstruction": {"verdict": "NO-VALID-V"}, "genus": _CONGRUENCE_FAILS},
}


class VerdictMismatch(Exception):
    """A verdict disagreed with its known answer."""


def mismatch(expected, actual, where: str = "sections") -> str | None:
    """First place where `actual` disagrees with the partial view `expected`."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where}: expected an object, got {actual!r}"
        for key, want in expected.items():
            if key not in actual:
                return f"{where}.{key}: missing"
            found = mismatch(want, actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and expected and isinstance(expected[0], dict):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: expected {len(expected)} entries, got {actual!r}"
        for i, (want, got) in enumerate(zip(expected, actual)):
            found = mismatch(want, got, f"{where}[{i}]")
            if found:
                return found
        return None
    if expected != actual:
        return f"{where}: expected {expected!r}, got {actual!r}"
    return None
