"""Case documents, report serialization, and the command-line surface."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_DIR,
    assert_golden,
    assert_same_text,
    golden_id,
    golden_names,
    golden_run,
    multiset_count,
    ref_enumerate,
    ref_jsonable,
    ref_refused_at,
    ref_survivor_exists,
    render_golden,
)
from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.cli import CaseError, _load_search_spec, _load_targets, main, run_case
from splitcheck.genus import MAX_ROOT_WORK, MAX_ROOTS
from splitcheck.report import (
    CanonicalError,
    canonical_bytes,
    check_exact,
    exact_json,
    fraction_from_json,
    input_digest,
)
from splitcheck.repcat import MAX_RANK, ObstructionCase, RootSystem, obstruct_tangent_rep
from splitcheck.ring import MAX_GENERATORS, monomials_of_degree, parse_presentation
from splitcheck.search import MAX_BALL, MAX_M

# -- serialization ----------------------------------------------------------------


def test_canonical_bytes_rationals():
    assert canonical_bytes(Fraction(1, 12)) == b'"1/12"\n'
    assert canonical_bytes(Fraction(4, 2)) == b"2\n"
    assert canonical_bytes(Fraction(-3, 4)) == b'"-3/4"\n'
    assert canonical_bytes([Fraction(1, 2), 3, "x", None, True]) == b'["1/2",3,"x",null,true]\n'
    assert ref_jsonable(Fraction(4, 2)) == 2
    assert ref_jsonable([Fraction(1, 2), 3, "x", None, True]) == ["1/2", 3, "x", None, True]


def test_canonical_bytes_refuses_floats_and_bad_keys():
    with pytest.raises(TypeError, match="float"):
        canonical_bytes({"a": 0.5})
    with pytest.raises(TypeError, match="keys"):
        canonical_bytes({1: "a"})
    with pytest.raises(TypeError):
        canonical_bytes({"a": object()})
    # the check recurses without end on a cycle, before the encoder runs
    cycle = [1]
    cycle.append({"a": cycle})
    with pytest.raises(RecursionError):
        canonical_bytes(cycle)


class _Level(IntEnum):
    LOW = 1


class _Name(str):
    pass


class _Items(list):
    pass


class _Record(dict):
    pass


_scalars = st.one_of(
    st.text(max_size=3),
    st.integers(),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=5),
    st.floats(),
    st.just(_Level.LOW),
    st.text(max_size=3).map(_Name),
)
_keys = st.one_of(st.text(max_size=3), st.text(max_size=3).map(_Name), st.integers(), st.none())
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_Items),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4).map(_Record),
        st.dictionaries(_keys, children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(MappingProxyType),
    ),
    max_leaves=12,
)


def _typed(value):
    """The value with the exact type of every node, so True != 1 and a str
    subclass differs from str."""
    if isinstance(value, dict):
        return type(value), [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(item) for item in value]
    return type(value), value


@given(_trees)
@example(_Level.LOW)
@example({_Name("k"): [_Name("v"), (1, Fraction(1, 2))]})
@example({1: "a"})
@example([None, 0.5])
@example(object())
@example(float("nan"))
@example({"a": [1, float("inf")]})
@example(_Items([1, _Items([Fraction(2, 4)]), -float("inf")]))
@example(_Items(["a", _Record({"b": Fraction(3)})]))
@example(_Record({"z": _Items([True]), "a": _Record({_Name("k"): None})}))
@example(_Record({"a": 1, 2: "b"}))
@example({"b": 0.5, 1: "a"})
@example({1: "a", "b": 0.5})
@example({"": {"a": [0.5]}, "b": 1})
@example({"x": [{"y": 1}, ({"": 0.5},)]})
@example([Fraction(1, 2), 0.5])
@example({"extra": MappingProxyType({"z": [0.5]})})
def test_canonical_bytes_matches_isinstance_oracle(value):
    """The checked, uncopied tree encodes to the oracle's bytes, on the
    canonical encoder and on the CLI's indented one, and is left as it was;
    every refusal is a `CanonicalError` naming the path the top-down walk
    of `ref_refused_at` finds."""
    try:
        expected = ref_jsonable(value)
    except TypeError:
        with pytest.raises(CanonicalError):
            canonical_bytes(value)
        with pytest.raises(CanonicalError) as info:
            check_exact(value)
        assert info.value.where == ref_refused_at(value, "")
        return
    before = _typed(value)
    assert canonical_bytes(value) == (
        json.dumps(expected, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    ).encode("utf-8")
    assert _typed(value) == before
    assert json.dumps(value, sort_keys=True, indent=2, default=exact_json) == json.dumps(
        expected, sort_keys=True, indent=2
    )


def test_a_mapping_that_is_not_a_dict_is_refused_by_its_own_path():
    """check_exact refuses a non-dict mapping as a whole, so the error names
    the mapping, not a value inside it."""
    doc = builtin_case("cp2-connect-sum")
    doc["extra"] = MappingProxyType({"z": [0.5]})
    with pytest.raises(CaseError) as info:
        run_case(doc)
    assert str(info.value) == "extra: cannot serialize mappingproxy canonically"


def test_canonical_bytes_are_order_insensitive():
    a = canonical_bytes({"b": 1, "a": [2, Fraction(1, 3)]})
    b = canonical_bytes({"a": [2, Fraction(1, 3)], "b": 1})
    assert a == b
    assert a.endswith(b"\n")
    assert b" " not in a.strip(b"\n") or b'": ' not in a


def test_fraction_roundtrip():
    assert fraction_from_json(3, "x") == Fraction(3)
    assert fraction_from_json("1/12", "x") == Fraction(1, 12)
    assert fraction_from_json("-7/2", "x") == Fraction(-7, 2)
    assert fraction_from_json("12", "x") == Fraction(12)
    with pytest.raises(ValueError):
        fraction_from_json(True, "x")
    # `Fraction` alone reads every one of these
    for raw in ["6e0", " 1.0 ", "1.5", "1_000", "+1", "1/-2", " 3", "3\n", "\u0663"]:
        with pytest.raises(CaseError, match="x: not a rational"):
            fraction_from_json(raw, "x")
    with pytest.raises(ValueError):
        fraction_from_json("abc", "x")
    with pytest.raises(ValueError):
        fraction_from_json(0.5, "x")


def test_input_digest_stability():
    doc = builtin_case("cp2-connect-sum")
    shuffled = dict(reversed(list(doc.items())))
    assert input_digest(doc) == input_digest(shuffled)
    assert input_digest(doc) != input_digest(builtin_case("su3-t2"))


# -- run_case ---------------------------------------------------------------------


def test_run_case_connect_sum_sections():
    report = run_case(builtin_case("cp2-connect-sum"))
    assert report["case"] == "cp2-connect-sum"
    sections = report["sections"]
    assert sections["ring"]["basis_sizes"] == {"0": 1, "2": 2, "4": 1}
    assert set(sections["ring"]) == {"generators", "top_degree", "fundamental", "basis_sizes"}
    match = sections["matching"][0]
    assert match["candidate"] == [[1, 2], [0, 1]]
    assert match["p1_ok"] and not match["euler_ok"] and not match["matched"]
    assert match["residuals"]["euler"] == "-2*u^2"
    search = sections["search"]
    assert search["per_variable_bounds"] == [2, 2]
    assert search["visited"] == 36
    assert search["solution_count"] == 0
    assert search["exhaustive"] is True
    genus = sections["genus"]["congruence"]
    assert genus["holds"] is False
    # the report itself serializes canonically
    assert canonical_bytes(report) == canonical_bytes(json.loads(canonical_bytes(report)))


def _check_obstruction_section(section: dict) -> list[int]:
    """Check every witness and survivor against the section's own catalog
    and switches, and every multiset against the counts; return the counts."""
    order = [entry["name"] for entry in section["catalog"]]
    catalog = {entry["name"]: entry for entry in section["catalog"]}
    total = section["manifold_dim"]

    def names_of(summands) -> list[str]:
        names = [name for name, _ in summands]
        assert all(name in catalog for name in names)
        positions = [order.index(name) for name in names]
        assert positions == sorted(set(positions))  # catalog order, no repeats
        assert all(isinstance(count, int) and count > 0 for _, count in summands)
        assert sum(count * catalog[name]["real_dim"] for name, count in summands) == total
        return names

    assert len({(row["rejected_by"], row["detail"]) for row in section["reasons"]}) == len(section["reasons"])
    for row in section["reasons"]:
        names = names_of(row["witness"])
        odd = [name for name in names if catalog[name]["real_dim"] % 2]
        assert isinstance(row["count"], int) and row["count"] > 0
        if row["rejected_by"] == "F1":
            # the odd entry the detail names is the witness's first
            assert section["euler_nonzero"] and odd
            named = re.fullmatch(r"odd-dimensional summand (\S+) \(real dim (\d+)\) forces a vanishing Euler class",
                                 row["detail"])
            assert named and named[1] == odd[0] and int(named[2]) == catalog[odd[0]]["real_dim"]
        else:
            assert row["rejected_by"] == "F2" and section["almost_complex_forbidden"]
            assert not (section["euler_nonzero"] and odd)
            assert all(catalog[name]["field_type"] in ("complex", "quaternionic") for name in names)
    for survivor in section["survivors"]:
        names = names_of(survivor)
        assert not (section["euler_nonzero"] and any(catalog[name]["real_dim"] % 2 for name in names))
        assert not (section["almost_complex_forbidden"]
                    and all(catalog[name]["field_type"] != "real" for name in names))
    counts = [row["count"] for row in section["reasons"]]
    dims = [entry["real_dim"] for entry in section["catalog"]]
    assert sum(counts) + len(section["survivors"]) == multiset_count(dims, total)
    assert (section["verdict"] == "VALID-V-EXISTS") == bool(section["survivors"])
    return counts


def test_run_case_obstruction_sections():
    report = run_case(builtin_case("m20-eschenburg"))
    section = report["sections"]["obstruction"]
    assert section["factors"] == ["SU(2)", "Spin(11)"]
    assert section["verdict"] == "NO-VALID-V"
    assert len(section["catalog"]) == 16
    assert [row["rejected_by"] for row in section["reasons"]] == ["F1", "F1", "F2", "F1", "F1", "F1"]
    assert all(row["detail"] for row in section["reasons"])
    assert section["survivors"] == []
    assert report["sections"]["genus"]["congruence"]["holds"] is False


def test_obstruction_reasons_are_catalog_multiplicities():
    hp1 = json.loads(canonical_bytes(run_case(builtin_case("hp1-presentation"))))["sections"]["obstruction"]
    assert [(row["witness"], row["rejected_by"], row["count"]) for row in hp1["reasons"]] == [
        ([["W1x1", 4]], "F1", 2),
        ([["W2x1", 1]], "F2", 1),
    ]
    assert _check_obstruction_section(hp1) == [2, 1]
    # the canonical report alone is enough to check each m20 reason
    blob = canonical_bytes(run_case(builtin_case("m20-eschenburg")))
    assert len(blob) <= 4_000
    assert _check_obstruction_section(json.loads(blob)["sections"]["obstruction"]) == [140, 17, 7, 6, 2, 2]


def _obstruct(factors: list, manifold_dim: int, chi: int, sigma: int) -> dict:
    """The `obstruct` report section of a case with these factors."""
    doc = {
        "name": "probe",
        "obstruction": {"factors": factors, "manifold_dim": manifold_dim},
        "genus": {"congruence": {"chi": chi, "sigma": sigma}},
    }
    return run_case(doc, command="obstruct")["sections"]["obstruction"]


@pytest.mark.parametrize(("factors", "manifold_dim", "chi", "sigma", "counts", "survivors"), [
    # chi = 3 turns F1 on; 3 = -sigma mod 4 turns F2 off, so Spin(5)'s spin
    # representation D (quaternionic, real dim 8) survives
    ([{"family": "B", "rank": 2}], 8, 3, 1, [2], [[["D", 1]]]),
    # neither filter is on, so every multiset survives
    ([{"family": "A", "rank": 1}], 4, 0, 0, [], [[["W1", 4]], [["W1", 1], ["W3", 1]], [["W2", 1]]]),
])
def test_survivors_are_the_unrejected_traces(factors, manifold_dim, chi, sigma, counts, survivors):
    section = _obstruct(factors, manifold_dim, chi, sigma)
    assert _check_obstruction_section(section) == counts
    assert section["survivors"] == survivors
    assert section["verdict"] == "VALID-V-EXISTS"
    case = ObstructionCase(tuple(RootSystem(f["family"], f["rank"]) for f in factors), manifold_dim, chi, sigma)
    walked = [[[p.name, count] for p, count in t.summands]
              for t in obstruct_tangent_rep(case).traces if t.rejected_by is None]
    assert section["survivors"] == walked


def test_verdict_matches_the_knapsack_oracle():
    """On random factor lists within the caps, a survivor exists exactly when
    the knapsack DP over the catalog's dimensions finds one.  The largest
    draw, S^1 x S^1 x S^1 in dimension 16, walks 6,435 multisets, within
    MAX_MULTISETS."""
    rng = random.Random(4242)
    groups = [("A", 1), ("B", 1), ("B", 2), ("B", 3), ("T", 1)]
    verdicts = []
    for _ in range(200):
        factors = [dict(zip(("family", "rank"), rng.choice(groups))) for _ in range(rng.randint(1, 3))]
        # genus.congruence, which gives chi and sigma, is stated only in a dimension 4m
        manifold_dim, chi, sigma = rng.randrange(4, 17, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        section = _obstruct(factors, manifold_dim, chi, sigma)
        exists = ref_survivor_exists(section["catalog"], manifold_dim, chi, sigma)
        assert (section["verdict"] == "VALID-V-EXISTS") == exists == bool(section["survivors"]), (factors, manifold_dim)
        _check_obstruction_section(section)
        verdicts.append(section["verdict"])
    assert set(verdicts) == {"VALID-V-EXISTS", "NO-VALID-V"}


def test_a_stale_fundamental_runs_on_the_derived_one(tmp_path, capsys):
    """`ring.fundamental` is derived from the relations and never read, so a
    document that still gives one, with any value, runs and reports the
    derived monomial; only its input digest differs."""
    plain = run_case(builtin_case("cp2-connect-sum"))
    for stale in ([0, 2], [2, 0], [True, 1]):
        doc = builtin_case("cp2-connect-sum")
        doc["ring"]["fundamental"] = stale
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 0, stale
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["ring"]["fundamental"] == "u^2", stale
        assert report["input_digest"] != plain["input_digest"], stale
        assert {**report, "input_digest": None} == {**plain, "input_digest": None}, stale


def test_run_case_genus_roots():
    report = run_case(builtin_case("genus-cpn", 3))
    genus = report["sections"]["genus"]
    assert genus["chi_y"] == [1, -1, 1, -1]
    assert genus["euler"] == 4
    assert genus["signature"] == 0
    assert genus["todd"] == 1
    assert genus["duality"] is True
    # a zero chi^n is listed, not trimmed away
    doc = builtin_case("genus-cpn", 3)
    doc["genus"]["roots"] = [[]] * 3
    assert run_case(doc)["sections"]["genus"]["chi_y"] == [0, 0, 0, 0]


# Each file in tests/golden/ holds what one run prints, and its name is the
# run (`golden_run`): the built-ins at their defaults and over the parameter
# ranges the acceptance criteria use, the `genus`, `obstruct` and `reps`
# runs of the obstruction and genus built-ins, and the budget cuts of
# test_search.py.  A refactor must leave every file as it is; a
# deliberate report change rewrites them with tests/golden/update.py and says
# so in CHANGES.md.
REPORT_GOLDENS = golden_names("verify", budgeted=False)


def test_goldens_cover_every_builtin():
    """Every built-in has a golden report of `verify NAME`."""
    assert {case for _, case, q, _ in map(golden_run, REPORT_GOLDENS) if q is None} == set(list_builtin_cases())


def test_every_golden_file_is_a_run():
    """Every file but the writer parses as a run, and the golden tests read
    each run: a file no test reads, or one whose name does not parse, fails."""
    names = sorted(path.name for path in GOLDEN_DIR.iterdir() if path.name != "update.py")
    for name in names:
        golden_run(name)
    read = REPORT_GOLDENS + golden_names("genus", "obstruct", "reps") + golden_names("verify", "search", budgeted=True)
    assert sorted(set(names) - set(read)) == []


@pytest.mark.parametrize("name", REPORT_GOLDENS, ids=golden_id)
def test_builtin_reports_are_byte_identical(name):
    assert_golden(name)


def test_a_changed_golden_fails_with_a_diff_naming_the_key():
    """One value changed in a golden text fails the comparison with a
    unified diff whose removed and added lines carry the changed key."""
    name = "verify.sp2-t2.b45.json"
    text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert text.count('"visited": 46\n') == 1
    edited = text.replace('"visited": 46\n', '"visited": 47\n')
    with pytest.raises(AssertionError) as info:
        assert_same_text(edited, render_golden(name), name)
    message = str(info.value)
    assert message.startswith(f"{name} differs from its golden file:\n--- golden/{name}\n+++ now\n@@ ")
    changed = [line for line in message.splitlines()[3:] if line[:1] in "-+"]
    assert changed == ['-      "visited": 47', '+      "visited": 46']
    with pytest.raises(ValueError, match="not a golden name"):
        golden_run("verify.r-p.q.json")


class _ReadRecorder(dict):
    """A dict that records the path of each key read through `[]`; the
    digest's copy and its encoder read the items without it."""

    def __init__(self, items, path: tuple, reads: set):
        super().__init__(items)
        self.path, self.reads = path, reads

    def __getitem__(self, key):
        self.reads.add(self.path + (key,))
        return super().__getitem__(key)


def _recorded(node, path: tuple, reads: set, keys: set):
    """`node` with every dict wrapped in a `_ReadRecorder`; `keys` gets every key path."""
    if isinstance(node, dict):
        keys.update(path + (key,) for key in node)
        return _ReadRecorder(
            {key: _recorded(value, path + (key,), reads, keys) for key, value in node.items()},
            path, reads,
        )
    if isinstance(node, list):
        return [_recorded(item, path + (i,), reads, keys) for i, item in enumerate(node)]
    return node


@pytest.mark.parametrize("name", REPORT_GOLDENS, ids=golden_id)
def test_builtin_documents_carry_only_keys_a_section_reads(name):
    _, case, par, _ = golden_run(name)
    reads: set = set()
    keys: set = set()
    plain = run_case(builtin_case(case, par))
    assert run_case(_recorded(builtin_case(case, par), (), reads, keys)) == plain
    assert keys - reads == set()


@pytest.mark.parametrize("name", golden_names("reps"), ids=golden_id)
def test_cli_reps_output_is_byte_identical(name):
    assert_golden(name)


@pytest.mark.parametrize("name", golden_names("genus", "obstruct"), ids=lambda name: name.removesuffix(".json"))
def test_cli_genus_and_obstruct_output_is_byte_identical(name):
    assert_golden(name)


@pytest.mark.parametrize("name", list_builtin_cases())
def test_cli_verify_prints_the_oracle_json(name, capsys):
    """`splitcheck verify` prints the report, checked in place and indented,
    exactly as json.dumps prints the isinstance oracle's copy of it."""
    assert main(["verify", name]) == 0
    expected = json.dumps(ref_jsonable(run_case(builtin_case(name))), sort_keys=True, indent=2)
    assert capsys.readouterr().out == expected + "\n"


# 8 generators, no relations, top degree 40: 3.1 million monomials to walk
_BIG_RING = {
    "generators": [f"x{i}" for i in range(8)],
    "relations": [],
    "top_degree": 40,
}


# the projective line: h^2 = 0, top degree 2
_LINE_RING = {
    "generators": ["h"],
    "relations": [{"lhs": [2], "rhs": []}],
    "top_degree": 2,
}


def test_run_case_errors_name_the_field(tmp_path, capsys):
    with pytest.raises(CaseError, match="actionable"):
        run_case({"name": "empty"})
    with pytest.raises(CaseError, match="'ring'"):
        run_case({"targets": {}})
    doc = builtin_case("cp2-connect-sum")
    del doc["targets"]
    with pytest.raises(CaseError, match="'targets'"):
        run_case(doc)
    bad = builtin_case("cp2-connect-sum")
    bad["targets"]["p1"] = [[0.5, [2, 0]]]
    with pytest.raises(CaseError, match="targets.p1"):
        run_case(bad)
    # booleans are JSON true/false only: bool("false") would be True;
    # integers are JSON integers only: int("2") and int(2.7) would pass, and
    # True is an int to Python
    for name, path, value, *named in [
        ("s2xs2", ("search", "bound", "acknowledged"), "false"),
        ("su3-t2", ("search", "budget"), {}),
        ("su3-t2", ("search", "budget"), -5),
        ("s2xs2", ("search", "bound", "per_variable", 0), True),
        # text fields are JSON strings only: str() would print 7 as "7"
        ("cp2-connect-sum", ("name",), 7),
        ("cp2-connect-sum", ("anchor",), 7),
        ("s2xs2", ("search", "bound", "note"), {"a": 1}),
        ("hp1-presentation", ("obstruction", "provenance"), None),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), "20"),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), 7),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), 0),
        # the congruence is taken in the case's dimension, which must be 4m with m >= 1
        ("m20-eschenburg", ("obstruction", "manifold_dim"), 22),
        ("su3-t2", ("genus",), {"congruence": {"chi": 6, "sigma": 0}}, ("genus", "congruence")),
        # a case with a ring and an obstruction states one dimension
        ("cp2-connect-sum", ("obstruction",), {"factors": [{"family": "A", "rank": 1}], "manifold_dim": 8},
         ("obstruction", "manifold_dim")),
        ("hp1-presentation", ("obstruction", "factors", 0, "rank"), True),
        ("hp1-presentation", ("obstruction", "factors", 0, "family"), 5),
        ("hp1-presentation", ("obstruction", "factors", 0, "family"), ["A"]),
        ("hp1-presentation", ("obstruction", "factors", 0, "family"), "C"),
        # a catalog's cost grows about as rank^4, and 10^12 would exhaust memory
        ("hp1-presentation", ("obstruction", "factors", 1, "rank"), MAX_RANK + 1),
        ("hp1-presentation", ("obstruction", "factors", 1, "rank"), 10**12),
        # the products are counted before they are built: 15^5 of them here
        ("m20-eschenburg", ("obstruction", "factors"), [{"family": "A", "rank": 1}] * 5),
        ("hp1-presentation", ("genus", "congruence", "chi"), [1]),
        ("hp1-presentation", ("genus", "congruence", "chi"), True),
        ("hp1-presentation", ("genus", "congruence", "sigma"), 0.0),
        # root-data errors carry the field, not just "root #0" or a count
        ("genus-cpn", ("genus", "roots"), [[[1, [1]]]]),
        ("genus-cpn", ("genus", "roots"), [[[1, [2]]]] * 3),
        # the integrator's cost grows steeply with the root count: 3 roots of h, then zeros
        (("genus-cpn", 2), ("genus", "roots"), [[[1, [1]]]] * 3 + [[]] * (MAX_ROOTS - 2)),
        # a coordinate or an exponent of true is not the integer 1
        ("cp2-connect-sum", ("candidates", 0, 0), [True, 2]),
        ("cp2-connect-sum", ("targets", "p1", 0, 1), [True, 1]),
        # the ring section: no bare TypeError, no bool read as an integer
        ("cp2-connect-sum", ("ring",), 5),
        ("cp2-connect-sum", ("ring", "relations"), 5),
        ("cp2-connect-sum", ("ring", "relations", 1, "rhs"), 5),
        ("cp2-connect-sum", ("ring", "relations", 0, "lhs"), [True, True]),
        ("cp2-connect-sum", ("ring", "relations", 1, "rhs", 0), [True, [2, 0]]),
        ("cp2-connect-sum", ("ring", "relations", 1, "rhs", 0, 1), [True, 1]),
        ("cp2-connect-sum", ("ring", "top_degree"), True),
        # no generators is the generators' error, not the first exponent vector's
        ("cp2-connect-sum", ("ring", "generators"), []),
        # a ring too large to check names the degree that makes it so
        ("cp2-connect-sum", ("ring",), _BIG_RING, ("ring", "top_degree")),
        # search and candidate errors name the field they come from
        ("cp2-connect-sum", ("ring", "relations", 0), {"lhs": [1, 1], "rhs": [[1, [2, 0]]]},
         ("search", "bound", "multipliers")),
        # a zero form is reported as numbers, not as a tuple of Fraction reprs
        ("cp2-connect-sum", ("search", "bound", "multipliers"), [0]),
        # a multiplier is a JSON integer: scaling every multiplier by k > 0
        # gives the same box, so a rational one adds nothing, and "p/q" is
        # refused even with a zero or a unit denominator
        ("cp2-connect-sum", ("search", "bound", "multipliers", 0), 0.5),
        ("cp2-connect-sum", ("search", "bound", "multipliers", 0), "1/0"),
        ("cp2-connect-sum", ("search", "bound", "multipliers", 0), "1/2"),
        ("cp2-connect-sum", ("search", "bound", "multipliers", 0), "2/1"),
        # an optional field is absent or well typed: null is not absent
        (("cpn-split", 2), ("targets", "chern"), None),
        (("genus-cpn", 2), ("genus", "roots"), None),
        ("m20-eschenburg", ("genus", "congruence"), None),
        ("s2xs2", ("search", "bound", "per_variable"), [3]),
        # a splitting of a 4-manifold lists two line bundles, no more, no fewer
        ("cp2-connect-sum", ("candidates", 0), [[1, 2], [0, 1], [0, 1]]),
        ("cp2-connect-sum", ("candidates", 0), [[1, 2]]),
        ("cp2-connect-sum", ("candidates", 0), []),
        # targets no sum of line bundles reaches would certify vacuously
        ("s2xs2", ("targets", "p1"), [[1, [1, 0]]]),
        ("cp2-connect-sum", ("targets", "euler"), [[4, [1, 0]]]),
        (("cpn-split", 3), ("targets", "chern"), [[4, [1]], [6, [2]], [4, [3]]]),
        # (1 + h)^3 makes p1 = c1^2 - 2 c2 = 3h^2 and the Euler class c2 = 3h^2
        (("cpn-split", 2), ("targets", "p1"), [[4, [2]]]),
        (("cpn-split", 2), ("targets", "euler"), [[2, [2]]]),
        # a ring of top degree 0 has no line bundle for targets to be matched against
        ("cp2-connect-sum", ("ring", "top_degree"), 0),
        (("cpn-split", 2), ("ring", "top_degree"), 0),
        # targets are checked where they are read, whether or not a section uses them
        (("r-p-u-variant", 2), ("targets", "p1"), [[1, [1, 1, 1]]]),
        # every class built from integral c1's is integral
        ("cp2-connect-sum", ("targets", "p1"), [["13/2", [2, 0]]]),
        ("su3-t2", ("targets", "euler"), [["13/2", [2, 1]]]),
        (("cpn-split", 3), ("targets", "chern"), [[1, [0]], [4, [1]], ["13/2", [2]], [4, [3]]]),
        (("r-p-u-variant", 2), ("targets", "euler"), [["1/2", [1, 1, 1]]]),
        # a float in a field no section reads is refused where the document is digested
        ("cp2-connect-sum", ("extra",), {"x": [1, 0.5]}, ("extra", "x", 1)),
        ("cp2-connect-sum", ("extra",), {"a": [[0, 1, {"b": 0.5}]]}, ("extra", "a", 0, 2, "b")),
        ("cp2-connect-sum", ("comment",), 1.5),
    ]:
        bad = builtin_case(name) if isinstance(name, str) else builtin_case(*name)
        _set(bad, path, value)
        _refused(bad, _field_name(named[0] if named else path), tmp_path, capsys)
    # a ring below degree 4 has no degree-4 equation to weight: the projective
    # line with its own targets, c(TM) = 1 + 2h
    line = builtin_case("cpn-split", 2)
    line["ring"] = _LINE_RING
    line["targets"] = {
        "p1": [], "euler": [[2, [1]]], "chern": [[1, [0]], [2, [1]]],
    }
    _refused(line, "search.bound.multipliers", tmp_path, capsys)
    # MAX_RANK itself still runs
    at_cap = builtin_case("hp1-presentation")
    at_cap["obstruction"]["factors"][1]["rank"] = MAX_RANK
    assert run_case(at_cap)["sections"]["obstruction"]["verdict"] == "NO-VALID-V"
    # and so do MAX_ROOTS roots
    at_cap = builtin_case("genus-cpn", 2)
    at_cap["genus"]["roots"] += [[]] * (MAX_ROOTS - 3)
    assert run_case(at_cap)["sections"]["genus"]["chi_y"] == [1, -1, 1]
    # the multisets are counted before they are walked: 105,159 of them here
    big = builtin_case("m20-eschenburg")
    big["obstruction"]["manifold_dim"] = 60
    _refused(big, "obstruction.manifold_dim", tmp_path, capsys)
    # refused before the work grows with the dimension: SU(2)'s catalog stops
    # at its 10,001st irrep, and the circle's 1 and rot1 alone fill these
    # dimensions in more than 10,000 ways
    for factors, dim, named in [
        ([{"family": "A", "rank": 1}], 40_000, "obstruction.factors"),
        ([{"family": "T", "rank": 1}], 10**6, "obstruction.manifold_dim"),
        ([{"family": "T", "rank": 1}], 10**12, "obstruction.manifold_dim"),
    ]:
        lone = builtin_case("hp1-presentation")
        lone["obstruction"].update(factors=factors, manifold_dim=dim)
        _refused(lone, named, tmp_path, capsys)
    # `reps` lists each catalog, so it refuses the one past the cap too
    lone["obstruction"]["factors"] = [{"family": "A", "rank": 1}]  # in dimension 10^12
    (tmp_path / "case.json").write_text(json.dumps(lone))
    assert main(["reps", str(tmp_path / "case.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: obstruction.factors: the SU(2) catalog alone "), err
    # the obstruction's switches come from genus.congruence, so it is required
    no_genus = builtin_case("hp1-presentation")
    del no_genus["genus"]
    _refused(no_genus, "genus.congruence", tmp_path, capsys)
    # and with neither a ring nor an obstruction, the congruence has no dimension
    no_dimension = builtin_case("hp1-presentation")
    del no_dimension["obstruction"]
    _refused(no_dimension, "genus.congruence", tmp_path, capsys)


@pytest.mark.parametrize(("path", "value", "named"), [
    (("targets", "p1"), [["6e0", [2, 0]]], "targets.p1[0][0]"),
    (("search", "bound", "multipliers"), [" 1.0 "], "search.bound.multipliers[0]"),
], ids=["p1-exponent", "multiplier-padding"])
def test_rational_strings_are_strict(tmp_path, capsys, path, value, named):
    """A class coefficient string is "p/q" or an integer, and a multiplier
    is a JSON integer: an exponent or a padded string is an error naming
    the element, not a 6 or a 1."""
    bad = builtin_case("cp2-connect-sum")
    _set(bad, path, value)
    _refused(bad, named, tmp_path, capsys)


def _refused(doc, named: str, tmp_path, capsys) -> None:
    """`run_case` raises a `CaseError` naming the field, and `splitcheck
    verify` exits 1 with that message, no traceback and nothing on stdout."""
    with pytest.raises(CaseError, match=re.escape(named)) as info:
        run_case(doc)
    assert "Fraction(" not in str(info.value), named
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1, named
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {info.value}\n", named


def _set(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _field_name(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


_INT_KEYS = ("budget", "manifold_dim", "chi", "sigma", "top_degree")
_BOOL_KEYS = ("acknowledged",)
_STR_KEYS = ("name", "anchor", "note", "provenance", "family")


def _typed_fields() -> list:
    """(case, path, kind) for each typed leaf `run_case` reads.  An error in
    a list's element, such as one exponent, names that element's path."""
    out = []

    def leaves(name, path, kind, items) -> None:
        out.extend((name, path + (k,), kind) for k in range(len(items)))

    def visit(name, node, path) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                here = path + (key,)
                if key in _BOOL_KEYS:
                    out.append((name, here, "bool"))
                elif key in _STR_KEYS:
                    out.append((name, here, "str"))
                elif key in _INT_KEYS or (key == "rank" and "factors" in path):
                    out.append((name, here, "int"))
                elif key == "generators":
                    leaves(name, here, "str", value)
                elif key in ("per_variable", "multipliers", "lhs"):
                    leaves(name, here, "int", value)
                elif key in ("p1", "euler", "chern", "rhs"):
                    for i, (_, exps) in enumerate(value):
                        if key == "rhs":  # a ring rule's coefficients are integers
                            out.append((name, here + (i, 0), "int"))
                        leaves(name, here + (i, 1), "int", exps)
                elif key == "roots":
                    for i, root in enumerate(value):
                        for j, (_, exps) in enumerate(root):
                            leaves(name, here + (i, j, 1), "int", exps)
                elif key == "candidates":
                    for i, cand in enumerate(value):
                        for j, coords in enumerate(cand):
                            leaves(name, here + (i, j), "int", coords)
                else:
                    visit(name, value, here)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                visit(name, item, path + (i,))

    for name in list_builtin_cases():
        visit(name, builtin_case(name), ())
    return out


TYPED_FIELDS = _typed_fields()

_NOT_INT_OR_BOOL = [st.floats(), st.text(max_size=3), st.lists(st.integers(), max_size=2), st.none()]
WRONG_VALUES = {
    "int": st.one_of(st.booleans(), *_NOT_INT_OR_BOOL),
    "bool": st.one_of(st.integers(), *_NOT_INT_OR_BOOL),
    "str": st.one_of(
        st.integers(), st.booleans(), st.floats(), st.lists(st.text(max_size=2), max_size=2),
        st.none(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    ),
}


def test_typed_fields_cover_every_section():
    kinds = {(path[0], kind) for _, path, kind in TYPED_FIELDS}
    assert kinds >= {
        ("ring", "int"), ("ring", "str"),
        ("targets", "int"), ("candidates", "int"),
        ("search", "int"), ("search", "bool"), ("genus", "int"),
        ("obstruction", "int"),
        ("name", "str"), ("anchor", "str"), ("search", "str"), ("obstruction", "str"),
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_builtins_name_the_field(data):
    name, path, kind = data.draw(st.sampled_from(TYPED_FIELDS))
    bad = builtin_case(name)
    _set(bad, path, data.draw(WRONG_VALUES[kind]))
    with pytest.raises(CaseError, match=re.escape(_field_name(path))):
        run_case(bad)


def test_run_case_rejects_malformed_candidates():
    doc = builtin_case("cp2-connect-sum")
    doc["candidates"] = [[[1, 2, 3]]]
    with pytest.raises(CaseError, match="candidates"):
        run_case(doc)


# -- command line -------------------------------------------------------------------


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "splitcheck", *argv],
        capture_output=True, text=True,
    )


def test_cli_list_names_everything():
    proc = run_cli("list")
    assert proc.returncode == 0
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == list_builtin_cases()
    assert "r-p (parameter: q)" in proc.stdout


def test_cli_verify_expectation_exit_codes():
    ok = run_cli("verify", "cp2-connect-sum", "--expect", "no-solutions")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["sections"]["search"]["solution_count"] == 0

    mismatch = run_cli("verify", "cp2-connect-sum", "--expect", "solutions")
    assert mismatch.returncode == 3
    assert "expectation not met" in mismatch.stderr

    positive = run_cli("verify", "s2xs2", "--expect", "solutions")
    assert positive.returncode == 0


def test_cli_verify_congruence_expectation(tmp_path, capsys):
    proc = run_cli("verify", "m20-eschenburg", "--expect", "congruence-fails")
    assert proc.returncode == 0
    # chi = 3, sigma = 1 holds in dimension 4, the ring's; taken in
    # dimension 8 it would fail, so a stale quarter_dim of 2 cannot make
    # --expect certify that
    doc = builtin_case("cp2-connect-sum")
    doc["genus"]["congruence"] = {"chi": 3, "sigma": 1, "quarter_dim": 2}
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path), "--expect", "congruence-fails"]) == 3
    out, err = capsys.readouterr()
    congruence = json.loads(out)["sections"]["genus"]["congruence"]
    assert congruence == {"chi": 3, "sigma": 1, "quarter_dim": 1, "holds": True}
    assert err == "expectation not met: expected the congruence to fail, but it holds\n"


@pytest.mark.parametrize("name", ["cp2-connect-sum", "hp1-presentation", "m20-eschenburg"])
def test_stale_dimension_and_switch_keys_run_on_the_derived_values(tmp_path, capsys, name):
    """`genus.congruence.quarter_dim` is derived from the case's dimension,
    and the obstruction's switches from chi and sigma, so none of them is
    read: with any value a document runs as without them, and only its
    input digest differs."""
    plain = run_case(builtin_case(name))
    for stale_dim, stale_switch in [(2, True), (0, False), ("5", "x")]:
        doc = builtin_case(name)
        doc["genus"]["congruence"]["quarter_dim"] = stale_dim
        if "obstruction" in doc:
            doc["obstruction"].update(euler_nonzero=stale_switch, almost_complex_forbidden=stale_switch)
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 0, stale_dim
        report = json.loads(capsys.readouterr().out)
        assert report["input_digest"] != plain["input_digest"], stale_dim
        assert {**report, "input_digest": None} == {**plain, "input_digest": None}, stale_dim


@pytest.mark.parametrize("name", ["hp1-presentation", "m20-eschenburg", "cp2-connect-sum"])
def test_cli_genus_takes_the_dimension_from_the_obstruction(capsys, name):
    """A case with no ring states its dimension in `obstruction.manifold_dim`:
    `genus` prints the genus section `verify` does (and the ring section,
    when there is a ring), and its digest covers the whole document, here
    `cp2-connect-sum`'s targets, candidates and search too."""
    assert main(["genus", name]) == 0
    report = json.loads(capsys.readouterr().out)
    verified = json.loads((GOLDEN_DIR / f"verify.{name}.json").read_text())
    assert report["sections"] == {k: v for k, v in verified["sections"].items() if k in ("ring", "genus")}
    assert report["input_digest"] == input_digest(builtin_case(name)) == verified["input_digest"]
    assert report["sections"]["genus"]["congruence"]["holds"] is False


def _cp2_with_obstruction() -> dict:
    """`cp2-connect-sum` with an obstruction section in its own dimension,
    so that every command has a section to print."""
    doc = builtin_case("cp2-connect-sum")
    doc["obstruction"] = {"factors": [{"family": "A", "rank": 1}], "manifold_dim": 4}
    return doc


_PROBE_BASES = {"cp2-connect-sum+obstruction": _cp2_with_obstruction,
                "hp1-presentation": lambda: builtin_case("hp1-presentation")}

# (base, path, value, the field `verify` names): one fault each, in a
# section some command does not print
_PROBES = [
    ("cp2-connect-sum+obstruction", ("search", "bound", "type"), "box", "search.bound.type"),
    ("cp2-connect-sum+obstruction", ("targets", "p1"), "x", "targets.p1"),
    ("cp2-connect-sum+obstruction", ("candidates", 0, 0), [1, 2, 3], "candidates[0][0]"),
    ("cp2-connect-sum+obstruction", ("candidates", 0), [[1, 2]], "candidates[0]"),
    ("cp2-connect-sum+obstruction", ("obstruction",), 5, "obstruction"),
    ("cp2-connect-sum+obstruction", ("obstruction", "manifold_dim"), 8, "obstruction.manifold_dim"),
    # one root of a 4-manifold: the count is checked where the roots are read
    ("cp2-connect-sum+obstruction", ("genus", "roots"), [[[1, [1, 0]]]], "genus.roots"),
    ("hp1-presentation", ("ring",), 5, "ring"),
    ("hp1-presentation", ("genus", "roots"), "x", "genus.roots"),
    ("hp1-presentation", ("search",), {"bound": {"type": "sum_of_squares", "multipliers": [1]}}, "'search'"),
]


@pytest.mark.parametrize("command", ["verify", "genus", "obstruct", "reps"])
@pytest.mark.parametrize("base", _PROBE_BASES)
def test_probe_bases_run_under_every_command(capsys, tmp_path, base, command):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_PROBE_BASES[base]()))
    assert main([command, str(path)]) == 0


@pytest.mark.parametrize("command", ["verify", "genus", "obstruct", "reps"])
@pytest.mark.parametrize(("base", "path", "value", "named"), _PROBES,
                         ids=[f"{base}:{_field_name(path)}" for base, path, *_ in _PROBES])
def test_every_command_refuses_what_verify_refuses(capsys, tmp_path, base, path, value, named, command):
    """Every command reads and checks the whole document, so a fault in a
    section it does not print exits 1 naming the field `verify` names."""
    doc = _PROBE_BASES[base]()
    _set(doc, path, value)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert main([command, str(case)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {named}"), err


def test_every_section_is_read_before_any_is_built():
    """A fault found while building the search (a zero form) stops only a
    command that prints the search, and a reading fault in a later section
    is reported before it."""
    doc = builtin_case("cp2-connect-sum")
    doc["search"]["bound"]["multipliers"] = [0]
    assert run_case(doc, command="genus")["sections"]["genus"]["congruence"]["holds"] is False
    with pytest.raises(CaseError, match=r"^search\.bound\.multipliers: combined form is not positive"):
        run_case(doc)
    doc["genus"]["congruence"]["chi"] = "x"
    for command in ("verify", "genus"):
        with pytest.raises(CaseError, match=r"^genus\.congruence\.chi: "):
            run_case(doc, command=command)


@pytest.mark.parametrize("argv", [
    [],
    ["verify"],
    ["verify", "su3-t2", "--budget", "x"],
    ["reps", "r-p", "--budget", "5"],
], ids=["no-command", "no-case", "budget-not-int", "budget-on-reps"])
def test_cli_usage_errors_exit_1(capsys, argv):
    """A command line argparse refuses exits 1, as every other refusal does,
    with the message on stderr and nothing on stdout."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: splitcheck"), err


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: splitcheck verify")


def test_cli_unknown_case_is_an_error():
    proc = run_cli("verify", "no-such-case")
    assert proc.returncode == 1
    assert "neither a built-in case nor an existing file" in proc.stderr


def test_cli_refuses_a_search_deeper_than_max_m(capsys):
    """The walk recurses once per bundle, and a splitting has top_degree / 2
    of them, so a top degree past 2 MAX_M is an error naming the ring's
    field and the limit, not a RecursionError traceback; MAX_M itself still
    runs."""
    for n in (MAX_M + 1, 300, 1000):
        capsys.readouterr()
        assert main(["verify", "cpn-split", "--q", str(n)]) == 1, n
        assert capsys.readouterr() == ("", (
            f"error: ring.top_degree: {2 * n} gives {n} line bundles; the search walks 1 to {MAX_M}\n"
        )), n
    # the zero vector, MAX_M times, is the one splitting with p1 = 0 and e = 0
    doc = builtin_case("cpn-split", MAX_M)
    doc["targets"] = {"p1": [], "euler": []}
    search = run_case(doc)["sections"]["search"]
    assert (search["exhaustive"], search["solutions"]) == (True, [[[0]] * MAX_M])


def test_a_stale_rank_or_bundle_count_runs_on_the_derived_one(tmp_path, capsys):
    """`targets.real_rank` and `search.m` are derived from `ring.top_degree`
    and never read: a document that still gives them runs the search for
    top_degree / 2 line bundles, and only its input digest differs."""
    plain = run_case(builtin_case("su3-t2"))
    doc = builtin_case("su3-t2")
    doc["targets"]["real_rank"] = 6
    doc["search"]["m"] = 2  # read once, as two bundles and a trivial plane, and refused
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input_digest"] != plain["input_digest"]
    assert {**report, "input_digest": None} == {**plain, "input_digest": None}
    # a rank-6 bundle on a 4-manifold is not its tangent bundle: the search
    # is for two line bundles, not three
    doc = builtin_case("cp2-connect-sum")
    doc["targets"].update(euler=[], real_rank=6)
    doc["search"]["m"] = 3
    search = run_case(doc)["sections"]["search"]
    ring = parse_presentation(doc["ring"])
    spec = _load_search_spec(ring, _load_targets(ring, doc["targets"]), doc["search"], None)
    assert spec.m == 2
    assert search["exhaustive"] is True
    assert search["solutions"] == [[list(vec) for vec in sol] for sol in ref_enumerate(spec)]


@pytest.mark.parametrize(("name", "par"), [("s2xs2", None), ("cpn-split", 2)])
def test_a_stale_sign_flag_runs_on_the_derived_rule(tmp_path, capsys, name, par):
    """The Euler class is matched up to sign, and only a Chern target pins a
    bundle's sign, so `targets.euler_sign_flexible` is never read: with any
    value a document runs as without it, and only its input digest differs."""
    plain = run_case(builtin_case(name, par))
    for stale in (True, False, "x"):
        doc = builtin_case(name, par)
        doc["targets"]["euler_sign_flexible"] = stale
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 0, stale
        report = json.loads(capsys.readouterr().out)
        assert report["input_digest"] != plain["input_digest"], stale
        assert {**report, "input_digest": None} == {**plain, "input_digest": None}, stale
    if name == "s2xs2":  # one solution up to sign, found on the sign-canonical ball
        search = plain["sections"]["search"]
        assert (search["solutions"], search["visited"]) == ([[[2, 0], [0, 2]]], 74)


def test_cli_refuses_a_ball_past_the_cap(tmp_path, capsys):
    """The budget bounds visits, not memory: p1 = 10^12 h^2 on CP^2 gives a
    box and a ball of 2,000,001 vectors, far inside the budget.  The
    ellipsoid stops at its MAX_BALL + 1st vector, and the search is refused
    naming the multipliers."""
    doc = builtin_case("cpn-split", 2)
    del doc["targets"]["chern"]  # it fixes p1 = 3h^2
    doc["targets"]["p1"] = [[10**12, [2]]]
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    started = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        f"error: search.bound.multipliers: the ball of the 2000001-cell box holds more than {MAX_BALL} vectors"
    ), err
    assert elapsed < 1.0


def _ring_document(tmp_path, generators, relations, top_degree):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"name": "ring", "ring": {
        "generators": generators, "relations": relations, "top_degree": top_degree,
    }}))
    return str(path)


def test_cli_refuses_more_generators_than_the_walks_recurse_through(tmp_path, capsys):
    """`monomials_of_degree` and the ellipsoid recurse once per generator, so
    a ring past MAX_GENERATORS is an error naming the field, not a
    RecursionError traceback; MAX_GENERATORS itself still runs."""
    for n, status in ((1500, 1), (MAX_GENERATORS + 1, 1), (MAX_GENERATORS, 0)):
        # x_i -> x_0 for each i > 0, so that x_0 alone spans the top degree
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        relations = [{"lhs": unit[i], "rhs": [[1, unit[0]]]} for i in range(1, n)]
        path = _ring_document(tmp_path, [f"x{i}" for i in range(n)], relations, 2)
        capsys.readouterr()
        assert main(["verify", path]) == status, n
        err = capsys.readouterr().err
        if status:
            assert err.startswith(f"error: ring.generators: {n} generators is more than the {MAX_GENERATORS}")
        assert "Traceback" not in err


def test_cli_verifies_a_rule_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    """1,890 rules carry each degree-120 monomial of three generators to the
    next, so reducing the first one takes 1,890 rewrites in a row."""
    monomials = list(monomials_of_degree(3, 60))
    relations = [{"lhs": list(a), "rhs": [[1, list(b)]]} for a, b in zip(monomials, monomials[1:])]
    assert len(relations) == 1890
    path = _ring_document(tmp_path, ["a", "b", "c"], relations, 120)
    capsys.readouterr()
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["sections"]["ring"]["basis_sizes"]["120"] == 1


def test_cli_parameter_flag(capsys):
    proc = run_cli("genus", "genus-cpn", "--q", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sections"]["genus"]["chi_y"] == [1, -1, 1]
    # a refused --q names --q, as a refused --budget names --budget; the
    # case's own check then names its parameter, q or n
    for argv, message in [
        (["s2xs2", "--q", "3"], "--q: case 's2xs2' takes no parameter"),
        (["r-p", "--q", "0"], "--q: q: expected an integer >= 1, got 0"),
        (["cpn-split", "--q", "1"], "--q: n: expected an integer >= 2, got 1"),
    ]:
        capsys.readouterr()
        assert main(["verify", *argv]) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_cli_genus_caps_the_integrators_work(capsys):
    """The genus integrator's work grows with the nonzero roots times n:
    CP^32's 33 roots give 1,056, past MAX_ROOT_WORK, and are refused at
    once naming `genus.roots`; CP^31's 32 roots (992) still run."""
    start = time.perf_counter()
    assert main(["genus", "genus-cpn", "--q", "32"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", (
        f"error: genus.roots: 33 nonzero roots times n = 32 is 1056, "
        f"more than the {MAX_ROOT_WORK} the genus integrates\n"
    ))
    assert main(["genus", "genus-cpn", "--q", "31"]) == 0
    assert json.loads(capsys.readouterr().out)["sections"]["genus"]["euler"] == 32


def test_builtin_parameters_are_integers_not_bools():
    # True is an int to Python; as q it would print "q = True" in the anchor
    with pytest.raises(CaseError, match="^q: expected an integer, got True"):
        builtin_case("r-p", True)
    with pytest.raises(CaseError, match="^n: expected an integer, got False"):
        builtin_case("genus-cpn", False)


def test_cli_budget_override(capsys):
    proc = run_cli("verify", "su3-t2", "--budget", "50")
    assert proc.returncode == 0
    search = json.loads(proc.stdout)["sections"]["search"]
    assert search["exhaustive"] is False
    assert search["budget"] == 50
    # an override bounds a search, with a budget of at least 0
    for argv, message in [
        (["genus-cpn", "--budget", "5"], "--budget: the case has no search section to bound"),
        (["su3-t2", "--budget", "-1"], "--budget: expected an integer >= 0, got -1"),
    ]:
        capsys.readouterr()
        assert main(["verify", *argv]) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_cli_reps_dumps_catalogs():
    proc = run_cli("reps", "hp1-presentation")
    assert proc.returncode == 0
    reps = json.loads(proc.stdout)["sections"]["reps"]
    assert set(reps) == {"SU(2)", "Spin(7)"}
    assert [e["name"] for e in reps["SU(2)"]] == ["W1", "W3", "W2"]
    assert reps["Spin(7)"][0]["field_type"] == "real"


def test_cli_obstruct_only_runs_that_section():
    proc = run_cli("obstruct", "hp1-presentation")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert list(report["sections"]) == ["obstruction"]
    assert report["sections"]["obstruction"]["verdict"] == "NO-VALID-V"
    missing = run_cli("obstruct", "cp2-connect-sum")
    assert missing.returncode == 1


def test_cli_emit_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    first = run_cli("verify", "cp2-connect-sum", "--emit", str(out))
    assert first.returncode == 0
    blob = out.read_bytes()
    assert blob.endswith(b"\n")
    again = tmp_path / "again.json"
    run_cli("verify", "cp2-connect-sum", "--emit", str(again))
    assert again.read_bytes() == blob
    # a non-integral rational is emitted as a "p/q" string: roots h/2 on CP^2
    doc = builtin_case("genus-cpn", 2)
    doc["genus"]["roots"] = [[["1/2", [1]]]] * 3
    case = tmp_path / "half.json"
    case.write_text(json.dumps(doc))
    halves = tmp_path / "half-report.json"
    assert run_cli("verify", str(case), "--emit", str(halves)).returncode == 0
    blob = halves.read_bytes()
    assert b'"chi_y":["1/4","-1/4","1/4"]' in blob and b'"euler":"3/4"' in blob
    assert blob == canonical_bytes(run_case(doc))
    # a path in a missing directory, or a directory, is an error naming it
    for path in (tmp_path / "missing" / "report.json", tmp_path):
        capsys.readouterr()
        assert main(["verify", "s2xs2", "--emit", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: --emit {path}: cannot write the report: "), err
        assert "Traceback" not in err


def test_cli_file_case_roundtrip(tmp_path):
    doc = builtin_case("cp2-connect-sum")
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify", str(path), "--expect", "no-solutions")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["input_digest"] == input_digest(doc)


def test_cli_rejects_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    assert "invalid JSON" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "genus", "obstruct", "reps"])
def test_unreadable_or_non_object_case_files_name_the_path(tmp_path, capsys, command):
    """A directory, a file that is not UTF-8, and a JSON value that is not
    an object are errors naming the path, for every subcommand."""
    folder = tmp_path / "cases"
    folder.mkdir()
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9"}')
    paths = [folder, latin]
    for i, body in enumerate(['"obstruction name"', "[1, 2]", "7", "null"]):
        paths.append(tmp_path / f"value{i}.json")
        paths[-1].write_text(body)
    for path in paths:
        capsys.readouterr()
        assert main([command, str(path)]) == 1, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, err
        assert "Traceback" not in err


def test_main_survives_a_closed_stdout(monkeypatch, tmp_path):
    sink = tmp_path / "stdout"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        """A stdout whose reader has gone: every write raises."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    out = tmp_path / "report.json"
    try:
        # --emit and --expect still run and set the exit code
        assert main(["obstruct", "m20-eschenburg", "--emit", str(out)]) == 0
        assert json.loads(out.read_bytes())["sections"]["obstruction"]["verdict"] == "NO-VALID-V"
        assert main(["verify", "cp2-connect-sum", "--expect", "solutions"]) == 3
        assert main(["verify", "cp2-connect-sum", "--expect", "no-solutions"]) == 0
        assert main(["list"]) == 0
        # the descriptor now points at the null device
        os.write(fd, b"lost")
        assert sink.read_bytes() == b""
    finally:
        os.close(fd)


def test_cli_reader_closing_early_gets_no_traceback():
    # the printed m20 report is larger than a pipe's buffer, so the write fails
    with subprocess.Popen(
        [sys.executable, "-m", "splitcheck", "obstruct", "m20-eschenburg"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_main_in_process_exit_codes(capsys):
    assert main(["list"]) == 0
    assert main(["verify", "genus-cpn", "--q", "2"]) == 0
    capsys.readouterr()
    # a command refuses a case without the section it cannot run without, naming it
    for command, name, needed in [("reps", "cp2-connect-sum", "obstruction"),
                                  ("obstruct", "cp2-connect-sum", "obstruction"),
                                  ("genus", "su3-t2", "genus")]:
        assert main([command, name]) == 1
        assert capsys.readouterr().err.startswith(f"error: '{needed}': {command} needs this section"), command
