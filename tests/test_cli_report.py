"""Case documents, report serialization, and the command-line surface."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ref_jsonable, ref_refused_at
from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.cli import CaseError, main, run_case
from splitcheck.genus import MAX_ROOTS
from splitcheck.report import (
    CanonicalError,
    canonical_bytes,
    check_exact,
    exact_json,
    fraction_from_json,
    input_digest,
)
from splitcheck.repcat import MAX_RANK
from splitcheck.ring import MAX_GENERATORS, monomials_of_degree
from splitcheck.search import MAX_M

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
    assert sections["ring"]["confluent"]
    assert sections["ring"]["basis_sizes"] == {"0": 1, "2": 2, "4": 1}
    match = sections["matching"][0]
    assert match["candidate"] == [[1, 2], [0, 1]]
    assert match["p1_ok"] and not match["euler_ok"] and not match["matched"]
    assert match["residuals"]["euler"] == "-2*u^2"
    search = sections["search"]
    assert search["enumerated"] == 625
    assert search["visited"] == 36
    assert search["solution_count"] == 0
    assert search["exhaustive"] is True
    assert search["visited_fraction"] == Fraction(36, 625)
    assert search["wall_clock_s"] is None
    genus = sections["genus"]["congruence"]
    assert genus["holds"] is False
    # the report itself serializes canonically
    assert canonical_bytes(report) == canonical_bytes(json.loads(canonical_bytes(report)))


def test_run_case_obstruction_sections():
    report = run_case(builtin_case("m20-eschenburg"))
    section = report["sections"]["obstruction"]
    assert section["factors"] == ["SU(2)", "Spin(11)"]
    assert section["verdict"] == "NO-VALID-V"
    assert len(section["catalog"]) == 16
    assert len(section["traces"]) == 174
    for trace in section["traces"]:
        assert trace["rejected_by"] in ("F1", "F2")
        assert trace["detail"]
    assert report["sections"]["genus"]["congruence"]["holds"] is False


def test_obstruction_traces_are_catalog_multiplicities():
    hp1 = json.loads(canonical_bytes(run_case(builtin_case("hp1-presentation"))))
    assert [(t["summands"], t["rejected_by"]) for t in hp1["sections"]["obstruction"]["traces"]] == [
        ([["W1x1", 4]], "F1"),
        ([["W1x1", 1], ["W3x1", 1]], "F1"),
        ([["W2x1", 1]], "F2"),
    ]
    # the canonical report alone is enough to check each m20 trace
    blob = canonical_bytes(run_case(builtin_case("m20-eschenburg")))
    assert len(blob) <= 30_000
    section = json.loads(blob)["sections"]["obstruction"]
    order = [entry["name"] for entry in section["catalog"]]
    catalog = {entry["name"]: entry for entry in section["catalog"]}
    for trace in section["traces"]:
        names = [name for name, _ in trace["summands"]]
        assert all(name in catalog for name in names)
        positions = [order.index(name) for name in names]
        assert positions == sorted(set(positions))  # catalog order, no repeats
        assert all(isinstance(count, int) and count > 0 for _, count in trace["summands"])
        assert sum(count * catalog[name]["real_dim"] for name, count in trace["summands"]) == 20
        if trace["rejected_by"] == "F2":
            assert all(catalog[name]["field_type"] in ("complex", "quaternionic") for name in names)


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


# sha256 of the canonical report of each built-in, at its default and over
# the parameter ranges the acceptance criteria use.  A refactor must leave
# every report byte-identical; a deliberate report change updates these
# digests and says so in CHANGES.md.
REPORT_DIGESTS = {
    ("cp2-connect-sum", None): "59a4e383213af5a41ace4dd79c2e746cc65e982582896335ca49dd71d4d97a32",
    ("cpn-split", None): "310ea743687c81f4354128978548fd387c2b0bb70f8330cf6bfd8b4b832dae9e",
    ("genus-cpn", None): "2b398264396332fc47a001c5cea660460a819466ae51e3f426f2f807650aebfc",
    ("hp1-presentation", None): "350c0b3239685dd3ad833bc649ee9f7a4d0647f26a45c1f09f2c79a0390b52f4",
    ("m20-eschenburg", None): "e300025cc6555e38c7a8268397da2e80c0b62aaee097f8edd7cec7afaaa59801",
    ("r-p", None): "0bb33082e633a3850ed20ca2279808899205f46ece14997f9c5c6f4b03deff72",
    ("r-p-u-variant", None): "0ce4192f31ee4ba2d99597f593dc11278ea904ce856d9dae9ad6223dced29cc7",
    ("s2xs2", None): "a462e9d1b455a631308fcd254b853f8a295d76e2bfe57ccc909e231e38148ab9",
    ("sp2-t2", None): "dc794aba5a924e885fa4a760616fd25cfb5ff169fff7206c6c92c79304e7d239",
    ("su3-t2", None): "9fb950bc1a78ff6fac652a77dbb8d2ee3b85a56fd2eeddad0da334e524c27976",
    ("r-p", 1): "aa5d25633f1b163a383e658fe6a86ac565da2bf4d03ed345e90172b0021a2706",
    ("r-p", 2): "0bb33082e633a3850ed20ca2279808899205f46ece14997f9c5c6f4b03deff72",
    ("r-p", 3): "36ca623301563d423993db696ec3ac7b1e94c6a6ca6b2508a31702a029713a75",
    ("r-p", 4): "cf0f9280f47b0edfeb43731cd55e367776bce70b4fb9d2200e5b4de8e726afb1",
    ("r-p", 5): "0a93faf9bfa80d039cc85db174dc208a9f67346e79f24b8cc29d05db3d53502d",
    ("cpn-split", 2): "310ea743687c81f4354128978548fd387c2b0bb70f8330cf6bfd8b4b832dae9e",
    ("cpn-split", 3): "9c8e3157460a09e7c5c7f46e989a4db82c15e05e4c738ee028f3b15a25cecf7e",
    ("cpn-split", 4): "9075c88952ab7f031729282654fd9170f0a20b80b7b52f2ff4ebf56c8d53bedf",
    ("genus-cpn", 1): "845cedd30a2bb5bfa5934f7ab71ee6d31bdcd61bb2e3b6aa09d7baf0e5b418ed",
    ("genus-cpn", 2): "2b398264396332fc47a001c5cea660460a819466ae51e3f426f2f807650aebfc",
    ("genus-cpn", 3): "4316655eac6f5d52fdc228c3ba8bffcf1898ee2fc1a5f2ecc3175a1cb3734a9d",
    ("genus-cpn", 4): "117b7f094996803dbc9e7c4c0c29227e144106eb62d94fdd3a4286aac1715adf",
}


def test_report_digests_cover_every_builtin():
    assert {name for name, par in REPORT_DIGESTS if par is None} == set(list_builtin_cases())


@pytest.mark.parametrize(("name", "par"), list(REPORT_DIGESTS),
                         ids=[n if p is None else f"{n}-{p}" for n, p in REPORT_DIGESTS])
def test_builtin_reports_are_byte_identical(name, par):
    report = canonical_bytes(run_case(builtin_case(name, par)))
    assert hashlib.sha256(report).hexdigest() == REPORT_DIGESTS[(name, par)]


# sha256 of what `splitcheck reps NAME` prints
REPS_DIGESTS = {
    "hp1-presentation": "747b346a9621f80875fbac1ee194ab650aeda0c48c12308daa82f77a357dae97",
    "m20-eschenburg": "4918784298e21f2db38a97eb01525e4dc21671978abf7d9c2ad7ea09bf99e203",
}


@pytest.mark.parametrize("name", list(REPS_DIGESTS))
def test_cli_reps_output_is_byte_identical(name, capsys):
    assert main(["reps", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPS_DIGESTS[name]


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
    "fundamental": [20] + [0] * 7,
}


# the projective line: h^2 = 0, top degree 2
_LINE_RING = {
    "generators": ["h"],
    "relations": [{"lhs": [2], "rhs": []}],
    "top_degree": 2,
    "fundamental": [1],
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
        ("sp2-t2", ("targets", "euler_sign_flexible"), "false"),
        ("hp1-presentation", ("obstruction", "euler_nonzero"), 1),
        ("m20-eschenburg", ("obstruction", "almost_complex_forbidden"), None),
        # a switch a case file still gives must equal the one chi and sigma give
        ("hp1-presentation", ("obstruction", "almost_complex_forbidden"), False),
        ("m20-eschenburg", ("obstruction", "euler_nonzero"), False),
        ("su3-t2", ("search", "m"), [1]),
        ("su3-t2", ("search", "m"), 2.7),
        ("su3-t2", ("search", "m"), "2"),
        ("su3-t2", ("search", "budget"), {}),
        ("su3-t2", ("search", "budget"), -5),
        ("s2xs2", ("search", "bound", "per_variable", 0), True),
        ("su3-t2", ("targets", "real_rank"), None),
        # a negative rank is the rank's error, not the candidates' or search.m's
        ("cp2-connect-sum", ("targets", "real_rank"), -2),
        ("su3-t2", ("targets", "real_rank"), -2),
        # text fields are JSON strings only: str() would print 7 as "7"
        ("cp2-connect-sum", ("name",), 7),
        ("cp2-connect-sum", ("anchor",), 7),
        ("s2xs2", ("search", "bound", "note"), {"a": 1}),
        ("hp1-presentation", ("obstruction", "provenance"), None),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), "20"),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), 7),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), 0),
        # (-1) ** quarter_dim is a float below 1, and a dimension 4m needs m >= 1
        ("m20-eschenburg", ("genus", "congruence", "quarter_dim"), 0),
        ("m20-eschenburg", ("genus", "congruence", "quarter_dim"), -1),
        # the obstruction's congruence is taken in its own dimension
        ("hp1-presentation", ("genus", "congruence", "quarter_dim"), 2),
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
        ("m20-eschenburg", ("genus", "congruence", "quarter_dim"), "5"),
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
        ("cp2-connect-sum", ("ring", "fundamental"), [True, 1]),
        ("cp2-connect-sum", ("ring", "top_degree"), True),
        # no generators is the generators' error, not the first exponent vector's
        ("cp2-connect-sum", ("ring", "generators"), []),
        # a ring too large to check names the degree that makes it so
        ("cp2-connect-sum", ("ring",), _BIG_RING, ("ring", "top_degree")),
        # search and candidate errors name the field they come from
        ("cp2-connect-sum", ("ring", "relations", 0), {"lhs": [1, 1], "rhs": [[1, [2, 0]]]},
         ("search", "bound", "multipliers")),
        # a ring below degree 4 has no degree-4 equation to weight
        (("cpn-split", 2), ("ring",), _LINE_RING, ("search", "bound", "multipliers")),
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
        ("cp2-connect-sum", ("search", "m"), 3),
        ("cp2-connect-sum", ("search", "m"), 1),
        ("cp2-connect-sum", ("search", "m"), 0),
        ("s2xs2", ("search", "bound", "per_variable"), [3]),
        ("cp2-connect-sum", ("candidates", 0), [[1, 2], [0, 1], [0, 1]]),
        ("cp2-connect-sum", ("candidates", 0), []),
        # targets no sum of line bundles reaches would certify vacuously
        ("s2xs2", ("targets", "p1"), [[1, [1, 0]]]),
        ("cp2-connect-sum", ("targets", "euler"), [[4, [1, 0]]]),
        (("cpn-split", 3), ("targets", "chern"), [[4, [1]], [6, [2]], [4, [3]]]),
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
    big["genus"]["congruence"]["quarter_dim"] = 15
    _refused(big, "obstruction.manifold_dim", tmp_path, capsys)
    # the obstruction's switches come from genus.congruence, so it is required
    no_genus = builtin_case("hp1-presentation")
    del no_genus["genus"]
    _refused(no_genus, "genus.congruence", tmp_path, capsys)


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


_INT_KEYS = ("m", "budget", "real_rank", "manifold_dim", "chi", "sigma", "quarter_dim", "top_degree")
_BOOL_KEYS = ("euler_sign_flexible", "acknowledged")
# optional cross-checks of the derived switches, which no built-in gives
_OBSTRUCTION_BOOL_KEYS = ("euler_nonzero", "almost_complex_forbidden")
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
                elif key in ("per_variable", "multipliers", "lhs", "fundamental"):
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
        doc = builtin_case(name)
        visit(name, doc, ())
        if "obstruction" in doc:
            out.extend((name, ("obstruction", key), "bool") for key in _OBSTRUCTION_BOOL_KEYS)
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
        ("targets", "int"), ("targets", "bool"), ("candidates", "int"),
        ("search", "int"), ("search", "bool"), ("genus", "int"),
        ("obstruction", "int"), ("obstruction", "bool"),
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
    # dimension 8 it would fail, and --expect would certify that
    doc = builtin_case("cp2-connect-sum")
    doc["genus"]["congruence"] = {"chi": 3, "sigma": 1, "quarter_dim": 2}
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path), "--expect", "congruence-fails"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: genus.congruence.quarter_dim: expected ring.top_degree / 4, got 2"), err


def test_cli_unknown_case_is_an_error():
    proc = run_cli("verify", "no-such-case")
    assert proc.returncode == 1
    assert "neither a built-in case nor an existing file" in proc.stderr


def test_cli_refuses_a_search_deeper_than_max_m(tmp_path):
    """The walk recurses once per bundle, so a search.m past MAX_M is an
    error naming the field and the limit, not a RecursionError traceback;
    MAX_M itself still runs."""
    doc = builtin_case("cp2-connect-sum")
    doc["targets"]["euler"] = []
    doc["targets"]["real_rank"] = 1980
    doc["search"]["m"] = 990
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    for argv in (["verify", "cpn-split", "--q", "1000"], ["verify", str(path)]):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: search.m: ")
        assert f"the {MAX_M} the search walks" in proc.stderr
        assert "Traceback" not in proc.stderr
    doc["search"]["m"] = MAX_M
    assert run_case(doc)["sections"]["search"]["exhaustive"] is True


def _ring_document(tmp_path, generators, relations, top_degree, fundamental):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"name": "ring", "ring": {
        "generators": generators, "relations": relations,
        "top_degree": top_degree, "fundamental": fundamental,
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
        path = _ring_document(tmp_path, [f"x{i}" for i in range(n)], relations, 2, unit[0])
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
    path = _ring_document(tmp_path, ["a", "b", "c"], relations, 120, list(monomials[-1]))
    capsys.readouterr()
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["sections"]["ring"]["basis_sizes"]["120"] == 1


def test_cli_parameter_flag():
    proc = run_cli("genus", "genus-cpn", "--q", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sections"]["genus"]["chi_y"] == [1, -1, 1]
    rejected = run_cli("verify", "s2xs2", "--q", "3")
    assert rejected.returncode == 1


def test_builtin_parameters_are_integers_not_bools():
    # True is an int to Python; as q it would print "q = True" in the anchor
    with pytest.raises(CaseError, match="^q: expected an integer, got True"):
        builtin_case("r-p", True)
    with pytest.raises(CaseError, match="^n: expected an integer, got False"):
        builtin_case("genus-cpn", False)


def test_cli_budget_override():
    proc = run_cli("verify", "su3-t2", "--budget", "50")
    assert proc.returncode == 0
    search = json.loads(proc.stdout)["sections"]["search"]
    assert search["exhaustive"] is False
    assert search["budget"] == 50


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
    parsed = json.loads(blob)
    assert parsed["sections"]["search"]["visited_fraction"] == "36/625"
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
    assert main(["reps", "cp2-connect-sum"]) == 1  # no obstruction section
    capsys.readouterr()
