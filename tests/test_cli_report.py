"""Case documents, report serialization, and the command-line surface."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.cli import CaseError, main, run_case
from splitcheck.report import canonical_bytes, fraction_from_json, input_digest, jsonable

# -- serialization ----------------------------------------------------------------


def test_jsonable_rationals():
    assert jsonable(Fraction(1, 12)) == "1/12"
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable(Fraction(-3, 4)) == "-3/4"
    assert jsonable([Fraction(1, 2), 3, "x", None, True]) == ["1/2", 3, "x", None, True]


def test_jsonable_refuses_floats_and_bad_keys():
    with pytest.raises(TypeError, match="float"):
        jsonable({"a": 0.5})
    with pytest.raises(TypeError, match="keys"):
        jsonable({1: "a"})
    with pytest.raises(TypeError):
        jsonable({"a": object()})


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
    with pytest.raises(ValueError):
        fraction_from_json(True, "x")
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


def test_run_case_genus_roots():
    report = run_case(builtin_case("genus-cpn", 3))
    genus = report["sections"]["genus"]
    assert genus["chi_y"] == [1, -1, 1, -1]
    assert genus["euler"] == 4
    assert genus["signature"] == 0
    assert genus["todd"] == 1
    assert genus["duality"] is True


# sha256 of the canonical report of each built-in, at its default and over
# the parameter ranges the acceptance criteria use.  A refactor must leave
# every report byte-identical; a deliberate report change updates these
# digests and says so in CHANGES.md.
REPORT_DIGESTS = {
    ("cp2-connect-sum", None): "59a4e383213af5a41ace4dd79c2e746cc65e982582896335ca49dd71d4d97a32",
    ("cpn-split", None): "310ea743687c81f4354128978548fd387c2b0bb70f8330cf6bfd8b4b832dae9e",
    ("genus-cpn", None): "2b398264396332fc47a001c5cea660460a819466ae51e3f426f2f807650aebfc",
    ("hp1-presentation", None): "2e5bc1727a73d1b2b14b72994bb04d9b9a164e35aaa6960e4e31478a4c74e211",
    ("m20-eschenburg", None): "a9d6d1d7aa52658f1591512a57eaf43408963d8cb7b37898f43497e4b2dcbf4b",
    ("r-p", None): "0bb33082e633a3850ed20ca2279808899205f46ece14997f9c5c6f4b03deff72",
    ("r-p-u-variant", None): "0ce4192f31ee4ba2d99597f593dc11278ea904ce856d9dae9ad6223dced29cc7",
    ("s2xs2", None): "a462e9d1b455a631308fcd254b853f8a295d76e2bfe57ccc909e231e38148ab9",
    ("sp2-t2", None): "dc794aba5a924e885fa4a760616fd25cfb5ff169fff7206c6c92c79304e7d239",
    ("su3-t2", None): "9fb950bc1a78ff6fac652a77dbb8d2ee3b85a56fd2eeddad0da334e524c27976",
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


# 8 generators, no relations, top degree 40: 3.1 million monomials to walk
_BIG_RING = {
    "generators": [f"x{i}" for i in range(8)],
    "relations": [],
    "top_degree": 40,
    "fundamental": [20] + [0] * 7,
}


def test_run_case_errors_name_the_field():
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
    with pytest.raises((CaseError, ValueError), match="targets.p1"):
        run_case(bad)
    # booleans are JSON true/false only: bool("false") would be True;
    # integers are JSON integers only: int("2") and int(2.7) would pass, and
    # True is an int to Python
    for name, path, value, *named in [
        ("s2xs2", ("search", "bound", "acknowledged"), "false"),
        ("sp2-t2", ("targets", "euler_sign_flexible"), "false"),
        ("hp1-presentation", ("obstruction", "euler_nonzero"), 1),
        ("m20-eschenburg", ("obstruction", "almost_complex_forbidden"), None),
        ("su3-t2", ("search", "m"), [1]),
        ("su3-t2", ("search", "m"), 2.7),
        ("su3-t2", ("search", "m"), "2"),
        ("su3-t2", ("search", "budget"), {}),
        ("su3-t2", ("search", "budget"), -5),
        ("s2xs2", ("search", "bound", "per_variable", 0), True),
        ("su3-t2", ("targets", "real_rank"), None),
        ("m20-eschenburg", ("obstruction", "manifold_dim"), "20"),
        ("hp1-presentation", ("obstruction", "factors", 0, "rank"), True),
        ("hp1-presentation", ("genus", "congruence", "chi"), [1]),
        ("hp1-presentation", ("genus", "congruence", "chi"), True),
        ("hp1-presentation", ("genus", "congruence", "sigma"), 0.0),
        ("m20-eschenburg", ("genus", "congruence", "quarter_dim"), "5"),
        # root-data errors carry the field, not just "root #0" or a count
        ("genus-cpn", ("genus", "roots"), [[[1, [1]]]]),
        ("genus-cpn", ("genus", "roots"), [[[1, [2]]]] * 3),
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
        # a ring too large to check names the degree that makes it so
        ("cp2-connect-sum", ("ring",), _BIG_RING, ("ring", "top_degree")),
        # search and candidate errors name the field they come from
        ("cp2-connect-sum", ("ring", "relations", 0), {"lhs": [1, 1], "rhs": [[1, [2, 0]]]},
         ("search", "bound", "multipliers")),
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
    ]:
        bad = builtin_case(name) if isinstance(name, str) else builtin_case(*name)
        _set(bad, path, value)
        with pytest.raises(CaseError, match=re.escape(_field_name(named[0] if named else path))):
            run_case(bad)


def _set(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _field_name(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


_INT_KEYS = ("m", "budget", "real_rank", "manifold_dim", "chi", "sigma", "quarter_dim")
_BOOL_KEYS = ("euler_sign_flexible", "acknowledged", "euler_nonzero", "almost_complex_forbidden")


def _typed_fields() -> list:
    """(case, path, kind, named path) for each typed leaf `run_case` reads
    outside the ring.  A coordinate or exponent error names its vector."""
    out = []

    def visit(name, node, path) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                here = path + (key,)
                if key in _BOOL_KEYS:
                    out.append((name, here, "bool", here))
                elif key in _INT_KEYS or (key == "rank" and "factors" in path):
                    out.append((name, here, "int", here))
                elif key == "per_variable":
                    out.extend((name, here + (i,), "int", here + (i,)) for i in range(len(value)))
                elif key in ("p1", "euler", "chern"):
                    for i, (_, exps) in enumerate(value):
                        vec = here + (i, 1)
                        out.extend((name, vec + (k,), "int", vec) for k in range(len(exps)))
                elif key == "roots":
                    for i, root in enumerate(value):
                        for j, (_, exps) in enumerate(root):
                            vec = here + (i, j, 1)
                            out.extend((name, vec + (k,), "int", vec) for k in range(len(exps)))
                elif key == "candidates":
                    for i, cand in enumerate(value):
                        for j, coords in enumerate(cand):
                            vec = here + (i, j)
                            out.extend((name, vec + (k,), "int", vec) for k in range(len(coords)))
                elif key != "ring":
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
}


def test_typed_fields_cover_every_section():
    kinds = {(path[0], kind) for _, path, kind, _ in TYPED_FIELDS}
    assert kinds >= {
        ("targets", "int"), ("targets", "bool"), ("candidates", "int"),
        ("search", "int"), ("search", "bool"), ("genus", "int"),
        ("obstruction", "int"), ("obstruction", "bool"),
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_builtins_name_the_field(data):
    name, path, kind, named = data.draw(st.sampled_from(TYPED_FIELDS))
    bad = builtin_case(name)
    _set(bad, path, data.draw(WRONG_VALUES[kind]))
    with pytest.raises(CaseError, match=re.escape(_field_name(named))):
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


def test_cli_verify_congruence_expectation():
    proc = run_cli("verify", "m20-eschenburg", "--expect", "congruence-fails")
    assert proc.returncode == 0


def test_cli_unknown_case_is_an_error():
    proc = run_cli("verify", "no-such-case")
    assert proc.returncode == 1
    assert "neither a built-in case nor an existing file" in proc.stderr


def test_cli_parameter_flag():
    proc = run_cli("genus", "genus-cpn", "--q", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sections"]["genus"]["chi_y"] == [1, -1, 1]
    rejected = run_cli("verify", "s2xs2", "--q", "3")
    assert rejected.returncode == 1


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


def test_cli_emit_writes_canonical_file(tmp_path):
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


def test_main_in_process_exit_codes(capsys):
    assert main(["list"]) == 0
    assert main(["verify", "genus-cpn", "--q", "2"]) == 0
    assert main(["reps", "cp2-connect-sum"]) == 1  # no obstruction section
    capsys.readouterr()
