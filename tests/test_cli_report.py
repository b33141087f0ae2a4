"""Case documents, report serialization, and the command-line surface."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

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
    assert search["visited"] == 96
    assert search["solution_count"] == 0
    assert search["exhaustive"] is True
    assert search["visited_fraction"] == Fraction(96, 625)
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
    for name, path, value in [
        ("s2xs2", ("search", "bound", "acknowledged"), "false"),
        ("sp2-t2", ("targets", "euler_sign_flexible"), "false"),
        ("hp1-presentation", ("obstruction", "euler_nonzero"), 1),
        ("m20-eschenburg", ("obstruction", "almost_complex_forbidden"), None),
        ("su3-t2", ("search", "m"), [1]),
        ("su3-t2", ("search", "m"), 2.7),
        ("su3-t2", ("search", "m"), "2"),
        ("su3-t2", ("search", "budget"), {}),
        ("su3-t2", ("search", "budget"), -5),
        ("r-p", ("search", "stage_axis"), True),
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
    ]:
        bad = builtin_case(name)
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        with pytest.raises(CaseError, match=re.escape(field)):
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
    proc = run_cli("verify", "su3-t2", "--budget", "100")
    assert proc.returncode == 0
    search = json.loads(proc.stdout)["sections"]["search"]
    assert search["exhaustive"] is False
    assert search["budget"] == 100


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
    assert parsed["sections"]["search"]["visited_fraction"] == "96/625"


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
