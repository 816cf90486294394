import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stablyfree import cli
from stablyfree.cli import build_parser, main, parse_polynomial
from stablyfree.algebra import polynomial_algebra
from stablyfree.modp import Prime

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- polynomial parsing -------------------------------------------------------

def test_parse_polynomial_round_trips():
    p = Prime(3)
    for text in ["c2", "c1*c2 + c3", "2*c1^3*c2 + c4", "c1^2 - c2"]:
        elt = parse_polynomial(text, p)
        assert parse_polynomial(elt.render(), p) == elt


def test_parse_polynomial_rejects_garbage():
    from stablyfree.cli import CliError
    p = Prime(3)
    for bad in ["", "c2 +", "a2", "c1 ** 2", "c1 ^", "(c1)", "^2", "c0",
                "c1^^2", "c2*", "*c2", "c1 c2"]:
        with pytest.raises(CliError):
            parse_polynomial(bad, p)


def test_parse_polynomial_scalars_and_cancellation():
    p = Prime(2)
    assert parse_polynomial("2", p).is_zero()
    assert parse_polynomial("3", p).render() == "1"
    assert parse_polynomial("c1 - c1", p).is_zero()


def test_parse_polynomial_matches_direct_construction():
    p = Prime(5)
    alg = polynomial_algebra(p, 3)
    want = alg.gen("c1") * alg.gen("c2") * 2 + alg.gen("c3") * 4
    assert parse_polynomial("2*c1*c2 + 4*c3", p) == want
    assert parse_polynomial("2*c1*c2 - c3", p) == want


# -- steenrod -----------------------------------------------------------------

def test_steenrod_group_class():
    code, out, _ = run_cli("steenrod", "-p", "3", "--group", "Sp:4",
                           "--class", "a2", "--op", "1")
    assert code == 0 and out == "a4\n"


def test_steenrod_poly():
    code, out, _ = run_cli("steenrod", "-p", "2", "--poly", "c2", "--op", "1")
    assert code == 0 and out == "c1*c2 + c3\n"


def test_steenrod_unstable_power_is_zero():
    # P^20000(c1) = 0 by instability
    code, out, _ = run_cli("steenrod", "-p", "2", "--poly", "c1",
                           "--op", "20000")
    assert code == 0 and out == "0\n"


def test_steenrod_has_no_roots_option():
    # the stable answer holds in any number of roots, so none is asked for
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["steenrod", "-p", "2", "--poly", "c2", "--op", "1",
              "--roots", "3"])
    assert exc.value.code == 2


def test_steenrod_unit():
    code, out, _ = run_cli("steenrod", "-p", "5", "--group", "GL:6",
                           "--class", "a3", "--op", "0")
    assert code == 0 and out == "a3\n"


def test_steenrod_errors_exit_two():
    cases = [
        ("steenrod", "-p", "4", "--poly", "c1", "--op", "1"),      # not prime
        ("steenrod", "-p", "2", "--op", "1"),                      # no input
        ("steenrod", "-p", "2", "--group", "GL:3", "--class", "c1", "--op", "1"),
        ("steenrod", "-p", "2", "--group", "GL3", "--class", "a1", "--op", "1"),
    ]
    for argv in cases:
        code, _, err = run_cli(*argv)
        assert code == 2 and err, argv


def test_steenrod_json():
    code, out, _ = run_cli("steenrod", "-p", "3", "--group", "Sp:4",
                           "--class", "a2", "--op", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "a4"
    assert payload["element"]["terms"] == [
        {"coefficient": 1, "even": [], "odd": ["a4"]}]


# -- tor ----------------------------------------------------------------------

def test_tor_gl_summary():
    code, out, _ = run_cli("tor", "--family", "GL", "--n", "5", "--r", "2",
                           "--p", "3")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "odd basis: a3 a4 a5"


def test_tor_sp_example():
    code, out, _ = run_cli("tor", "--family", "Sp", "--n", "2", "--p", "3")
    assert code == 0
    assert "odd basis: a4" in out
    assert "dc4" in out


def test_tor_so_torsion_prime():
    code, out, err = run_cli("tor", "--family", "SO", "--n", "3", "--p", "2")
    assert code == 2 and not out and "torsion prime" in err


def test_tor_json():
    code, out, _ = run_cli("tor", "--family", "Sp", "--n", "2", "--p", "3",
                           "--json")
    payload = json.loads(out)
    assert payload["odd_basis"] == ["a4"]
    assert code == 0


# -- obstruct -----------------------------------------------------------------

def test_obstruct_gl_obstructed():
    code, out, _ = run_cli("obstruct", "gl", "--n", "3", "--a", "0",
                           "--b", "2", "-p", "2")
    assert code == 0
    assert "P^1(a2)" in out and "obstructed" in out


def test_obstruct_sp_example():
    code, out, _ = run_cli("obstruct", "sp", "--n", "2", "-p", "3")
    assert code == 0 and "obstructed" in out


def test_obstruct_none_found_exits_one():
    code, out, _ = run_cli("obstruct", "gl", "--n", "2", "--a", "0",
                           "--b", "1", "-p", "2")
    assert code == 1
    assert "no obstruction found by this method" in out


def test_obstruct_oracle_flag():
    code, out, _ = run_cli("obstruct", "sp", "--n", "2", "-p", "3", "--oracle")
    assert code == 0 and "agree" in out
    code, out, _ = run_cli("obstruct", "gl", "--n", "5", "--a", "0", "--b", "4",
                           "-p", "2", "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True


def test_obstruct_invalid_exits_two():
    code, _, err = run_cli("obstruct", "so", "--n", "3", "-p", "2")
    assert code == 2 and "torsion prime" in err
    code, _, err = run_cli("obstruct", "gl", "--n", "3", "--a", "2", "--b", "1",
                           "-p", "2")
    assert code == 2


def test_obstruct_scan():
    code, out, _ = run_cli("obstruct", "scan", "--q", "2", "-p", "2",
                           "--n-max", "20")
    assert code == 0
    assert "matches divisibility pattern: yes" in out


# -- verify -------------------------------------------------------------------

def test_verify_examples():
    code, out, _ = run_cli("verify", "--axiom", "adem", "-p", "2", "--bound", "12")
    assert code == 0 and "failures=0" in out
    code, out, _ = run_cli("verify", "--axiom", "unit", "-p", "7", "--bound", "8")
    assert code == 0
    code, out, _ = run_cli("verify", "--axiom", "cartan", "-p", "3", "--bound", "10")
    assert code == 0


@pytest.mark.parametrize("axiom", cli.AXIOMS)
@pytest.mark.parametrize("p", [2, 3])
def test_verify_bound_zero_checks_nothing(axiom, p):
    # bound 0 leaves the test pool empty: no identity to check, none failed
    argv = ("verify", "--axiom", axiom, "-p", str(p), "--bound", "0")
    assert run_cli(*argv) == (
        0, f"axiom={axiom} p={p} bound=0 identities=0 failures=0 ok\n", "")
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"axiom": axiom, "p": p, "degree_bound": 0,
                               "identities_checked": 0, "failures": [],
                               "passed": True}


def test_verify_bad_axiom_exits_two():
    code, _, err = run_cli("verify", "--axiom", "bogus", "-p", "2", "--bound", "5")
    assert code == 2 and "unknown axiom" in err


@pytest.mark.parametrize("axiom, known", [
    ("adem", ("P^1P^1(c2) = Adem sum", "2*c2^3", "c2^3")),
    ("cartan", ("P^0((c2)*(c3)) = sum of products", "c2*c3", "2*c2*c3")),
])
def test_verify_reports_failures(planted_seed, axiom, known):
    argv = ("verify", "--axiom", axiom, "-p", "3", "--bound", "10")
    code, out, err = run_cli(*argv)
    assert (code, err) == (1, "")
    summary, *lines = out.splitlines()
    assert summary.endswith(" FAILED") and "failures=0" not in summary
    assert lines and len(lines) % 3 == 0
    text = []
    for fail, lhs, rhs in zip(lines[::3], lines[1::3], lines[2::3]):
        assert fail.startswith("FAIL ")
        assert lhs.startswith("  lhs = ") and rhs.startswith("  rhs = ")
        assert lhs[8:] != rhs[8:]
        text.append((fail[5:], lhs[8:], rhs[8:]))
    assert known in text
    assert f"failures={len(text)} " in summary

    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [(f["identity"], f["lhs"], f["rhs"]) for f in payload["failures"]] == text


@pytest.mark.parametrize("extra, message", [
    (("--bound", "-3"), "degree bound must be nonnegative"),
    (("--bound", "5", "--gens", "0"), "need at least one generator in the test pool"),
    (("--bound", "5", "--gens", "-1"), "need at least one generator in the test pool"),
], ids=["bound-3", "gens0", "gens-1"])
def test_verify_bad_sizes_exit_two(extra, message):
    code, out, err = run_cli("verify", "--axiom", "unit", "-p", "2", *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- determinism --------------------------------------------------------------

DETERMINISM_COMMANDS = [
    ("steenrod", "-p", "3", "--group", "Sp:4", "--class", "a2", "--op", "1"),
    ("steenrod", "-p", "2", "--poly", "c1^2*c2 + c4", "--op", "2", "--json"),
    ("tor", "--family", "GL", "--n", "4", "--r", "1", "--p", "2"),
    ("tor", "--family", "Sp", "--n", "3", "--p", "5", "--json"),
    ("obstruct", "gl", "--n", "6", "--a", "1", "--b", "4", "-p", "3", "--json"),
    ("obstruct", "scan", "--q", "3", "-p", "3", "--n-max", "30"),
    ("verify", "--axiom", "cartan", "-p", "3", "--bound", "9", "--json"),
]


@pytest.mark.parametrize("argv", DETERMINISM_COMMANDS,
                         ids=[" ".join(c[:2]) + f"#{i}" for i, c in
                              enumerate(DETERMINISM_COMMANDS)])
def test_byte_identical_reruns(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second
    assert first[1].encode() == second[1].encode()


def test_subprocess_entry_point():
    # the installed console script goes through the same main()
    proc = subprocess.run(
        [sys.executable, "-m", "stablyfree", "steenrod", "-p", "3",
         "--group", "Sp:4", "--class", "a2", "--op", "1"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout == "a4\n"


def test_main_reuses_one_parser(monkeypatch):
    def no_rebuild():
        raise AssertionError("main rebuilt its parser")

    run_cli("steenrod", "-p", "3", "--poly", "c1", "--op", "0")
    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    for _ in range(2):
        assert run_cli("steenrod", "-p", "2", "--poly", "c2", "--op", "1") == \
            (0, "c1*c2 + c3\n", "")
    monkeypatch.undo()
    assert build_parser() is not build_parser()  # still public, still fresh
