import io
import json
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablyfree import cli, steenrod
from stablyfree.cli import build_parser, main, parse_polynomial
from stablyfree.algebra import polynomial_algebra
from stablyfree.modp import Prime
from stablyfree.steenrod import verify_axiom

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
    chern_only = "only Chern-class generators cJ (J >= 1) are allowed, got "
    cases = {
        "": "empty polynomial",
        "c2 +": "dangling operator in polynomial",
        "a2": chern_only + "'a2'",
        "c1 ** 2": "misplaced '*' in polynomial",
        "c1 ^": "'^' must be followed by an integer",
        "(c1)": "cannot parse polynomial near '(c1)'",
        "^2": "unexpected token '^' in polynomial",
        "c0": chern_only + "'c0'",
        "c1^^2": "'^' must be followed by an integer",
        "c2*": "dangling operator in polynomial",
        "*c2": "misplaced '*' in polynomial",
        "c1 c2": "unexpected token 'c2' (missing '*'?)",
    }
    for bad, message in cases.items():
        with pytest.raises(CliError) as exc:
            parse_polynomial(bad, p)
        assert str(exc.value) == message, bad


def test_polynomial_starting_with_a_minus():
    # argparse takes a value that starts with '-' for an option: an
    # attached value, or a leading 0, passes it
    code, out, err = run_cli_exit("steenrod", "-p", "3", "--poly", "-c1", "--op", "0")
    assert (code, out) == (2, "") and "expected one argument" in err
    for argv in (("--poly=-c1",), ("--poly", "0 - c1")):
        assert run_cli("steenrod", "-p", "3", *argv, "--op", "0") == (0, "2*c1\n", "")


def test_parse_polynomial_ignores_trailing_whitespace():
    p = Prime(3)
    for text in ["c2 ", "c1*c2 + c3\t", "2*c1^3 \n"]:
        assert parse_polynomial(text, p) == parse_polynomial(text.rstrip(), p)
    assert run_cli("steenrod", "-p", "2", "--poly", "c2  ", "--op", "1") \
        == (0, "c1*c2 + c3\n", "")


def test_parse_polynomial_compiles_no_pattern_when_called(monkeypatch):
    # the one token pattern, compiled on import, captures a generator's
    # letters and index itself; no re call is left to compile another
    monkeypatch.setattr(cli, "re", None)
    p = Prime(5)
    alg = polynomial_algebra(p, 12)
    assert parse_polynomial("2*c1^2*c12 - c3", p) == (
        alg.monomial_element({"c1": 2, "c12": 1}, coeff=2) + alg.gen("c3") * 4)
    for bad in ("a2", "c0", "c01", "x1*c2", "c1 c2"):
        with pytest.raises(cli.CliError):
            parse_polynomial(bad, p)


def test_class_and_group_compile_no_pattern_when_called(monkeypatch):
    # --class and --group match patterns compiled on import, with the same
    # matches and messages as before
    monkeypatch.setattr(cli, "re", None)
    assert run_cli("steenrod", "-p", "3", "--group", "Sp:6", "--class", "a2",
                   "--op", "1") == (0, "a4\n", "")
    for group, name, message in (
            ("Sp:6", "x2", "--class expects an odd generator aJ, got 'x2'"),
            ("Sp:6", "a2 ", "--class expects an odd generator aJ, got 'a2 '"),
            ("XX:5", "a2", "--group expects FAMILY:SIZE (e.g. Sp:4), got 'XX:5'"),
            ("GL:3x", "a1", "--group expects FAMILY:SIZE (e.g. Sp:4), got 'GL:3x'")):
        code, out, err = run_cli("steenrod", "-p", "3", "--group", group, "--class", name,
                                 "--op", "1")
        assert (code, out) == (2, "") and message in err, (group, name)


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


def test_parse_polynomial_of_4000_terms():
    # c1*c2 + c2*c3 + ... + c4000*c4001 at p = 3
    n = 4000
    text = " + ".join(f"c{j}*c{j + 1}" for j in range(1, n + 1))
    want = polynomial_algebra(Prime(3), n + 1).from_terms(
        {(0,) * (j - 1) + (1, 1): 1 for j in range(1, n + 1)})
    assert parse_polynomial(text, Prime(3)) == want


def test_parse_polynomial_builds_one_element(monkeypatch):
    # the terms are summed in one dict, not one Element sum per term
    from stablyfree.algebra import Element

    def no_sums(self, other):
        raise AssertionError("parse_polynomial added elements")

    monkeypatch.setattr(Element, "__add__", no_sums)
    x = parse_polynomial("c1*c2 + 2*c3 - c1*c2 + c1^2 + c3", Prime(5))
    monkeypatch.undo()
    assert x.render() == "c1^2 + 3*c3"


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
        ("steenrod", "-p", "11", "--poly", "c7", "--op", "6"),    # seed over the cap
    ]
    for argv in cases:
        code, _, err = run_cli(*argv)
        assert code == 2 and err, argv


@pytest.mark.parametrize("group", ["GL:3", "bogus"])
def test_steenrod_refuses_group_with_poly(group):
    # a group model has no Chern classes to act on; it goes with --class
    code, out, err = run_cli("steenrod", "-p", "2", "--poly", "c1", "--op", "1",
                             "--group", group)
    assert (code, out, err) == (2, "", "error: --group goes with --class, not with --poly\n")


def test_steenrod_seed_cap_names_count_and_cap():
    code, out, err = run_cli("steenrod", "-p", "11", "--poly", "c7", "--op", "6")
    assert (code, out) == (2, "")
    assert err == ("error: P^6(c7) at p=11 sums over 567377 partitions, "
                   "more than the cap of 100000\n")


def test_steenrod_seed_work_cap_names_work_and_cap(monkeypatch):
    # P^1000(c1001) at p=2 sums over 1001 partitions, under the partition
    # cap, but of polynomials 1001 long; it is refused before any summing
    from stablyfree import symmetric

    def no_summing(*args):
        raise AssertionError("the seed started summing")

    # Wu's formula enumerates the terms of a seed at p = 2
    monkeypatch.setattr(symmetric, "_wu", no_summing)
    code, out, err = run_cli("steenrod", "-p", "2", "--poly", "c1001", "--op", "1000")
    assert (code, out) == (2, "")
    assert err == ("error: P^1000(c1001) at p=2 takes 1003003001 steps (1001 "
                   "partitions times 1001^2), more than the cap of 100000000\n")
    # the control: with the cap lifted, the seed reaches the patched function
    monkeypatch.setattr(symmetric, "MAX_SEED_WORK", 10 ** 10)
    with pytest.raises(AssertionError, match="the seed started summing"):
        run_cli("steenrod", "-p", "2", "--poly", "c1001", "--op", "1000")


def test_steenrod_json():
    code, out, _ = run_cli("steenrod", "-p", "3", "--group", "Sp:4",
                           "--class", "a2", "--op", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "a4"
    assert payload["element"]["terms"] == [
        {"coefficient": 1, "even": [], "odd": ["a4"]}]


def test_steenrod_poly_renders_its_input_only_for_json(monkeypatch):
    # text mode prints the result alone, so it renders nothing else
    from stablyfree.algebra import Element

    rendered = []
    true_render = Element.render

    def render(self):
        rendered.append(true_render(self))
        return rendered[-1]

    monkeypatch.setattr(Element, "render", render)
    argv = ("steenrod", "-p", "2", "--poly", "c1^2*c2 + c4", "--op", "2")
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "") and rendered == [out.rstrip("\n")]
    rendered.clear()
    code, out, err = run_cli(*argv, "--json")
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert rendered == [payload["input"], payload["result"]]
    assert payload["input"] == "c1^2*c2 + c4"


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


def test_tor_at_n_zero_names_the_missing_subgroup():
    for family, p in (("Sp", "2"), ("SO", "3")):
        assert run_cli("tor", "--family", family, "--n", "0", "-p", p) == (
            2, "", f"error: {family} at n=0 has no corank-one subgroup; give r\n")
    code, out, err = run_cli("tor", "--family", "SO", "--n", "0", "-p", "2")
    assert code == 2 and not out and "torsion prime" in err
    code, out, err = run_cli("tor", "--family", "Sp", "--n", "0", "--r", "0", "-p", "2")
    assert (code, err) == (0, "") and out.endswith("odd basis: (empty)\n")


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


def test_obstruct_oracle_disagreement_exits_two_with_both_reports(monkeypatch):
    # a cohomological engine that finds no witness disagrees with the
    # combinatorial verdict: nothing on stdout, both reports on stderr
    from stablyfree.obstruction import ObstructionReport

    def no_witnesses(query):
        return ObstructionReport(query, (), "cohomological")

    monkeypatch.setattr(cli, "check_cohomological", no_witnesses)
    code, out, err = run_cli("obstruct", "gl", "--n", "3", "--a", "0", "--b", "2",
                             "-p", "2", "--oracle")
    report = cli.check_gl_quotient(3, 0, 2, Prime(2))
    assert (code, out) == (2, "")
    assert err == ("engine disagreement between combinatorial and cohomological checks\n"
                   + report.render_text() + "\n"
                   + no_witnesses(report.query).render_text() + "\n")


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


@contextmanager
def _spy_on_checks():
    """The descriptions of the AxiomCheck values steenrod builds in the
    block, however it builds them."""
    built = []

    class Spy(steenrod.AxiomCheck):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields[0])
            return super().__new__(cls, *fields)

        @classmethod
        def _make(cls, fields):
            fields = tuple(fields)
            built.append(fields[0])
            return super()._make(fields)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(steenrod, "AxiomCheck", Spy)
        yield built


def _verify_output(report, json_format: bool) -> str:
    """What verify prints for the full report of verify_axiom."""
    if json_format:
        return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    lines = [report.summary()]
    for c in report.failures():
        lines += [f"FAIL {c.description}", f"  lhs = {c.lhs}", f"  rhs = {c.rhs}"]
    return "\n".join(lines) + "\n"


def _verify_runs():
    """(checks built, report, argv, output) of verify at p = 2 and 3, bound
    10, for every axiom, in text and JSON, with the checks of the CLI runs
    alone counted."""
    runs = []
    for axiom in cli.AXIOMS:
        for p in (2, 3):
            report = verify_axiom(axiom, Prime(p), 10)
            assert report.checks
            for fmt in ((), ("--json",)):
                argv = ("verify", "--axiom", axiom, "-p", str(p), "--bound", "10", *fmt)
                with _spy_on_checks() as built:
                    result = run_cli(*argv)
                runs.append((built, report, argv, result))
    return runs


def test_verify_keeps_no_passing_check():
    # the CLI counts the identities that hold and builds a check for none
    for built, report, argv, result in _verify_runs():
        assert report.passed
        assert built == [], argv
        assert result == (0, _verify_output(report, "--json" in argv), ""), argv


def test_verify_builds_exactly_the_failing_checks(planted_seed):
    # with a wrong seed at p = 3, the CLI builds one check per failing
    # identity, in order, and prints what the full report renders
    failed = 0
    for built, report, argv, result in _verify_runs():
        assert built == [c.description for c in report.failures()], argv
        assert result == (int(not report.passed), _verify_output(report, "--json" in argv),
                          ""), argv
        failed += len(built)
    assert failed


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


def _ends_quietly_when_stdout_closes(launcher):
    # 447 kB of output, more than a pipe holds, so the child is still
    # writing when the reader leaves; its status must not read as one of
    # obstruct's verdicts 0, 1, 2
    poly = "*".join(f"c{k}" for k in range(1, 15))
    proc = subprocess.Popen(
        [sys.executable, *launcher, "steenrod", "-p", "2", "--poly", poly, "--op", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.stdout.read(20)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) not in (0, 1, 2)
    assert stderr == b""


def test_entry_point_ends_quietly_when_stdout_closes():
    _ends_quietly_when_stdout_closes(["-m", "stablyfree"])


def test_console_script_ends_quietly_when_stdout_closes():
    # the installed script imports the function that pyproject.toml names
    # and exits with what it returns
    lines = (SRC.parent / "pyproject.toml").read_text().splitlines()
    entry = lines[lines.index("[project.scripts]") + 1]
    name, target = entry.split(" = ")
    module, function = target.strip('"').split(":")
    assert (name, module) == ("stablyfree", "stablyfree.__main__")
    _ends_quietly_when_stdout_closes(
        ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"])


def test_import_loads_no_heavy_stdlib_modules():
    # every CLI call is a fresh process, so its import is paid on each one;
    # -S keeps site-packages from loading any of these first
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, stablyfree.cli; "
         "print(sorted({'argparse', 'dataclasses', 'inspect', 'random'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# -- parsing from the option table ------------------------------------------

def run_cli_exit(*argv):
    """run_cli, counting argparse's own exit as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


# sha256 of each help text at 80 columns, recorded from the full parser
# before main parsed with one-command parsers.  argparse lays help out
# differently from one Python version to the next (3.13 writes "-p, --p P"
# where 3.11 writes "-p P, --p P"), so the digests are those of 3.11; every
# version compares the text with a freshly built full parser
HELP_DIGESTS = {
    None: "ad66cdcb4a2533b810b6a4e221cea1a7431a71355a3f9919f77ffd7628c30d56",
    "steenrod": "5d881a17198cee11ce2fe52463e838e24f785f784f3b945e8c341455b28ad42f",
    "tor": "dcb9d1e19bacf59849b47a872eb5b96ebc431844c85846575699db1ef0d470f9",
    "obstruct": "d623dd2d79b36bc2818a3f3b4b92a764ba7aeb7fc64d9cc0b33df38ed0e8df13",
    "verify": "16a80b79db3a231f075504adf1c900494d8cf07ed17890699beb68ff1ec746de",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=lambda c: c or "top")
def test_help_is_that_of_the_full_parser(command, monkeypatch):
    import hashlib

    monkeypatch.setenv("COLUMNS", "80")
    argv = ["-h"] if command is None else [command, "-h"]
    code, out, err = run_cli_exit(*argv)
    assert (code, err) == (0, "")
    full = io.StringIO()
    with redirect_stdout(full), pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert out == full.getvalue()
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


# one well-formed call of each command
WELL_FORMED = [
    ["steenrod", "-p", "2", "--poly", "c2", "--op", "1"],
    ["tor", "--family", "Sp", "--n", "2", "-p", "3", "--json"],
    ["obstruct", "gl", "--n", "3", "--a", "0", "--b", "2", "-p", "2"],
    ["verify", "--axiom", "cartan", "-p", "2", "--bound", "6"],
]


def test_main_builds_no_parser_for_a_well_formed_call(monkeypatch):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_parse", lambda argv: None)  # argparse reads all
    expected = [run_cli(*argv) for argv in WELL_FORMED]
    assert all(code == 0 and err == "" for code, _, err in expected)
    monkeypatch.undo()
    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert [run_cli(*argv) for argv in WELL_FORMED] == expected
    monkeypatch.undo()
    assert build_parser() is not build_parser()  # still public, still fresh


# argv that the option table leaves to argparse: it accepts some of them,
# prints help for others, and refuses the rest with exit 2
FALLBACK_ARGV = [
    ["steenrod", "-p", "2", "--pol", "c2", "--op", "1"],
    ["verify", "--axiom", "cartan", "-p", "2", "--bou", "6"],
    ["steenrod", "-p", "3", "--poly=c1*c2", "--op", "1"],
    ["steenrod", "-p7", "--poly", "c3", "--op", "1"],
    ["steenrod", "-p", "3", "--poly", "c2", "--op", "-1"],
    ["obstruct", "sp", "--n", "-3", "-p", "3"],
    ["-h"],
    ["tor", "-h"],
    [],
    ["steenrod", "--poly", "c1", "--op", "1"],
    ["steenrod", "-p", "2", "--poly", "c1", "--op"],
    ["tor", "--family", "GL", "--n", "3", "-p", "2", "--bogus"],
    ["bogus", "-p", "2"],
    ["verify", "--axiom", "adem", "-p", "2", "--bound", "x"],
    ["tor", "--family", "XX", "--n", "3", "-p", "2"],
    ["obstruct", "gl", "sp", "--n", "3", "-p", "2"],
    ["steenrod", "-p", "2", "--poly", "c1", "--op", "1", "--json=1"],
]


def test_other_argv_build_the_full_parser(monkeypatch):
    built = []
    true_build = cli.build_parser

    def recording():
        built.append(True)
        return true_build()

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in FALLBACK_ARGV:
        assert cli._parse(argv) is None
        code, _, _ = run_cli_exit(*argv)
        assert code in (0, 2)
    assert len(built) == len(FALLBACK_ARGV)


# values that both parsers read, values that they refuse, and tokens that
# argparse reads in its own way
_INTS = ("0", "1", "2", "3", "5", "7", "12", " 7", "+7", "7_0")
_STRS = ("c1", "c1*c2 + c3", "Sp:4", "a2", "adem", "gl", "", "=", " ")
_BAD_VALUES = ("x", "-1", "-", "--", "-h", "--json", "--p")
_STRAY = ("=", "-", "--", " 7", "+7", "7_0", "", "-1", "-h", "--help", "-p7",
          "--poly=c1", "--pol", "--po", "--n-", "--js", "--json=1", "--bogus",
          "gl", "scan", "steenrod", "-p=2", "--p=2")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_table_parser_agrees_with_argparse(data):
    """Whenever _parse reads an argv, argparse reads it to the same
    namespace.  The argv hold the command's arguments in any order, each
    once or twice (or, when spoilt, also never), with values that both
    read or, when spoilt, also values and stray tokens that either refuses."""
    name = data.draw(st.sampled_from(list(cli._COMMANDS)), label="command")
    spoilt = data.draw(st.booleans(), label="spoilt")
    chunks = []
    for o in cli._COMMANDS[name].arguments:
        values = o.choices or (_INTS if o.kind is int else _STRS)
        if spoilt:
            values += _BAD_VALUES
        least = 0 if spoilt or not o.required else 1
        for _ in range(data.draw(st.integers(least, 2), label=o.dest)):
            flags = [[flag] for flag in o.flags] or [[]]
            chunk = data.draw(st.sampled_from(flags))
            if o.kind is not bool:
                chunk = chunk + [data.draw(st.sampled_from(values))]
            chunks.append(chunk)
    chunks = data.draw(st.permutations(chunks))
    argv = [name] + [token for chunk in chunks for token in chunk]
    for _ in range(data.draw(st.integers(0, 2 if spoilt else 0), label="strays")):
        at = data.draw(st.integers(1, len(argv)))
        argv.insert(at, data.draw(st.sampled_from(_STRAY)))
    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_both_parsers_refuse_obstruct_without_n(monkeypatch):
    # main alone checks --n, on the namespace of either parser
    argv = ("obstruct", "gl", "-p", "2")
    assert cli._parse(list(argv)) is not None
    want = (2, "", "usage: stablyfree [-h] {steenrod,tor,obstruct,verify} ...\n"
                   "stablyfree: error: obstruct needs --n\n")
    assert run_cli_exit(*argv) == want
    monkeypatch.setattr(cli, "_parse", lambda argv: None)
    assert run_cli_exit(*argv) == want


def test_one_process_runs_every_command_then_a_usage_error():
    # a fresh process, in which the well-formed calls leave argparse
    # unloaded and the usage error loads it; each output must equal that of
    # the same call here
    runs = [
        ["steenrod", "-p", "7", "--poly", "c2*c3", "--op", "1"],
        ["tor", "--family", "Sp", "--n", "3", "-p", "3"],
        ["obstruct", "gl", "--n", "5", "--a", "1", "--b", "4", "-p", "2"],
        ["verify", "--axiom", "cartan", "-p", "3", "--bound", "8"],
        ["obstruct", "sp", "-p", "3"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from stablyfree.cli import main\n"
        "results = []\n"
        f"for argv in {runs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as e:\n"
        "            code = e.code\n"
        "    results.append([code, out.getvalue(), err.getvalue(), 'argparse' in sys.modules])\n"
        "print(json.dumps(results))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert (proc.returncode, proc.stderr) == (0, "")
    results = [tuple(r[:3]) for r in json.loads(proc.stdout)]
    assert [r[3] for r in json.loads(proc.stdout)] == [False] * 4 + [True]
    assert results == [run_cli_exit(*argv) for argv in runs]
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 2]
    assert results[-1][2] == ("usage: stablyfree [-h] {steenrod,tor,obstruct,verify} ...\n"
                              "stablyfree: error: obstruct needs --n\n")


# -- the factor cap -------------------------------------------------------------

def test_terms_of_too_many_factors_exit_two_before_any_record(monkeypatch):
    # a record splits in halves, about log2(factors) calls deep: 2^511
    # factors still answer, 2^512 and more are refused before any record
    def no_record(*args):
        raise AssertionError("a record was made")

    n = 2 ** 511
    assert steenrod.MAX_FACTORS == 2 * n
    # P^1(c1^m) = m c1^(m+1) at p = 2
    assert run_cli("steenrod", "-p", "2", "--poly", f"c1^{n}", "--op", "1") == (0, "0\n", "")
    assert run_cli("steenrod", "-p", "2", "--poly", f"c1^{n + 1}", "--op", "1") == (
        0, f"c1^{n + 2}\n", "")
    monkeypatch.setattr(steenrod, "_record", no_record)
    for poly in (f"c1^{2 * n}", f"c1^{n}*c2^{n}", f"c2 + c1^{2 ** 1100 + 1}"):
        assert run_cli("steenrod", "-p", "2", "--poly", poly, "--op", "1") == (
            2, "", "error: a term has 2^512 or more factors, too many to split\n")


# -- the Chern index cap ------------------------------------------------------

def test_chern_indices_past_the_cap_exit_two_before_any_algebra(monkeypatch):
    def no_algebra(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "MAX_CHERN_INDEX", 5)
    assert run_cli("steenrod", "-p", "2", "--poly", "c5", "--op", "0") == (0, "c5\n", "")
    monkeypatch.setattr(cli, "polynomial_algebra", no_algebra)
    for poly, top in [("c6", 6), ("c1*c2 + c6^2", 6), ("c7 - c7", 7)]:
        assert run_cli("steenrod", "-p", "2", "--poly", poly, "--op", "1") == (
            2, "", f"error: c{top} is past the largest Chern index allowed, c5\n")
