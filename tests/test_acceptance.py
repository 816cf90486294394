"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines;
every check is exact (symbolic equality, no tolerances)."""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, combinations

from stablyfree.algebra import Bidegree, polynomial_algebra
from stablyfree.cli import main as cli_main
from stablyfree.koszul import homogeneous_space_odd_basis, koszul_homology
from stablyfree.modp import Prime, binom_mod_p
from stablyfree.obstruction import (SectionQuery, check_cohomological,
                                    check_gl_quotient, check_orthogonal,
                                    check_symplectic, divisibility_scan)
from stablyfree.steenrod import (apply_P_polynomial, apply_P_primitive,
                                 decomposable_quotient, verify_axiom)
from stablyfree.models import GroupModel
from stablyfree.algebra import AlgebraPresentation, even_gen
from stablyfree.koszul import build_koszul
from koszul_oracle import brute_force_koszul_homology

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def _report(number: int, description: str, ok: bool):
    print(f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_example_reproduction():
    sp = GroupModel("Sp", 2)
    op_ok = apply_P_primitive(1, 2, sp, P3) == sp.group_algebra(P3).gen("a4")
    report = check_symplectic(2, P3)
    witness_ok = (report.obstructed
                  and [(w.source, w.op, int(w.residue)) for w in report.witnesses]
                  == [(2, 1, 1)])
    _report(1, "symplectic rank-2 example at p=3", op_ok and witness_ok)


def test_criterion_2_exceptional_case_closure():
    ok = (check_gl_quotient(3, 0, 2, P2).obstructed
          and check_gl_quotient(4, 0, 3, P3).obstructed
          and check_symplectic(2, P3).obstructed
          and check_symplectic(3, P5).obstructed
          and check_orthogonal(2, P3).obstructed
          and check_orthogonal(3, P5).obstructed)
    _report(2, "all previously open exceptional cases obstructed", ok)


def test_criterion_3_homogeneous_space_cohomology():
    ok = True
    for p in (P2, P3, P5):
        for n in range(1, 7):
            for r in range(0, n + 1):
                got = {(g.name, g.bidegree) for g in
                       homogeneous_space_odd_basis("GL", n, r, p)}
                want = {(f"a{j}", Bidegree(2 * j - 1, j))
                        for j in range(r + 1, n + 1)}
                ok = ok and got == want
        for n in range(1, 5):
            families = ("Sp", "SO") if p.value > 2 else ("Sp",)
            for family in families:
                got = {(g.name, g.bidegree) for g in
                       homogeneous_space_odd_basis(family, n, None, p)}
                ok = ok and got == {(f"a{2 * n}", Bidegree(4 * n - 1, 2 * n))}
    _report(3, "odd bases match the closed forms (GL n<=6, Sp/SO n<=4)", ok)


def test_criterion_4_axiom_suite():
    ok = True
    details = []
    for p in (P2, P3, P5):
        for axiom in ("unit", "pth_power", "instability", "cartan", "adem"):
            result = verify_axiom(axiom, p, 14, n_generators=5)
            details.append(f"{axiom}@p={p}:{len(result.checks)}")
            ok = ok and result.passed and result.checks
    _report(4, "axiom suite at weight bound 14, p in {2,3,5}", ok)


def test_criterion_5_indecomposable_action():
    ok = True
    for p in (P2, P3, P5):
        for j in range(1, 9):
            alg = polynomial_algebra(p, j)
            i = 0
            while i * (p.value - 1) + j <= 12:
                got = decomposable_quotient(
                    apply_P_polynomial(i, alg.gen(f"c{j}"), p))
                target = j + i * (p.value - 1)
                coeff = int(binom_mod_p(j - 1, i, p))
                want = polynomial_algebra(p, target).gen(f"c{target}") * coeff
                ok = ok and got == want
                i += 1
    _report(5, "splitting-principle engine reproduces the binomial action", ok)


def test_criterion_6_koszul_oracle_equivalence():
    indices = [1, 2, 3, 4]
    subsets = chain.from_iterable(combinations(indices, k)
                                  for k in range(len(indices) + 1))
    ok = True
    for killed in subsets:
        for pv in (2, 3):
            p = Prime(pv)
            base = [even_gen(f"c{i}", i) for i in indices]
            module = AlgebraPresentation(
                p, tuple(base), frozenset(f"c{i}" for i in killed))
            table = koszul_homology(build_koszul(base, module), 20)
            mine = {(i, j): e.dimension for (i, q, j), e in table.entries.items()}
            oracle = brute_force_koszul_homology(indices, set(killed), pv, 10)
            ok = ok and mine == oracle and table.euler_consistent()
    _report(6, "Koszul homology equals dense oracle on all c1..c4 quotients", ok)


def test_criterion_7_engine_agreement():
    ok = True
    for p in (P2, P3, P5):
        for n in range(1, 9):
            for a in range(0, n + 1):
                for b in range(a, n + 1):
                    comb = check_gl_quotient(n, a, b, p)
                    coh = check_cohomological(SectionQuery("GL", n, p, a, b))
                    ok = ok and (comb.verdict == coh.verdict
                                 and set(comb.witnesses) == set(coh.witnesses))
        for n in range(1, 7):
            comb = check_symplectic(n, p)
            coh = check_cohomological(SectionQuery("Sp", n, p))
            ok = ok and (comb.verdict == coh.verdict
                         and set(comb.witnesses) == set(coh.witnesses))
            if p.value > 2:
                comb = check_orthogonal(n, p)
                coh = check_cohomological(SectionQuery("SO", n, p))
                ok = ok and (comb.verdict == coh.verdict
                             and set(comb.witnesses) == set(coh.witnesses))
    _report(7, "combinatorial and cohomological engines agree", ok)


def test_criterion_8_divisibility_pattern():
    ok = True
    for q, pv in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 5)):
        scan = divisibility_scan(q, Prime(pv), 200)
        ok = ok and scan.match
    _report(8, "no-obstruction set is exactly the divisor multiples (n<=200)", ok)


CLI_COMMANDS = [
    ["steenrod", "-p", "3", "--group", "Sp:4", "--class", "a2", "--op", "1"],
    ["steenrod", "-p", "2", "--poly", "c2", "--op", "1"],
    ["steenrod", "-p", "5", "--group", "GL:6", "--class", "a3", "--op", "0"],
    ["steenrod", "-p", "2", "--poly", "c1^2*c2 + c4", "--op", "2", "--json"],
    ["tor", "--family", "GL", "--n", "5", "--r", "2", "--p", "3"],
    ["tor", "--family", "Sp", "--n", "2", "--p", "3", "--json"],
    ["obstruct", "gl", "--n", "3", "--a", "0", "--b", "2", "-p", "2"],
    ["obstruct", "gl", "--n", "2", "--a", "0", "--b", "1", "-p", "2"],
    ["obstruct", "sp", "--n", "2", "-p", "3", "--oracle", "--json"],
    ["obstruct", "scan", "--q", "3", "-p", "3", "--n-max", "30"],
    ["verify", "--axiom", "adem", "-p", "2", "--bound", "12"],
    ["verify", "--axiom", "cartan", "-p", "3", "--bound", "10", "--json"],
]


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_criterion_9_cli_determinism():
    ok = True
    for argv in CLI_COMMANDS:
        first = _capture(argv)
        second = _capture(argv)
        ok = ok and first == second
    _report(9, "every CLI command is byte-identical across reruns", ok)
