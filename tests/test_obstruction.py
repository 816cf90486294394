import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stablyfree.modp import Prime, binom_mod_p, raynaud_number
from stablyfree.models import TorsionPrimeError
from stablyfree.obstruction import (NO_OBSTRUCTION_TEXT,
                                    SectionQuery, Witness, check_cohomological,
                                    check_gl_quotient, check_orthogonal,
                                    check_symplectic, divisibility_scan)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def witness_triples(report):
    return [(w.source, w.op, int(w.residue)) for w in report.witnesses]


def test_gl_examples():
    r = check_gl_quotient(3, 0, 2, P2)
    assert r.obstructed and witness_triples(r) == [(2, 1, 1)]
    r = check_gl_quotient(4, 0, 3, P3)
    assert r.obstructed and witness_triples(r) == [(2, 1, 1)]
    assert not check_gl_quotient(2, 0, 1, P2).obstructed
    for n, p in [(4, P2), (5, P3), (6, P5)]:
        assert not check_gl_quotient(n, 2, 2, p).obstructed  # empty source range


def test_symplectic_examples():
    r = check_symplectic(2, P3)
    assert r.obstructed and witness_triples(r) == [(2, 1, 1)]
    r = check_symplectic(3, P5)
    assert r.obstructed and witness_triples(r) == [(2, 1, 1)]
    assert not check_symplectic(1, P3).obstructed


def test_orthogonal_examples():
    assert witness_triples(check_orthogonal(2, P3)) == [(2, 1, 1)]
    assert check_orthogonal(3, P5).obstructed
    with pytest.raises(TorsionPrimeError):
        check_orthogonal(4, P2)


def test_exceptional_case_closure():
    # the six cases previously left open are all ruled out
    assert check_gl_quotient(3, 0, 2, P2).obstructed
    assert check_gl_quotient(4, 0, 3, P3).obstructed
    assert check_symplectic(2, P3).obstructed
    assert check_symplectic(3, P5).obstructed
    assert check_orthogonal(2, P3).obstructed
    assert check_orthogonal(3, P5).obstructed


def test_witness_soundness():
    for p in (P2, P3, P5):
        for n in range(1, 8):
            for a in range(0, n + 1):
                for b in range(a, n + 1):
                    report = check_gl_quotient(n, a, b, p)
                    for w in report.witnesses:
                        assert a + 1 <= w.source <= b
                        assert b + 1 <= w.target <= n
                        assert w.target == w.source + w.op * (p.value - 1)
                        assert int(w.residue) == int(
                            binom_mod_p(w.source - 1, w.op, p)) != 0


def test_witness_validation():
    for bad in [(2, 0, 2, 1), (2, 1, 3, 0), (1, 0, 2, 1), (1, 1, 2, 0)]:
        with pytest.raises(ValueError):
            Witness(*bad)
    w = Witness(2, 1, 4, 1)  # P^1(a2) = a4 at p = 3
    assert (w.source, w.op, w.target, w.residue) == (2, 1, 4, 1)
    assert w.describe() == "P^1(a2) = 1*a4 survives in the target"


def test_monotonicity_in_source_range():
    for p in (P2, P3):
        for n in range(2, 8):
            b = n - 1
            previous = set()
            for a in range(b, -1, -1):
                current = set(witness_triples(check_gl_quotient(n, a, b, p)))
                assert previous <= current
                previous = current


def test_engine_agreement_small():
    for p in (P2, P3, P5):
        for n in range(1, 6):
            for a in range(0, n + 1):
                for b in range(a, n + 1):
                    comb = check_gl_quotient(n, a, b, p)
                    coh = check_cohomological(SectionQuery("GL", n, p, a, b))
                    assert comb.verdict == coh.verdict
                    assert comb.witnesses == coh.witnesses
        for n in range(1, 5):
            comb = check_symplectic(n, p)
            coh = check_cohomological(SectionQuery("Sp", n, p))
            assert comb.verdict == coh.verdict
            assert comb.witnesses == coh.witnesses
            if p.value > 2:
                comb = check_orthogonal(n, p)
                coh = check_cohomological(SectionQuery("SO", n, p))
                assert comb.verdict == coh.verdict
                assert comb.witnesses == coh.witnesses


def test_so_rejected_at_two_in_both_engines():
    with pytest.raises(TorsionPrimeError):
        check_orthogonal(3, P2)
    with pytest.raises(TorsionPrimeError):
        check_cohomological(SectionQuery("SO", 3, P2))


def test_query_validation():
    with pytest.raises(ValueError):
        SectionQuery("GL", 3, P2, 2, 1)  # a > b
    with pytest.raises(ValueError):
        SectionQuery("GL", 3, P2, 0, 4)  # b > n
    with pytest.raises(ValueError):
        SectionQuery("Sp", 0, P3)


def test_extrapolation_flag():
    assert check_gl_quotient(5, 1, 2, P2).extrapolated
    assert not check_gl_quotient(5, 1, 4, P2).extrapolated  # corank-one target
    assert not check_gl_quotient(5, 2, 2, P2).extrapolated  # identity map
    assert not check_symplectic(3, P3).extrapolated


def test_report_text_never_claims_existence():
    r = check_gl_quotient(2, 0, 1, P2)
    text = r.render_text()
    assert NO_OBSTRUCTION_TEXT in text
    assert "section exists" not in text
    obstructed = check_gl_quotient(3, 0, 2, P2).render_text()
    assert "obstructed" in obstructed and "witness" in obstructed


def test_report_json_shape():
    payload = check_symplectic(2, P3).to_json()
    assert payload["verdict"] == "obstructed"
    assert payload["witnesses"] == [
        {"source": 2, "op": 1, "target": 4, "residue": 1}]
    assert payload["query"] == {"family": "Sp", "n": 2, "a": 0, "b": 0, "p": 3}


def test_divisibility_scan_q2_p2():
    scan = divisibility_scan(2, P2, 20)
    assert scan.divisor == 2
    assert scan.match
    unobstructed = [n for n, obstructed in scan.rows if not obstructed]
    assert unobstructed == [n for n in range(2, 21) if n % 2 == 0]


def test_divisibility_scan_q1_identity():
    for p in (P2, P5):
        scan = divisibility_scan(1, p, 15)
        assert scan.divisor == 1
        assert scan.match
        assert all(not obstructed for _, obstructed in scan.rows)


def test_divisibility_scan_q3_p3():
    scan = divisibility_scan(3, P3, 30)
    assert scan.divisor == 3
    assert scan.match


def test_divisibility_scan_reports_a_mismatch(monkeypatch):
    # a verdict off the pattern at one n makes the scan say so
    from stablyfree import obstruction
    real = obstruction.check_gl_quotient

    def unobstructed_at_5(n, a, b, p):
        report = real(n, a, b, p)
        return report._replace(witnesses=()) if n == 5 else report

    monkeypatch.setattr(obstruction, "check_gl_quotient", unobstructed_at_5)
    scan = divisibility_scan(2, P2, 8)
    assert not scan.match
    assert [n for n, obstructed in scan.rows if not obstructed] == [2, 4, 5, 6, 8]
    assert scan.render_text().endswith("matches divisibility pattern: no")
    assert scan.to_json()["match"] is False


def test_divisibility_scan_validation():
    with pytest.raises(ValueError):
        divisibility_scan(0, P2, 10)
    with pytest.raises(ValueError):
        divisibility_scan(5, P2, 4)


def test_divisibility_scan_past_the_caps_is_refused_before_any_work(monkeypatch):
    # the caps are set small, so that no oversized scan runs
    from stablyfree import obstruction

    def no_work(*args):
        raise AssertionError("the scan did work")

    monkeypatch.setattr(obstruction, "MAX_SCAN_Q", 4)
    monkeypatch.setattr(obstruction, "MAX_SCAN_N", 12)
    assert divisibility_scan(4, P2, 12).match
    for name in ("check_gl_quotient", "exponent_n", "raynaud_number"):
        monkeypatch.setattr(obstruction, name, no_work)
    with pytest.raises(ValueError, match=r"^q = 5 is past the largest corank "
                                         r"allowed, 4$"):
        divisibility_scan(5, P2, 12)
    with pytest.raises(ValueError, match=r"^n_max = 13 is past the largest n "
                                         r"allowed, 12$"):
        divisibility_scan(4, P2, 13)


def test_combined_modulus():
    # the modulus over all characteristics is raynaud_number(q, 0)
    assert raynaud_number(1, 0) == 1
    assert raynaud_number(2, 0) == 2
    assert raynaud_number(3, 0) == 12
    assert raynaud_number(4, 0) == 12  # 2^2 * 3: n(2,4) = 1, n(3,4) = 0
    assert raynaud_number(5, 0) == 120


def test_scan_report_rendering():
    scan = divisibility_scan(2, P2, 10)
    text = scan.render_text()
    assert "predicted divisor: 2" in text
    assert "matches divisibility pattern: yes" in text
    payload = scan.to_json()
    assert payload["combined_modulus"] == 2
    assert len(payload["rows"]) == 9


def test_witness_scans_past_the_pair_cap_are_refused_before_any_work(monkeypatch):
    # the cap is set small, so that no oversized scan runs: GL_7/GL_0 ->
    # GL_7/GL_4 tries 4 * 3 pairs (m, i) at p = 2, and a scan of q = 4 up to
    # n_max = 7 tries 3 * 4
    from stablyfree import cli, obstruction

    monkeypatch.setattr(obstruction, "MAX_WITNESS_PAIRS", 12)
    assert check_gl_quotient(7, 0, 4, P2).obstructed
    assert divisibility_scan(4, P2, 7).match
    calls = []
    monkeypatch.setattr(obstruction, "binom_mod_p", lambda *args: calls.append(args))
    cases = [(("gl", "--n", "8", "--a", "0", "--b", "4"),
              "GL_8/GL_0 -> GL_8/GL_4 at p=2: 16 pairs (m, i)"),
             (("sp", "--n", "14"), "Sp_28 -> Sp_28/Sp_26 at p=2: 13 pairs (m, i)"),
             (("scan", "--q", "4", "--n-max", "8"), "q = 4, n_max = 8: 15 pairs (m, i)"),
             (("scan", "--q", "13", "--n-max", "14"), "q = 13, n_max = 14: 24 pairs (m, i)")]
    for argv, head in cases:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["obstruct", *argv, "-p", "2"])
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"error: {head} to try is past the largest number allowed, 12\n")
    # the corank and n caps are checked first, with their own messages
    monkeypatch.setattr(obstruction, "MAX_SCAN_Q", 12)
    with pytest.raises(ValueError, match=r"^q = 13 is past the largest corank allowed, 12$"):
        divisibility_scan(13, P2, 14)
    monkeypatch.setattr(obstruction, "MAX_SCAN_N", 13)
    with pytest.raises(ValueError, match=r"^n_max = 14 is past the largest n allowed, 13$"):
        divisibility_scan(4, P2, 14)
    assert not calls
