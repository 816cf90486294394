import hashlib
import math
import random

import pytest

from stablyfree.algebra import (AlgebraPresentation, Bidegree, bidegree_of,
                                even_gen, polynomial_algebra)
from stablyfree.modp import Prime, binom_mod_p
from stablyfree.models import GroupModel, TorsionPrimeError
from stablyfree import steenrod
from stablyfree.steenrod import (apply_P_polynomial, apply_P_primitive,
                                 decomposable_quotient, verify_axiom)
from steenrod_oracle import brute_force_reduced_power, chern_monomials_of_weight
from test_golden import DIGESTS, _axiom

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


# -- primitive action --------------------------------------------------------

def test_primitive_sp4_example():
    assert apply_P_primitive(1, 2, GroupModel("Sp", 2), P3).render() == "a4"


def test_primitive_unit_and_vanishing():
    gl = GroupModel("GL", 6)
    for j in range(1, 7):
        assert apply_P_primitive(0, j, gl, P3) == gl.group_algebra(P3).gen(f"a{j}")
    # C(1, 2) = 0
    assert apply_P_primitive(2, 2, GroupModel("Sp", 4), P3).is_zero()


def test_primitive_matches_binomial_rule():
    gl = GroupModel("GL", 8)
    for p in (P2, P3, P5):
        alg = gl.group_algebra(p)
        for j in range(1, 9):
            for i in range(0, 6):
                target = j + i * (p.value - 1)
                got = apply_P_primitive(i, j, gl, p)
                if target > 8:
                    assert got.is_zero()
                else:
                    want = alg.gen(f"a{target}") * int(binom_mod_p(j - 1, i, p))
                    assert got == want


def test_primitive_out_of_model_index():
    with pytest.raises(ValueError):
        apply_P_primitive(1, 3, GroupModel("Sp", 2), P3)  # a3 is not a symplectic generator


def test_primitive_odd_parity_target_dies_in_sp():
    # at p = 2 the shift can be odd; no such generator exists for Sp
    sp = GroupModel("Sp", 3)
    assert apply_P_primitive(1, 2, sp, P2).is_zero()
    assert apply_P_primitive(2, 2, sp, P2) == sp.group_algebra(P2).gen("a4") * int(
        binom_mod_p(1, 2, P2))


def test_primitive_so_rejects_two():
    # the torsion prime is reported before any index error
    so = GroupModel("SO", 3)
    for i, j in ((1, 2), (-1, 2), (1, 3), (-1, 3)):
        with pytest.raises(TorsionPrimeError):
            apply_P_primitive(i, j, so, P2)


# -- polynomial action -------------------------------------------------------

def test_polynomial_examples():
    A2 = polynomial_algebra(P2, 3)
    assert apply_P_polynomial(1, A2.gen("c1"), P2).render() == "c1^2"
    assert apply_P_polynomial(1, A2.gen("c2"), P2).render() == "c1*c2 + c3"
    assert apply_P_polynomial(2, A2.gen("c1"), P2).is_zero()
    for p in (P2, P3, P5):
        for j in (1, 2):
            A = polynomial_algebra(p, j)
            cj = A.gen(f"c{j}")
            assert apply_P_polynomial(j, cj, p) == cj ** p.value
        A = polynomial_algebra(p, 2)
        x = A.gen("c1") + A.gen("c2")
        assert apply_P_polynomial(0, x, p) == x


def test_polynomial_rejects_odd_and_mismatched():
    with pytest.raises(ValueError, match="odd"):
        apply_P_polynomial(1, GroupModel("GL", 3).group_algebra(P3).gen("a2"), P3)
    A = polynomial_algebra(P3, 2)
    with pytest.raises(ValueError, match="modulus"):
        apply_P_polynomial(1, A.gen("c1"), P5)
    # c2 alone sits at position 0, where a polynomial algebra has c1
    lone_c2 = AlgebraPresentation(P3, (even_gen("c2", 2),))
    with pytest.raises(ValueError, match="polynomial algebra"):
        apply_P_polynomial(1, lone_c2.gen("c2"), P3)


def test_polynomial_P1_of_c2():
    A = polynomial_algebra(P2, 2)
    assert apply_P_polynomial(1, A.gen("c2"), P2).render() == "c1*c2 + c3"


def test_weight_shift():
    rng = random.Random(5)
    for p in (P2, P3, P5):
        A = polynomial_algebra(p, 4)
        for _ in range(10):
            j = rng.randint(1, 4)
            i = rng.randint(0, 2)
            x = A.gen(f"c{j}") * rng.randint(1, p.value - 1)
            y = apply_P_polynomial(i, x, p)
            if y.is_zero():
                continue
            shift = i * (p.value - 1)
            assert bidegree_of(y) == Bidegree(2 * j + 2 * shift, j + shift)


def test_additivity():
    rng = random.Random(6)
    for p in (P2, P3):
        A = polynomial_algebra(p, 4)
        gens = [A.gen(f"c{j}") for j in range(1, 5)]
        for _ in range(10):
            x = rng.choice(gens) * rng.randint(1, p.value - 1)
            y = rng.choice(gens) * rng.choice(gens)
            i = rng.randint(1, 3)
            lhs = apply_P_polynomial(i, x + y, p)
            rhs = apply_P_polynomial(i, x, p) + apply_P_polynomial(i, y, p)
            assert lhs.terms == rhs.terms


def test_polynomial_action_rejects_odd_terms_and_other_algebras():
    gens = []
    for a, c in zip(GroupModel("GL", 3).odd_generators(),
                    GroupModel("GL", 3).even_generators()):
        gens.extend([c, a])
    alg = AlgebraPresentation(P3, tuple(gens))
    with pytest.raises(ValueError) as exc:
        apply_P_polynomial(1, alg.gen("c1") + alg.gen("a2"), P3)
    assert str(exc.value) == "element involves odd generators; use the primitive action"
    for x in (alg.gen("c1"), alg.zero(), GroupModel("GL", 3).group_algebra(P3).zero()):
        with pytest.raises(ValueError) as exc:
            apply_P_polynomial(1, x, P3)
        assert str(exc.value) == "expected an element of a polynomial algebra in c1, c2, ..."


# -- agreement with the brute-force root-expansion oracle --------------------

def _as_exponent_map(element):
    out = {}
    for mono, coeff in element.terms.items():
        even, _ = element.algebra.named_factors(mono)
        out[tuple(sorted((int(n[1:]), e) for n, e in even))] = coeff
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_agreement_on_generators(p):
    prime = Prime(p)
    for j in (1, 2, 3):
        A = polynomial_algebra(prime, j)
        for i in range(0, 4):
            if j + i * (p - 1) > 8:
                continue
            mine = _as_exponent_map(apply_P_polynomial(i, A.gen(f"c{j}"), prime))
            oracle = brute_force_reduced_power(i, {j: 1}, p)
            assert mine == oracle, (p, i, j)


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_agreement_on_products(p):
    prime = Prime(p)
    cases = [{1: 2}, {1: 1, 2: 1}, {2: 2}, {1: 3}, {3: 1, 1: 1}]
    for exps in cases:
        A = polynomial_algebra(prime, max(exps))
        x = A.monomial_element({f"c{j}": d for j, d in exps.items()})
        for i in range(0, 3):
            w = sum(j * d for j, d in exps.items())
            if w + i * (p - 1) > 8:
                continue
            mine = _as_exponent_map(apply_P_polynomial(i, x, prime))
            oracle = brute_force_reduced_power(i, exps, p)
            assert mine == oracle, (p, i, exps)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_oracle_agreement_through_target_weight_12(p):
    # every monomial of weight <= 6 in c1..c6, every P^i landing in weight
    # <= 12; i runs down first and then up, each time from an empty cache,
    # so images of shared sub-monomials are reused in either order
    prime = Prime(p)
    A = polynomial_algebra(prime, 6)
    cases = []
    for w in range(7):
        for exps in chern_monomials_of_weight(w, 6):
            ops = list(range((12 - w) // (p - 1) + 1))
            wanted = {i: brute_force_reduced_power(i, exps, p) for i in ops}
            x = A.monomial_element({f"c{j}": d for j, d in exps.items()})
            cases.append((exps, x, ops, wanted))
    for descending in (True, False):
        steenrod._power_on_monomial.cache_clear()
        for exps, x, ops, wanted in cases:
            for i in (reversed(ops) if descending else ops):
                mine = _as_exponent_map(apply_P_polynomial(i, x, prime))
                assert mine == wanted[i], (p, i, exps, descending)


@pytest.mark.parametrize("p, j", [(23, 1), (11, 2), (7, 3), (5, 4), (41, 1), (2, 400)])
def test_top_power_of_a_generator_is_its_pth_power(p, j):
    # the seed returns P^j(c_j) = c_j^p directly; x ** p shares no code
    # with it, and before the shortcut (41, 1) and (2, 400) took seconds
    prime = Prime(p)
    c = polynomial_algebra(prime, j).gen(f"c{j}")
    assert apply_P_polynomial(j, c, prime) == c ** p


def test_iterated_P1_is_a_factorial_times_the_seed():
    # the Adem relation P^1 P^(i-1) = i P^i gives (P^1)^i = i! P^i for
    # i < p; the left side needs only P^1 seeds and the Cartan recursion,
    # so at p = 7 this checks the large seeds P^3(c6) (610 terms), P^2(c7)
    # (186) and P^6(c7) (8946)
    p = Prime(7)
    for j in range(1, 8):
        c = polynomial_algebra(p, j).gen(f"c{j}")
        iterated = c
        for i in range(1, p.value):
            iterated = apply_P_polynomial(1, iterated, p)
            assert iterated == apply_P_polynomial(i, c, p) * math.factorial(i), (i, j)


def test_unstable_operation_is_zero_in_a_small_ambient():
    # P^i(x) = 0 for i above the weight of x: no ambient is sized for the
    # (never computed) target weight
    for p in (P2, P5):
        x = polynomial_algebra(p, 1).gen("c1")
        y = apply_P_polynomial(20000, x, p)
        assert y.is_zero()
        assert len(y.algebra.generators) <= 1
    A = polynomial_algebra(P3, 3)
    mixed = A.gen("c1") + A.gen("c3")
    y = apply_P_polynomial(3, mixed, P3)
    assert y == apply_P_polynomial(3, A.gen("c3"), P3)
    assert len(y.algebra.generators) == 3 + 3 * 2


def test_cartan_on_a_product_of_fourteen_generators():
    A = polynomial_algebra(P2, 14)
    gens = [A.gen(f"c{k}") for k in range(1, 15)]
    want = A.zero()
    for k, ck in enumerate(gens):
        term = apply_P_polynomial(1, ck, P2)
        for j, cj in enumerate(gens):
            if j != k:
                term = term * cj
        want = want + term
    x = A.monomial_element({f"c{k}": 1 for k in range(1, 15)})
    assert not want.is_zero()
    assert apply_P_polynomial(1, x, P2) == want


def test_cartan_on_a_high_power():
    # P^2(c2^500) = C(500, 2) P^1(c2)^2 c2^498 + 500 P^2(c2) c2^499
    A = polynomial_algebra(P3, 2)
    c2 = A.gen("c2")
    want = (apply_P_polynomial(1, c2, P3) ** 2 * A.monomial_element({"c2": 498})
            * math.comb(500, 2)
            + apply_P_polynomial(2, c2, P3) * A.monomial_element({"c2": 499}) * 500)
    assert not want.is_zero()
    assert apply_P_polynomial(2, A.monomial_element({"c2": 500}), P3) == want


def test_product_of_1500_generators_stays_shallow():
    # P^1(c_k) = c1*c_k + (k+1)*c_{k+1} at p = 2, so by the Cartan formula
    # P^1(c1*...*c1500) is 1500*c1*(c1*...*c1500), which is 0, plus one
    # term per even k: c_k is replaced by c_{k+1}
    n = 1500
    A = polynomial_algebra(P2, n)
    y = apply_P_polynomial(1, A.monomial_element({f"c{k}": 1 for k in range(1, n + 1)}), P2)
    want = {}
    for k in range(2, n + 1, 2):
        exps = [1] * n + [0]
        exps[k - 1] -= 1
        exps[k] += 1
        while not exps[-1]:
            exps.pop()
        want[tuple(exps)] = 1
    assert y.terms == want


def test_oracle_stability_in_root_count():
    # the oracle recomputes from scratch per n; the answers must agree
    for n in (4, 5, 7):
        assert brute_force_reduced_power(1, {2: 1}, 2, n=n) == {((1, 1), (2, 1)): 1,
                                                                ((3, 1),): 1}


# -- decomposable quotient ---------------------------------------------------

def test_decomposable_quotient():
    A = polynomial_algebra(P3, 5)
    x = A.gen("c1") * A.gen("c2") + A.gen("c3")
    assert decomposable_quotient(x) == A.gen("c3")
    assert decomposable_quotient(A.gen("c1") ** 2).is_zero()
    assert decomposable_quotient(A.gen("c5")) == A.gen("c5")


def test_indecomposable_action_formula_small():
    for p in (P2, P3, P5):
        for j in range(1, 6):
            A = polynomial_algebra(p, j)
            for i in range(0, 4):
                target = j + i * (p.value - 1)
                if target > 9:
                    continue
                got = decomposable_quotient(apply_P_polynomial(i, A.gen(f"c{j}"), p))
                want = polynomial_algebra(p, max(target, 1)).gen(f"c{target}") * int(
                    binom_mod_p(j - 1, i, p))
                assert got == want


# -- axiom harness -----------------------------------------------------------

@pytest.mark.parametrize("axiom", ["unit", "pth_power", "instability", "cartan", "adem"])
@pytest.mark.parametrize("p", [2, 3])
def test_axioms_small_bound(axiom, p):
    report = verify_axiom(axiom, Prime(p), 9)
    assert report.checks, "harness must actually check something"
    assert report.passed, report.failures()[:3]


def test_adem_p2_includes_p1p1_vanishing():
    report = verify_axiom("adem", P2, 12)
    assert report.passed
    p1p1 = [c for c in report.checks if c.description.startswith("P^1P^1")]
    assert p1p1, "P^1 P^1 instances must be covered"
    for c in p1p1:
        assert c.rhs == "0"


def test_adem_p3_bound_20():
    report = verify_axiom("adem", P3, 20)
    assert len(report.checks) == 701
    assert report.passed, report.failures()[:3]


def test_report_values_do_not_alias_module_caches():
    steenrod._power_on_monomial.cache_clear()
    steenrod.reduced_power_on_elementary.cache_clear()
    report = verify_axiom("adem", P2, 16)
    # the memo of P^b(x) and P^a(P^b(x)) lives for one call only: the module
    # cache holds no more than the 1125 sub-monomial images computed here
    # when each identity was evaluated through apply_P_polynomial
    assert steenrod._power_on_monomial.cache_info().currsize <= 1125

    def composites():
        return [apply_P_polynomial(a, apply_P_polynomial(b, x, P2), P2).render()
                for _, x in steenrod._test_classes(P2, 16, 5)
                for a in range(4) for b in range(4)]

    before = composites()
    for c in report.checks:
        for terms in (c.lhs_terms, c.rhs_terms):
            terms.clear()
            terms[(1, 1)] = 1
    assert composites() == before
    digest = hashlib.sha256(_axiom("adem", 2, 16).encode()).hexdigest()
    assert digest == DIGESTS["axiom adem p=2 bound=16"]


def test_group_algebra_is_cached():
    alg = GroupModel("GL", 6).group_algebra(P3)
    assert alg is GroupModel("GL", 6).group_algebra(P3)
    assert alg is not GroupModel("GL", 6).group_algebra(P5)


def test_verify_axiom_rejects_unknown():
    with pytest.raises(ValueError):
        verify_axiom("frobenius", P2, 5)
