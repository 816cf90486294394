import gc
import hashlib
import math
import random
from functools import partial
from itertools import zip_longest

import pytest

from stablyfree.algebra import (AlgebraPresentation, Bidegree, bidegree_of,
                                even_gen, pack_exps, polynomial_algebra, unpack_exps)
from stablyfree.modp import Prime, binom_mod_p
from stablyfree.models import GroupModel, TorsionPrimeError
from stablyfree import steenrod, symmetric
from stablyfree.steenrod import (apply_P_polynomial, apply_P_primitive,
                                 decomposable_quotient, verify_axiom)
from steenrod_oracle import brute_force_reduced_power, chern_monomials_of_weight
from test_golden import DIGESTS, SLOT_TOPS, _axiom

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def _assert_no_table_left():
    # each top-level call owns its image table, with the tables its seeds
    # share, and drops it when it returns; neither layer caches a function
    assert not any(isinstance(o, (steenrod._Table, symmetric._Sums)) for o in gc.get_objects())
    for module in (steenrod, symmetric):
        assert not [name for name, f in vars(module).items()
                    if getattr(f, "__module__", None) == module.__name__
                    and hasattr(f, "cache_info")]


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


@pytest.mark.parametrize("family, n", [("GL", 10 ** 6), ("Sp", 10 ** 6), ("SO", 10 ** 8)])
def test_primitive_builds_only_the_generators_it_needs(family, n):
    # the image lies in the algebra of the smallest subgroup that holds
    # a_target (or a_j, when it is zero), not in one of n generators; the
    # first 8 generators of the model decide every answer below
    model, small = GroupModel(family, n), GroupModel(family, 8)
    indices = small.generator_indices()
    for p in (P2, P3, P5):
        if family == "SO" and p == P2:
            continue
        for j in indices:
            for i in range(4):
                target = j + i * (p.value - 1)
                got = apply_P_primitive(i, j, model, p)
                assert len(got.algebra.generators) <= target, (p, i, j)
                if target <= indices[-1]:
                    assert got == apply_P_primitive(i, j, small, p), (p, i, j)
                    assert got.to_json() == apply_P_primitive(i, j, small, p).to_json()
    assert apply_P_primitive(1, 2, model, P3).render() == "a4"


# -- polynomial action -------------------------------------------------------

def test_a_seed_handed_out_is_the_callers_own():
    # no seed is cached across calls, so clearing one that was handed out
    # changes neither the next seed nor an operation that reads it
    want = {(1, 1): 1, (0, 0, 1): 1}  # P^1(c2) = c1*c2 + c3 at p = 2
    seed = symmetric.reduced_power_on_elementary(2, 1, 2)
    assert seed == want
    seed.clear()
    assert symmetric.reduced_power_on_elementary(2, 1, 2) == want
    c2 = polynomial_algebra(P2, 2).gen("c2")
    assert apply_P_polynomial(1, c2, P2).render() == "c1*c2 + c3"
    # nor does a seed filled from tables shared with others
    tables, alone = {}, symmetric.reduced_power_on_elementary(3, 1, 3)
    symmetric.reduced_power_on_elementary(3, 1, 3, tables=tables).clear()
    assert symmetric.reduced_power_on_elementary(3, 1, 3, tables=tables) == alone != {}


def test_seed_tables_go_when_the_call_returns():
    # the tables that a call's seeds share are freed by reference counting
    # as it returns: no cycle keeps them for the collector to find later
    gc.collect()
    gc.disable()
    try:
        c6 = polynomial_algebra(Prime(7), 6).gen("c6")
        assert apply_P_polynomial(2, c6, Prime(7)).terms
        assert symmetric.reduced_power_on_elementary(7, 2, 6, width=1)
        assert not any(isinstance(o, symmetric._Sums) for o in gc.get_objects())
    finally:
        gc.enable()


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
    # every monomial of weight <= 6 in c1..c6, and [P^0 .. P^top] of each,
    # landing in weight <= 12, three ways: one i at a time through
    # apply_P_polynomial, which starts from an empty image table; one i at a
    # time through one shared table, i running down first and then up, so
    # images of shared sub-monomials are reused in either order; and every i
    # in one pass
    prime = Prime(p)
    A = polynomial_algebra(prime, 6)
    cases = []
    for w in range(7):
        for exps in chern_monomials_of_weight(w, 6):
            ops = range((12 - w) // (p - 1) + 1)
            wanted = [brute_force_reduced_power(i, exps, p) for i in ops]
            x = A.monomial_element({f"c{j}": d for j, d in exps.items()})
            cases.append((exps, x, ops, wanted))

    def packed(table, x):
        return {pack_exps(table.width, e): c for e, c in x.terms.items()}

    def as_map(table, terms):
        terms = {unpack_exps(table.width, e): c for e, c in terms.items()}
        return _as_exponent_map(polynomial_algebra(prime, max(map(len, terms), default=1))
                                .from_terms(terms))

    for exps, x, ops, wanted in cases:
        for i in ops:
            assert _as_exponent_map(apply_P_polynomial(i, x, prime)) == wanted[i], (p, i, exps)
    _assert_no_table_left()
    # a fresh table per order, its monomials packed for weights up to 12
    for descending in (True, False):
        table = steenrod._Table(p, 12)
        for exps, x, ops, wanted in cases:
            for i in (reversed(ops) if descending else ops):
                row = steenrod._apply_raw(table, (i,), packed(table, x))
                assert as_map(table, row[i]) == wanted[i]
    table = steenrod._Table(p, 12)
    for exps, x, ops, wanted in cases:
        row = steenrod._apply_raw(table, ops, packed(table, x))
        assert [as_map(table, row[i]) for i in ops] == wanted, (p, exps)
    del table
    _assert_no_table_left()


def test_a_single_power_asks_for_the_seeds_it_needs(monkeypatch):
    # each half of c1*c4 and c2*c5 is asked only for the indices the Cartan
    # sum reaches, so P^4(c1*c4) at p=5 needs neither P^1(c4) nor P^2(c4);
    # P^0 of a half is the identity, not a seed
    asked = set()
    seed = steenrod.reduced_power_on_elementary

    def spy(p, i, j, *, tables=None, width=None):
        asked.add((p, i, j))
        return seed(p, i, j, tables=tables, width=width)

    monkeypatch.setattr(steenrod, "reduced_power_on_elementary", spy)
    for p, mono, i, want in ((5, {"c1": 1, "c4": 1}, 4, {(5, 1, 1), (5, 3, 4), (5, 4, 4)}),
                             (7, {"c2": 1, "c5": 1}, 2,
                              {(7, 1, 2), (7, 1, 5), (7, 2, 2), (7, 2, 5)})):
        asked.clear()
        x = polynomial_algebra(Prime(p), 5).monomial_element(mono)
        apply_P_polynomial(i, x, Prime(p))
        assert asked == want, (p, mono, i)


def test_no_image_table_outlives_its_call():
    x = polynomial_algebra(P3, 4).monomial_element({"c1": 2, "c4": 1})
    assert not apply_P_polynomial(2, x, P3).is_zero()
    _assert_no_table_left()
    for axiom in steenrod.AXIOMS:
        assert verify_axiom(axiom, P3, 10).checks
        _assert_no_table_left()
    # and when a seed is refused midway
    big = polynomial_algebra(Prime(11), 7).monomial_element({"c1": 1, "c7": 1})
    with pytest.raises(ValueError, match="more than the cap"):
        apply_P_polynomial(6, big, Prime(11))
    _assert_no_table_left()


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


def test_product_of_1500_generators_stays_shallow(monkeypatch):
    # P^1(c_k) = c1*c_k + (k+1)*c_{k+1} at p = 2, so by the Cartan formula
    # P^1(c1*...*c1500) is 1500*c1*(c1*...*c1500), which is 0, plus one
    # term per even k: c_k is replaced by c_{k+1}
    decoded, tables = [], []

    def unpack(width, key):
        decoded.append(key)
        return real_unpack(width, key)

    class Table(steenrod._Table):
        def __init__(self, p, top):
            super().__init__(p, top)
            tables.append(self)

    real_unpack = unpack_exps
    monkeypatch.setattr(steenrod, "unpack_exps", unpack)
    monkeypatch.setattr(steenrod, "_Table", Table)
    n = 1500
    A = polynomial_algebra(P2, n)
    y = apply_P_polynomial(1, A.monomial_element({f"c{k}": 1 for k in range(1, n + 1)}), P2)
    # the argument, when its record is made, and the 750 terms of the
    # result: the Cartan splits cut their halves from the keys, decoding none
    assert len(decoded) == 1 + 750
    [table] = tables
    for key, weight, halves, _ in table.records.values():
        if not isinstance(halves, int):
            (u, w_u, *_), (v, w_v, *_) = halves
            assert (u + v, w_u + w_v) == (key, weight)
    # the spy's class is in a reference cycle: let go of the table it keeps
    del table
    tables.clear()
    want = {}
    for k in range(2, n + 1, 2):
        exps = [1] * n + [0]
        exps[k - 1] -= 1
        exps[k] += 1
        while not exps[-1]:
            exps.pop()
        want[tuple(exps)] = 1
    assert y.terms == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_powers_of_c1_across_the_slot_widths(p):
    # P^i(c1^n) = C(n, i) c1^(n + i(p-1)): the exponent of the image is the
    # top weight of the call, so n on either side of each slot boundary
    # packs the image into either of two widths
    prime = Prime(p)
    c1 = polynomial_algebra(prime, 1).gen("c1")
    for top in SLOT_TOPS:
        for i in range(4):
            for n in range(top - i * (p - 1) - 2, top - i * (p - 1) + 2):
                want = {(n + i * (p - 1),): r} if (r := math.comb(n, i) % p) else {}
                x = c1.algebra.monomial_element({"c1": n})
                assert apply_P_polynomial(i, x, prime).terms == want, (top, i, n)
    _assert_no_table_left()


def test_packed_monomials_add_slot_by_slot():
    # slots are as many whole bytes as the top weight needs, rounded up to 2,
    # 4 or 8 below 9; packing drops trailing zero exponents, and the sum of
    # two packed monomials is their product while no exponent passes the top
    widths = [steenrod._Table(2, top).width for top in SLOT_TOPS]
    assert widths == [1, 2, 2, 4, 4, 8, 8, 8, 9, 9]
    rng = random.Random(8)
    for top in (0, 1) + SLOT_TOPS:
        width = steenrod._Table(3, top).width
        pack = partial(pack_exps, width)
        for _ in range(50):
            n = rng.randint(0, 6)
            a = tuple(rng.randint(0, top // 2) for _ in range(n))
            b = tuple(rng.randint(0, top - top // 2) for _ in range(rng.randint(0, 6)))
            product = tuple(map(sum, zip_longest(a, b, fillvalue=0)))
            key = pack(a) + pack(b)
            while product and not product[-1]:
                product = product[:-1]
            assert unpack_exps(width, key) == product, (top, a, b)
            assert pack(product) == key


def test_bytes_codec_agrees_with_shifts():
    # width 1 packs through bytes and unpacks through tuple, widths 2, 4 and
    # 8 through one struct call, any other width sums shifts and slices; an
    # exponent below 256 in a slot of w bytes is that exponent followed by
    # w - 1 zero bytes, so the codecs must agree
    rng = random.Random(9)
    cases = [()]
    for _ in range(20000):
        exps = [rng.randrange(256) for _ in range(rng.randint(1, 8))]
        exps[-1] = rng.randrange(1, 256)  # no trailing zero
        cases.append(tuple(exps))
    for exps in cases:
        assert unpack_exps(1, pack_exps(1, exps)) == exps
        for width in (2, 3, 4, 8, 9):
            spread = tuple(b for e in exps for b in (e,) + (0,) * (width - 1))
            key = pack_exps(width, exps)
            assert key == pack_exps(1, spread), (width, exps)
            assert unpack_exps(width, key) == exps, (width, exps)
            assert unpack_exps(1, key) == spread[:len(spread) - width + 1]


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
    report = verify_axiom("adem", P2, 16)
    # the rows of P^a(P^b(x)) and the images behind them live for one call
    # only: the image table is gone when it returns
    _assert_no_table_left()

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


def test_axiom_check_sides_are_fresh_tuple_keyed_dicts():
    # the sides are kept packed and decoded on each read: what a reader does
    # to one read changes neither a later read, nor the rendering, nor passed
    for p, axiom in ((P2, "adem"), (P3, "adem"), (P3, "pth_power"), (P5, "cartan")):
        report = verify_axiom(axiom, p, 10)
        assert report.checks
        for c in report.checks:
            lhs, rhs = c.lhs_terms, c.rhs_terms
            assert type(lhs) is dict and type(rhs) is dict
            for e in [*lhs, *rhs]:
                assert type(e) is tuple and (not e or e[-1]), e
            assert lhs is not c.lhs_terms and lhs == c.lhs_terms
            before = (c.lhs_terms, c.rhs_terms, c.lhs, c.rhs, c.passed)
            assert c.passed == (lhs == rhs)
            lhs.clear()
            lhs[(1, 1)] = 1
            rhs[(2,)] = 1
            assert (c.lhs_terms, c.rhs_terms, c.lhs, c.rhs, c.passed) == before
            with pytest.raises(AttributeError):
                c.lhs_terms = {}
    # equal reports compare equal: the same call packs its sides alike
    assert verify_axiom("adem", P3, 9) == verify_axiom("adem", P3, 9)


def test_axiom_report_is_an_immutable_tuple():
    report = verify_axiom("adem", P3, 9)
    assert isinstance(report, tuple) and type(report.checks) is tuple
    assert report == ("adem", 3, 9, report.checks)
    with pytest.raises(AttributeError):
        report.p = 5
    assert not hasattr(steenrod, "_fields_equal")
    assert not hasattr(steenrod.AxiomReport, "record")


def test_a_passing_identity_keeps_one_side():
    # its two sides are equal, so one packed side serves both reads
    for p, axiom in ((P2, "adem"), (P3, "cartan"), (P5, "instability")):
        report = verify_axiom(axiom, p, 10)
        assert report.passed and report.checks
        for c in report.checks:
            lhs, rhs = c.lhs_terms, c.rhs_terms
            assert rhs == lhs and rhs is not lhs and rhs is not c.rhs_terms
            assert c.lhs == c.rhs
            assert c.packed_rhs is c.packed_lhs


def test_group_algebra_is_cached():
    alg = GroupModel("GL", 6).group_algebra(P3)
    assert alg is GroupModel("GL", 6).group_algebra(P3)
    assert alg is not GroupModel("GL", 6).group_algebra(P5)


def test_verify_axiom_rejects_unknown():
    with pytest.raises(ValueError):
        verify_axiom("frobenius", P2, 5)


def test_verify_builds_no_generator_above_the_bound(monkeypatch):
    # the pool holds no c_j above the bound, so a pool of a million
    # generators asks for no more of them than the bound allows
    sizes = []
    true_algebra = steenrod.polynomial_algebra

    def spy(p, n):
        sizes.append(n)
        return true_algebra(p, n)

    monkeypatch.setattr(steenrod, "polynomial_algebra", spy)
    for axiom in steenrod.AXIOMS:
        for p, bound in ((P2, 3), (P3, 6), (P5, 9)):
            sizes.clear()
            report = verify_axiom(axiom, p, bound, n_generators=10**6)
            assert sizes and max(sizes) <= bound, (axiom, p, bound)
            assert report == verify_axiom(axiom, p, bound, n_generators=bound)


def _adem_shape(check):
    """'empty', 'single' (one term, coefficient 1) or 'other': the shape of
    the Adem sum of a check, from its description and binom_mod_p."""
    head = check.description.split("(", 1)[0]  # "P^aP^b"
    a, b = map(int, head[2:].split("P^"))
    p = check.p
    coeffs = [binom_mod_p((p - 1) * (b - t) - 1, a - p * t, Prime(p)) * (-1) ** (a + t) % p
              for t in range(a // p + 1)]
    terms = [c for c in coeffs if c]
    return "empty" if not terms else "single" if terms == [1] else "other"


def _assert_sides_are_not_shared(report):
    # a passing check keeps one side; no other check holds either side
    sides = []
    for c in report.checks:
        if c.passed:
            assert c.packed_rhs is c.packed_lhs
            sides.append(c.packed_lhs)
        else:
            sides += [c.packed_lhs, c.packed_rhs]
    assert len({id(s) for s in sides}) == len(sides)


def test_planted_seed_fails_adem_identities_of_each_shape(planted_seed):
    # P^0(c2) = 2*c2 at p = 3: the Adem sums it spoils are single composites
    # with coefficient 1 and sums of more terms
    report = verify_axiom("adem", P3, 10)
    shapes = [_adem_shape(c) for c in report.failures()]
    assert len(report.checks) == 120
    assert {s: shapes.count(s) for s in set(shapes)} == {"single": 8, "other": 4}
    _assert_sides_are_not_shared(report)


def test_planted_wu_seed_fails_adem_identities_of_each_shape(monkeypatch):
    # P^1(c2) = c3 at p = 2, without Wu's c1*c2: it spoils empty Adem sums,
    # single composites with coefficient 1 and sums of more terms
    true_seed = steenrod.reduced_power_on_elementary

    def planted(p, i, j, *, tables=None, width=None):
        if (p, i, j) == (2, 1, 2):
            return {(0, 0, 1): 1} if width is None else {pack_exps(width, (0, 0, 1)): 1}
        return true_seed(p, i, j, tables=tables, width=width)

    monkeypatch.setattr(steenrod, "reduced_power_on_elementary", planted)
    report = verify_axiom("adem", P2, 10)
    shapes = [_adem_shape(c) for c in report.failures()]
    assert len(report.checks) == 346
    assert {s: shapes.count(s) for s in set(shapes)} == {"empty": 23, "single": 29,
                                                         "other": 2}
    _assert_sides_are_not_shared(report)
    # from bound 14 on, two failing identities of one class have the same
    # single composite for their right side
    _assert_sides_are_not_shared(verify_axiom("adem", P2, 14))


# the work of each verify --axiom adem query of the adem-cold benchmark:
# (p, bound) -> (records, images, image terms, seed calls, binom_mod_p calls)
ADEM_COLD_WORK = {(2, 16): (213, 1125, 4277, 50, 195),
                  (3, 15): (443, 914, 4716, 42, 30),
                  (2, 18): (213, 1436, 7621, 52, 273)}


@pytest.mark.parametrize("p, bound", sorted(ADEM_COLD_WORK))
def test_adem_harness_work_is_pinned(p, bound, monkeypatch):
    # the records of the call's table, the images they hold and the terms
    # of those, the seeds asked for and the Adem coefficients computed; and
    # one Adem plan for the call, whatever the weights of the pool
    tables, calls = [], {"seeds": 0, "binom": 0, "plans": 0}
    init, seed = steenrod._Table.__init__, steenrod.reduced_power_on_elementary
    binom, plan = steenrod.binom_mod_p, steenrod._adem_plan

    def table_init(self, *args):
        init(self, *args)
        tables.append(self)

    def counted(name, f):
        def spy(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return spy

    monkeypatch.setattr(steenrod._Table, "__init__", table_init)
    monkeypatch.setattr(steenrod, "reduced_power_on_elementary", counted("seeds", seed))
    monkeypatch.setattr(steenrod, "binom_mod_p", counted("binom", binom))
    monkeypatch.setattr(steenrod, "_adem_plan", counted("plans", plan))
    assert verify_axiom("adem", Prime(p), bound).passed
    [table] = tables
    images = [image for *_, imgs in table.records.values() for image in imgs.values()]
    work = (len(table.records), len(images), sum(map(len, images)),
            calls["seeds"], calls["binom"])
    del table, images
    tables.clear()
    assert work == ADEM_COLD_WORK[p, bound]
    assert calls["plans"] == 1
