import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablyfree.algebra import (AlgebraPresentation, Bidegree, GeneratorSpec,
                                INHOMOGENEOUS, SECOND_ODD_FACTOR, bidegree_of,
                                even_gen, format_term, iter_monomials, odd_gen,
                                polynomial_algebra)
from stablyfree.cli import parse_polynomial
from stablyfree.modp import Prime
from stablyfree.models import GroupModel, TorsionPrimeError, model_from_matrix_size

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def gl_algebra(p, n, killed=()):
    model = GroupModel("GL", n)
    gens = []
    for a, c in zip(model.odd_generators(), model.even_generators()):
        gens.extend([c, a])
    return AlgebraPresentation(p, tuple(gens), frozenset(killed))


def test_bidegree_rules():
    with pytest.raises(ValueError):
        Bidegree(-1, 0)


def test_generator_spec_parity_constraints():
    assert even_gen("c3", 3).bidegree == Bidegree(6, 3)
    assert odd_gen("a4", 4).bidegree == Bidegree(7, 4)
    with pytest.raises(ValueError):
        GeneratorSpec("x", "even", Bidegree(5, 2))
    with pytest.raises(ValueError):
        GeneratorSpec("x", "odd", Bidegree(6, 3))
    with pytest.raises(ValueError):
        GeneratorSpec("x", "mixed", Bidegree(6, 3))


def test_two_odd_factors_raise():
    # odd classes enter linearly: a second odd factor is an error, never
    # a silent zero or a sign
    alg = gl_algebra(P3, 5)
    a2, a3, a4 = alg.gen("a2"), alg.gen("a3"), alg.gen("a4")
    for make in (lambda: alg.make_monomial(odd=["a2", "a4"]),
                 lambda: alg.make_monomial(odd=["a1", "a1"]),
                 lambda: alg.monomial_element({"c1": 2}, odd=["a4", "a2"]),
                 lambda: a3 * a3,
                 lambda: a2 * a4,
                 lambda: a3 ** 2,
                 lambda: (alg.gen("c1") * a2 + alg.gen("c3")) * (a4 + alg.gen("c4"))):
        with pytest.raises(ValueError, match=SECOND_ODD_FACTOR):
            make()
    mono = alg.make_monomial({"c1": 2}, odd=["a4"])
    assert alg.named_factors(mono) == ([("c1", 2)], ["a4"])
    odd = [k for k, g in enumerate(alg.generators) if g.parity == "odd"]
    for m in iter_monomials(alg, 7):
        assert sum(m[k] for k in odd if k < len(m)) <= 1


def test_killed_generator_reduces_to_zero():
    alg = gl_algebra(P3, 5, killed={"c2"})
    assert alg.gen("c2").is_zero()
    assert (alg.gen("c2") * alg.gen("a4")).is_zero()
    assert alg.monomial_element({"c2": 1}, odd=["a4"]).is_zero()


def test_bidegree_of_examples():
    alg = gl_algebra(P3, 5)
    assert bidegree_of(alg.gen("a4")) == Bidegree(7, 4)
    assert bidegree_of(alg.gen("c3")) == Bidegree(6, 3)
    assert bidegree_of(alg.gen("a2") + alg.gen("c2")) is INHOMOGENEOUS
    assert bidegree_of(alg.zero()) is None  # homogeneous of every bidegree
    assert bidegree_of(alg.one()) == Bidegree(0, 0)


def test_multiply_contract_checks():
    alg = gl_algebra(P3, 5)
    other_p = gl_algebra(P5, 5)
    x = alg.gen("a2")
    with pytest.raises(ValueError, match="modulus"):
        x * other_p.gen("a2")
    with pytest.raises(ValueError, match="modulus"):
        x + other_p.gen("a2")


def _random_homogeneous(alg, weight, rng, odd=True):
    """Random element concentrated in a single bidegree of the given weight;
    its terms have at most one odd factor, and none unless `odd`."""
    by_degree = {}
    for m in iter_monomials(alg, weight):
        if odd or alg.odd_position(m) is None:
            by_degree.setdefault(alg.mono_bidegree(m).degree, []).append(m)
    if not by_degree:
        return alg.zero()
    monos = by_degree[rng.choice(sorted(by_degree))]
    picks = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
    out = alg.zero()
    for m in picks:
        out = out + alg.from_terms({m: rng.randint(1, alg.modulus.value - 1)})
    return out


@pytest.mark.parametrize("p", [P2, P3, P5])
def test_graded_commutativity(p):
    # y has even degree, so x y = y x whatever the parity of x
    rng = random.Random(90 + p.value)
    alg = gl_algebra(p, 4)
    for _ in range(40):
        x = _random_homogeneous(alg, rng.randint(1, 5), rng)
        y = _random_homogeneous(alg, rng.randint(1, 5), rng, odd=False)
        assert x * y == y * x


def test_commutativity_is_plain_at_two():
    rng = random.Random(17)
    alg = gl_algebra(P2, 4)
    for _ in range(40):
        x = _random_homogeneous(alg, rng.randint(1, 6), rng, odd=False)
        y = _random_homogeneous(alg, rng.randint(1, 6), rng)
        assert x * y == y * x


@pytest.mark.parametrize("p", [P2, P3, P5])
def test_associativity_and_distributivity(p):
    # x may carry one odd factor per term; y and z carry none
    rng = random.Random(300 + p.value)
    alg = gl_algebra(p, 4)
    for _ in range(25):
        x = _random_homogeneous(alg, rng.randint(1, 4), rng)
        y = _random_homogeneous(alg, rng.randint(1, 4), rng, odd=False)
        z = _random_homogeneous(alg, rng.randint(1, 4), rng, odd=False)
        assert (x * y) * z == x * (y * z) == (y * x) * z == y * (z * x)
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x


def test_canonical_form_is_stable():
    alg = gl_algebra(P3, 5)
    x = alg.gen("c1") * alg.gen("a2") * 2 + alg.gen("a3")
    again = alg.from_terms(dict(x.terms))
    assert again == x and again.render() == x.render()
    # normalizing an already canonical monomial changes nothing
    for mono in x.terms:
        even, odd = alg.named_factors(mono)
        assert alg.make_monomial(dict(even), odd) == mono


def test_rendering_is_deterministic_and_sorted():
    alg = gl_algebra(P3, 5)
    x = alg.gen("a5") * (alg.gen("c1") ** 3) * alg.gen("c2") * 2
    assert x.render() == "2*c1^3*c2*a5"
    y = alg.gen("c3") + alg.gen("c1") * alg.gen("c2")
    assert y.render() == "c1*c2 + c3"
    assert alg.zero().render() == "0"
    assert alg.scalar(2).render() == "2"


def test_odd_factor_renders_last():
    # positions interleave (c1, a1, c2, a2, ...), so a2 precedes c3 by
    # position; text and JSON still put the odd factor after the even ones
    alg = gl_algebra(P3, 4)
    assert [g.name for g in alg.generators] == ["c1", "a1", "c2", "a2",
                                                "c3", "a3", "c4", "a4"]
    x = (alg.gen("c1") * alg.gen("c3") ** 2 * alg.gen("a2") * 2
         + alg.gen("c2") * alg.gen("a1"))
    assert x.render() == "2*c1*c3^2*a2 + c2*a1"
    assert x.to_json() == {"modulus": 3, "terms": [
        {"coefficient": 2, "even": [["c1", 1], ["c3", 2]], "odd": ["a2"]},
        {"coefficient": 1, "even": [["c2", 1]], "odd": ["a1"]}]}


def test_make_monomial_error_order():
    # even names are read first: a killed one makes the monomial zero
    # before the odd names are counted
    alg = gl_algebra(P3, 5, killed={"c2"})
    assert alg.make_monomial({"c2": 1}, odd=["a1", "a3"]) is None
    assert alg.monomial_element({"c2": 1}, odd=["a1", "a3"]).is_zero()
    with pytest.raises(ValueError, match=SECOND_ODD_FACTOR):
        alg.make_monomial({"c1": 1}, odd=["a1", "a3"])
    with pytest.raises(ValueError, match="a1 is not an even generator"):
        alg.make_monomial({"a1": 1}, odd=["a1", "a3"])
    with pytest.raises(ValueError, match="c1 is not an odd generator"):
        alg.make_monomial(odd=["c1"])


def test_group_model_tables():
    gl = GroupModel("GL", 4)
    assert [g.name for g in gl.odd_generators()] == ["a1", "a2", "a3", "a4"]
    assert gl.odd_generators()[2].bidegree == Bidegree(5, 3)
    assert gl.even_generators()[3].bidegree == Bidegree(8, 4)

    sp = GroupModel("Sp", 3)
    assert [g.name for g in sp.odd_generators()] == ["a2", "a4", "a6"]
    assert [g.name for g in sp.even_generators()] == ["c2", "c4", "c6"]
    assert sp.describe() == "Sp_6"

    so = GroupModel("SO", 3)
    assert so.generator_indices() == sp.generator_indices()
    assert so.describe() == "SO_7"
    with pytest.raises(TorsionPrimeError):
        so.group_algebra(P2)
    so.group_algebra(P3)  # fine away from the torsion prime


def test_polynomial_algebra_is_shared():
    assert polynomial_algebra(P3, 4) is polynomial_algebra(P3, 4)
    assert polynomial_algebra(P3, 4) is not polynomial_algebra(P5, 4)


def test_model_from_matrix_size():
    assert model_from_matrix_size("GL", 6).n == 6
    assert model_from_matrix_size("Sp", 4).n == 2
    assert model_from_matrix_size("SO", 5).n == 2
    for family, size in [("Sp", 5), ("SO", 4), ("XX", 1)]:
        with pytest.raises(ValueError):
            model_from_matrix_size(family, size)
    for family, n in [("XX", 1), ("GL", -1)]:
        with pytest.raises(ValueError):
            GroupModel(family, n)


# -- positional monomials: names only at the boundary -------------------------

def _chern_terms(n):
    """Terms ({index: exponent}, coefficient) over c1..cn."""
    monomial = st.dictionaries(st.integers(1, n), st.integers(0, 3), max_size=3)
    return st.lists(st.tuples(monomial, st.integers(0, 6)), max_size=5)


def _element(alg, terms):
    out = alg.zero()
    for exps, coeff in terms:
        out = out + alg.monomial_element({f"c{k}": e for k, e in exps.items()},
                                         coeff=coeff)
    return out


def _by_name(x, alg):
    """Rebuild x in alg from the generator names of its JSON form."""
    out = alg.zero()
    for t in x.to_json()["terms"]:
        out = out + alg.monomial_element(dict(t["even"]), t["odd"], t["coefficient"])
    return out


def _sized_terms():
    return st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), _chern_terms(n)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([P2, P3, P5]), _sized_terms())
def test_render_parse_and_json_round_trip(p, sized):
    n, terms = sized
    alg = polynomial_algebra(p, n)
    x = _element(alg, terms)
    assert parse_polynomial(x.render(), p) == x
    rebuilt = _by_name(x, alg)
    assert rebuilt == x and rebuilt.to_json() == x.to_json()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([P2, P3, P5]), _sized_terms())
def test_render_without_odd_generators_keeps_the_sort_key_order(p, sized):
    # render formats Chern monomials straight from their positions; it must
    # give what the named terms, in sort_key's order, give
    n, terms = sized
    x = _element(polynomial_algebra(p, n), terms)
    named = " + ".join(format_term(c, even, odd) for even, odd, c in x.named_terms())
    assert x.render() == (named or "0")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([P2, P3, P5]), _sized_terms(), _sized_terms())
def test_mixed_sizes_match_the_larger_algebra(p, sized_x, sized_y):
    (a, terms_x), (b, terms_y) = sized_x, sized_y
    x = _element(polynomial_algebra(p, a), terms_x)
    y = _element(polynomial_algebra(p, b), terms_y)
    big = polynomial_algebra(p, max(a, b))
    big_x, big_y = _by_name(x, big), _by_name(y, big)
    assert (x + y).render() == (big_x + big_y).render()
    assert (x * y).render() == (big_x * big_y).render()
    assert (y * x).algebra is big


def test_same_position_in_different_groups_is_not_equal():
    # a1 of GL_2 and a2 of Sp_2 both sit at position 0
    gl_a1 = GroupModel("GL", 2).group_algebra(P3).gen("a1")
    sp_a2 = GroupModel("Sp", 1).group_algebra(P3).gen("a2")
    assert gl_a1.terms == sp_a2.terms
    assert gl_a1 != sp_a2


def test_non_prefix_mix_raises():
    gl_a1 = GroupModel("GL", 4).group_algebra(P3).gen("a1")
    sp_a2 = GroupModel("Sp", 2).group_algebra(P3).gen("a2")
    with pytest.raises(ValueError, match="incompatible"):
        gl_a1 + sp_a2
    with pytest.raises(ValueError, match="incompatible"):
        gl_a1 * sp_a2
    killed = AlgebraPresentation(P3, polynomial_algebra(P3, 2).generators,
                                 frozenset({"c2"}))
    with pytest.raises(ValueError, match="incompatible"):
        killed.gen("c1") + polynomial_algebra(P3, 2).gen("c1")
