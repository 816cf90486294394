from itertools import chain, combinations

import pytest

from stablyfree import koszul
from stablyfree.algebra import AlgebraPresentation, Bidegree, even_gen, odd_gen
from stablyfree.koszul import (build_koszul, homogeneous_space_odd_basis,
                               homogeneous_space_tor, koszul_homology)
from stablyfree.modp import Prime
from stablyfree.models import TorsionPrimeError
from koszul_oracle import brute_force_chain_dims, brute_force_koszul_homology

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def quotient_complex(p, indices, killed):
    base = [even_gen(f"c{i}", i) for i in indices]
    module = AlgebraPresentation(p, tuple(base),
                                 frozenset(f"c{i}" for i in killed))
    return build_koszul(base, module)


def test_build_koszul_validation():
    base = [even_gen("c1", 1), even_gen("c2", 2)]
    other = AlgebraPresentation(P3, (even_gen("c1", 1),))
    with pytest.raises(ValueError, match="match"):
        build_koszul(base, other)
    odd_base = [odd_gen("a1", 1)]
    with pytest.raises(ValueError, match="even"):
        build_koszul(odd_base, AlgebraPresentation(P3, tuple(odd_base)))


def test_fiber_case_is_full_exterior_algebra():
    # module F_p: differential vanishes, homology is the whole complex
    cx = quotient_complex(P3, [1, 2, 3], {1, 2, 3})
    table = koszul_homology(cx, 12)
    assert table.total_dimension() == 2 ** 3
    assert table.entries == {
        key: entry for key, entry in table.entries.items()}  # no surprises
    assert dict(table.chain_dims) == {
        key: entry.dimension for key, entry in table.entries.items()}
    assert table.index_one_classes() == [(1, "dc1"), (2, "dc2"), (3, "dc3")]
    assert table.dimension(3, 12, 6) == 1  # dc1^dc2^dc3
    assert table.euler_consistent()


def test_exact_case_collapses_to_ground_field():
    cx = quotient_complex(P3, [1, 2, 3], set())
    table = koszul_homology(cx, 16)
    assert table.total_dimension() == 1
    assert table.dimension(0, 0, 0) == 1
    assert table.euler_consistent()


def test_symplectic_quotient_example():
    cx = quotient_complex(P3, [2, 4], {4})
    table = koszul_homology(cx, 8)
    assert table.index_one_classes() == [(4, "dc4")]


def test_index_one_is_spanned_by_killed_generators():
    for indices, killed in [([1, 2, 3, 4], {2, 4}), ([1, 2, 3], {1}),
                            ([2, 4, 6], {4, 6}), ([1, 2, 3, 4], {1, 2, 3, 4})]:
        cx = quotient_complex(P5, indices, killed)
        table = koszul_homology(cx, 2 * max(indices))
        assert table.index_one_classes() == [
            (w, f"dc{w}") for w in sorted(killed)]


def powerset(xs):
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_equivalence_sample(p):
    prime = Prime(p)
    for killed in [set(), {1}, {2, 3}, {1, 4}, {1, 2, 3, 4}]:
        cx = quotient_complex(prime, [1, 2, 3, 4], killed)
        table = koszul_homology(cx, 14)
        mine = {(i, j): e.dimension for (i, q, j), e in table.entries.items()}
        assert mine == brute_force_koszul_homology([1, 2, 3, 4], killed, p, 7)
        chains = {(i, j): d for (i, q, j), d in table.chain_dims.items()}
        assert chains == brute_force_chain_dims([1, 2, 3, 4], killed, 7)
        assert table.euler_consistent()


def test_gl_closed_form():
    for n in range(1, 7):
        for r in range(0, n + 1):
            for p in (P2, P3, P5):
                basis = homogeneous_space_odd_basis("GL", n, r, p)
                assert [g.name for g in basis] == [f"a{j}" for j in range(r + 1, n + 1)]
                assert all(g.bidegree == Bidegree(2 * j - 1, j)
                           for g, j in zip(basis, range(r + 1, n + 1)))


def test_sp_so_closed_form():
    for n in range(1, 5):
        for p in (P2, P3, P5):
            assert [g.name for g in homogeneous_space_odd_basis("Sp", n, None, p)] \
                == [f"a{2 * n}"]
        for p in (P3, P5):
            assert [g.name for g in homogeneous_space_odd_basis("SO", n, None, p)] \
                == [f"a{2 * n}"]
        with pytest.raises(TorsionPrimeError):
            homogeneous_space_odd_basis("SO", n, None, P2)


def test_group_itself_via_r_zero():
    assert [g.name for g in homogeneous_space_odd_basis("GL", 4, 0, P2)] \
        == ["a1", "a2", "a3", "a4"]
    assert [g.name for g in homogeneous_space_odd_basis("Sp", 3, 0, P3)] \
        == ["a2", "a4", "a6"]
    assert homogeneous_space_odd_basis("GL", 3, 3, P2) == []


def test_sp_so_at_n_zero_need_an_explicit_subgroup():
    # n = 0 has no corank-one subgroup to default to; an explicit r = 0 is
    # the trivial quotient, and SO at p = 2 is refused as a torsion prime first
    for family, p in (("Sp", P2), ("Sp", P3), ("SO", P3)):
        message = f"{family} at n=0 has no corank-one subgroup; give r"
        for call in (homogeneous_space_odd_basis, homogeneous_space_tor):
            with pytest.raises(ValueError) as exc:
                call(family, 0, None, p)
            assert str(exc.value) == message
        assert homogeneous_space_odd_basis(family, 0, 0, p) == []
    with pytest.raises(TorsionPrimeError):
        homogeneous_space_tor("SO", 0, None, P2)


def test_parameter_validation():
    with pytest.raises(ValueError, match="out of range"):
        homogeneous_space_odd_basis("GL", 3, 4, P2)
    with pytest.raises(ValueError):
        homogeneous_space_odd_basis("GL", 3, -1, P2)
    with pytest.raises(ValueError):
        homogeneous_space_tor("GL", 3, 0, None)


def test_tor_table_rendering_and_json():
    table = homogeneous_space_tor("Sp", 2, None, P3)
    text = table.render_text()
    assert "dc4" in text
    again = homogeneous_space_tor("Sp", 2, None, P3)
    assert again.render_text() == text
    payload = table.to_json()
    assert payload["modulus"] == 3
    assert {"i": 1, "q": 8, "j": 4, "dimension": 1, "basis": ["dc4"]} \
        in payload["entries"]
    keys = [(e["j"], e["q"], e["i"]) for e in payload["entries"]]
    assert keys == sorted(keys)


def test_degree_bound_controls_table_size():
    small = homogeneous_space_tor("GL", 5, 2, P3, degree_bound=6)
    assert all(q <= 6 for (_, q, _) in small.entries)
    assert small.dimension(1, 6, 3) == 1


def test_cached_tables_are_read_only():
    table = homogeneous_space_tor("GL", 4, 1, P3)
    before = dict(table.entries)
    with pytest.raises(AttributeError):
        table.entries.clear()
    with pytest.raises(TypeError):
        table.entries[(9, 18, 9)] = None
    with pytest.raises(TypeError):
        del table.chain_dims[next(iter(table.chain_dims))]
    with pytest.raises(AttributeError):
        table.entries = {}
    again = homogeneous_space_tor("GL", 4, 1, P3)
    assert again is table and dict(again.entries) == before
    assert [g.name for g in homogeneous_space_odd_basis("GL", 4, 1, P3)] == \
        ["a2", "a3", "a4"]


def test_euler_check_sees_a_changed_chain_dimension():
    table = homogeneous_space_tor("GL", 4, 1, P3)
    assert table.euler_consistent()
    for key, dim in table.chain_dims.items():
        changed = table._replace(chain_dims={**table.chain_dims, key: dim + 1})
        assert not changed.euler_consistent(), key


def test_tor_table_cache_is_bounded():
    assert koszul._tor_table_cached.cache_info().maxsize == 64


def _kunneth_entries(indices, r, bound):
    """Tor of F_p over F_p[c_k : k in indices] modulo the c_k above rank r,
    by Kunneth: a surviving c_k contributes F_p, a killed one F_p + F_p dc_k,
    so there is one class per set of killed dc_k, of homological index its
    size and weight its sum, named by the wedge of its dc_k ("1" when empty)."""
    bases = {}
    killed = indices[r:]
    for m in range(len(killed) + 1):
        for subset in combinations(killed, m):
            w = sum(subset)
            if 2 * w <= bound:
                name = "^".join(f"dc{k}" for k in subset) or "1"
                bases.setdefault((m, 2 * w, w), []).append(name)
    return {key: (len(names), tuple(names)) for key, names in bases.items()}


@pytest.mark.parametrize("family,p", [("GL", 2), ("GL", 3), ("GL", 5),
                                      ("Sp", 2), ("Sp", 3), ("Sp", 5),
                                      ("SO", 3), ("SO", 5)])
def test_tor_tables_match_the_kunneth_closed_form(family, p):
    p = Prime(p)
    for n in range(8):
        indices = list(range(1, n + 1)) if family == "GL" else list(range(2, 2 * n + 1, 2))
        default = 2 * max(indices, default=0)
        for r in range(n + 1):
            for bound in (None, 3 * n + 5):
                table = homogeneous_space_tor(family, n, r, p, degree_bound=bound)
                want = default if bound is None else bound
                assert table.degree_bound == want
                assert dict(table.entries) == _kunneth_entries(indices, r, want), \
                    (family, n, r, p, bound)
