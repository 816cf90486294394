import random
from itertools import combinations, permutations

import pytest

from stablyfree.symmetric import (elementary_monomial_expansion,
                                  mul_by_elementary,
                                  reduced_power_on_elementary,
                                  to_elementary_basis)


def dense_from_mbasis(poly, n):
    """Expand an m-basis polynomial into explicit exponent vectors."""
    out = {}
    for lam, coeff in poly.items():
        padded = tuple(lam) + (0,) * (n - len(lam))
        for perm in set(permutations(padded)):
            out[perm] = out.get(perm, 0) + coeff
    return {v: c for v, c in out.items() if c}


def dense_mul(a, b):
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(x + y for x, y in zip(va, vb))
            out[v] = out.get(v, 0) + ca * cb
    return {v: c for v, c in out.items() if c}


def dense_elementary(j, n):
    out = {}
    for subset in combinations(range(n), j):
        vec = [0] * n
        for i in subset:
            vec[i] = 1
        out[tuple(vec)] = 1
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mul_by_elementary_against_dense(n):
    rng = random.Random(100 + n)
    partitions = [(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1, 1)]
    for lam in partitions:
        if len(lam) > n:
            continue
        for j in range(0, n + 1):
            poly = {lam: rng.randint(1, 9)}
            mine = dense_from_mbasis(mul_by_elementary(poly, j, n), n)
            want = dense_mul(dense_from_mbasis(poly, n), dense_elementary(j, n))
            assert mine == want, (lam, j, n)


@pytest.mark.parametrize("n", [4, 6])
def test_elementary_expansion_round_trip(n):
    # rewriting the expansion of an e-monomial recovers that monomial
    for exps in [(1,), (2,), (0, 1), (1, 1), (0, 0, 2), (2, 1), (1, 0, 1)]:
        if len(exps) > n:
            continue
        expansion = elementary_monomial_expansion(exps, n)
        back = to_elementary_basis(expansion, n)
        trimmed = exps
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        assert back == {trimmed: 1}


def test_rewrite_classical_identities():
    # power sums: p2 = e1^2 - 2 e2, p3 = e1^3 - 3 e1 e2 + 3 e3
    assert to_elementary_basis({(2,): 1}, 5) == {(2,): 1, (0, 1): -2}
    assert to_elementary_basis({(3,): 1}, 5) == {(3,): 1, (1, 1): -3, (0, 0, 1): 3}
    # m_{(1,1)} is e2 itself
    assert to_elementary_basis({(1, 1): 1}, 5) == {(0, 1): 1}
    # m_{(2,1)} = e1 e2 - 3 e3
    assert to_elementary_basis({(2, 1): 1}, 5) == {(1, 1): 1, (0, 0, 1): -3}


def test_rewrite_rejects_too_few_variables():
    with pytest.raises(ValueError):
        to_elementary_basis({(1, 1, 1): 1}, 2)


def _mod_p(poly, p):
    return {k: v % p for k, v in poly.items() if v % p}


def test_reduced_power_seeds():
    # a = 0 is the identity on e_j
    assert reduced_power_on_elementary(3, 0, 4) == {(0, 0, 0, 1): 1}
    # coefficients are held over Z; reduction happens at the use site
    assert reduced_power_on_elementary(2, 2, 2) == \
        {(0, 2): 1, (1, 0, 1): -2, (0, 0, 0, 1): 2}
    # a = j reduces to the p-th power mod p
    assert _mod_p(reduced_power_on_elementary(2, 2, 2), 2) == {(0, 2): 1}
    assert _mod_p(reduced_power_on_elementary(3, 3, 3), 3) == {(0, 0, 3): 1}
    assert reduced_power_on_elementary(3, 1, 1) == {(3,): 1, (1, 1): -3, (0, 0, 1): 3}
    # out of range
    assert reduced_power_on_elementary(3, 5, 2) == {}


def test_reduced_power_linear_coefficient_is_binomial():
    # the coefficient of e_{j + a(p-1)} is C(j-1, a), fundamental for the
    # whole obstruction method; check it over Z before any reduction
    import math
    for p in (2, 3, 5):
        for j in range(1, 7):
            for a in range(0, j + 1):
                if j + a * (p - 1) > 12:
                    continue
                target = j + a * (p - 1)
                rewritten = reduced_power_on_elementary(p, a, j)
                linear = tuple([0] * (target - 1) + [1])
                got = rewritten.get(linear, 0) % p
                assert got == math.comb(j - 1, a) % p, (p, a, j)
