import random
from itertools import combinations, permutations

import pytest

import symmetric_oracle
from stablyfree.symmetric import reduced_power_on_elementary
from symmetric_oracle import (elementary_monomial_expansion, mul_by_elementary,
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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mul_by_elementary_against_dense(p):
    # in the stable range: len(lam) + j roots hold every monomial of the product
    rng = random.Random(100 + p)
    partitions = [(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1, 1)]
    for lam in partitions:
        for j in range(0, 5):
            n = len(lam) + j
            poly = {lam: rng.randint(1, p - 1)}
            mine = dense_from_mbasis(mul_by_elementary(poly, j, p), n)
            want = dense_mul(dense_from_mbasis(poly, n), dense_elementary(j, n))
            assert mine == {v: c % p for v, c in want.items() if c % p}, (lam, j, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_elementary_expansion_round_trip(p):
    # rewriting the expansion of an e-monomial recovers that monomial
    for exps in [(1,), (2,), (0, 1), (1, 1), (0, 0, 2), (2, 1), (1, 0, 1)]:
        expansion = elementary_monomial_expansion(exps, p)
        back = to_elementary_basis(expansion, p)
        trimmed = exps
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        assert back == {trimmed: 1}


def test_rewrite_classical_identities():
    # mod 101, where -2 = 99 and -3 = 98
    # power sums: p2 = e1^2 - 2 e2, p3 = e1^3 - 3 e1 e2 + 3 e3
    assert to_elementary_basis({(2,): 1}, 101) == {(2,): 1, (0, 1): 99}
    assert to_elementary_basis({(3,): 1}, 101) == {(3,): 1, (1, 1): 98, (0, 0, 1): 3}
    # m_{(1,1)} is e2 itself
    assert to_elementary_basis({(1, 1): 1}, 101) == {(0, 1): 1}
    # m_{(2,1)} = e1 e2 - 3 e3
    assert to_elementary_basis({(2, 1): 1}, 101) == {(1, 1): 1, (0, 0, 1): 98}


def test_seeds_match_the_elimination_oracle():
    # the generating function against leading-term elimination, which
    # shares no code with it, on every seed up to target weight 18
    seeds = at_least_p = 0
    for p in (2, 3, 5, 7, 11):
        for j in range(1, 11):
            for i in range(j + 1):
                if j + i * (p - 1) > 18:
                    continue
                want = symmetric_oracle.reduced_power_on_elementary(p, i, j)
                assert reduced_power_on_elementary(p, i, j) == want, (p, i, j)
                seeds += 1
                at_least_p += i >= p
    assert (seeds, at_least_p) == (188, 63)


def test_reduced_power_seeds():
    # a = 0 is the identity on e_j
    assert reduced_power_on_elementary(3, 0, 4) == {(0, 0, 0, 1): 1}
    # a = j is the p-th power: over Z, P^2(e2) = e2^2 - 2 e1 e3 + 2 e4
    assert reduced_power_on_elementary(2, 2, 2) == {(0, 2): 1}
    assert reduced_power_on_elementary(3, 3, 3) == {(0, 0, 3): 1}
    # P^1(e1) = p3 = e1^3 - 3 e1 e2 + 3 e3 is e1^3 mod 3
    assert reduced_power_on_elementary(3, 1, 1) == {(3,): 1}
    # Wu: Sq^2(e2) = m_(2,1) = e1 e2 - 3 e3 is e1 e2 + e3 mod 2
    assert reduced_power_on_elementary(2, 1, 2) == {(1, 1): 1, (0, 0, 1): 1}
    # out of range
    assert reduced_power_on_elementary(3, 5, 2) == {}


def test_reduced_power_linear_coefficient_is_binomial():
    # the coefficient of e_{j + a(p-1)} is C(j-1, a), fundamental for the
    # whole obstruction method; check it on the seeds themselves
    import math
    for p in (2, 3, 5):
        for j in range(1, 7):
            for a in range(0, j + 1):
                if j + a * (p - 1) > 12:
                    continue
                target = j + a * (p - 1)
                rewritten = reduced_power_on_elementary(p, a, j)
                linear = tuple([0] * (target - 1) + [1])
                got = rewritten.get(linear, 0)
                assert got == math.comb(j - 1, a) % p, (p, a, j)


def test_reduced_power_seeds_have_at_most_p_factors():
    # sum_{i,j} P^i(c_j) s^i t^j = prod_{l=1}^{p} C(t z_l), with C(T) the
    # total Chern class and z_1 .. z_p the roots of
    # z^p - z^(p-1) + (-1)^p s t^(1-p), so every term of P^i(c_j) is a
    # product of at most p Chern classes
    seeds = at_bound = 0
    for p in (2, 3, 5, 7):
        for j in range(1, 10):
            for i in range(j + 1):
                if j + i * (p - 1) > 16:
                    continue
                factors = [sum(e) for e in reduced_power_on_elementary(p, i, j)]
                assert max(factors) <= p, (p, i, j)
                seeds += 1
                at_bound += max(factors) == p
    assert (seeds, at_bound) == (140, 104)
