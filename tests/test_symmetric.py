import math
import random
from itertools import combinations, permutations

import pytest

import symmetric_oracle
from stablyfree import symmetric
from stablyfree.symmetric import (MAX_SEED_PARTITIONS, reduced_power_on_elementary,
                                  seed_partition_count, seed_partition_floor)
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


def _partitions_at_most(n, parts, largest):
    # every partition of n into at most `parts` parts of size at most `largest`
    if n == 0:
        return [()]
    if parts == 0:
        return []
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions_at_most(n - first, parts - 1, first)]


def test_seed_partition_count_matches_enumeration():
    # the partitions of W = j + i(p-1) into at most p parts with J_1 >= j
    seeds = 0
    for p in (2, 3, 5, 7, 11):
        for j in range(1, 12):
            for i in range(j):
                weight = j + i * (p - 1)
                if weight > 30:
                    continue
                want = sum(lam[0] >= j for lam in _partitions_at_most(weight, p, weight))
                assert seed_partition_count(p, i, j) == want, (p, i, j)
                seeds += 1
    assert seeds == 250


def test_seed_partition_counts():
    assert seed_partition_count(11, 5, 6) == 167_672
    assert seed_partition_count(11, 6, 7) == 567_377
    assert seed_partition_count(31, 2, 3) == 1_470_028
    assert seed_partition_count(31, 1, 5) == 14_442
    assert seed_partition_count(5, 1, 200) == 12
    assert seed_partition_count(7, 3, 6) == 703  # the CI seed P^3(c6)
    # seeds refused uncounted sum over more than P(46) partitions
    assert len(_partitions_at_most(46, 46, 46)) == symmetric._UNCOUNTED_LEAST
    assert symmetric._UNCOUNTED_LEAST > MAX_SEED_PARTITIONS
    for p, i, j in [(97, 1, 2), (47, 1, 47), (47, 2, 3), (89, 1, 200)]:
        assert seed_partition_count(p, i, j) > symmetric._UNCOUNTED_LEAST, (p, i, j)


def test_seed_partition_floor_is_below_the_count():
    # the floor is strictly below the count once r = min(i(p-1), W/2) > 0
    seeds = uncounted = 0
    for p in (2, 3, 5, 7, 11, 13, 47, 53):
        for i in range(1, 40 if p < 47 else 4):
            for j in list(range(i + 1, i + 12)) + [2 * i + 5, 10 * i, 100 * i]:
                floor = seed_partition_floor(p, i, j)
                assert floor < seed_partition_count(p, i, j), (p, i, j)
                r = min(i * (p - 1), (j + i * (p - 1)) // 2)
                if r <= 60 and p < 47:  # the closed form counts what it says
                    assert floor == len(_partitions_at_most(r, min(3, p - 1), r))
                seeds += 1
                uncounted += floor > MAX_SEED_PARTITIONS
    assert (seeds, uncounted) == (3360, 58)


def test_large_seeds_are_refused_uncounted(monkeypatch):
    def no_counting(*args):
        raise AssertionError("the seed was counted")

    monkeypatch.setattr(symmetric, "seed_partition_count", no_counting)
    for i, floor in [(4000, "616376334"), (10000, "3852190834")]:
        with pytest.raises(ValueError, match=f"P\\^{i}\\(c{i + 1}\\) at p=43 sums over "
                           f"more than {floor} partitions, more than the cap of 100000"):
            reduced_power_on_elementary(43, i, i + 1)


def test_oversized_seeds_raise_before_summing(monkeypatch):
    def no_summing(*args):
        raise AssertionError("the seed started summing")

    monkeypatch.setattr(symmetric, "_partitions", no_summing)
    for p, i, j, count in [(11, 5, 6, "167672"), (11, 6, 7, "567377"),
                           (31, 2, 3, "1470028"), (97, 1, 2, "more than 105558"),
                           (10007, 3, 20, "more than 105558"),
                           (89, 1000, 1001, "more than 105558")]:
        with pytest.raises(ValueError, match=f"P\\^{i}\\(c{j}\\) at p={p} sums over "
                           f"{count} partitions, more than the cap of 100000"):
            reduced_power_on_elementary(p, i, j)
    monkeypatch.undo()
    # the diagonal, the identity and out-of-range seeds are never refused
    assert reduced_power_on_elementary(10007, 5, 5) == {(0, 0, 0, 0, 10007): 1}
    assert reduced_power_on_elementary(10007, 0, 5) == {(0, 0, 0, 0, 1): 1}
    assert reduced_power_on_elementary(10007, 6, 5) == {}


def test_seeds_over_the_work_cap_raise_before_summing(monkeypatch):
    # P^3(c6) at p=7, the largest seed that the tests, CI and the benchmark
    # reach, takes 703 partitions times 4^2 = 11 248 steps
    def no_summing(*args):
        raise AssertionError("the seed started summing")

    reduced_power_on_elementary.cache_clear()
    monkeypatch.setattr(symmetric, "_partitions", no_summing)
    monkeypatch.setattr(symmetric, "MAX_SEED_WORK", 11_247)
    with pytest.raises(ValueError) as exc:
        reduced_power_on_elementary(7, 3, 6)
    assert str(exc.value) == ("P^3(c6) at p=7 takes 11248 steps (703 partitions "
                              "times 4^2), more than the cap of 11247")
    monkeypatch.setattr(symmetric, "MAX_SEED_WORK", 11_248)
    symmetric._check_size(7, 3, 6)
    monkeypatch.undo()
    # at the cap of 10^8, P^400(c401) at p=2 (401 * 401^2) is allowed, and
    # P^1000(c1001) (1001 * 1001^2) is not
    assert symmetric.MAX_SEED_WORK == 10 ** 8
    symmetric._check_size(2, 400, 401)
    with pytest.raises(ValueError, match="takes 1003003001 steps"):
        symmetric._check_size(2, 1000, 1001)


def _wu(i, j):
    """Wu's formula at p = 2: P^i(c_j) = sum_t C(j-i+t-1, t) c_(i-t) c_(j+t),
    with c_0 = 1, as {exps: 1} over the odd binomials."""
    out = {}
    for t in range(i + 1):
        if t and math.comb(j - i + t - 1, t) % 2 == 0:  # t = 0: C(., 0) = 1
            continue
        exps = [0] * (j + t)
        exps[j + t - 1] += 1
        if i - t:
            exps[i - t - 1] += 1
        out[tuple(exps)] = 1
    return out


def test_seeds_at_p2_follow_the_wu_formula():
    # a closed form that shares no code with the generating function
    seeds = 0
    for j in range(1, 41):
        for i in range(j + 1):
            assert reduced_power_on_elementary(2, i, j) == _wu(i, j), (i, j)
            seeds += 1
    assert seeds == 860


def _seeds_from_cleared_caches(keys):
    reduced_power_on_elementary.cache_clear()
    symmetric.release_seed_tables()
    return {key: reduced_power_on_elementary(*key) for key in keys}


def test_seeds_do_not_depend_on_the_order_they_fill_the_shared_tables():
    # the seeds at one (p, i) share one table of augmented functions, filled
    # by whichever seed meets an entry first
    keys = [(p, i, j) for p in (3, 5, 7) for j in range(1, 9) for i in range(j + 1)]
    ascending = _seeds_from_cleared_caches(keys)
    shuffled = keys[:]
    random.Random(14).shuffle(shuffled)
    assert _seeds_from_cleared_caches(shuffled) == ascending
    oracle = 0
    for (p, i, j), seed in ascending.items():
        if j + i * (p - 1) <= 18:  # where elimination is tractable
            assert seed == symmetric_oracle.reduced_power_on_elementary(p, i, j), (p, i, j)
            oracle += 1
    assert (len(keys), oracle) == (132, 87)
    symmetric.release_seed_tables()


def test_the_steenrod_layer_releases_the_shared_tables():
    # a seed computed directly leaves its table; apply_P_polynomial and
    # verify_axiom drop every table when they return, and keep the seeds
    from stablyfree import steenrod
    from stablyfree.modp import Prime

    tables = symmetric._augmented_tables.cache_info
    _seeds_from_cleared_caches([(7, 2, 6), (7, 1, 6)])
    assert tables().currsize == 2
    x = steenrod.polynomial_algebra(Prime(7), 7).monomial_element({"c3": 1, "c4": 1})
    for compute in (lambda: steenrod.apply_P_polynomial(2, x, Prime(7)),
                    lambda: steenrod.verify_axiom("adem", Prime(3), 10)):
        seeds = reduced_power_on_elementary.cache_info().currsize
        compute()
        assert tables().currsize == 0
        assert reduced_power_on_elementary.cache_info().currsize > seeds
