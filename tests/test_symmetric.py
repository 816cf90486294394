import math
import random
import tracemalloc
from itertools import combinations, permutations

import pytest

import symmetric_oracle
from stablyfree import symmetric
from stablyfree.algebra import pack_exps, unpack_exps
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


@pytest.mark.parametrize("p, i, j, message", [
    (3, -1, 4, "operation index must be nonnegative"),
    (2, -1, 3, "operation index must be nonnegative"),
    (3, 1, -2, "Chern class index must be nonnegative"),
    (2, 0, -1, "Chern class index must be nonnegative"),
    (4, 1, 3, "4 is not prime"),
    (1, 1, 3, "1 is not prime"),
    (257, 1, 1, "1-byte slots cannot hold the exponent 257"),
])
def test_seeds_refuse_bad_arguments(p, i, j, message):
    # refused at entry, whether a width is asked for or not: no seed is
    # summed, nor an empty one returned.  A byte cannot hold p = 257, so
    # only the width of one byte is refused there; without a width the
    # seed takes slots that hold p
    for width in (1,) if p > 255 else (None, 1):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reduced_power_on_elementary(p, i, j, width=width)
    if p > 255:
        assert reduced_power_on_elementary(p, i, j) == {(p,): 1}
        assert reduced_power_on_elementary(p, i, j, width=2) == {pack_exps(2, (p,)): 1}


def test_packed_seeds_decode_to_the_tuple_seeds():
    # with a width, each monomial of the seed is its packed key in slots of
    # that many bytes: the struct widths 2, 4 and 8, bytes at 1 and shifts
    # at 9 must all give the tuple seed, out-of-range seeds included
    seeds = 0
    for p in (2, 3, 5, 7, 11):
        tables = {}
        for j in range(29):
            for i in range(j + 2):
                if i <= j and j + i * (p - 1) > 28:
                    continue
                want = reduced_power_on_elementary(p, i, j, tables=tables)
                for width in (1, 2, 4, 8, 9):
                    packed = reduced_power_on_elementary(p, i, j, tables=tables, width=width)
                    assert packed == {pack_exps(width, e): c for e, c in want.items()}
                    assert {unpack_exps(width, key): c for key, c in packed.items()} == want
                seeds += 1
    assert seeds == 753


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


class _RestReads(symmetric._Sums):
    """A _Sums that counts the lookups made from outside it, which are the
    seed walk's: one per rest it reads.  Lookups that fill an entry in
    turn are not counted."""

    def __init__(self, *args):
        super().__init__(*args)
        self.depth, self.reads = 0, []

    def __getitem__(self, lam):
        if not self.depth:
            self.reads.append(lam)
        self.depth += 1
        try:
            return super().__getitem__(lam)
        finally:
            self.depth -= 1


def test_the_walk_reads_as_many_partitions_as_the_cap_counts():
    # the cap counts the partitions of a seed in closed form; the walk must
    # read each of them once, as the rest after its first part, the one
    # part J = (W) and its empty rest included
    seeds = 0
    for p in (3, 5, 7, 11):
        for j in range(2, 31):
            for i in range(1, j):
                weight = j + i * (p - 1)
                if weight > 30:
                    break
                bits = symmetric._slot_width(p, i, weight)
                sums = _RestReads(p, i, bits)
                seed = reduced_power_on_elementary(p, i, j, tables={(p, i, bits): sums})
                assert seed == reduced_power_on_elementary(p, i, j), (p, i, j)
                assert len(set(sums.reads)) == len(sums.reads), (p, i, j)
                assert len(sums.reads) == seed_partition_count(p, i, j), (p, i, j)
                assert all(sum(rest) <= i * (p - 1) for rest in sums.reads), (p, i, j)
                seeds += 1
    assert seeds == 287


@pytest.mark.parametrize("width", [1, 2])
def test_a_seed_of_a_large_class_and_few_partitions_stays_small(width):
    # P^1(c20000) at p = 3 sums over four partitions of W = 20 002.  Each of
    # its keys holds W slots, so the walk may make O(i(p-1)) of them, one
    # per first part, but not one per part size up to W: that took 428 MB
    # at width 2, where the seed below peaks at about 0.3 MB
    tracemalloc.start()
    try:
        seed = reduced_power_on_elementary(3, 1, 20_000, width=width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {unpack_exps(width, key): c for key, c in seed.items()} == \
        reduced_power_on_elementary(3, 1, 20_000)
    assert len(seed) == 4
    assert peak < 4_000_000


def test_large_seeds_are_refused_uncounted(monkeypatch):
    def no_counting(*args):
        raise AssertionError("the seed was counted")

    monkeypatch.setattr(symmetric, "seed_partition_count", no_counting)
    for i, floor in [(4000, "616376334"), (10000, "3852190834")]:
        with pytest.raises(ValueError, match=f"P\\^{i}\\(c{i + 1}\\) at p=43 sums over "
                           f"more than {floor} partitions, more than the cap of 100000"):
            reduced_power_on_elementary(43, i, i + 1)


def _no_summing(monkeypatch):
    # patch what enumerates the terms of a seed: the partition walk at odd p
    # and Wu's formula at p = 2
    def no_summing(*args):
        raise AssertionError("the seed started summing")

    monkeypatch.setattr(symmetric, "_generating_function", no_summing)
    monkeypatch.setattr(symmetric, "_wu", no_summing)


def test_oversized_seeds_raise_before_summing(monkeypatch):
    _no_summing(monkeypatch)
    for p, i, j, count in [(11, 5, 6, "167672"), (11, 6, 7, "567377"),
                           (31, 2, 3, "1470028"), (97, 1, 2, "more than 105558"),
                           (10007, 3, 20, "more than 105558"),
                           (89, 1000, 1001, "more than 105558")]:
        with pytest.raises(ValueError, match=f"P\\^{i}\\(c{j}\\) at p={p} sums over "
                           f"{count} partitions, more than the cap of 100000"):
            reduced_power_on_elementary(p, i, j)
    # the control: with the cap lifted, a seed reaches the patched functions
    monkeypatch.setattr(symmetric, "MAX_SEED_PARTITIONS", 200_000)
    for p, i, j in [(11, 5, 6), (3, 1, 2), (2, 1, 2)]:
        with pytest.raises(AssertionError, match="the seed started summing"):
            reduced_power_on_elementary(p, i, j, width=1)
    monkeypatch.undo()
    # the diagonal, the identity and out-of-range seeds are never refused
    assert reduced_power_on_elementary(10007, 5, 5) == {(0, 0, 0, 0, 10007): 1}
    assert reduced_power_on_elementary(10007, 0, 5) == {(0, 0, 0, 0, 1): 1}
    assert reduced_power_on_elementary(10007, 6, 5) == {}


def test_seeds_over_the_work_cap_raise_before_summing(monkeypatch):
    # P^3(c6) at p=7, the largest seed that the tests, CI and the benchmark
    # reach, takes 703 partitions times 4^2 = 11 248 steps
    _no_summing(monkeypatch)
    monkeypatch.setattr(symmetric, "MAX_SEED_WORK", 11_247)
    with pytest.raises(ValueError) as exc:
        reduced_power_on_elementary(7, 3, 6)
    assert str(exc.value) == ("P^3(c6) at p=7 takes 11248 steps (703 partitions "
                              "times 4^2), more than the cap of 11247")
    # the control: at a cap of 11 248 it passes, and reaches the patched walk
    monkeypatch.setattr(symmetric, "MAX_SEED_WORK", 11_248)
    symmetric._check_size(7, 3, 6)
    with pytest.raises(AssertionError, match="the seed started summing"):
        reduced_power_on_elementary(7, 3, 6)
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
    # the seeds at p = 2 come from Wu's formula; the generating function,
    # which the odd primes use, must agree with it there, and the test's
    # own _wu shares no code with either
    seeds = generated = 0
    for j in range(1, 41):
        for i in range(j + 1):
            want = _wu(i, j)
            assert reduced_power_on_elementary(2, i, j) == want, (i, j)
            seeds += 1
            if i < j:  # packed in slots of one byte
                generating = symmetric._generating_function(2, i, j, {}, 1)
                assert generating == {pack_exps(1, e): c for e, c in want.items()}, (i, j)
                generated += 1
    assert (seeds, generated) == (860, 820)


def _coefficient_bound(p, i, weight):
    # p! min(2^W, ceil(6W/i)^i) bounds every coefficient of an augmented
    # function or power sum of weight at most W, cut after sigma^i
    return math.factorial(p) * (min(2 ** weight, (-(-6 * weight // i)) ** i)
                                if i else 1)


def _balanced_digits(packed, width, count):
    digits = []
    for _ in range(count):
        digit = packed & ((1 << width) - 1)
        if digit >= 1 << (width - 1):
            digit -= 1 << width
        digits.append(digit)
        packed = (packed - digit) >> width
    assert packed == 0  # nothing above sigma^i
    return digits


def test_packed_coefficients_fit_their_slots(monkeypatch):
    # seeds on both sides of the crossover of 2^W and ceil(6W/i)^i, first
    # in slots of the bound's own width, not rounded to whole words: every
    # table entry decodes into coefficients within the bound, and the
    # seeds match those in rounded slots
    def exact_width(p, i, weight):  # the factor p covers the products
        return (p * _coefficient_bound(p, i, weight)).bit_length() + 2

    for p in (3, 5, 7, 11):  # the width rounds the bound up to whole words
        for i in range(40):
            for weight in range(i * p + 1, i * p + 300, 7):  # W > ip as j > i
                assert (symmetric._slot_width(p, i, weight)
                        == -(-exact_width(p, i, weight) // 64) * 64), (p, i, weight)
    keys = [(p, i, j) for p in (3, 5, 7) for j in range(1, 11) for i in range(j)
            if j + i * (p - 1) <= 30]
    want = {key: reduced_power_on_elementary(*key) for key in keys}
    monkeypatch.setattr(symmetric, "_slot_width", exact_width)
    sides = set()
    for p, i, j in keys:
        weight = j + i * (p - 1)
        if i:
            sides.add(2 ** weight < (-(-6 * weight // i)) ** i)
        tables = {}
        assert reduced_power_on_elementary(p, i, j, tables=tables) == want[p, i, j]
        ((key, sums),) = tables.items()
        width = key[2]
        assert key == (p, i, exact_width(p, i, weight))
        bound = _coefficient_bound(p, i, weight)
        for packed in sums.values():
            for digit in _balanced_digits(packed, width, i + 1):
                assert abs(digit) <= bound < 2 ** (width - 2), (p, i, j)
    assert (len(keys), sides) == (136, {True, False})


def test_power_sums_follow_newtons_identities():
    # the roots z have e_1 = 1, e_p = sigma and no other e_k, so Newton's
    # identities give P_1 = 1, P_k = P_(k-1) for 1 < k < p,
    # P_p = P_(p-1) + (-1)^(p-1) p sigma and, for k > p,
    # P_k = P_(k-1) + (-1)^(p-1) sigma P_(k-p): each one-part entry (k,) of
    # the tables must decode to these, cut after sigma^i
    for p in (3, 5, 7):
        sign = (-1) ** (p - 1)
        for i in range(7):
            width = symmetric._slot_width(p, i, 40)
            sums = symmetric._Sums(p, i, width)
            power = {1: [1] + [0] * i}
            for k in range(2, 41):
                power[k] = power[k - 1][:]
                if i and k == p:
                    power[k][1] += sign * p
                elif k > p:
                    for m in range(i):
                        power[k][m + 1] += sign * power[k - p][m]
            for k in range(1, 41):
                assert _balanced_digits(sums[k,], width, i + 1) == power[k], (p, i, k)


def test_too_narrow_slots_give_a_wrong_seed(monkeypatch):
    # P^3(c6) at p = 7 has coefficients past 2^6: in slots of 8 bits they
    # spill into their neighbours
    want = reduced_power_on_elementary(7, 3, 6)
    monkeypatch.setattr(symmetric, "_slot_width", lambda p, i, weight: 8)
    assert reduced_power_on_elementary(7, 3, 6) != want


def _seeds_sharing_tables(keys):
    # one set of tables, as the seeds of one Steenrod call share them
    tables = {}
    return {key: reduced_power_on_elementary(*key, tables=tables) for key in keys}


def test_seeds_do_not_depend_on_the_order_they_fill_the_shared_tables():
    # the seeds at one (p, i) share one table of augmented functions, filled
    # by whichever seed meets an entry first
    keys = [(p, i, j) for p in (3, 5, 7) for j in range(1, 9) for i in range(j + 1)]
    ascending = _seeds_sharing_tables(keys)
    shuffled = keys[:]
    random.Random(14).shuffle(shuffled)
    assert _seeds_sharing_tables(shuffled) == ascending
    # and not on sharing at all
    assert {key: reduced_power_on_elementary(*key) for key in keys} == ascending
    oracle = 0
    for (p, i, j), seed in ascending.items():
        if j + i * (p - 1) <= 18:  # where elimination is tractable
            assert seed == symmetric_oracle.reduced_power_on_elementary(p, i, j), (p, i, j)
            oracle += 1
    assert (len(keys), oracle) == (132, 87)

