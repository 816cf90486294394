"""Reduced powers of Chern classes, from one generating function.

A weight-one root t maps to t + t^p under the total operation.  Let
C(T) = sum_a c_a T^a be the total Chern class, and z_1 .. z_p the roots of
z^p - z^(p-1) + (-1)^p s t^(1-p), so that e_1(z) = 1, e_p(z) = sigma =
s t^(1-p) and every other e_k(z) = 0.  Then

    sum_{i,j} P^i(c_j) s^i t^j = prod_{l=1}^{p} C(t z_l),

so P^i(c_j) is the sum of [sigma^i] m_J(z) * c_J over the partitions J
of W = j + i(p-1) into at most p parts.  At p = 2 this is the Wu formula.

Each m_J(z) is an augmented monomial function of z divided by the
factorials of J's multiplicities, and the augmented ones are sums of
products of power sums of z, which Girard-Waring gives in closed form.
The arithmetic is over Z, on polynomials in sigma truncated at degree i,
and is reduced mod p only at the end: Girard-Waring divides by n, which
p may divide, so dividing mod p would be wrong.  The diagonal i = j,
where P^j(c_j) = c_j^p, is returned directly.

Truncated at degree i, an augmented function or power sum depends on
(p, i) and not on j, so the seeds at one (p, i) fill in and share one
table of them.  The tables live until release_seed_tables(), which the
Steenrod layer calls when a computation ends; the seeds stay cached.

Everything is in the stable range: with at least as many roots as the
total degree, no coefficient depends on the number of roots, so none is
passed.

The sum runs over a number of partitions that grows fast with p and i, so
it is bounded below in closed form and then counted, in O(i p^2) steps,
and refused above MAX_SEED_PARTITIONS.  Each partition also multiplies
polynomials in sigma of up to min(i, W/p) + 1 coefficients, so a seed is
refused, too, when its count times the square of that exceeds
MAX_SEED_WORK.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


# the most partitions a seed may sum over: P^3(c6) at p = 7 sums over 703,
# and P^5(c6) at p = 11 over 167 672, which took 11 s and 180 MB
MAX_SEED_PARTITIONS = 100_000
# When 46 <= min(i(p-1), W/2, p-1), each of the P(46) = 105 558 partitions
# mu of 46 gives one partition of the sum, (W - 46, mu), so the count is over
# the cap.  From p = 97 on, that holds whenever 0 < i < j.
_UNCOUNTED_PART, _UNCOUNTED_LEAST = 46, 105_558
# the most steps a seed may take, counted as its partitions times the square
# of its polynomials' length min(i, W/p) + 1: P^3(c6) at p = 7 takes
# 703 * 4^2; P^400(c401) at p = 2, 401 * 401^2, takes about 3 s; and
# P^1000(c1001), 1001 * 1001^2, took 133 s
MAX_SEED_WORK = 10 ** 8


def _box(n: int, parts: int, largest: int) -> list[int]:
    """Entry m is the number of partitions of m into at most `parts` parts
    of size at most `largest`, for m <= n: the Gaussian binomial
    [parts + largest choose parts]_q = prod_{k=1}^{parts} (1 - q^(largest+k))
    / (1 - q^k), multiplied out on power series cut after q^n."""
    series = [1] + [0] * n
    for k in range(1, parts + 1):
        for d in range(n, largest + k - 1, -1):  # times 1 - q^(largest + k)
            series[d] -= series[d - largest - k]
        for d in range(k, n + 1):  # over 1 - q^k
            series[d] += series[d - k]
    return series


def seed_partition_count(p: int, i: int, j: int) -> int:
    """How many partitions the sum for P^i(c_j) runs over: those of
    W = j + i(p-1) into at most p parts with J_1 >= j (0 <= i < j).
    O(p * i(p-1)) steps, whatever j is."""
    rest = i * (p - 1)  # the most the parts after J_1 add up to
    if j >= rest:
        # J_1 >= j bounds no other part, so the rest is any partition of
        # some r <= rest into at most p - 1 parts
        return sum(_box(rest, p - 1, rest))
    weight = j + rest  # < 2 rest
    return _box(weight, p, weight)[weight] - _box(weight, p, j - 1)[weight]


def seed_partition_floor(p: int, i: int, j: int) -> int:
    """A lower bound on seed_partition_count(p, i, j), in closed form.

    With r = min(i(p-1), W/2), each partition mu of r into at most p - 1
    parts gives its own partition (W - r, mu) of the sum, and for r > 0 the
    one part (W) is one more, so the count exceeds the bound.  P(46) of
    them when r and p - 1 are both at least 46; otherwise those into at
    most min(3, p-1) parts: round((r+3)^2 / 12) at p >= 5, floor(r/2) + 1
    at p = 3 and 1 at p = 2."""
    rest = i * (p - 1)
    r = min(rest, (j + rest) // 2)
    if min(r, p - 1) >= _UNCOUNTED_PART:
        return _UNCOUNTED_LEAST
    if p == 2:
        return 1
    if p == 3:
        return r // 2 + 1
    return ((r + 3) ** 2 + 6) // 12


def _check_size(p: int, i: int, j: int):
    """Raise ValueError when the sum for P^i(c_j) would run over more than
    MAX_SEED_PARTITIONS partitions, uncounted when the floor shows it, or
    take more than MAX_SEED_WORK steps."""
    floor = seed_partition_floor(p, i, j)
    if floor > MAX_SEED_PARTITIONS:
        count = f"more than {floor}"
    else:
        count = seed_partition_count(p, i, j)
        if count <= MAX_SEED_PARTITIONS:
            size = min(i, (j + i * (p - 1)) // p) + 1
            work = count * size * size
            if work <= MAX_SEED_WORK:
                return
            raise ValueError(f"P^{i}(c{j}) at p={p} takes {work} steps ({count} "
                             f"partitions times {size}^2), more than the cap "
                             f"of {MAX_SEED_WORK}")
    raise ValueError(f"P^{i}(c{j}) at p={p} sums over {count} partitions, "
                     f"more than the cap of {MAX_SEED_PARTITIONS}")


def _partitions(n: int, largest: int, parts: int):
    """Partitions of n into at most `parts` parts of size at most
    `largest`, as descending tuples."""
    if not n:
        yield ()
    elif parts:
        for first in range(min(n, largest), 0, -1):
            for rest in _partitions(n - first, first, parts - 1):
                yield (first,) + rest


@lru_cache(maxsize=None)
def _augmented_tables(p: int, i: int) -> tuple[dict[tuple[int, ...], list[int]],
                                               dict[int, list[int]]]:
    """The augmented monomial functions and the power sums of the roots z at
    (p, i), as polynomials in sigma, filled in by every seed P^i(c_j) that
    meets them.  Entries depend on j only through which of them a seed
    needs, so the seeds at one (p, i) share them.  An entry is stored once
    complete and never changed; the tables are kept until
    release_seed_tables()."""
    return {(): [1]}, {}


def release_seed_tables():
    """Drop the tables the seeds share, keeping the cached seeds: called
    when a computation ends, so that no table outlives it."""
    _augmented_tables.cache_clear()


@lru_cache(maxsize=None)
def reduced_power_on_elementary(p: int, i: int, j: int) -> dict[tuple[int, ...], int]:
    """P^i(c_j) as {exps: residue mod p}, where exps[k-1] is the exponent
    of c_k (no trailing zeros).  Cached; do not mutate the result.

    Raises ValueError, before any summing, when the sum would run over more
    than MAX_SEED_PARTITIONS partitions or take more than MAX_SEED_WORK
    steps."""
    if i > j:
        return {}
    if not j:
        return {(): 1}
    if i == j:  # the p-th power axiom: P^j(c_j) = c_j^p
        return {(0,) * (j - 1) + (p,): 1}
    _check_size(p, i, j)
    weight = j + i * (p - 1)
    # a polynomial in sigma is its coefficient list, cut after degree i and
    # after its true degree, which is at most the weight over p
    augmented, power_sums = _augmented_tables(p, i)

    def power_sum(k: int) -> list[int]:
        # Girard-Waring: [sigma^m] P_k(z) = (-1)^(m(p-1)) k/n C(n, m), n = k - (p-1)m
        out = power_sums.get(k)
        if out is None:
            out = []
            for m in range(min(i, k // p) + 1):
                n = k - (p - 1) * m
                out.append((-1) ** (m * (p - 1)) * k * comb(n, m) // n)
            power_sums[k] = out  # stored once complete
        return out

    def augmented_monomial(lam: tuple[int, ...], w: int) -> list[int]:
        # sum of z_{a_1}^lam_1 z_{a_2}^lam_2 ... over distinct a_1, a_2, ...,
        # where w = |lam|: P_{lam_1} times the sum for the rest, less the
        # terms with a_1 equal to some a_k, where lam_1 merges into lam_k
        # (which keeps the merged part first and the tuple descending).
        # Equal parts of the rest give one merged tuple, subtracted once
        # per part.
        out = augmented.get(lam)
        if out is not None:
            return out
        first, rest = lam[0], lam[1:]
        size = min(i, w // p) + 1
        tail = augmented.get(rest) or augmented_monomial(rest, w - first)
        out = tail + [0] * (size - len(tail))  # P_k = 1 + O(sigma)
        for a, x in enumerate(power_sum(first)[1:], 1):
            for b, y in enumerate(tail[:size - a]):
                out[a + b] += x * y
        k = 0
        while k < len(rest):
            part = rest[k]
            m = rest.count(part)  # equal parts sit together: rest[k:k + m]
            key = (first + part,) + rest[:k] + rest[k + 1:]
            merged = augmented.get(key) or augmented_monomial(key, w)
            out = [x - m * y for x, y in zip(out, merged)]
            k += m
        augmented[lam] = out
        return out

    # in the Chern roots P^i(c_j) is m_(p^i, 1^(j-i)), which expands only
    # into the c_J with J dominating its conjugate (j, i^(p-1)); so J_1 >= j.
    # m_J is the augmented function over the factorials of J's multiplicities,
    # whose product is that of each part's running count in exps
    out: dict[tuple[int, ...], int] = {}
    for first in range(j, weight + 1):
        for rest in _partitions(weight - first, first, p - 1):
            parts = (first,) + rest
            exps = [0] * first
            factorials = 1
            for k in parts:
                exps[k - 1] += 1
                factorials *= exps[k - 1]
            coeff = augmented_monomial(parts, weight)[i] // factorials % p
            if coeff:
                out[tuple(exps)] = coeff
    # augmented_monomial refers to itself through its closure cell; breaking
    # that cycle lets the table go as soon as it is released
    del augmented_monomial
    return out
