"""Reduced powers of Chern classes: Wu's formula at p = 2, one generating
function at odd p.

At p = 2 the seed is P^i(c_j) = sum_t C(j-i+t-1, t) c_(i-t) c_(j+t), with
c_0 = 1: at most i + 1 terms, each one binomial parity.

At any p, a weight-one root t maps to t + t^p under the total operation.
Let C(T) = sum_a c_a T^a be the total Chern class, and z_1 .. z_p the
roots of z^p - z^(p-1) + (-1)^p s t^(1-p), so that e_1(z) = 1,
e_p(z) = sigma = s t^(1-p) and every other e_k(z) = 0.  Then

    sum_{i,j} P^i(c_j) s^i t^j = prod_{l=1}^{p} C(t z_l),

so P^i(c_j) is the sum of [sigma^i] m_J(z) * c_J over the partitions J
of W = j + i(p-1) into at most p parts.  The odd primes read their seeds
off it; at p = 2 it stays callable, as a check on Wu's formula.

Each m_J(z) is an augmented monomial function of z divided by the
factorials of J's multiplicities, and the augmented ones are sums of
products of power sums of z, which Girard-Waring gives in closed form.
The arithmetic is over Z, on polynomials in sigma truncated at degree i,
and is reduced mod p only at the end: Girard-Waring divides by n, which
p may divide, so dividing mod p would be wrong.  Each such polynomial is
one int, its value at sigma = 2^B, in slots of B bits wide enough for
every coefficient met (see _slot_width).  The diagonal i = j, where
P^j(c_j) = c_j^p, is returned directly.

A seed comes out in its caller's layout.  Given a slot width, each monomial
is its packed key (see algebra.pack_exps), written as its term is found: at
p = 2 Wu's one or two slots, and at odd p by one walk over the partitions
J, which adds each part's slot to the key, and its multiplicity to the
product of factorials, as it descends.  Without a width the same seed is
decoded into exponent tuples.

Truncated at degree i, an augmented function or power sum depends on
(p, i) and the slot width and not on j, so the seeds at one (p, i) can
fill in and share one table of them.  The caller owns the tables, and so
decides how long they live: the Steenrod layer passes those of its running
call, and a seed asked for alone gets tables of its own.  Nothing is
cached across calls.

Everything is in the stable range: with at least as many roots as the
total degree, no coefficient depends on the number of roots, so none is
passed.

The sum runs over a number of partitions that grows fast with p and i, so
it is bounded below in closed form and then counted, in O(i p^2) steps,
and refused above MAX_SEED_PARTITIONS.  Each partition also multiplies
polynomials in sigma of up to min(i, W/p) + 1 coefficients, so a seed is
refused, too, when its count times the square of that exceeds
MAX_SEED_WORK.  Both caps and their messages are kept as published, at
p = 2 as well, where Wu's formula would need neither.
"""

from __future__ import annotations

from math import comb, factorial

from .algebra import pack_power, unpack_exps
from .modp import Prime


# the most partitions a seed may sum over: P^3(c6) at p = 7 sums over 703,
# and P^5(c6) at p = 11 over 167 672, which took 11 s and 180 MB
MAX_SEED_PARTITIONS = 100_000
# When 46 <= min(i(p-1), W/2, p-1), each of the P(46) = 105 558 partitions
# mu of 46 gives one partition of the sum, (W - 46, mu), so the count is over
# the cap.  From p = 97 on, that holds whenever 0 < i < j.
_UNCOUNTED_PART, _UNCOUNTED_LEAST = 46, 105_558
# the most steps a seed may take, counted as its partitions times the square
# of its polynomials' length min(i, W/p) + 1: P^3(c6) at p = 7 takes
# 703 * 4^2, and P^1000(c1001) at p = 2, 1001 * 1001^2, took 133 s summing
# lists.  Packed polynomials and Wu's formula at p = 2 took the cost off
# this count; the cap and its message are kept as published
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


def _slot_width(p: int, i: int, weight: int) -> int:
    """Bits per coefficient of the polynomials in sigma of a seed at (p, i)
    of weight W: B = bits(p * p! * min(2^W, ceil(6W/i)^i)) + 2, or p * p!
    for i = 0, rounded up to whole 64-bit words.

    On |sigma| = r every root z has |z| < 1 + 2r, and |z| < 2 at r = 1, so
    by Cauchy |[sigma^m] M_J| <= p! (1 + 2r)^|J| / r^m for an augmented
    function M_J of the roots: r = 1 gives p! 2^W and r = i/(2W) gives
    p! (2eW/i)^i, below p! ceil(6W/i)^i.  The factor p covers a product P_k M_J before the
    merged functions are subtracted from it, and the two bits keep each
    coefficient below a quarter of its slot.  Rounding lets the seeds at
    one (p, i) of nearby weights share their tables."""
    bound = p * factorial(p)
    if i:
        bound *= min(2 ** weight, (-(-6 * weight // i)) ** i)
    return -(-(bound.bit_length() + 2) // 64) * 64


def _wu(i: int, j: int, width: int) -> dict[int, int]:
    """P^i(c_j) at p = 2 for 0 <= i < j, packed in slots of `width` bytes,
    by Wu's formula P^i(c_j) = sum_t C(j-i+t-1, t) c_(i-t) c_(j+t), with
    c_0 = 1.  By Lucas, C(n, t) is odd exactly when the bits of t lie in
    those of n."""
    out = {}
    for t in range(i + 1):
        n = j - i + t - 1
        if n & t == t:
            key = pack_power(width, j + t)
            out[key + pack_power(width, i - t) if t < i else key] = 1
    return out


class _Sums(dict):
    """The augmented monomial functions of the roots z at one (p, i), keyed
    by descending tuples, each filled in on its first lookup; the one-part
    entry (k,) is the power sum P_k(z).  Each is a polynomial in sigma, cut
    after degree i, held as its value at sigma = 2^B, one int, where
    B = `width` bounds every coefficient met: a product is one int product
    whose slots above degree i are masked off and the rest read as a
    balanced number, a sum is one int sum.  Entries depend on (p, i, B)
    alone, and each is stored once complete and never changed."""

    def __init__(self, p: int, i: int, width: int):
        super().__init__({(): 1})
        self.p, self.i, self.width = p, i, width
        self.half = 1 << (width * (i + 1) - 1)  # half the range of i + 1 slots

    def __missing__(self, lam: tuple[int, ...]) -> int:
        if len(lam) == 1:
            # the power sum P_k(z), by Girard-Waring:
            # [sigma^m] P_k(z) = (-1)^(m(p-1)) k/n C(n, m), n = k - (p-1)m
            (k,), p, out = lam, self.p, 0
            for m in range(min(self.i, k // p), -1, -1):
                n = k - (p - 1) * m
                out = (out << self.width) + (-1) ** (m * (p - 1)) * k * comb(n, m) // n
            self[lam] = out
            return out
        # sum of z_{a_1}^lam_1 z_{a_2}^lam_2 ... over distinct a_1, a_2, ...:
        # P_{lam_1} times the sum for the rest, less the terms with a_1 equal
        # to some a_k, where lam_1 merges into lam_k (which keeps the merged
        # part first and the tuple descending).  Equal parts of the rest give
        # one merged tuple, subtracted once per part.
        first, rest = lam[0], lam[1:]
        half = self.half
        out = ((self[first,] * self[rest] + half) & (2 * half - 1)) - half
        k = 0
        while k < len(rest):
            part = rest[k]
            m = rest.count(part)  # equal parts sit together: rest[k:k + m]
            out -= m * self[(first + part,) + rest[:k] + rest[k + 1:]]
            k += m
        self[lam] = out
        return out


def _generating_function(p: int, i: int, j: int, tables: dict,
                         width: int) -> dict[int, int]:
    """P^i(c_j) for 0 <= i < j by the generating function, at any p, packed
    in slots of `width` bytes; the seeds at p = 2 come from Wu's formula
    instead, and tests check the two against each other.  `tables` maps
    (p, i, B) to the _Sums there."""
    weight = j + i * (p - 1)
    bits = _slot_width(p, i, weight)
    augmented = tables.get((p, i, bits))
    if augmented is None:
        augmented = tables[p, i, bits] = _Sums(p, i, bits)
    # in the Chern roots P^i(c_j) is m_(p^i, 1^(j-i)), which expands only
    # into the c_J with J dominating its conjugate (j, i^(p-1)); so J_1 >= j.
    # m_J is the augmented function over the factorials of J's
    # multiplicities; its [sigma^i] is the top balanced digit of the packed int
    shift = bits * i
    rounding = (1 << shift) >> 1
    # units[k] is the key of c_k, for every part after the first
    units = [0] + [pack_power(width, k) for k in range(1, weight - j + 1)]
    out: dict[int, int] = {}
    # one walk, depth first, over the partitions J: each entry of `stack` is
    # a descending J in the making, what is left to add to it, its key and
    # the product of the factorials of its multiplicities, both carried down
    # as parts are added, and how many of its last parts are equal.  A part
    # below left / room would leave too much for the room; a part that
    # leaves nothing ends J, whose term is read at once.  Every first part
    # from j up leaves at most (p - 1) times itself, as W < pj
    stack = [((first,), weight - first, pack_power(width, first), 1, 1)
             for first in range(weight - 1, j - 1, -1)]
    while stack:
        parts, left, key, factorials, run = stack.pop()
        last, room = parts[-1], p - len(parts)
        # pushed ascending, so popped descending
        for k in range((left - 1) // room + 1, min(left, last) + 1):
            equal = run + 1 if k == last else 1
            more = factorials * equal
            if k < left:
                stack.append((parts + (k,), left - k, key + units[k], more, equal))
            elif coeff := ((augmented[parts + (k,)] + rounding) >> shift) // more % p:
                out[key + units[k]] = coeff
    # and the one part (W)
    if coeff := ((augmented[weight,] + rounding) >> shift) % p:
        out[pack_power(width, weight)] = coeff
    return out


def reduced_power_on_elementary(p: int, i: int, j: int, *, tables: dict | None = None,
                                width: int | None = None) -> dict:
    """P^i(c_j) as a new dict {monomial: residue mod p} on each call: by
    Wu's formula at p = 2, and by the generating function at odd p.

    With `width`, each monomial is its packed key in slots of `width` bytes
    (see algebra.pack_exps), the layout of the caller's own monomials; no
    exponent is above p, so any slots that hold p will do.  Without it,
    each is its exponent tuple, where exps[k-1] is the exponent of c_k (no
    trailing zeros): the same seed, decoded.

    `tables` maps (p, i, B) to the augmented monomial functions of the
    roots z there, the power sums among them, as polynomials in sigma
    packed in slots of B bits (a `_Sums`), which the odd-p seeds at one
    (p, i) fill in and share: their entries depend on j only through which
    of them a seed needs and through B.  They change no result; without
    them the seed fills tables of its own.

    Raises ValueError for i < 0, j < 0 or a p that is not prime, and,
    before any summing, when the sum would run over more than
    MAX_SEED_PARTITIONS partitions or take more than MAX_SEED_WORK steps,
    at p = 2 too."""
    Prime(p)  # raises ValueError unless p is prime
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    if j < 0:
        raise ValueError("Chern class index must be nonnegative")
    slot_bytes = width or -(-p.bit_length() // 8)  # enough to hold the exponent p
    if i > j:
        seed = {}
    elif i == j:  # the p-th power axiom: P^j(c_j) = c_j^p, and P^0(1) = 1
        seed = {pack_power(slot_bytes, j, p) if j else 0: 1}
    else:
        _check_size(p, i, j)
        seed = (_wu(i, j, slot_bytes) if p == 2 else
                _generating_function(p, i, j, {} if tables is None else tables, slot_bytes))
    if width is None:
        return {unpack_exps(slot_bytes, key): c for key, c in seed.items()}
    return seed
