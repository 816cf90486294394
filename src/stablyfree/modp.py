"""Exact prime-field combinatorics: Lucas binomials, the exponents n(p, q)
and the combined divisibility moduli N_q built from them."""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (inputs here are tiny)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(bound: int) -> list[int]:
    """All primes p <= bound, ascending."""
    return [n for n in range(2, bound + 1) if is_prime(n)]


@dataclass(frozen=True, slots=True)
class Prime:
    """A verified prime, used as the coefficient-field characteristic."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not is_prime(self.value):
            raise ValueError(f"{self.value!r} is not prime")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def binom_mod_p(n: int, k: int, p: Prime) -> int:
    """C(n, k) mod p as a residue in [0, p), computed digit by digit in
    base p (Lucas).

    Returns 0 whenever k > n; C(n, 0) = 1 for every n >= 0.
    """
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    pv = p.value
    acc = 1
    while k > 0 and acc:
        acc = acc * math.comb(n % pv, k % pv) % pv
        n //= pv
        k //= pv
    return acc


def exponent_n(p: Prime, q: int) -> int:
    """Largest h >= 0 with p^h (p-1) <= q-1, or -1 when no such h exists.

    The -1 floor makes the q = 1 value consistent with the identity map
    admitting a section (the combined modulus for q = 1 must be 1).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    pv = p.value
    if pv - 1 > q - 1:
        return -1
    h = 0
    while pv ** (h + 1) * (pv - 1) <= q - 1:
        h += 1
    return h


def raynaud_number(q: int, excluded_char: int = 0) -> int:
    """Product over primes p <= q with p != excluded_char of p^(1 + n(p, q)).

    excluded_char = 0 excludes nothing: the product runs over all primes,
    giving the modulus valid in every characteristic at once.  Primes
    p > q have exponent -1 and contribute a factor of 1, so the product
    is finite.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if excluded_char != 0 and not is_prime(excluded_char):
        raise ValueError("excluded_char must be 0 or a prime")
    out = 1
    for pv in primes_upto(q):
        if pv == excluded_char:
            continue
        out *= pv ** (1 + exponent_n(Prime(pv), q))
    return out
