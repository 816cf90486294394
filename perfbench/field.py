"""Arithmetic in a finite field F_q, q = p^k, by Zech logarithms.

A nonzero element is stored as its discrete logarithm n (the element
g^n for a fixed primitive element g); zero is None.  Multiplication adds
logarithms; addition uses the Zech table z(n) = log(1 + g^n), so both are
table lookups.  The field is built once per prime from the first
primitive polynomial found by a deterministic search, which costs one
pass over the q - 1 powers of x per candidate.

Used only by the benchmark's output checks: it shares no code with
stablyfree.
"""

from __future__ import annotations

from itertools import product

MIN_FIELD_SIZE = 15000


class FiniteField:
    """F_{p^k} with k the least exponent giving at least `min_size` elements."""

    def __init__(self, p: int, min_size: int = MIN_FIELD_SIZE):
        k = 1
        while p ** k < min_size:
            k += 1
        self.p = p
        self.k = k
        self.q = p ** k
        self.m = self.q - 1
        for exp_table in self._candidate_tables():
            if exp_table is not None:
                break
        else:  # pragma: no cover - a primitive polynomial always exists
            raise RuntimeError(f"no primitive polynomial of degree {k} mod {p}")
        log = [None] * self.q
        for n, key in enumerate(exp_table):
            log[key] = n
        self.log = log
        zech = [None] * self.m
        for n, key in enumerate(exp_table):
            d0 = key % p
            plus_one = key - d0 + (d0 + 1) % p
            zech[n] = log[plus_one] if plus_one else None
        self.zech = zech

    def _candidate_tables(self):
        """Yield, per monic candidate x^k - sum c_i x^i with c_0 != 0, the
        list of keys of x^0 .. x^(q-2) if x has order q - 1, else None.
        A key is the base-p integer of the coefficient digits."""
        p, k, m = self.p, self.k, self.m
        one = [1] + [0] * (k - 1)
        for tail in product(range(p), repeat=k - 1):
            for c0 in range(1, p):
                reduction = [c0, *tail]
                keys = []
                digits = one
                for n in range(m):
                    if n and digits == one:
                        break
                    key = 0
                    for d in reversed(digits):
                        key = key * p + d
                    keys.append(key)
                    top = digits[-1]
                    digits = [0] + digits[:-1]
                    if top:
                        digits = [(digits[i] + top * reduction[i]) % p
                                  for i in range(k)]
                else:
                    if digits == one:
                        yield keys
                        continue
                yield None

    # -- element arithmetic (logarithms; None is zero) ---------------------

    def const(self, c: int):
        """The image of the integer c."""
        c %= self.p
        return self.log[c] if c else None

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return (a + b) % self.m

    def power(self, a, e: int):
        if e == 0:
            return 0
        if a is None:
            return None
        return (a * e) % self.m

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        z = self.zech[(b - a) % self.m]
        return None if z is None else (a + z) % self.m
