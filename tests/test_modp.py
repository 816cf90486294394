import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablyfree.modp import (Prime, binom_mod_p, exponent_n, is_prime,
                             primes_upto, raynaud_number)

PRIMES = [Prime(p) for p in (2, 3, 5, 7)]


def test_prime_construction():
    assert Prime(2).value == 2
    assert Prime(97).value == 97
    for bad in (0, 1, 4, 9, 91, -3):
        with pytest.raises(ValueError):
            Prime(bad)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(is_prime(p) for p in primes_upto(200))


def test_binom_examples():
    assert int(binom_mod_p(1, 1, Prime(3))) == 1
    assert int(binom_mod_p(5, 0, Prime(7))) == 1
    assert int(binom_mod_p(0, 0, Prime(2))) == 1
    # 10 mod 3, cross-checked against the base-3 digit product (12, 02)
    assert int(binom_mod_p(5, 2, Prime(3))) == 1
    assert int(binom_mod_p(3, 5, Prime(3))) == 0
    # a plain int residue in [0, p)
    for p in PRIMES:
        for n in range(30):
            for k in range(n + 2):
                r = binom_mod_p(n, k, p)
                assert type(r) is int and 0 <= r < p.value


def test_binom_against_factorials_exhaustive_small():
    for p in PRIMES:
        for n in range(80):
            for k in range(n + 1):
                assert int(binom_mod_p(n, k, p)) == math.comb(n, k) % p.value


def test_binom_against_factorials_sampled_large():
    rng = random.Random(20240817)
    for _ in range(400):
        n = rng.randint(0, 2000)
        k = rng.randint(0, n)
        for p in PRIMES:
            assert int(binom_mod_p(n, k, p)) == math.comb(n, k) % p.value


@given(st.integers(0, 3000), st.integers(0, 3000),
       st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=200)
def test_binom_lucas_matches_exact(n, k, pv):
    assert int(binom_mod_p(n, k, Prime(pv))) == math.comb(n, k) % pv


@given(st.integers(0, 500), st.integers(1, 500), st.sampled_from([2, 3, 5]))
@settings(max_examples=150)
def test_pascal_identity(n, k, pv):
    p = Prime(pv)
    lhs = (int(binom_mod_p(n, k, p)) + int(binom_mod_p(n, k - 1, p))) % pv
    assert lhs == int(binom_mod_p(n + 1, k, p))


def test_exponent_examples():
    assert exponent_n(Prime(2), 2) == 0
    assert exponent_n(Prime(2), 3) == 1
    for p in PRIMES:
        assert exponent_n(p, 1) == -1
    assert exponent_n(Prime(3), 3) == 0
    assert exponent_n(Prime(3), 7) == 1
    assert exponent_n(Prime(5), 4) == -1
    assert exponent_n(Prime(5), 5) == 0


def test_exponent_definition_and_monotonicity():
    for p in PRIMES:
        pv = p.value
        last = -1
        for q in range(1, 400):
            h = exponent_n(p, q)
            if h >= 0:
                assert pv ** h * (pv - 1) <= q - 1
            assert pv ** (h + 1) * (pv - 1) > q - 1
            assert h >= last
            last = h


def test_raynaud_examples():
    assert raynaud_number(1, 0) == 1
    assert raynaud_number(2, 0) == 2
    assert raynaud_number(3, 2) == 3
    assert raynaud_number(3, 0) == 12
    # n(2,5) = 2, n(3,5) = 0, n(5,5) = 0
    assert raynaud_number(5, 0) == 2 ** 3 * 3 * 5 == 120


def test_raynaud_excluded_char_factorization():
    for q in range(1, 40):
        full = raynaud_number(q, 0)
        for c in primes_upto(q):
            partial = raynaud_number(q, c)
            assert partial * c ** (1 + exponent_n(Prime(c), q)) == full


def test_raynaud_rejects_composite_exclusion():
    with pytest.raises(ValueError):
        raynaud_number(5, 4)
    with pytest.raises(ValueError):
        raynaud_number(0, 0)
