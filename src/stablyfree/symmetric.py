"""Symmetric polynomials in the monomial basis, and rewriting into the
elementary symmetric basis.

A symmetric polynomial in n root variables is stored as a dict mapping
partitions (descending tuples, no zeros) to integer coefficients, meaning
the sum of c_lambda * m_lambda where m_lambda is the sum of all distinct
monomials with exponent pattern lambda.  Coefficients live in Z; callers
reduce mod p.  All products here are exact, so the elimination rewrite
into elementary symmetric polynomials is fraction-free.

For n at least the total degree, every coefficient produced is independent
of n (the stable range); the total-power-operation seeds below are always
computed in the stable range and cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import takewhile
from math import comb
from operator import not_, sub

Partition = tuple[int, ...]
MPoly = dict[Partition, int]


def _blocks(lam: Partition, n: int) -> list[tuple[int, int]]:
    """(value, multiplicity) blocks of lam padded with zeros to n entries,
    values descending."""
    blocks = [(v, lam.count(v)) for v in dict.fromkeys(lam)]
    if n > len(lam):
        blocks.append((0, n - len(lam)))
    return blocks


def mul_by_elementary(poly: MPoly, j: int, n: int) -> MPoly:
    """Product (in n variables) of a monomial-basis polynomial with e_j.

    e_j raises j of the n entries of lam (padded with zeros) by one, k of
    them in each block of equal entries.  The coefficient of m_kappa counts
    the ways a fixed monomial x^kappa arises: for a block of value v, pick
    which k of the entries of kappa equal to v + 1 were raised from it.
    """
    if j == 0:
        return dict(poly)
    if j > n:
        return {}
    out: MPoly = {}
    for lam, coeff in poly.items():
        blocks = _blocks(lam, n)
        room = [0] * (len(blocks) + 1)  # entries in blocks bi, bi + 1, ...
        for bi in range(len(blocks) - 1, -1, -1):
            room[bi] = room[bi + 1] + blocks[bi][1]

        def rec(bi: int, left: int, chosen: list[int]):
            if left == 0:
                chosen_full = chosen + [0] * (len(blocks) - len(chosen))
                entries: list[int] = []
                for (value, count), k in zip(blocks, chosen_full):
                    entries += [value + 1] * k + [value] * (count - k if value else 0)
                # blocks descend, so the raised entries keep kappa descending
                kappa = tuple(entries)
                ways = 1
                for (value, _), k in zip(blocks, chosen_full):
                    ways *= comb(kappa.count(value + 1), k)
                out[kappa] = out.get(kappa, 0) + coeff * ways
                return
            count = blocks[bi][1]
            for k in range(min(count, left), max(0, left - room[bi + 1]) - 1, -1):
                rec(bi + 1, left - k, chosen + [k])

        rec(0, j, [])
    return {k: v for k, v in out.items() if v}


def _trimmed(exps: tuple[int, ...]) -> tuple[int, ...]:
    return exps[:len(exps) - len(list(takewhile(not_, reversed(exps))))]


@lru_cache(maxsize=None)
def elementary_monomial_expansion(exps: tuple[int, ...], n: int) -> MPoly:
    """Expansion of prod_i e_i^{exps[i-1]} in the monomial basis, n variables.

    Cached; callers must not mutate the returned dict.
    """
    if exps and not exps[-1]:
        return elementary_monomial_expansion(_trimmed(exps), n)
    if not exps:
        return {(): 1}
    reduced = _trimmed(exps[:-1] + (exps[-1] - 1,))
    return mul_by_elementary(elementary_monomial_expansion(reduced, n), len(exps), n)


def to_elementary_basis(poly: MPoly, n: int) -> dict[tuple[int, ...], int]:
    """Rewrite a symmetric polynomial as a polynomial in e_1, ..., e_n.

    Classical leading-term elimination: the lex-leading monomial of the
    e-product matching the current leading partition has coefficient 1,
    so the loop stays in Z and strictly decreases the leading term.
    Returns exponent tuples (trailing zeros trimmed) -> coefficient.
    """
    work = {lam: c for lam, c in poly.items() if c}
    for lam in work:
        if len(lam) > n:
            raise ValueError(f"partition {lam} needs more than {n} variables")
    out: dict[tuple[int, ...], int] = {}
    while work:
        lam = max(work)
        coeff = work.pop(lam)
        e_exps = tuple(map(sub, lam, lam[1:] + (0,)))
        out[e_exps] = out.get(e_exps, 0) + coeff
        expansion = elementary_monomial_expansion(e_exps, n)
        for mu, c in expansion.items():
            if mu == lam:
                continue
            val = work.get(mu, 0) - coeff * c
            if val:
                work[mu] = val
            else:
                work.pop(mu, None)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def reduced_power_on_elementary(p: int, i: int, j: int) -> dict[tuple[int, ...], int]:
    """The i-th reduced power of e_j, as a Z-polynomial in e_1, e_2, ...

    On a weight-one root t the total operation is t + t^p; multiplicativity
    makes the weight-(j + i(p-1)) component of its action on e_j equal to
    the monomial symmetric function with i parts p and j - i parts 1.
    Computed in the stable range, so the answer is valid in any number of
    variables >= j + i(p-1).  Cached; do not mutate the result.
    """
    if i > j:
        return {}
    if j == 0:
        return {(): 1}
    lam = (p,) * i + (1,) * (j - i)
    return to_elementary_basis({lam: 1}, j + i * (p - 1) + 1)
