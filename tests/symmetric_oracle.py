"""Leading-term elimination into elementary symmetric functions, used as
an oracle for the seeds P^i(c_j) of `stablyfree.symmetric`.

A symmetric function is stored in the monomial basis as a dict mapping
partitions (descending tuples, no zeros) to residues mod p, meaning the
sum of c_lambda * m_lambda where m_lambda is the sum of all distinct
monomials with exponent pattern lambda.

Everything is computed in the stable range: with at least as many roots
as the total degree, no coefficient depends on the number of roots, so
none is passed.  The rewrite into elementary symmetric functions is
leading-term elimination, and the leading coefficient of every e-product
is 1, so it divides by nothing: over F_p it gives the integral answer
reduced mod p.  It shares no code with the package, whose seeds come from
a generating function instead; it walks every partition of the target
weight, so it is slow beyond weight 20 or so.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, takewhile
from math import comb
from operator import not_, sub

Partition = tuple[int, ...]
MPoly = dict[Partition, int]


def mul_by_elementary(poly: MPoly, j: int, p: int) -> MPoly:
    """Product of a monomial-basis symmetric function with e_j, mod p.

    e_j raises j entries of lam, padded with j zeros, by one, k of them in
    each block of equal entries.  The coefficient of m_kappa counts the
    ways a fixed monomial x^kappa arises: for a block of value v, pick
    which k of the entries of kappa equal to v + 1 were raised from it.
    """
    out: MPoly = {}
    for lam, coeff in poly.items():
        # (value, multiplicity) blocks, values descending
        blocks = [(v, lam.count(v)) for v in dict.fromkeys(lam)] + [(0, j)]
        # room[bi]: entries in blocks bi, bi + 1, ...
        room = list(accumulate(count for _, count in reversed(blocks)))[::-1] + [0]

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
                out[kappa] = (out.get(kappa, 0) + coeff * ways) % p
                return
            count = blocks[bi][1]
            for k in range(min(count, left), max(0, left - room[bi + 1]) - 1, -1):
                rec(bi + 1, left - k, chosen + [k])

        rec(0, j, [])
    return {k: v for k, v in out.items() if v}


def _trimmed(exps: tuple[int, ...]) -> tuple[int, ...]:
    return exps[:len(exps) - len(list(takewhile(not_, reversed(exps))))]


@lru_cache(maxsize=None)
def elementary_monomial_expansion(exps: tuple[int, ...], p: int) -> MPoly:
    """Expansion of prod_i e_i^{exps[i-1]} in the monomial basis, mod p.

    Cached; callers must not mutate the returned dict.
    """
    if exps and not exps[-1]:
        return elementary_monomial_expansion(_trimmed(exps), p)
    if not exps:
        return {(): 1}
    reduced = _trimmed(exps[:-1] + (exps[-1] - 1,))
    return mul_by_elementary(elementary_monomial_expansion(reduced, p), len(exps), p)


def to_elementary_basis(poly: MPoly, p: int) -> dict[tuple[int, ...], int]:
    """Rewrite a symmetric function as a polynomial in e_1, e_2, ..., mod p.

    Classical leading-term elimination: the lex-leading monomial of the
    e-product matching the current leading partition has coefficient 1,
    so each step strictly lowers the leading term, and each partition is
    the leading term at most once.  Returns exponent tuples (trailing
    zeros trimmed) -> residue.
    """
    work = {lam: c % p for lam, c in poly.items() if c % p}
    out: dict[tuple[int, ...], int] = {}
    while work:
        lam = max(work)
        e_exps = tuple(map(sub, lam, lam[1:] + (0,)))
        coeff = out[e_exps] = work.pop(lam)
        for mu, c in elementary_monomial_expansion(e_exps, p).items():
            if mu == lam:
                continue
            val = (work.get(mu, 0) - coeff * c) % p
            if val:
                work[mu] = val
            else:
                work.pop(mu, None)
    return out


@lru_cache(maxsize=None)
def reduced_power_on_elementary(p: int, i: int, j: int) -> dict[tuple[int, ...], int]:
    """P^i(e_j) as a polynomial in e_1, e_2, ..., mod p.

    On a weight-one root t the total operation is t + t^p; multiplicativity
    makes the weight-(j + i(p-1)) component of its action on e_j equal to
    the monomial symmetric function with i parts p and j - i parts 1.
    Cached; do not mutate the result.
    """
    if i > j:
        return {}
    return to_elementary_basis({(p,) * i + (1,) * (j - i): 1}, p)
