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

from math import comb, factorial

Partition = tuple[int, ...]
MPoly = dict[Partition, int]


def orbit_size(lam: Partition, n: int) -> int:
    """Number of distinct monomials with exponent pattern lam in n variables."""
    if len(lam) > n:
        return 0
    out = factorial(n)
    seen_counts: dict[int, int] = {}
    for v in lam:
        seen_counts[v] = seen_counts.get(v, 0) + 1
    for count in seen_counts.values():
        out //= factorial(count)
    out //= factorial(n - len(lam))
    return out


def _blocks(lam: Partition, n: int) -> list[tuple[int, int]]:
    """(value, multiplicity) blocks of lam padded with zeros to n entries,
    values descending."""
    blocks: list[tuple[int, int]] = []
    for v in lam:
        if blocks and blocks[-1][0] == v:
            blocks[-1] = (v, blocks[-1][1] + 1)
        else:
            blocks.append((v, 1))
    if n > len(lam):
        blocks.append((0, n - len(lam)))
    return blocks


def mul_by_elementary(poly: MPoly, j: int, n: int) -> MPoly:
    """Product (in n variables) of a monomial-basis polynomial with e_j."""
    if j == 0:
        return dict(poly)
    if j > n:
        return {}
    out: MPoly = {}
    for lam, coeff in poly.items():
        lam_orbit = orbit_size(lam, n)
        blocks = _blocks(lam, n)

        def rec(bi: int, left: int, chosen: list[int]):
            if left == 0:
                chosen_full = chosen + [0] * (len(blocks) - len(chosen))
                ways = 1
                entries: list[int] = []
                for (value, count), k in zip(blocks, chosen_full):
                    ways *= comb(count, k)
                    entries.extend([value + 1] * k)
                    entries.extend([value] * (count - k))
                kappa = tuple(sorted((e for e in entries if e), reverse=True))
                contrib = coeff * ways * lam_orbit // orbit_size(kappa, n)
                out[kappa] = out.get(kappa, 0) + contrib
                return
            if bi == len(blocks):
                return
            count = blocks[bi][1]
            for k in range(min(count, left), -1, -1):
                rec(bi + 1, left - k, chosen + [k])

        rec(0, j, [])
    return {k: v for k, v in out.items() if v}


_EXPANSION_CACHE: dict[tuple[int, tuple[int, ...]], MPoly] = {}


def elementary_monomial_expansion(exps: tuple[int, ...], n: int) -> MPoly:
    """Expansion of prod_i e_i^{exps[i-1]} in the monomial basis, n variables.

    Cached; callers must not mutate the returned dict.
    """
    end = len(exps)
    while end and exps[end - 1] == 0:
        end -= 1
    exps = exps[:end]
    key = (n, exps)
    cached = _EXPANSION_CACHE.get(key)
    if cached is not None:
        return cached
    if not exps:
        result: MPoly = {(): 1}
    else:
        i = len(exps)
        reduced = exps[:-1] + (exps[-1] - 1,)
        result = mul_by_elementary(elementary_monomial_expansion(reduced, n), i, n)
    _EXPANSION_CACHE[key] = result
    return result


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
        padded = lam + (0,)
        e_exps = tuple(padded[i] - padded[i + 1] for i in range(len(lam)))
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


_POWER_CACHE: dict[tuple[int, int, int], dict[tuple[int, ...], int]] = {}


def reduced_power_on_elementary(p: int, i: int, j: int) -> dict[tuple[int, ...], int]:
    """The i-th reduced power of e_j, as a Z-polynomial in e_1, e_2, ...

    On a weight-one root t the total operation is t + t^p; multiplicativity
    makes the weight-(j + i(p-1)) component of its action on e_j equal to
    the monomial symmetric function with i parts p and j - i parts 1.
    Computed in the stable range, so the answer is valid in any number of
    variables >= j + i(p-1).  Cached; do not mutate the result.
    """
    key = (p, i, j)
    cached = _POWER_CACHE.get(key)
    if cached is not None:
        return cached
    if i > j:
        result: dict[tuple[int, ...], int] = {}
    elif j == 0:
        result = {(): 1} if i == 0 else {}
    else:
        lam = (p,) * i + (1,) * (j - i)
        degree = j + i * (p - 1)
        result = to_elementary_basis({lam: 1}, degree + 1)
    _POWER_CACHE[key] = result
    return result
