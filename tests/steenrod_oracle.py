"""Independent brute-force reduced power operations, used as an oracle.

Works with explicit root variables throughout: a Chern monomial is the
product of elementary symmetric polynomials in n roots, the operation
substitutes t -> t + t^p into every root literally, and the image is
rewritten back into Chern classes by solving a linear system against the
root expansions of all candidate monomials.  No code shared with the
package.

Every polynomial here is symmetric, so it is determined by its
coefficients on partition-shaped (weakly decreasing) exponent vectors,
and only those rows enter the linear system.  A coefficient is read off
by counting, over the literal expansion, the ways each factor e_j picks
j distinct roots (and, after substitution, t or t^p for each) so that
the exponents add up to the row; the count only depends on the multiset
of exponents still to be made up, which keeps weight-12 targets in 12
roots cheap.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product


@lru_cache(maxsize=None)
def expansion_coefficient(factors: tuple[int, ...], row: tuple[int, ...],
                          steps: tuple[int, ...], p: int) -> int:
    """Coefficient mod p of the root monomial with exponents `row` in
    prod_i e_{factors[i]}, where each root t that a factor picks
    contributes t^s for one s in `steps`: (1,) for the plain expansion,
    (1, p) after t -> t + t^p.  `row` lists the nonzero exponents,
    descending."""
    if not factors:
        return 0 if row else 1
    j, rest = factors[0], factors[1:]
    total = 0
    for roots in combinations(range(len(row)), j):
        for powers in product(steps, repeat=j):
            left = list(row)
            for k, s in zip(roots, powers):
                left[k] -= s
            if min(left, default=0) < 0:
                continue
            remaining = tuple(sorted((e for e in left if e), reverse=True))
            total += expansion_coefficient(rest, remaining, steps, p)
    return total % p


def chern_monomials_of_weight(w: int, max_index: int) -> list[dict[int, int]]:
    """All exponent dicts {j: d_j} with sum j*d_j = w and j <= max_index."""
    out: list[dict[int, int]] = []

    def rec(j: int, left: int, acc: dict[int, int]):
        if left == 0:
            out.append(dict(acc))
            return
        if j > min(left, max_index):
            return
        rec(j + 1, left, acc)
        max_d = left // j
        for d in range(1, max_d + 1):
            acc[j] = d
            rec(j + 1, left - j * d, acc)
            del acc[j]

    rec(1, w, {})
    out.sort(key=lambda d: sorted(d.items()))
    return out


def partitions(w: int, max_parts: int) -> list[tuple[int, ...]]:
    """Partitions of w with at most max_parts parts, descending tuples."""
    out: list[tuple[int, ...]] = []

    def rec(left: int, largest: int, acc: tuple[int, ...]):
        if left == 0:
            out.append(acc)
            return
        if len(acc) == max_parts:
            return
        for part in range(min(left, largest), 0, -1):
            rec(left - part, part, acc + (part,))

    rec(w, w, ())
    return out


def _factors(exps: dict[int, int]) -> tuple[int, ...]:
    return tuple(j for j, d in sorted(exps.items()) for _ in range(d))


def solve_mod_p(matrix: list[list[int]], rhs: list[int], p: int) -> list[int]:
    """Solve A x = rhs over F_p; requires a consistent system with
    unique solution on the pivot columns (free columns get zero)."""
    rows = [row[:] + [b % p] for row, b in zip(matrix, rhs)]
    n_cols = len(matrix[0]) if matrix else 0
    pivot_of_col = {}
    r = 0
    for col in range(n_cols):
        pivot = None
        for rr in range(r, len(rows)):
            if rows[rr][col] % p:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][col] % p:
                f = rows[rr][col]
                rows[rr] = [(a - f * b) % p for a, b in zip(rows[rr], rows[r])]
        pivot_of_col[col] = r
        r += 1
    for rr in range(r, len(rows)):
        if rows[rr][-1] % p:
            raise ValueError("inconsistent system")
    x = [0] * n_cols
    for col, rr in pivot_of_col.items():
        x[col] = rows[rr][-1] % p
    return x


@lru_cache(maxsize=None)
def candidate_system(w: int, n: int, p: int):
    """Partition rows, candidate Chern monomials of weight w, and the
    matrix of the candidates' root expansions read on those rows."""
    rows = partitions(w, n)
    candidates = chern_monomials_of_weight(w, n)
    matrix = [[expansion_coefficient(_factors(cand), row, (1,), p)
               for cand in candidates] for row in rows]
    return rows, candidates, matrix


def brute_force_reduced_power(i: int, exps: dict[int, int], p: int,
                              n: int | None = None) -> dict[tuple[tuple[int, int], ...], int]:
    """P^i of the Chern monomial prod e_j^{exps[j]}, rewritten in Chern
    classes by solving against all candidate monomial expansions.

    Returns {sorted ((j, d), ...) tuples: coefficient}.  n defaults to the
    target weight (the smallest faithful root count).
    """
    w = sum(j * d for j, d in exps.items())
    target = w + i * (p - 1)
    if n is None:
        n = target
    rows, candidates, matrix = candidate_system(target, n, p)
    # the weight-target part of the substituted expansion, on each row
    rhs = [expansion_coefficient(_factors(exps), row, (1, p), p) for row in rows]
    solution = solve_mod_p(matrix, rhs, p)
    out = {}
    for cand, coeff in zip(candidates, solution):
        if coeff % p:
            out[tuple(sorted(cand.items()))] = coeff % p
    return out
