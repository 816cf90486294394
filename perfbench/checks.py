"""Independent checks of the program's outputs, and self-tests for them.

Every check recomputes what it needs from first principles and shares no
code with stablyfree:

* P^a values: with Chern classes c_k = e_k(t) at random roots t in an
  extension field F_{p^k}, the value must equal the lambda^a coefficient
  of x evaluated at the roots t + lambda*t^p (the total operation is the
  ring map sending each root there).
* Adem composites P^a P^b: the same, with the lambda^a mu^b coefficient at
  the roots t + (lambda + mu)*t^p + lambda^p*mu*t^(p^2), the image of a
  root under the total operation in lambda after the one in mu.
* Tor tables: the closed form Lambda(dc_{r+1}, ..., dc_n) within the
  degree bound (even indices for Sp/SO); odd bases must be a_{r+1..n}.
* Verdicts: the witness rule recomputed with math.comb; scans must match
  the pattern p^(1 + n(p, q)) with n(p, q) computed here.

A check returns None when the output passes and a message otherwise.
Random root choices never reject a correct value; a wrong value passes
one trial with probability at most (weight / field size), below 0.2%.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from field import FiniteField

Terms = list[tuple[int, dict[int, int]]]  # (coefficient, {Chern index: exponent})

TRIALS = 2
_FIELDS: dict[int, FiniteField] = {}


def field(p: int) -> FiniteField:
    if p not in _FIELDS:
        _FIELDS[p] = FiniteField(p)
    return _FIELDS[p]


# ---------------------------------------------------------------------------
# rendered polynomials in Chern classes
# ---------------------------------------------------------------------------

def parse_terms(text: str) -> Terms:
    """Parse a rendered polynomial such as '2*c1^3*c4 + c2' ('0' is zero)."""
    text = text.strip()
    if text == "0":
        return []
    out: Terms = []
    for term in text.split(" + "):
        coeff = 1
        exps: dict[int, int] = {}
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, exp = factor.partition("^")
            if not (name.startswith("c") and name[1:].isdigit()):
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
            k = int(name[1:])
            exps[k] = exps.get(k, 0) + (int(exp) if exp else 1)
        out.append((coeff, exps))
    return out


def weight(exps: dict[int, int]) -> int:
    return sum(k * e for k, e in exps.items())


def _max_index(terms: Terms) -> int:
    return max((k for _, exps in terms for k in exps), default=0)


# ---------------------------------------------------------------------------
# evaluation at roots
# ---------------------------------------------------------------------------

def _accumulate(F: FiniteField, poly: dict, key, value):
    total = F.add(poly.get(key), value)
    if total is None:
        poly.pop(key, None)
    else:
        poly[key] = total


def _poly_mul(F: FiniteField, f: dict, g: dict, limits: tuple[int, ...]) -> dict:
    out: dict = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = tuple(x + y for x, y in zip(ef, eg))
            if all(x <= lim for x, lim in zip(e, limits)):
                _accumulate(F, out, e, F.mul(cf, cg))
    return out


def _elementary_values(F: FiniteField, roots: list[int], n: int) -> list:
    """e_0 .. e_n of the roots, as field elements."""
    e = [0] + [None] * n
    for t in roots:
        for k in range(n, 0, -1):
            e[k] = F.add(e[k], F.mul(e[k - 1], t))
    return e


def _evaluate(F: FiniteField, terms: Terms, e: list):
    total = None
    for coeff, exps in terms:
        v = F.const(coeff)
        for k, x in exps.items():
            v = F.mul(v, F.power(e[k], x))
        total = F.add(total, v)
    return total


def _operated_elementary(F: FiniteField, roots: list[int], p: int, top: int,
                         limits: tuple[int, ...]) -> dict[int, dict]:
    """e_1 .. e_top of the operated roots, as polynomials in the operation
    variables truncated at `limits`: (lambda,) for t + lambda*t^p, or
    (lambda, mu) for t + (lambda + mu)*t^p + lambda^p*mu*t^(p^2)."""
    nvar = len(limits)
    unit = (0,) * (nvar + 1)
    prod = {unit: 0}
    for t in roots:
        tp = F.power(t, p)
        if nvar == 1:
            factor = [((1, 0), t), ((1, 1), tp)]
        else:
            factor = [((1, 0, 0), t), ((1, 1, 0), tp), ((1, 0, 1), tp),
                      ((1, p, 1), F.power(t, p * p))]
        new = dict(prod)
        for e, c in prod.items():
            if e[0] == top:
                continue
            for fe, fc in factor:
                ne = tuple(x + y for x, y in zip(e, fe))
                if all(x <= lim for x, lim in zip(ne[1:], limits)):
                    _accumulate(F, new, ne, F.mul(c, fc))
        prod = new
    return {k: {e[1:]: c for e, c in prod.items() if e[0] == k}
            for k in range(1, top + 1)}


def _operated_coefficient(F: FiniteField, x: Terms, images: dict[int, dict],
                          degrees: tuple[int, ...]):
    """Coefficient of lambda^a (mu^b) in x evaluated at the operated roots."""
    total: dict = {}
    for coeff, exps in x:
        acc = {(0,) * len(degrees): F.const(coeff)}
        for k, e in exps.items():
            for _ in range(e):
                acc = _poly_mul(F, acc, images[k], degrees)
        for key, v in acc.items():
            _accumulate(F, total, key, v)
    return total.get(degrees)


def _check_operation(p: int, x: Terms, degrees: tuple[int, ...], value: Terms,
                     rng: random.Random) -> str | None:
    target = weight(x[0][1]) + sum(degrees) * (p - 1)  # x is homogeneous
    for coeff, exps in value:
        if not 0 < coeff < p:
            return f"coefficient {coeff} is not a nonzero residue mod {p}"
        if weight(exps) != target:
            return f"term of weight {weight(exps)}, expected weight {target}"
    F = field(p)
    n_roots = max(target, _max_index(value), _max_index(x), 1)
    for _ in range(TRIALS):
        roots = [rng.randrange(F.m) for _ in range(n_roots)]
        images = _operated_elementary(F, roots, p, max(_max_index(x), 1), degrees)
        expected = _operated_coefficient(F, x, images, degrees)
        got = _evaluate(F, value, _elementary_values(F, roots, n_roots))
        if got != expected:
            return "value differs from the root substitution"
    return None


def check_power(p: int, x: Terms, a: int, value: Terms,
                rng: random.Random) -> str | None:
    """P^a(x) = value, for x homogeneous in Chern classes."""
    return _check_operation(p, x, (a,), value, rng)


def check_composite(p: int, x: Terms, a: int, b: int, value: Terms,
                    rng: random.Random) -> str | None:
    """P^a(P^b(x)) = value, for x homogeneous in Chern classes."""
    return _check_operation(p, x, (a, b), value, rng)


# ---------------------------------------------------------------------------
# Tor tables, odd bases, verdicts, scans
# ---------------------------------------------------------------------------

def generator_indices(family: str, n: int) -> list[int]:
    return list(range(1, n + 1)) if family == "GL" else list(range(2, 2 * n + 1, 2))


def check_tor(family: str, n: int, r: int, bound: int,
              entries: list) -> str | None:
    """entries: [i, q, j, dimension, basis names] rows of a Tor table."""
    killed = generator_indices(family, n)[r:]
    expected: dict[tuple[int, int, int], list[str]] = {}
    for size in range(len(killed) + 1):
        for subset in combinations(killed, size):
            j = sum(subset)
            if 2 * j <= bound:
                name = "^".join(f"dc{k}" for k in subset) or "1"
                expected.setdefault((size, 2 * j, j), []).append(name)
    got: dict[tuple[int, int, int], list[str]] = {}
    for i, q, j, dim, basis in entries:
        if dim != len(basis):
            return f"entry ({i}, {q}, {j}) has dimension {dim} but {len(basis)} names"
        got[(i, q, j)] = sorted(basis)
    for key in sorted(set(expected) | set(got)):
        if sorted(expected.get(key, [])) != got.get(key, []):
            return (f"Tor entry {key}: got {got.get(key, [])}, exterior algebra "
                    f"gives {sorted(expected.get(key, []))}")
    return None


def check_odd_basis(family: str, n: int, r: int, basis: list) -> str | None:
    """basis: [name, degree, weight] per odd generator."""
    expected = [[f"a{k}", 2 * k - 1, k] for k in generator_indices(family, n)[r:]]
    if [list(b) for b in basis] != expected:
        return f"odd basis {basis}, expected {expected}"
    return None


def gl_witnesses(n: int, a: int, b: int, p: int) -> list[tuple[int, int, int]]:
    """(source m, operation i, residue) with a < m <= b < m + i(p-1) <= n
    and C(m-1, i) nonzero mod p."""
    out = []
    for m in range(a + 1, b + 1):
        for i in range(1, (n - m) // (p - 1) + 1):
            if m + i * (p - 1) > b and comb(m - 1, i) % p:
                out.append((m, i, comb(m - 1, i) % p))
    return out


def corank_one_witnesses(n: int, p: int) -> list[tuple[int, int, int]]:
    """Sp_2n / SO_2n+1: sources a_2m, m < n, landing exactly on a_2n."""
    out = []
    for m in range(1, n):
        gap = 2 * n - 2 * m
        if gap % (p - 1) == 0:
            i = gap // (p - 1)
            if comb(2 * m - 1, i) % p:
                out.append((2 * m, i, comb(2 * m - 1, i) % p))
    return out


def check_verdict(expected: list, verdict: str, witnesses: list) -> str | None:
    got = sorted(tuple(w) for w in witnesses)
    want = sorted(expected)
    if got != want:
        return f"witnesses {got}, rule gives {want}"
    want_verdict = "obstructed" if want else "no_obstruction_found"
    if verdict != want_verdict:
        return f"verdict {verdict!r}, rule gives {want_verdict!r}"
    return None


def exponent_n(p: int, q: int) -> int:
    """Largest h >= 0 with p^h (p - 1) <= q - 1, or -1 if there is none."""
    h = -1
    while p ** (h + 1) * (p - 1) <= q - 1:
        h += 1
    return h


def check_scan(q: int, p: int, n_max: int, rows: list, divisor: int,
               match: bool) -> str | None:
    want_divisor = p ** (1 + exponent_n(p, q))
    if divisor != want_divisor:
        return f"divisor {divisor}, expected {want_divisor}"
    want_rows = [[n, n % want_divisor != 0] for n in range(q, n_max + 1)]
    if [list(r) for r in rows] != want_rows:
        return "scan rows differ from the divisibility pattern"
    if match is not True:
        return "scan does not report a match"
    return None


# ---------------------------------------------------------------------------
# self-tests: every check accepts a known value and rejects a planted one
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Messages for each check that accepts a wrong value or rejects a
    right one; empty when every check discriminates."""
    rng = random.Random(0)
    problems = []

    def expect(label: str, result: str | None, should_pass: bool):
        if (result is None) != should_pass:
            problems.append(f"{label}: check {'rejected' if should_pass else 'accepted'} it"
                            + (f" ({result})" if result else ""))

    c2 = parse_terms("c2")
    # Wu formula: P^1(c2) = c1*c2 + c3 at p = 2
    expect("P^1(c2) = c1*c2 + c3, p=2",
           check_power(2, c2, 1, parse_terms("c1*c2 + c3"), rng), True)
    expect("planted P^1(c2) = c1*c2, p=2",
           check_power(2, c2, 1, parse_terms("c1*c2"), rng), False)
    # P^1(c1) = c1^p, then P^2(c1^2) = c1^4 at p = 2
    c1 = parse_terms("c1")
    expect("P^2 P^1(c1) = c1^4, p=2",
           check_composite(2, c1, 2, 1, parse_terms("c1^4"), rng), True)
    expect("planted P^2 P^1(c1) = c1^4 + c4, p=2",
           check_composite(2, c1, 2, 1, parse_terms("c1^4 + c4"), rng), False)
    expect("planted P^1 P^1(c1) = c1^3, p=3",
           check_composite(3, c1, 1, 1, parse_terms("c1^3"), rng), False)

    table = [[0, 0, 0, 1, ["1"]], [1, 4, 2, 1, ["dc2"]], [1, 6, 3, 1, ["dc3"]]]
    expect("Tor of GL_3/GL_1 to degree 6", check_tor("GL", 3, 1, 6, table), True)
    expect("planted Tor without dc3", check_tor("GL", 3, 1, 6, table[:2]), False)
    expect("odd basis of GL_3/GL_1",
           check_odd_basis("GL", 3, 1, [["a2", 3, 2], ["a3", 5, 3]]), True)
    expect("planted odd basis without a3",
           check_odd_basis("GL", 3, 1, [["a2", 3, 2]]), False)

    expect("GL_3/GL_0 -> GL_3/GL_2 at p=2",
           check_verdict(gl_witnesses(3, 0, 2, 2), "obstructed", [[2, 1, 1]]), True)
    expect("planted empty witness list",
           check_verdict(gl_witnesses(3, 0, 2, 2), "no_obstruction_found", []), False)

    rows = [[n, n % 2 != 0] for n in range(2, 11)]
    expect("scan q=2 p=2", check_scan(2, 2, 10, rows, 2, True), True)
    flipped = [list(r) for r in rows]
    flipped[3][1] = not flipped[3][1]
    expect("planted flipped scan row", check_scan(2, 2, 10, flipped, 2, True), False)
    return problems
