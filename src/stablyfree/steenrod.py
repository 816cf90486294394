"""Mod-p reduced power operations P^i.

Two engines.  On polynomial algebras of Chern classes the action is
forced by the axioms: each generator is an elementary symmetric
polynomial in weight-one roots, a root t maps to t + t^p, and the total
operation is multiplicative.  So P^i of a monomial follows from the
Cartan formula, recursing on halves of the monomial down to the cached
images P^a(c_j) of single generators, which `symmetric` reads off one
generating function.  On the primitive odd generators of
a group model the action is the closed-form binomial rule.  A
verification harness checks the two engines against the defining axioms.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .algebra import Element, Monomial, add_exps, bidegree_of, polynomial_algebra
from .modp import Prime, binom_mod_p
from .models import GroupModel
from .symmetric import reduced_power_on_elementary


def apply_P_primitive(i: int, j: int, model: GroupModel, p: Prime) -> Element:
    """P^i on the primitive odd generator a_j of the model, mod p.

    The image is C(j-1, i) * a_{j + i(p-1)}; indices that are not
    generators of the model (out of range, or of the wrong parity for
    Sp/SO) carry no class, so the image is zero there.
    """
    alg = model.group_algebra(p)  # rejects a torsion prime before the indices
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    indices = model.generator_indices()
    if j not in indices:
        raise ValueError(f"a{j} is not an odd generator of {model.describe()}")
    target = j + i * (p.value - 1)
    if target not in indices:
        return alg.zero()
    coeff = binom_mod_p(j - 1, i, p)
    if not coeff:
        return alg.zero()
    return alg.gen(f"a{target}") * coeff


# An even Chern monomial of `polynomial_algebra` is its exponent tuple,
# entry k-1 holding the exponent of c_k, with no trailing zeros.
Exps = tuple[int, ...]


def _weight(exps: Exps) -> int:
    return sum(map(mul, exps, range(1, len(exps) + 1)))


@lru_cache(maxsize=None)
def _power_on_monomial(p: int, i: int, exps: Exps) -> dict[Exps, int]:
    """P^i on an even monomial, as {exps: residue mod p}.

    A single c_j (or 1) is the seed from the symmetric layer.  Any other
    monomial is split into its first half of factors u and the rest v, and
    the Cartan formula P^i(uv) = sum_a P^a(u) P^{i-a}(v) runs over the a
    that instability leaves nonzero.  Halving keeps the recursion about
    log2(degree) deep, and c_j^e splits into equal halves that share one
    cache entry.  Cached; do not mutate the result.
    """
    factors = list(accumulate(exps))  # factors[k]: how many are c_1 .. c_{k+1}
    if not exps or factors[-1] == 1:
        return reduced_power_on_elementary(p, i, len(exps))
    h = factors[-1] // 2  # u is the first h factors
    k = bisect_left(factors, h)  # the h-th factor is c_{k+1}
    h -= factors[k - 1] if k else 0  # u's share of the c_{k+1}
    u, v = exps[:k] + (h,), (0,) * k + (exps[k] - h,) + exps[k + 1:]
    w_u, w_v = _weight(u), _weight(v)
    out: dict[Exps, int] = {}
    for a in range(max(0, i - w_v), min(i, w_u) + 1):
        # P^0 is the identity: the a = 0 and a = i terms recurse on one side only
        left = _power_on_monomial(p, a, u) if a else {u: 1}
        if not left:
            continue
        right = _power_on_monomial(p, i - a, v) if a < i else {v: 1}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = add_exps(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c % p for e, c in out.items() if c % p}


def _combine(p: int, parts) -> dict[Exps, int]:
    """Sum of coeff * terms over the (coeff, terms) pairs of `parts`, as a
    new {exps: residue mod p} without zero residues."""
    out: dict[Exps, int] = {}
    for coeff, terms in parts:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + coeff * c
    return {e: r for e, c in out.items() if (r := c % p)}


def _apply_raw(p: int, i: int, terms: dict[Exps, int]) -> dict[Exps, int]:
    """P^i on a polynomial in c_1, c_2, ... given as {exps: coeff}, as a
    new {exps: residue mod p}; instability drops terms of weight below i."""
    return _combine(p, ((coeff, _power_on_monomial(p, i, exps))
                        for exps, coeff in terms.items() if i <= _weight(exps)))


def _terms(x: Element) -> dict[Exps, int]:
    """The {exps: residue} form of an element of a polynomial algebra."""
    return {m.even: c for m, c in x.terms.items()}


def apply_P_polynomial(i: int, x: Element, p: Prime) -> Element:
    """P^i on an element of a polynomial algebra in c_1, c_2, ...

    The result is the weight-(w + i(p-1)) part of the total operation,
    computed per homogeneous component.  It is the stable answer: with N
    Chern roots, setting c_k = 0 for k > N in it gives P^i in H*(BU(N)).
    """
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    if x.algebra.modulus != p:
        raise ValueError("modulus mismatch")
    for mono in x.terms:
        if mono.odd:
            raise ValueError("element involves odd generators; use the primitive action")
    if x.algebra != polynomial_algebra(p, len(x.algebra.generators)):
        raise ValueError("expected an element of a polynomial algebra in c1, c2, ...")

    pv = p.value
    terms = _terms(x)
    result = _apply_raw(pv, i, terms)
    # P^a(c_k) involves c_1 .. c_{k + a(p-1)} only, so by the Cartan formula
    # the image of a monomial needs no index above its largest one plus
    # i(p-1); monomials of weight below i contribute nothing
    size = max([len(e) + i * (pv - 1) for e in terms if i <= _weight(e)] + [1])
    return polynomial_algebra(p, size).from_terms(
        {Monomial(e, ()): c for e, c in result.items()})


def decomposable_quotient(x: Element) -> Element:
    """Image in the quotient by products of positive-degree classes:
    only single-generator, exponent-one monomials survive."""
    keep = {m: c for m, c in x.terms.items() if not m.odd and sum(m.even) == 1}
    return x.algebra.from_terms(keep)


# ---------------------------------------------------------------------------
# axiom verification harness
# ---------------------------------------------------------------------------

AXIOMS = ("unit", "pth_power", "instability", "cartan", "adem")


@dataclass(slots=True)
class AxiomCheck:
    """One identity lhs = rhs between polynomials in c_1, c_2, ..., each
    side kept as {exps: residue mod p} and rendered only when read."""

    description: str
    p: int
    lhs_terms: dict[Exps, int]
    rhs_terms: dict[Exps, int]
    passed: bool

    @property
    def lhs(self) -> str:
        return _render(self.p, self.lhs_terms)

    @property
    def rhs(self) -> str:
        return _render(self.p, self.rhs_terms)


def _render(p: int, terms: dict[Exps, int]) -> str:
    size = max(map(len, terms), default=0)
    return polynomial_algebra(Prime(p), size).from_terms(
        {Monomial(e, ()): c for e, c in terms.items()}).render()


@dataclass(slots=True)
class AxiomReport:
    axiom: str
    p: int
    degree_bound: int
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def record(self, description: str, lhs: dict[Exps, int], rhs: dict[Exps, int]):
        self.checks.append(AxiomCheck(description, self.p, lhs, rhs, lhs == rhs))

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (f"axiom={self.axiom} p={self.p} bound={self.degree_bound} "
                f"identities={len(self.checks)} failures={len(self.failures())} {status}")

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "p": self.p,
            "degree_bound": self.degree_bound,
            "identities_checked": len(self.checks),
            "failures": [
                {"identity": c.description, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.failures()
            ],
            "passed": self.passed,
        }


# seeds the test pool: every identity `verify_axiom` checks, and so its
# output, depends on this value
_POOL_SEED = 7


def _test_classes(p: Prime, degree_bound: int,
                  n_generators: int) -> list[tuple[str, Element]]:
    """Deterministic pool: every generator, plus a few random products and
    random homogeneous sums per weight."""
    rng = random.Random(_POOL_SEED)
    alg = polynomial_algebra(p, n_generators)
    pool: list[tuple[str, Element]] = []
    for j in range(1, n_generators + 1):
        if j <= degree_bound:
            pool.append((f"c{j}", alg.gen(f"c{j}")))
    max_w = min(degree_bound, 8)
    for w in range(2, max_w + 1):
        for _ in range(2):
            mono: dict[str, int] = {}
            left = w
            while left > 0:
                j = rng.randint(1, min(left, n_generators))
                name = f"c{j}"
                mono[name] = mono.get(name, 0) + 1
                left -= j
            coeff = rng.randint(1, p.value - 1)
            x = alg.monomial_element(mono, coeff=coeff)
            pool.append((x.render(), x))
        parts = [x for _, x in pool
                 if not x.is_zero() and bidegree_of(x).weight == w]
        if len(parts) >= 2:
            s = parts[0] + parts[1]
            if not s.is_zero():
                pool.append((s.render(), s))
    return pool


def _composer(p: int, terms: dict[Exps, int]):
    """The map (a, b) -> P^a(P^b(x)) for the x given by `terms`.  Each
    P^b(x) and each composite is computed once and kept only as long as
    the returned function."""
    powers: dict[int, dict[Exps, int]] = {}
    composites: dict[tuple[int, int], dict[Exps, int]] = {}

    def composite(a: int, b: int) -> dict[Exps, int]:
        if (a, b) not in composites:
            if b not in powers:
                powers[b] = _apply_raw(p, b, terms)
            composites[a, b] = _apply_raw(p, a, powers[b])
        return composites[a, b]

    return composite


def verify_axiom(axiom: str, p: Prime, degree_bound: int,
                 n_generators: int = 5) -> AxiomReport:
    """Exhaustively check one defining property on a deterministic pool of
    test classes, keeping every evaluation within the weight bound."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {AXIOMS}")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if n_generators < 1:
        raise ValueError("need at least one generator in the test pool")
    report = AxiomReport(axiom, p.value, degree_bound)
    pool = _test_classes(p, degree_bound, n_generators)
    pv = p.value

    if axiom == "unit":
        for name, x in pool:
            terms = _terms(x)
            report.record(f"P^0({name}) = {name}", _apply_raw(pv, 0, terms), terms)

    elif axiom == "pth_power":
        for name, x in pool:
            w = bidegree_of(x).weight
            if w * pv <= degree_bound:
                report.record(f"P^{w}({name}) = ({name})^{pv}",
                              _apply_raw(pv, w, _terms(x)), _terms(x ** pv))

    elif axiom == "instability":
        for name, x in pool:
            w = bidegree_of(x).weight
            terms = _terms(x)
            n = w + 1
            while w + n * (pv - 1) <= degree_bound:
                report.record(f"P^{n}({name}) = 0 (weight {w} < {n})",
                              _apply_raw(pv, n, terms), {})
                n += 1

    elif axiom == "cartan":
        rng = random.Random(_POOL_SEED + 1)
        # bound 0 leaves the pool empty, and so no pairs to draw
        pairs = [(*rng.choice(pool), *rng.choice(pool)) for _ in range(12 if pool else 0)]
        for name_x, x, name_y, y in pairs:
            xy = x * y
            if xy.is_zero():
                continue
            w = bidegree_of(xy).weight
            terms = _terms(xy)
            n = 0
            while w + n * (pv - 1) <= degree_bound:
                parts = [apply_P_polynomial(j, x, p) * apply_P_polynomial(n - j, y, p)
                         for j in range(n + 1)]
                rhs = sum(parts[1:], parts[0])
                report.record(f"P^{n}(({name_x})*({name_y})) = sum of products",
                              _apply_raw(pv, n, terms), _terms(rhs))
                n += 1

    elif axiom == "adem":
        for name, x in pool:
            composite = _composer(pv, _terms(x))
            # the pairs with w + (a + b)(p - 1) <= bound, and a < pb
            top = (degree_bound - bidegree_of(x).weight) // (pv - 1)
            for b in range(1, top + 1):
                for a in range(min(pv * b, top - b + 1)):
                    parts = []
                    for t in range(a // pv + 1):
                        c = binom_mod_p((pv - 1) * (b - t) - 1, a - pv * t, p)
                        coeff = -c % pv if (a + t) % 2 else c
                        if coeff:
                            parts.append((coeff, composite(a + b - t, t)))
                    report.record(f"P^{a}P^{b}({name}) = Adem sum",
                                  composite(a, b), _combine(pv, parts))
    return report
