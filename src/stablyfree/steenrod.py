"""Mod-p reduced power operations P^i.

Two engines.  On polynomial algebras of Chern classes the action is
forced by the axioms: each generator is an elementary symmetric
polynomial in weight-one roots, a root t maps to t + t^p, and the total
operation is multiplicative.  So P^i of a monomial follows from the
Cartan formula, recursing on halves of the monomial down to the cached
images P^a(c_j) of single generators, which `symmetric` reads off one
generating function.  Each monomial met has one record: its split into
halves, made once, and its images {i: P^i}, each filled in once and asked
for only where a Cartan sum reaches it.  The records live for one
top-level call.  On the primitive odd generators of a group model the
action is the closed-form binomial rule.

A verification harness checks the two engines against the defining
axioms.  For the Adem relations it computes every P^a(P^b(x)) an identity
reads in one pass over the terms of P^b(x), per b; at p = 2 every residue
is 1, so its sums keep the monomials met an odd number of times.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import add, mul

from .algebra import Element, Exps, bidegree_of, polynomial_algebra
from .modp import Prime, binom_mod_p
from .models import GroupModel
from .symmetric import reduced_power_on_elementary, release_seed_tables


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


def _weight(exps: Exps) -> int:
    return sum(map(mul, exps, range(1, len(exps) + 1)))


# The images P^i of the even monomials met in one top-level call: per prime,
# {exps: [exps, weight, halves, images]}, one record per monomial.  `halves`
# is None for a single c_j or 1, whose images are the seeds; for any other
# monomial it is () until the first image that needs the Cartan split, and
# then the records of the two halves.  `images` is {i: P^i(exps)}, filled in
# as asked.  apply_P_polynomial and verify_axiom empty the table when they
# return, so its size is bounded by one call's work.
_IMAGES: dict[int, dict[Exps, list]] = {}


def _record(table: dict[Exps, list], exps: Exps) -> list:
    """A new record for exps in the table, with no images yet."""
    rec = table[exps] = [exps, _weight(exps), None if sum(exps) <= 1 else (), {}]
    return rec


def _image(p: int, table: dict[Exps, list], rec: list, i: int) -> dict[Exps, int]:
    """P^i of the record's monomial, as {exps: residue mod p}, stored in the
    record.

    A single c_j (or 1) reads the seed from the symmetric layer.  Any other
    monomial is split into its first half of factors u and the rest v, and
    the Cartan formula P^i(uv) = sum_a P^a(u) P^{i-a}(v) runs over the a
    that instability leaves nonzero, asking each half only for the indices
    that sum reaches.  Halving keeps the recursion about log2(degree) deep,
    and c_j^e splits into equal halves that share one record.
    """
    exps, _, halves, images = rec
    if halves is None:
        out = reduced_power_on_elementary(p, i, len(exps))
    elif not i:
        out = {exps: 1}
    else:
        if not halves:
            factors = list(accumulate(exps))  # factors[k]: how many are c_1 .. c_{k+1}
            h = factors[-1] // 2  # u is the first h factors
            k = bisect_left(factors, h)  # the h-th factor is c_{k+1}
            h -= factors[k - 1] if k else 0  # u's share of the c_{k+1}
            halves = rec[2] = [table.get(half) or _record(table, half)
                               for half in (exps[:k] + (h,),
                                            (0,) * k + (exps[k] - h,) + exps[k + 1:])]
        (u, w_u, _, u_images), (v, w_v, _, v_images) = left_rec, right_rec = halves
        out = {}
        for a in range(max(0, i - w_v), min(i, w_u) + 1):
            # P^0 is the identity: the a = 0 and a = i terms recurse on one side only
            if a:
                left = u_images.get(a)
                if left is None:
                    left = _image(p, table, left_rec, a)
                if not left:
                    continue
            else:
                left = {u: 1}
            if a < i:
                right = v_images.get(i - a)
                if right is None:
                    right = _image(p, table, right_rec, i - a)
            else:
                right = {v: 1}
            right = right.items()
            for e1, c1 in left.items():
                n1 = len(e1)
                for e2, c2 in right:
                    # the entrywise sum: one of the two tails is empty
                    e = tuple(map(add, e1, e2)) + e1[len(e2):] + e2[n1:]
                    out[e] = out.get(e, 0) + c1 * c2
        out = {e: r for e, c in out.items() if (r := c % p)}
    images[i] = out
    return out


def _apply_raw(p: int, ops, terms: dict[Exps, int]) -> dict[int, dict[Exps, int]]:
    """P^i for each i of the ascending `ops`, on a polynomial in c_1, c_2, ...
    given as {exps: residue mod p}, in one pass over its terms: {i: a new
    {exps: residue mod p}}.  Instability drops the terms of weight below i.
    The images stay in _IMAGES, for later calls to share, until it is
    emptied."""
    table = _IMAGES.setdefault(p, {})
    # at p = 2 every residue is 1, so a sum keeps the monomials it meets an
    # odd number of times
    sums = {i: set() if p == 2 else {} for i in ops}
    for exps, coeff in terms.items():
        rec = table.get(exps) or _record(table, exps)
        w, images = rec[1], rec[3]
        for i in ops:
            if i > w:
                break
            image = images.get(i)
            if image is None:
                image = _image(p, table, rec, i)
            out = sums[i]
            if p == 2:
                out.symmetric_difference_update(image)
            else:
                for e, c in image.items():
                    out[e] = out.get(e, 0) + coeff * c
    if p == 2:
        return {i: dict.fromkeys(out, 1) for i, out in sums.items()}
    return {i: {e: r for e, c in out.items() if (r := c % p)} for i, out in sums.items()}


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
    if x.algebra.has_odd_factor(x.terms):
        raise ValueError("element involves odd generators; use the primitive action")
    if x.algebra != polynomial_algebra(p, len(x.algebra.generators)):
        raise ValueError("expected an element of a polynomial algebra in c1, c2, ...")

    try:
        return _power_element(i, x, p)
    finally:
        _release_tables()


def _power_element(i: int, x: Element, p: Prime) -> Element:
    """P^i(x) for a checked x, through the shared image tables."""
    pv = p.value
    terms = x.terms
    result = _apply_raw(pv, (i,), terms)[i]
    # P^a(c_k) involves c_1 .. c_{k + a(p-1)} only, so by the Cartan formula
    # the image of a monomial needs no index above its largest one plus
    # i(p-1); monomials of weight below i contribute nothing
    size = max([len(e) + i * (pv - 1) for e in terms if i <= _weight(e)] + [1])
    return polynomial_algebra(p, size).from_terms(result)


def _release_tables():
    """Drop the images and the seeds' shared tables, keeping the cached
    seeds: called when a top-level computation ends, so that no table
    outlives it."""
    _IMAGES.clear()
    release_seed_tables()


def decomposable_quotient(x: Element) -> Element:
    """Image in the quotient by products of positive-degree classes:
    only single-generator, exponent-one monomials survive."""
    alg = x.algebra
    keep = {m: c for m, c in x.terms.items()
            if sum(m) == 1 and alg.odd_position(m) is None}
    return alg.from_terms(keep)


# ---------------------------------------------------------------------------
# axiom verification harness
# ---------------------------------------------------------------------------

AXIOMS = ("unit", "pth_power", "instability", "cartan", "adem")


def _fields_equal(self, other) -> bool:
    """Field-by-field equality of two records of one class.  The records
    are mutable, so they are not hashable."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


class AxiomCheck:
    """One identity lhs = rhs between polynomials in c_1, c_2, ..., each
    side kept as {exps: residue mod p} and rendered only when read."""

    __slots__ = ("description", "p", "lhs_terms", "rhs_terms", "passed")

    def __init__(self, description: str, p: int, lhs_terms: dict[Exps, int],
                 rhs_terms: dict[Exps, int], passed: bool):
        self.description = description
        self.p = p
        self.lhs_terms = lhs_terms
        self.rhs_terms = rhs_terms
        self.passed = passed

    __eq__, __hash__ = _fields_equal, None

    @property
    def lhs(self) -> str:
        return _render(self.p, self.lhs_terms)

    @property
    def rhs(self) -> str:
        return _render(self.p, self.rhs_terms)


def _render(p: int, terms: dict[Exps, int]) -> str:
    size = max(map(len, terms), default=0)
    return polynomial_algebra(Prime(p), size).from_terms(terms).render()


class AxiomReport:
    __slots__ = ("axiom", "p", "degree_bound", "checks")

    def __init__(self, axiom: str, p: int, degree_bound: int,
                 checks: list[AxiomCheck] | None = None):
        self.axiom = axiom
        self.p = p
        self.degree_bound = degree_bound
        self.checks = [] if checks is None else checks

    __eq__, __hash__ = _fields_equal, None

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
    import random  # here, so that importing the package does not load it
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


def _combine(p: int, parts) -> dict[Exps, int]:
    """Sum of coeff * terms over the (coeff, terms) pairs of `parts`, as a
    new {exps: residue mod p} without zero residues."""
    if p == 2:  # every coeff and residue is 1: keep what an odd number hold
        odd: set[Exps] = set()
        for _, terms in parts:
            odd.symmetric_difference_update(terms)
        return dict.fromkeys(odd, 1)
    out: dict[Exps, int] = {}
    for coeff, terms in parts:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + coeff * c
    return {e: r for e, c in out.items() if (r := c % p)}


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
    try:
        _check_axiom(report, p, _test_classes(p, degree_bound, n_generators))
    finally:
        _release_tables()
    return report


def _check_axiom(report: AxiomReport, p: Prime, pool: list[tuple[str, Element]]):
    """Record in `report` every identity of its axiom on the pool."""
    axiom, degree_bound, pv = report.axiom, report.degree_bound, p.value

    def power(i: int, terms: dict[Exps, int]) -> dict[Exps, int]:
        return _apply_raw(pv, (i,), terms)[i]

    if axiom == "unit":
        for name, x in pool:
            report.record(f"P^0({name}) = {name}", power(0, x.terms), x.terms)

    elif axiom == "pth_power":
        for name, x in pool:
            w = bidegree_of(x).weight
            if w * pv <= degree_bound:
                report.record(f"P^{w}({name}) = ({name})^{pv}",
                              power(w, x.terms), (x ** pv).terms)

    elif axiom == "instability":
        for name, x in pool:
            w = bidegree_of(x).weight
            n = w + 1
            while w + n * (pv - 1) <= degree_bound:
                report.record(f"P^{n}({name}) = 0 (weight {w} < {n})",
                              power(n, x.terms), {})
                n += 1

    elif axiom == "cartan":
        import random
        rng = random.Random(_POOL_SEED + 1)
        # bound 0 leaves the pool empty, and so no pairs to draw
        pairs = [(*rng.choice(pool), *rng.choice(pool)) for _ in range(12 if pool else 0)]
        for name_x, x, name_y, y in pairs:
            xy = x * y
            if xy.is_zero():
                continue
            w = bidegree_of(xy).weight
            n = 0
            while w + n * (pv - 1) <= degree_bound:
                parts = [_power_element(j, x, p) * _power_element(n - j, y, p)
                         for j in range(n + 1)]
                rhs = sum(parts[1:], parts[0])
                report.record(f"P^{n}(({name_x})*({name_y})) = sum of products",
                              power(n, xy.terms), rhs.terms)
                n += 1

    elif axiom == "adem":
        # (a, b) -> the (coeff, t) of the nonzero terms coeff * P^(a+b-t) P^t
        # of the Adem sum for P^a P^b, which depend on (a, b) only
        adem: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for name, x in pool:
            # the pairs with w + (a + b)(p - 1) <= bound, and a < pb
            top = (degree_bound - bidegree_of(x).weight) // (pv - 1)
            pairs = [(a, b) for b in range(1, top + 1)
                     for a in range(min(pv * b, top - b + 1))]
            wanted: dict[int, set[int]] = {}  # b -> the a of each P^a(P^b(x)) read
            for a, b in pairs:
                if (a, b) not in adem:
                    adem[a, b] = []
                    for t in range(a // pv + 1):
                        c = binom_mod_p((pv - 1) * (b - t) - 1, a - pv * t, p)
                        coeff = -c % pv if (a + t) % 2 else c
                        if coeff:
                            adem[a, b].append((coeff, t))
                wanted.setdefault(b, set()).add(a)
                for _, t in adem[a, b]:
                    wanted.setdefault(t, set()).add(a + b - t)
            # one pass over the terms of x, then one over those of each P^b(x)
            powers = _apply_raw(pv, sorted(wanted), x.terms)
            rows = {b: _apply_raw(pv, sorted(ops), powers[b]) for b, ops in wanted.items()}
            for a, b in pairs:
                rhs = _combine(pv, [(coeff, rows[t][a + b - t]) for coeff, t in adem[a, b]])
                report.record(f"P^{a}P^{b}({name}) = Adem sum", rows[b][a], rhs)
