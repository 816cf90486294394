"""Mod-p reduced power operations P^i.

Two engines.  On polynomial algebras of Chern classes the action is
forced by the axioms: each generator is an elementary symmetric
polynomial in weight-one roots, a root t maps to t + t^p, and the total
operation is multiplicative.  So P^i of a monomial follows from the
Cartan formula, recursing on halves of the monomial down to the seeds
P^a(c_j) of single generators, which `symmetric` reads off one
generating function.  Each monomial met has one record, made whole the
first time: its split into halves, cut from its packed form, and its
images {i: P^i}, each filled in once and asked for only where a Cartan
sum reaches it.  Each top-level call builds one table of records and of
the tables its seeds share, and drops it when it returns, so no two calls
share anything.  On the primitive odd generators of a group model the
action is the closed-form binomial rule.

Inside one top-level call every monomial of the records, of their images
and of the sums over them is one packed int: the exponent of c_k sits in
slot k-1, little-endian, and every slot holds the largest weight the call
can reach, in as many whole bytes as it needs, rounded up to 2, 4 or 8
below 9.  No exponent exceeds the weight of its monomial, so no slot
carries into the next, and the product of two monomials in a Cartan sum is
one int addition.  At p = 2 every residue is 1, so a Cartan sum, like any
other sum, keeps the monomials met an odd number of times.  Terms are packed
where they enter a call (its argument, the seeds) and unpacked where they
leave it (its result, the sides of an identity when read).

A verification harness checks the two engines against the defining
axioms, in one pass per class of its test pool: each class x reads every
P^i(x) it needs from one pass over its terms.  For the Adem relations one
plan per call lists the pairs (a, b), their Adem sums and the composites
those read, for the largest top the pool reaches; each class takes the
pairs with a + b within its own top, and computes every P^a(P^b(x)) they
read in one pass over the terms of P^b(x), per b.  An Adem side that is
empty, or one composite with coefficient 1, is compared as it is; only the
other sides are summed.  The harness hands each identity to a record step,
its description still a format string and its arguments: `verify_axiom`
keeps a check of every identity, and the CLI counts the identities that
hold and builds checks only for those that fail.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .algebra import Element, Exps, bidegree_of, polynomial_algebra
from .modp import Prime, binom_mod_p
from .models import GroupModel
from .symmetric import reduced_power_on_elementary


def apply_P_primitive(i: int, j: int, model: GroupModel, p: Prime) -> Element:
    """P^i on the primitive odd generator a_j of the model, mod p.

    The image is C(j-1, i) * a_{j + i(p-1)}; indices that are not
    generators of the model (out of range, or of the wrong parity for
    Sp/SO) carry no class, so the image is zero there.
    """
    model.check_prime(p)  # rejects a torsion prime before the indices
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    indices = model.generator_indices()
    if j not in indices:
        raise ValueError(f"a{j} is not an odd generator of {model.describe()}")
    target = j + i * (p.value - 1)
    coeff = binom_mod_p(j - 1, i, p) if target in indices else 0
    # the image lies in the algebra of the rank-r subgroup, where a_target
    # (a_j, when the image is zero) is the last generator: r of them, where
    # the model may have millions
    rank = indices.index(target if coeff else j) + 1
    alg = model._replace(n=rank).group_algebra(p)
    if not coeff:
        return alg.zero()
    return alg.gen(f"a{target}") * coeff


def _weight(exps: Exps) -> int:
    return sum(map(mul, exps, range(1, len(exps) + 1)))


# the packed form of one monomial: slots of `width` whole bytes; slots of
# 2, 4 and 8 bytes go through one struct call, little-endian
_SLOT_CODES = {2: "H", 4: "I", 8: "Q"}


def _pack(width: int, exps: Exps) -> int:
    if width == 1:
        return int.from_bytes(bytes(exps), "little")
    code = _SLOT_CODES.get(width)
    if code:
        return int.from_bytes(struct.pack(f"<{len(exps)}{code}", *exps), "little")
    bits = 8 * width
    return sum(e << bits * k for k, e in enumerate(exps) if e)


def _unpack(width: int, key: int) -> Exps:
    data = key.to_bytes(-(-key.bit_length() // (8 * width)) * width, "little")
    if width == 1:
        return tuple(data)
    code = _SLOT_CODES.get(width)
    if code:
        return struct.unpack(f"<{len(data) // width}{code}", data)
    return tuple(int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width))


class _Table:
    """The image records at prime p of one top-level call that reaches no
    weight above `top`, with the `width` of the slots its monomials are
    packed in: as many whole bytes as the top needs, at least one, rounded
    up to 2, 4 or 8 below 9.

    `records` is {key: (key, weight, halves, images)}, one record per
    monomial met, keyed by the packed monomial.  `halves` is j for a single
    c_j, 0 for the monomial 1, and for any other monomial the records of its
    two halves.  `images` is {i: P^i(key)}, packed alike, filled in as
    asked.  `seeds` holds the tables that the seeds of the call share, as
    `reduced_power_on_elementary` fills them.  The call that builds the
    table owns it, so the records and the seeds' tables go when it returns
    and their size is bounded by its work."""

    __slots__ = ("p", "width", "records", "seeds")

    def __init__(self, p: int, top: int):
        width = max(1, -(-top.bit_length() // 8))
        self.p, self.width = p, width if width > 8 else 1 << (width - 1).bit_length()
        self.records, self.seeds = {}, {}


def _record(table: _Table, key: int, exps: Exps) -> tuple:
    """The record of the monomial `key`, whose exponents are `exps`
    (trailing zeros allowed): the table's, else a new one with no images,
    made whole with the records of its halves.

    The first half u holds the first half of the factors, the other half v
    the rest.  u's key is cut from `key` by a mask and v's is the rest, and
    both exponent tuples are cut from `exps`, so a split packs and unpacks
    nothing, and its weight is the sum of theirs.  Halving keeps the
    recursion about log2(factors) deep, and c_j^e splits into equal halves
    that share one record."""
    records = table.records
    rec = records.get(key)
    if rec is None:
        factors = list(accumulate(exps)) or [0]  # factors[k]: how many are c_1 .. c_{k+1}
        n = factors[-1] // 2  # u is the first n factors
        if not n:  # c_j is the first factor, or 1 has none: j is its weight
            halves = weight = bisect_left(factors, 1) + 1 if factors[-1] else 0
        else:
            k = bisect_left(factors, n)  # the n-th factor is c_{k+1}
            e = n - (factors[k - 1] if k else 0)
            shift = 8 * table.width * k
            u = (key & ((1 << shift) - 1)) + (e << shift)
            halves = (_record(table, u, exps[:k] + (e,)),
                      _record(table, key - u, (0,) * k + (exps[k] - e,) + exps[k + 1:]))
            weight = halves[0][1] + halves[1][1]
        rec = records[key] = (key, weight, halves, {})
    return rec


def _image(table: _Table, rec: tuple, i: int) -> dict[int, int]:
    """P^i of the record's monomial, as {key: residue mod p}, stored in the
    record.

    A single c_j (or 1) reads the seed from the symmetric layer.  On any
    other monomial uv, split into the halves of its record, the Cartan
    formula P^i(uv) = sum_a P^a(u) P^{i-a}(v) runs over the a that
    instability leaves nonzero, asking each half only for the indices that
    sum reaches.  At p = 2 every residue is 1, so the sum keeps the products
    met an odd number of times.
    """
    key, _, halves, images = rec
    p = table.p
    if isinstance(halves, int):
        seed = reduced_power_on_elementary(p, i, halves, tables=table.seeds)
        out = {_pack(table.width, e): c for e, c in seed.items()}
    elif not i:
        out = {key: 1}
    else:
        (u, w_u, _, u_images), (v, w_v, _, v_images) = left_rec, right_rec = halves
        out = set() if p == 2 else {}
        for a in range(max(0, i - w_v), min(i, w_u) + 1):
            # P^0 is the identity: the a = 0 and a = i terms recurse on one side only
            if a:
                left = u_images.get(a)
                if left is None:
                    left = _image(table, left_rec, a)
                if not left:
                    continue
            else:
                left = {u: 1}
            if a < i:
                right = v_images.get(i - a)
                if right is None:
                    right = _image(table, right_rec, i - a)
            else:
                right = {v: 1}
            # the product of two monomials is the sum of their keys
            if p == 2:  # keep the products met an odd number of times
                for e1 in left:
                    out ^= {e1 + e2 for e2 in right}
            else:
                right = right.items()
                for e1, c1 in left.items():
                    for e2, c2 in right:
                        e = e1 + e2
                        out[e] = out.get(e, 0) + c1 * c2
        out = (dict.fromkeys(out, 1) if p == 2
               else {e: r for e, c in out.items() if (r := c % p)})
    images[i] = out
    return out


def _apply_raw(table: _Table, ops, terms: dict[int, int]) -> dict[int, dict[int, int]]:
    """P^i for each i of the ascending `ops`, on a polynomial in c_1, c_2, ...
    given as {key: residue mod p}, packed as in the table, in one pass over
    its terms: {i: a new {key: residue mod p}}.  Instability drops the terms
    of weight below i.  The images stay in the table's records, for later
    passes of the same call to share."""
    if not ops:  # nothing to compute, and no record to make
        return {}
    records, width = table.records, table.width
    parts = {i: [] for i in ops}  # i -> the (coeff, P^i(term)) to sum
    for key, coeff in terms.items():
        rec = records.get(key) or _record(table, key, _unpack(width, key))
        _, w, _, images = rec
        for i in ops:
            if i > w:
                break
            image = images.get(i)
            if image is None:
                image = _image(table, rec, i)
            parts[i].append((coeff, image))
    return {i: _combine(table.p, part) for i, part in parts.items()}


def _combine(p: int, parts: list) -> dict:
    """Sum of coeff * terms over the (coeff, terms) pairs of `parts`, as a
    new {monomial: residue mod p} without zero residues."""
    if len(parts) < 2:  # no sum to build: nothing, or one part as it is
        if not parts:
            return {}
        (coeff, terms), = parts
        if coeff == 1:
            return dict(terms)
    if p == 2:  # every coeff and residue is 1: keep what an odd number hold
        odd = set()
        for _, terms in parts:
            odd.symmetric_difference_update(terms)
        return dict.fromkeys(odd, 1)
    out = {}
    for coeff, terms in parts:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + coeff * c
    return {e: r for e, c in out.items() if (r := c % p)}


# a term of this many factors or more is refused: its record splits in
# halves, about log2(factors) calls deep, and Python's stack is not deeper
MAX_FACTORS = 2 ** 512


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
    if any(sum(e) >= MAX_FACTORS for e in x.terms):
        raise ValueError(f"a term has 2^{MAX_FACTORS.bit_length() - 1} or more factors, "
                         "too many to split")

    top = max(map(_weight, x.terms), default=0) + i * (p.value - 1)
    return _power_element(i, x, p, _Table(p.value, top))


def _power_element(i: int, x: Element, p: Prime, table: _Table) -> Element:
    """P^i(x) for a checked x, through the table of the running call."""
    pv, width = p.value, table.width
    terms = x.terms
    result = _apply_raw(table, (i,), {_pack(width, e): c for e, c in terms.items()})[i]
    # P^a(c_k) involves c_1 .. c_{k + a(p-1)} only, so by the Cartan formula
    # the image of a monomial needs no index above its largest one plus
    # i(p-1); monomials of weight below i contribute nothing
    size = max([len(e) + i * (pv - 1) for e in terms if i <= _weight(e)] + [1])
    return polynomial_algebra(p, size).from_terms({_unpack(width, e): c
                                                   for e, c in result.items()})


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


class AxiomCheck(NamedTuple):
    """One identity lhs = rhs between polynomials in c_1, c_2, ..., each
    side kept packed in slots of `width` bytes, as in the image table of
    its call, and decoded or rendered only when read.  A passing identity
    keeps one side, since its two sides are equal: its `packed_rhs` is its
    `packed_lhs`."""

    description: str
    p: int
    passed: bool
    width: int
    packed_lhs: dict[int, int]
    packed_rhs: dict[int, int]

    @property
    def lhs_terms(self) -> dict[Exps, int]:
        """The left side as {exps: residue mod p}, a new dict on each read."""
        width = self.width
        return {_unpack(width, e): c for e, c in self.packed_lhs.items()}

    @property
    def rhs_terms(self) -> dict[Exps, int]:
        """The right side as {exps: residue mod p}, a new dict on each read."""
        width = self.width
        return {_unpack(width, e): c for e, c in self.packed_rhs.items()}

    @property
    def lhs(self) -> str:
        return _render(self.p, self.lhs_terms)

    @property
    def rhs(self) -> str:
        return _render(self.p, self.rhs_terms)


def _render(p: int, terms: dict[Exps, int]) -> str:
    size = max(map(len, terms), default=0)
    return polynomial_algebra(Prime(p), size).from_terms(terms).render()


class AxiomReport(NamedTuple):
    """The identities of one axiom checked at prime p within the weight
    bound, in the order they were checked."""

    axiom: str
    p: int
    degree_bound: int
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        return _summary(self.axiom, self.p, self.degree_bound, len(self.checks),
                        self.failures())

    def to_json(self) -> dict:
        return _payload(self.axiom, self.p, self.degree_bound, len(self.checks),
                        self.failures())


# the summary line and the JSON payload of the identities of one axiom,
# from their number and the failing checks, in order
def _summary(axiom: str, p: int, degree_bound: int, identities: int,
             failures: list[AxiomCheck]) -> str:
    status = "FAILED" if failures else "ok"
    return (f"axiom={axiom} p={p} bound={degree_bound} "
            f"identities={identities} failures={len(failures)} {status}")


def _payload(axiom: str, p: int, degree_bound: int, identities: int,
             failures: list[AxiomCheck]) -> dict:
    return {
        "axiom": axiom,
        "p": p,
        "degree_bound": degree_bound,
        "identities_checked": identities,
        "failures": [{"identity": c.description, "lhs": c.lhs, "rhs": c.rhs}
                     for c in failures],
        "passed": not failures,
    }


# seeds the test pool: every identity `verify_axiom` checks, and so its
# output, depends on this value
_POOL_SEED = 7


def _test_classes(p: Prime, degree_bound: int,
                  n_generators: int) -> list[tuple[str, Element]]:
    """Deterministic pool: every generator, plus a few random products and
    random homogeneous sums per weight.  No c_j above the bound enters it,
    so its algebra has at most `degree_bound` generators (one at bound 0),
    however many are asked for."""
    import random  # here, so that importing the package does not load it
    rng = random.Random(_POOL_SEED)
    size = min(n_generators, degree_bound)
    alg = polynomial_algebra(p, max(1, size))
    pool: list[tuple[str, Element]] = [(f"c{j}", alg.gen(f"c{j}"))
                                       for j in range(1, size + 1)]
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


def verify_axiom(axiom: str, p: Prime, degree_bound: int,
                 n_generators: int = 5) -> AxiomReport:
    """Exhaustively check one defining property on a deterministic pool of
    test classes, keeping every evaluation within the weight bound."""
    checks: list[AxiomCheck] = []
    _check_axiom(lambda *identity: checks.append(_axiom_check(*identity)),
                 axiom, p, degree_bound, n_generators)
    return AxiomReport(axiom, p.value, degree_bound, tuple(checks))


def _axiom_check(form: str, args: tuple, p: int, passed: bool, width: int,
                 lhs: dict[int, int], rhs: dict[int, int]) -> AxiomCheck:
    """The check of one identity that `_check_axiom` hands on, described by
    form.format(*args).  A failing check keeps a right side of its own,
    shared with no other check: rhs may be a row of the Adem harness."""
    return AxiomCheck(form.format(*args), p, passed, width, lhs, lhs if passed else dict(rhs))


def _check_axiom(keep, axiom: str, p: Prime, degree_bound: int, n_generators: int):
    """Hand every identity of the axiom on the test pool of `n_generators`
    to `keep`, in order, computed through one table: keep(form, args, p,
    passed, width, lhs, rhs), where the identity is form.format(*args) and
    the sides are packed in slots of `width` bytes.  A record step that
    keeps the identity builds its check with `_axiom_check`; one that drops
    it formats nothing."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {', '.join(AXIOMS)}")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if n_generators < 1:
        raise ValueError("need at least one generator in the test pool")
    # every class of the pool, and every value the harness computes, has
    # weight at most the bound
    pool, table = _test_classes(p, degree_bound, n_generators), _Table(p.value, degree_bound)
    pv, width = p.value, table.width

    def packed(x: Element) -> dict[int, int]:
        return {_pack(width, e): c for e, c in x.terms.items()}

    def top_of(x: Element) -> int:  # the largest i that keeps P^i(x) within the bound
        return (degree_bound - bidegree_of(x).weight) // (pv - 1)

    def record(form: str, args: tuple, lhs: dict[int, int], rhs: dict[int, int]):
        keep(form, args, pv, lhs == rhs, width, lhs, rhs)

    if axiom == "cartan":
        import random
        rng = random.Random(_POOL_SEED + 1)
        # bound 0 leaves the pool empty, and so no pairs to draw
        pairs = [(*rng.choice(pool), *rng.choice(pool)) for _ in range(12 if pool else 0)]
        for name_x, x, name_y, y in pairs:
            xy = x * y  # nonzero: F_p[c] has no zero divisors
            for n, lhs in _apply_raw(table, range(top_of(xy) + 1), packed(xy)).items():
                parts = [_power_element(j, x, p, table) * _power_element(n - j, y, p, table)
                         for j in range(n + 1)]
                record("P^{}(({})*({})) = sum of products", (n, name_x, name_y), lhs,
                       packed(sum(parts[1:], parts[0])))
        return

    if axiom == "adem":  # the lightest class has the largest top
        identities, reads = _adem_plan(p, max((top_of(x) for _, x in pool), default=0))
    for name, x in pool:
        w, top, terms = bidegree_of(x).weight, top_of(x), packed(x)
        if axiom == "unit":
            record("P^0({}) = {}", (name, name), _apply_raw(table, (0,), terms)[0], terms)
        elif axiom == "pth_power":
            if w <= top:  # w * p is within the bound
                record("P^{}({}) = ({})^{}", (w, name, name, pv),
                       _apply_raw(table, (w,), terms)[w], packed(x ** pv))
        elif axiom == "instability":
            for n, lhs in _apply_raw(table, range(w + 1, top + 1), terms).items():
                record("P^{}({}) = 0 (weight {} < {})", (n, name, w, n), lhs, {})
        else:  # adem: the composites of total at most top, from one pass
            # over the terms of x, then one over those of each P^b(x)
            wanted = {b: cut for b, a_ops in reads.items()
                      if (cut := a_ops[:bisect_right(a_ops, top - b)])}
            powers = _apply_raw(table, wanted, terms)
            rows = {b: _apply_raw(table, a_ops, powers[b]) for b, a_ops in wanted.items()}
            for b, row in enumerate(identities[:top], 1):
                for a, adem_sum in row[:top - b + 1]:
                    if len(adem_sum) == 1 and adem_sum[0][0] == 1:  # one composite, as it is
                        rhs = rows[adem_sum[0][1]][adem_sum[0][2]]
                    else:  # no terms: _combine gives {}
                        rhs = _combine(pv, [(coeff, rows[t][s]) for coeff, t, s in adem_sum])
                    record("P^{}P^{}({}) = Adem sum", (a, b, name), rows[b][a], rhs)


def _adem_terms(p: Prime, a: int, b: int) -> list[tuple[int, int]]:
    """The (coeff, t) of the nonzero terms coeff * P^(a+b-t) P^t of the Adem
    relation P^a P^b = sum_t (-1)^(a+t) C((p-1)(b-t)-1, a-pt) P^(a+b-t) P^t,
    for 0 <= a < pb, with each coeff a residue mod p."""
    pv = p.value
    terms = []
    for t in range(a // pv + 1):
        c = binom_mod_p((pv - 1) * (b - t) - 1, a - pv * t, p)
        if c:
            terms.append((-c % pv if (a + t) % 2 else c, t))
    return terms


def _adem_plan(p: Prime, top: int) -> tuple:
    """The Adem identities P^a P^b with a < pb and a + b <= top, and the
    composites they read: (identities, reads).  identities[b - 1] holds
    (a, terms) for each a of that b, ascending, where terms are the
    (coeff, t, a + b - t) of its Adem sum; `reads` maps each b
    of a P^b(x) read, ascending, to the ascending a of the P^a(P^b(x)) read.
    Every composite an identity reads has the identity's total a + b, so a
    class of a smaller top takes the prefix of each row and of each a it
    reaches, and reads exactly what its own identities read."""
    pv = p.value
    identities = []
    reads: dict[int, set[int]] = {}
    for b in range(1, top + 1):
        row = []
        for a in range(min(pv * b, top - b + 1)):
            terms = tuple((coeff, t, a + b - t) for coeff, t in _adem_terms(p, a, b))
            row.append((a, terms))
            reads.setdefault(b, set()).add(a)
            for _, t, s in terms:
                reads.setdefault(t, set()).add(s)
        identities.append(row)
    return identities, {b: sorted(reads[b]) for b in sorted(reads)}
