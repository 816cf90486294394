"""Sparse exact arithmetic in bigraded-commutative algebras over F_p.

An algebra here is a polynomial ring on even generators in which odd
generators enter linearly: a monomial has at most one odd factor, which is
all the primitive classes a_m of the obstructions need, and a product of
two odd classes raises ValueError.  A monomial ideal may kill some
generators outright.  Everything is kept in a canonical sparse form so that
equality is structural.

A monomial is its exponent tuple over the generator positions of one
presentation, with no trailing zeros; for `polynomial_algebra`, entry k - 1
is the exponent of c_k.  An odd generator's entry is 0 or 1, and at most one
odd entry is nonzero.  Positions only mean something relative to a
presentation, which owns the names, the ordering and the parities.

The Chern path also keeps a monomial of c_1, c_2, ... packed into one int,
in slots of `width` whole bytes: the exponent of c_k sits in slot k - 1,
little-endian, so while no exponent outgrows its slot the product of two
monomials is the sum of their keys.  `pack_exps`, `unpack_exps` and
`pack_power` own that layout.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .modp import Prime

INHOMOGENEOUS = "inhomogeneous"
SECOND_ODD_FACTOR = "odd classes enter linearly: a monomial has at most one odd factor"


class _Bidegree(NamedTuple):
    degree: int
    weight: int


class Bidegree(_Bidegree):
    """Cohomological degree and weight of a class."""

    __slots__ = ()

    def __new__(cls, degree: int, weight: int):
        if degree < 0 or weight < 0:
            raise ValueError("degree and weight must be nonnegative")
        return super().__new__(cls, degree, weight)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class _GeneratorSpec(NamedTuple):
    name: str
    parity: str  # "even" | "odd"
    bidegree: Bidegree


class GeneratorSpec(_GeneratorSpec):
    """A named generator with parity and bidegree.

    Even generators sit in bidegree (2w, w); odd ones in (2w - 1, w).
    """

    __slots__ = ()

    def __new__(cls, name: str, parity: str, bidegree: Bidegree):
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        d, w = bidegree.degree, bidegree.weight
        if parity == "even" and d != 2 * w:
            raise ValueError(f"even generator {name}: degree must equal 2*weight")
        if parity == "odd" and d != 2 * w - 1:
            raise ValueError(f"odd generator {name}: degree must equal 2*weight - 1")
        return super().__new__(cls, name, parity, bidegree)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def even_gen(name: str, weight: int) -> GeneratorSpec:
    return GeneratorSpec(name, "even", Bidegree(2 * weight, weight))


def odd_gen(name: str, weight: int) -> GeneratorSpec:
    return GeneratorSpec(name, "odd", Bidegree(2 * weight - 1, weight))


Exps = tuple[int, ...]  # a monomial


def add_exps(a: Exps, b: Exps) -> Exps:
    """Entrywise sum of two exponent tuples of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


# slots of 2, 4 and 8 bytes go through one struct call, little-endian
_SLOT_CODES = {2: "H", 4: "I", 8: "Q"}


def pack_exps(width: int, exps: Exps) -> int:
    """The packed key of a monomial, in slots of `width` bytes (trailing
    zeros allowed)."""
    if width == 1:
        return int.from_bytes(bytes(exps), "little")
    code = _SLOT_CODES.get(width)
    if code:
        return int.from_bytes(struct.pack(f"<{len(exps)}{code}", *exps), "little")
    return sum(pack_power(width, k, e) for k, e in enumerate(exps, 1) if e)


def unpack_exps(width: int, key: int) -> Exps:
    """The exponent tuple of a packed key, without trailing zeros."""
    data = key.to_bytes(-(-key.bit_length() // (8 * width)) * width, "little")
    if width == 1:
        return tuple(data)
    code = _SLOT_CODES.get(width)
    if code:
        return struct.unpack(f"<{len(data) // width}{code}", data)
    return tuple(int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width))


def pack_power(width: int, k: int, e: int = 1) -> int:
    """The packed key of c_k^e, in slots of `width` bytes: e in slot k - 1.
    The keys below pack_power(width, k) are those of the monomials in
    c_1 .. c_(k-1)."""
    return e << 8 * width * (k - 1)


class AlgebraPresentation:
    """Generators, coefficient prime, and a set of killed generators.

    Killing a generator imposes the monomial ideal it generates: any
    monomial containing it reduces to zero.

    The presentation carries private lookups, which rules out a NamedTuple.
    `_fields` names the public fields: they alone are compared, hashed and
    shown.  Every attribute is set once, in `__init__`.
    """

    __slots__ = ("modulus", "generators", "killed_generators", "_names", "_pos", "_odd")
    _fields = ("modulus", "generators", "killed_generators")

    def __init__(self, modulus: Prime, generators: tuple[GeneratorSpec, ...],
                 killed_generators: frozenset[str] = frozenset()):
        names = tuple(g.name for g in generators)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        unknown = killed_generators - set(names)
        if unknown:
            raise ValueError(f"killed generators not in presentation: {sorted(unknown)}")
        values = (modulus, generators, killed_generators, names,
                  {name: i for i, name in enumerate(names)},
                  tuple(k for k, g in enumerate(generators) if g.parity == "odd"))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.modulus, self.generators, self.killed_generators

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # so copy and pickle rebuild through __init__
        return AlgebraPresentation, self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"AlgebraPresentation({fields})"

    # -- generator lookups ------------------------------------------------

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def spec(self, name: str) -> GeneratorSpec:
        return self.generators[self.position(name)]

    def odd_position(self, m: Exps) -> int | None:
        """Position of the odd factor of m, or None when it has none."""
        return next((k for k in self._odd if k < len(m) and m[k]), None)

    def has_odd_factor(self, monomials: Iterable[Exps]) -> bool:
        """Whether some monomial among `monomials` has an odd factor."""
        return bool(self._odd) and any(self.odd_position(m) is not None
                                       for m in monomials)

    def sort_key(self, m: Exps) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """The (position, exponent) pairs of the even factors of m, then the
        position of its odd factor, if any: the order of rendered terms."""
        odd = self.odd_position(m) if self._odd else None
        if odd is None:
            return tuple((k, e) for k, e in enumerate(m) if e), ()
        return tuple((k, e) for k, e in enumerate(m) if e and k != odd), (odd,)

    def named_factors(self, m: Exps) -> tuple[list[tuple[str, int]], list[str]]:
        """The names behind a positional monomial: (name, exponent) pairs of
        the even factors in generator order, and the name of the odd factor
        if there is one."""
        gens = self.generators
        even, odd = self.sort_key(m)
        return [(gens[k].name, e) for k, e in even], [gens[k].name for k in odd]

    # -- monomial construction and arithmetic ------------------------------

    def make_monomial(self, even: dict[str, int] | None = None,
                      odd: Iterable[str] = ()) -> Exps | None:
        """Canonicalize generator data, given by name, into a monomial.

        Returns None when a killed generator appears; a second odd name
        raises ValueError.
        """
        exps: dict[int, int] = {}
        for name, exp in (even or {}).items():
            if exp < 0:
                raise ValueError(f"negative exponent for {name}")
            if exp == 0:
                continue
            if self.spec(name).parity != "even":
                raise ValueError(f"{name} is not an even generator")
            if name in self.killed_generators:
                return None
            exps[self.position(name)] = exp
        odd = tuple(odd)
        if len(odd) > 1:
            raise ValueError(SECOND_ODD_FACTOR)
        for name in odd:
            if self.spec(name).parity != "odd":
                raise ValueError(f"{name} is not an odd generator")
            if name in self.killed_generators:
                return None
            exps[self.position(name)] = 1
        out = [0] * (max(exps) + 1 if exps else 0)
        for k, exp in exps.items():
            out[k] = exp
        return tuple(out)

    def mono_bidegree(self, m: Exps) -> Bidegree:
        deg = wt = 0
        for g, exp in zip(self.generators, m):
            if exp:
                deg += exp * g.bidegree.degree
                wt += exp * g.bidegree.weight
        return Bidegree(deg, wt)

    # -- element construction ----------------------------------------------

    def extends(self, other: "AlgebraPresentation") -> bool:
        """Whether `other` is a prefix of this presentation: same modulus and
        killed set, and its generators are the leading ones here.  Positions
        then mean the same in both, so arithmetic may mix the two."""
        if self is other:
            return True
        return (self.modulus == other.modulus
                and self.killed_generators == other.killed_generators
                and self.generators[:len(other.generators)] == other.generators)

    def from_terms(self, terms: dict[Exps, int]) -> "Element":
        p = self.modulus.value
        clean = {}
        for mono, coeff in terms.items():
            c = coeff % p
            if c:
                clean[mono] = c
        return Element(self, clean)

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.scalar(1)

    def scalar(self, c: int) -> "Element":
        return self.from_terms({(): c})

    def gen(self, name: str) -> "Element":
        if self.spec(name).parity == "even":
            mono = self.make_monomial({name: 1})
        else:
            mono = self.make_monomial(odd=[name])
        return self.zero() if mono is None else self.from_terms({mono: 1})

    def monomial_element(self, even: dict[str, int] | None = None,
                         odd: Iterable[str] = (), coeff: int = 1) -> "Element":
        mono = self.make_monomial(even, odd)
        if mono is None:
            return self.zero()
        return self.from_terms({mono: coeff})


class Element:
    """Sparse F_p-linear combination of canonical monomials, as a dict
    {exps: residue mod p} without zero residues.

    Treated as immutable; arithmetic returns new elements.  Build through
    an AlgebraPresentation.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraPresentation, terms: dict[Exps, int]):
        self.algebra = algebra
        self.terms = terms

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -----------------------------------------------------------

    def _merged_algebra(self, other: "Element") -> AlgebraPresentation:
        if self.algebra.extends(other.algebra):
            return self.algebra
        if other.algebra.extends(self.algebra):
            return other.algebra
        if self.algebra.modulus != other.algebra.modulus:
            raise ValueError("modulus mismatch")
        raise ValueError("elements live in incompatible presentations")

    def __add__(self, other: "Element") -> "Element":
        alg = self._merged_algebra(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return alg.from_terms(out)

    def __mul__(self, other) -> "Element":
        if isinstance(other, int):
            return self.algebra.from_terms({m: c * other for m, c in self.terms.items()})
        alg = self._merged_algebra(other)
        if alg.has_odd_factor(self.terms) and alg.has_odd_factor(other.terms):
            raise ValueError(SECOND_ODD_FACTOR)
        out: dict[Exps, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = add_exps(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return alg.from_terms(out)

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        # structural equality of canonical forms: the ambient presentation
        # may differ (e.g. a larger polynomial algebra), but positions must
        # name the same generators, so nonzero terms need one to extend the other
        if not isinstance(other, Element):
            return NotImplemented
        if self.algebra.modulus != other.algebra.modulus or self.terms != other.terms:
            return False
        return (not self.terms or self.algebra.extends(other.algebra)
                or other.algebra.extends(self.algebra))

    # -- inspection ---------------------------------------------------------

    def named_terms(self) -> Iterator[tuple[list[tuple[str, int]], list[str], int]]:
        """(even (name, exponent) pairs, odd names, coefficient) of each
        term, in the presentation's sort order."""
        gens, key = self.algebra.generators, self.algebra.sort_key
        # keys are distinct, so the coefficients are never compared
        for (even, odd), c in sorted((key(m), c) for m, c in self.terms.items()):
            yield [(gens[k].name, e) for k, e in even], [gens[k].name for k in odd], c

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Deterministic plain-text form, e.g. '2*c1^3*a2 + c4'."""
        if self.is_zero():
            return "0"
        alg = self.algebra
        if alg._odd:
            return " + ".join(format_term(c, even, odd)
                              for even, odd, c in self.named_terms())
        # no odd generators: format_term's form, named by position
        names, terms = alg._names, self.terms
        out = []
        for m in sorted(terms, key=_even_order):
            c = terms[m]
            body = "*".join([names[k] if e == 1 else f"{names[k]}^{e}"
                             for k, e in enumerate(m) if e])
            out.append(str(c) if not body else body if c == 1 else f"{c}*{body}")
        return " + ".join(out)

    __str__ = render

    def __repr__(self):
        return f"<Element {self.render()} mod {self.algebra.modulus}>"

    def to_json(self) -> dict:
        terms = [{"coefficient": c, "even": [[n, e] for n, e in even], "odd": odd}
                 for even, odd, c in self.named_terms()]
        return {"modulus": self.algebra.modulus.value, "terms": terms}


_NO_FACTOR = float("inf")  # above every exponent, int or not


def _even_order(m: Exps) -> list:
    """A key that sorts monomials without odd factors as sort_key does.

    sort_key compares the (position, exponent) pairs of the factors.  Where
    two monomials first differ, a zero exponent means a factor at a later
    position, as monomials have no trailing zeros, and a monomial that ends
    there comes first: so the tuples compare alike once each zero reads as
    larger than any exponent."""
    return [e or _NO_FACTOR for e in m]


def format_term(coeff: int, powers: list[tuple[str, int]], last: list[str]) -> str:
    """One rendered term: the factors name^exp, then the names in `last`
    joined by '^', led by the coefficient unless it is 1."""
    factors = [f"{n}^{e}" if e > 1 else n for n, e in powers]
    if last:
        factors.append("^".join(last))
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    return body if coeff == 1 else f"{coeff}*{body}"


def bidegree_of(x: Element):
    """Common bidegree of all terms of x.

    Returns None for the zero element (homogeneous of every bidegree) and
    the INHOMOGENEOUS marker when terms disagree.
    """
    found: Bidegree | None = None
    for mono in x.terms:
        bd = x.algebra.mono_bidegree(mono)
        if found is None:
            found = bd
        elif bd != found:
            return INHOMOGENEOUS
    return found


@lru_cache(maxsize=64)
def polynomial_algebra(p: Prime, n: int) -> AlgebraPresentation:
    """F_p[c_1, ..., c_n] with c_i of bidegree (2i, i), at position i - 1."""
    gens = tuple(even_gen(f"c{i}", i) for i in range(1, n + 1))
    return AlgebraPresentation(p, gens)


def iter_monomials(alg: AlgebraPresentation, weight: int) -> Iterator[Exps]:
    """All canonical monomials of the given weight, in a deterministic
    order.  Killed generators are skipped; at most one factor is odd."""
    gens = [(k, g) for k, g in enumerate(alg.generators)
            if g.name not in alg.killed_generators]
    exps = [0] * len(alg.generators)

    def rec(i: int, remaining: int, top: int, odd: bool):
        # top: length of the exponent prefix set so far; odd: whether it
        # has an odd factor
        if remaining == 0:
            yield tuple(exps[:top])
            return
        if i == len(gens):
            return
        k, g = gens[i]
        w = g.bidegree.weight
        yield from rec(i + 1, remaining, top, odd)
        if g.parity == "even":
            e = 1
            while e * w <= remaining:
                exps[k] = e
                yield from rec(i + 1, remaining - e * w, k + 1, odd)
                e += 1
            exps[k] = 0
        elif w <= remaining and not odd:
            exps[k] = 1
            yield from rec(i + 1, remaining - w, k + 1, True)
            exps[k] = 0

    yield from rec(0, weight, 0, False)
