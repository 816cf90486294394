"""Sparse exact arithmetic in bigraded-commutative algebras over F_p.

An algebra here is a polynomial ring on even generators in which odd
generators enter linearly: a monomial has at most one odd factor, which is
all the primitive classes a_m of the obstructions need, and a product of
two odd classes raises ValueError.  A monomial ideal may kill some
generators outright.  Everything is kept in a canonical sparse form so that
equality is structural.
"""

from __future__ import annotations

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


class Monomial(NamedTuple):
    """A canonical monomial over the generators of one presentation.

    `even` holds the exponent of the generator at each position, with no
    trailing zeros (odd positions hold 0); `odd` holds the position of the
    odd factor, if there is one (a tuple of length at most one).  Positions
    only mean something relative to a presentation, which owns the names
    and the ordering; for `polynomial_algebra`, position k - 1 is c_k.
    """

    even: tuple[int, ...]
    odd: tuple[int, ...]


UNIT_MONOMIAL = Monomial((), ())


def add_exps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise sum of two exponent tuples of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


class Frozen:
    """Base of the value classes that carry private caches, which rules out
    a NamedTuple.  `_fields` names the public fields: they alone are
    compared, hashed and shown.  Attributes are set once, through
    `_set`, in `__init__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # so copy and pickle rebuild through __init__
        return type(self), self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class AlgebraPresentation(Frozen):
    """Generators, coefficient prime, and a set of killed generators.

    Killing a generator imposes the monomial ideal it generates: any
    monomial containing it reduces to zero.
    """

    __slots__ = ("modulus", "generators", "killed_generators", "_pos")
    _fields = ("modulus", "generators", "killed_generators")

    def __init__(self, modulus: Prime, generators: tuple[GeneratorSpec, ...],
                 killed_generators: frozenset[str] = frozenset()):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        unknown = killed_generators - set(names)
        if unknown:
            raise ValueError(f"killed generators not in presentation: {sorted(unknown)}")
        self._set(modulus=modulus, generators=generators,
                  killed_generators=killed_generators,
                  _pos={g.name: i for i, g in enumerate(generators)})

    # -- generator lookups ------------------------------------------------

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def spec(self, name: str) -> GeneratorSpec:
        return self.generators[self.position(name)]

    def named_factors(self, m: Monomial) -> tuple[list[tuple[str, int]], list[str]]:
        """The names behind a positional monomial: (name, exponent) pairs of
        the even part and the names of the odd part, in generator order."""
        gens = self.generators
        return ([(gens[k].name, e) for k, e in enumerate(m.even) if e],
                [gens[k].name for k in m.odd])

    # -- monomial construction and arithmetic ------------------------------

    def make_monomial(self, even: dict[str, int] | None = None,
                      odd: Iterable[str] = ()) -> Monomial | None:
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
        even_part = [0] * (max(exps) + 1 if exps else 0)
        for k, exp in exps.items():
            even_part[k] = exp

        odd = tuple(odd)
        if len(odd) > 1:
            raise ValueError(SECOND_ODD_FACTOR)
        for name in odd:
            if self.spec(name).parity != "odd":
                raise ValueError(f"{name} is not an odd generator")
            if name in self.killed_generators:
                return None
        return Monomial(tuple(even_part), tuple(map(self.position, odd)))

    def mul_monomials(self, a: Monomial, b: Monomial) -> Monomial:
        """Product of two canonical monomials, at most one of them odd."""
        if a.odd and b.odd:
            raise ValueError(SECOND_ODD_FACTOR)
        return Monomial(add_exps(a.even, b.even), a.odd or b.odd)

    def mono_bidegree(self, m: Monomial) -> Bidegree:
        deg = wt = 0
        gens = self.generators
        for k, exp in enumerate(m.even):
            if exp:
                b = gens[k].bidegree
                deg += exp * b.degree
                wt += exp * b.weight
        for k in m.odd:
            b = gens[k].bidegree
            deg += b.degree
            wt += b.weight
        return Bidegree(deg, wt)

    @staticmethod
    def sort_key(m: Monomial):
        return tuple((k, e) for k, e in enumerate(m.even) if e), m.odd

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

    def from_terms(self, terms: dict[Monomial, int]) -> "Element":
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
        return self.from_terms({UNIT_MONOMIAL: c})

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
    """Sparse F_p-linear combination of canonical monomials.

    Treated as immutable; arithmetic returns new elements.  Build through
    an AlgebraPresentation.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraPresentation, terms: dict[Monomial, int]):
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
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = alg.mul_monomials(m1, m2)
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

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        key = self.algebra.sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Deterministic plain-text form, e.g. '2*c1^3*a2 + c4'."""
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            even, odd = self.algebra.named_factors(mono)
            factors = [f"{n}^{e}" if e > 1 else n for n, e in even]
            if odd:
                factors.append("^".join(odd))
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts)

    __str__ = render

    def __repr__(self):
        return f"<Element {self.render()} mod {self.algebra.modulus}>"

    def to_json(self) -> dict:
        terms = []
        for m, c in self.sorted_terms():
            even, odd = self.algebra.named_factors(m)
            terms.append({"coefficient": c, "even": [[n, e] for n, e in even],
                          "odd": odd})
        return {"modulus": self.algebra.modulus.value, "terms": terms}


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


def iter_monomials(alg: AlgebraPresentation, weight: int) -> Iterator[Monomial]:
    """All canonical monomials of the given weight, in a deterministic
    order.  Killed generators are skipped; at most one factor is odd."""
    gens = [(k, g) for k, g in enumerate(alg.generators)
            if g.name not in alg.killed_generators]
    exps = [0] * len(alg.generators)

    def rec(i: int, remaining: int, top: int, odd: tuple):
        # top: length of the even exponent prefix set so far
        if remaining == 0:
            yield Monomial(tuple(exps[:top]), odd)
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
            yield from rec(i + 1, remaining - w, top, (k,))

    yield from rec(0, weight, 0, ())
