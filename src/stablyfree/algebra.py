"""Sparse exact arithmetic in bigraded-commutative algebras over F_p.

An algebra here is a polynomial ring on even generators tensored with an
exterior algebra on odd generators, optionally cut down by a monomial ideal
that kills some generators outright.  Odd generators square to zero and
anticommute; even generators are central.  Everything is kept in a canonical
sparse form so that equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .modp import Prime

INHOMOGENEOUS = "inhomogeneous"


@dataclass(frozen=True, slots=True)
class Bidegree:
    """Cohomological degree and weight of a class."""

    degree: int
    weight: int

    def __post_init__(self):
        if self.degree < 0 or self.weight < 0:
            raise ValueError("degree and weight must be nonnegative")

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.degree + other.degree, self.weight + other.weight)

    @property
    def is_realizable(self) -> bool:
        """Whether a class of this bidegree can live on a smooth scheme
        (degree at most twice the weight)."""
        return self.degree <= 2 * self.weight

    def __str__(self) -> str:
        return f"({self.degree}, {self.weight})"


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """A named generator with parity and bidegree.

    Even generators sit in bidegree (2w, w); odd ones in (2w - 1, w).
    """

    name: str
    parity: str  # "even" | "odd"
    bidegree: Bidegree

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        d, w = self.bidegree.degree, self.bidegree.weight
        if self.parity == "even" and d != 2 * w:
            raise ValueError(f"even generator {self.name}: degree must equal 2*weight")
        if self.parity == "odd" and d != 2 * w - 1:
            raise ValueError(f"odd generator {self.name}: degree must equal 2*weight - 1")


def even_gen(name: str, weight: int) -> GeneratorSpec:
    return GeneratorSpec(name, "even", Bidegree(2 * weight, weight))


def odd_gen(name: str, weight: int) -> GeneratorSpec:
    return GeneratorSpec(name, "odd", Bidegree(2 * weight - 1, weight))


@dataclass(frozen=True, slots=True)
class Monomial:
    """A canonical monomial: even exponents plus an ordered odd support.

    `even` holds (name, exponent) pairs in generator order with exponents
    >= 1; `odd` holds odd generator names in ascending generator order.
    Instances are only built through an AlgebraPresentation, which owns the
    ordering and the sign bookkeeping.
    """

    even: tuple[tuple[str, int], ...]
    odd: tuple[str, ...]

    @property
    def is_unit(self) -> bool:
        return not self.even and not self.odd


UNIT_MONOMIAL = Monomial((), ())


def _merge_count_inversions(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Number of transpositions needed to interleave two sorted position
    tuples into one sorted tuple (assumes no shared positions)."""
    inversions = 0
    j = 0
    for pos in right:
        while j < len(left) and left[j] < pos:
            j += 1
        inversions += len(left) - j
    return inversions


@dataclass(frozen=True)
class AlgebraPresentation:
    """Generators, coefficient prime, and a set of killed generators.

    Killing a generator imposes the monomial ideal it generates: any
    monomial containing it reduces to zero.
    """

    modulus: Prime
    generators: tuple[GeneratorSpec, ...]
    killed_generators: frozenset[str] = frozenset()
    _pos: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        unknown = self.killed_generators - set(names)
        if unknown:
            raise ValueError(f"killed generators not in presentation: {sorted(unknown)}")
        object.__setattr__(self, "_pos", {g.name: i for i, g in enumerate(self.generators)})

    def __hash__(self):
        return hash((self.modulus, self.generators, self.killed_generators))

    # -- generator lookups ------------------------------------------------

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def spec(self, name: str) -> GeneratorSpec:
        return self.generators[self.position(name)]

    def even_names(self) -> list[str]:
        return [g.name for g in self.generators if g.parity == "even"]

    def odd_names(self) -> list[str]:
        return [g.name for g in self.generators if g.parity == "odd"]

    # -- monomial construction and arithmetic ------------------------------

    def make_monomial(self, even: dict[str, int] | None = None,
                      odd: Iterable[str] = ()) -> tuple[int, Monomial | None]:
        """Canonicalize generator data into (sign, monomial).

        Returns (1, None) when the monomial dies: a killed generator
        appears, or an odd generator repeats (odd squares vanish).  The
        sign records the parity of the permutation sorting the odd part.
        """
        even = even or {}
        even_part = []
        for name, exp in even.items():
            if exp < 0:
                raise ValueError(f"negative exponent for {name}")
            if exp == 0:
                continue
            if self.spec(name).parity != "even":
                raise ValueError(f"{name} is not an even generator")
            if name in self.killed_generators:
                return 1, None
            even_part.append((self.position(name), name, exp))
        even_part.sort()

        odd_list = list(odd)
        for name in odd_list:
            if self.spec(name).parity != "odd":
                raise ValueError(f"{name} is not an odd generator")
            if name in self.killed_generators:
                return 1, None
        positions = [self.position(name) for name in odd_list]
        if len(set(positions)) != len(positions):
            return 1, None
        # insertion sort, counting transpositions for the Koszul sign
        sign = 1
        order = list(range(len(positions)))
        for i in range(1, len(order)):
            j = i
            while j > 0 and positions[order[j - 1]] > positions[order[j]]:
                order[j - 1], order[j] = order[j], order[j - 1]
                sign = -sign
                j -= 1
        odd_sorted = tuple(odd_list[k] for k in order)
        return sign, Monomial(tuple((n, e) for _, n, e in even_part), odd_sorted)

    def mul_monomials(self, a: Monomial, b: Monomial) -> tuple[int, Monomial | None]:
        """Product of two canonical monomials: (Koszul sign, monomial or None)."""
        merged: dict[str, int] = dict(a.even)
        for name, exp in b.even:
            merged[name] = merged.get(name, 0) + exp
        left = tuple(self.position(n) for n in a.odd)
        right = tuple(self.position(n) for n in b.odd)
        if set(left) & set(right):
            return 1, None
        inversions = _merge_count_inversions(left, right)
        sign = -1 if inversions % 2 else 1
        even_part = tuple(sorted(((n, e) for n, e in merged.items()),
                                 key=lambda t: self.position(t[0])))
        odd_part = tuple(sorted(a.odd + b.odd, key=self.position))
        return sign, Monomial(even_part, odd_part)

    def mono_bidegree(self, m: Monomial) -> Bidegree:
        deg = wt = 0
        for name, exp in m.even:
            b = self.spec(name).bidegree
            deg += exp * b.degree
            wt += exp * b.weight
        for name in m.odd:
            b = self.spec(name).bidegree
            deg += b.degree
            wt += b.weight
        return Bidegree(deg, wt)

    def sort_key(self, m: Monomial):
        return (tuple((self.position(n), e) for n, e in m.even),
                tuple(self.position(n) for n in m.odd))

    # -- element construction ----------------------------------------------

    def extends(self, other: "AlgebraPresentation") -> bool:
        """Whether `other` is a sub-presentation: same modulus, its
        generators appearing here identically and in the same relative
        order, with matching killed status.  Elements of a sub-presentation
        embed canonically, so arithmetic may mix the two."""
        if self is other or self == other:
            return True
        if self.modulus != other.modulus:
            return False
        mine = {g.name: g for g in self.generators}
        for g in other.generators:
            if mine.get(g.name) != g:
                return False
        common = tuple(g for g in self.generators if g.name in other._pos)
        if common != other.generators:
            return False
        return all((g.name in self.killed_generators)
                   == (g.name in other.killed_generators)
                   for g in other.generators)

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
        g = self.spec(name)
        if g.parity == "even":
            sign, mono = self.make_monomial({name: 1})
        else:
            sign, mono = self.make_monomial(odd=[name])
        if mono is None:
            return self.zero()
        return self.from_terms({mono: sign})

    def monomial_element(self, even: dict[str, int] | None = None,
                         odd: Iterable[str] = (), coeff: int = 1) -> "Element":
        sign, mono = self.make_monomial(even, odd)
        if mono is None:
            return self.zero()
        return self.from_terms({mono: sign * coeff})


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

    def __neg__(self) -> "Element":
        return self.algebra.from_terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other) -> "Element":
        if isinstance(other, int):
            return self.algebra.from_terms({m: c * other for m, c in self.terms.items()})
        alg = self._merged_algebra(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mono = alg.mul_monomials(m1, m2)
                if mono is None:
                    continue
                out[mono] = out.get(mono, 0) + sign * c1 * c2
        return alg.from_terms(out)

    def __rmul__(self, other) -> "Element":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        # structural equality of canonical forms: the ambient presentation
        # may differ (e.g. a larger polynomial algebra), the terms may not
        if not isinstance(other, Element):
            return NotImplemented
        return (self.algebra.modulus == other.algebra.modulus
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra.modulus, frozenset(self.terms.items())))

    # -- inspection ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        key = self.algebra.sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Deterministic plain-text form, e.g. '2*c1^3*a2^a5 + c4'."""
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = [f"{n}^{e}" if e > 1 else n for n, e in mono.even]
            if mono.odd:
                factors.append("^".join(mono.odd))
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
        return {
            "modulus": self.algebra.modulus.value,
            "terms": [
                {"coefficient": c,
                 "even": [[n, e] for n, e in m.even],
                 "odd": list(m.odd)}
                for m, c in self.sorted_terms()
            ],
        }


def multiply(x: Element, y: Element, presentation: AlgebraPresentation) -> Element:
    """Graded-commutative product of x and y inside the given presentation."""
    if not (presentation.extends(x.algebra) and presentation.extends(y.algebra)):
        if x.algebra.modulus != presentation.modulus or y.algebra.modulus != presentation.modulus:
            raise ValueError("modulus mismatch")
        raise ValueError("elements do not belong to this presentation")
    return presentation.from_terms(dict(x.terms)) * presentation.from_terms(dict(y.terms))


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


def validate_realizability(x: Element) -> bool:
    """Whether every term satisfies the vanishing bound degree <= 2 * weight."""
    return all(x.algebra.mono_bidegree(m).is_realizable for m in x.terms)


@lru_cache(maxsize=64)
def polynomial_algebra(p: Prime, n: int, prefix: str = "c") -> AlgebraPresentation:
    """F_p[c_1, ..., c_n] with c_i of bidegree (2i, i)."""
    gens = tuple(even_gen(f"{prefix}{i}", i) for i in range(1, n + 1))
    return AlgebraPresentation(p, gens)


def iter_monomials(alg: AlgebraPresentation, weight: int) -> Iterator[Monomial]:
    """All canonical monomials of the given weight, in a deterministic
    order.  Killed generators are skipped."""
    gens = [g for g in alg.generators if g.name not in alg.killed_generators]

    def rec(i: int, remaining: int, even: list, odd: list):
        if remaining == 0:
            yield Monomial(tuple(even), tuple(odd))
            return
        if i == len(gens):
            return
        g = gens[i]
        w = g.bidegree.weight
        yield from rec(i + 1, remaining, even, odd)
        if g.parity == "even":
            e = 1
            while e * w <= remaining:
                even.append((g.name, e))
                yield from rec(i + 1, remaining - e * w, even, odd)
                even.pop()
                e += 1
        else:
            if w <= remaining:
                odd.append(g.name)
                yield from rec(i + 1, remaining - w, even, odd)
                odd.pop()

    yield from rec(0, weight, [], [])
