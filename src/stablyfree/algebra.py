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
from operator import add
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
    """A canonical monomial over the generators of one presentation.

    `even` holds the exponent of the generator at each position, with no
    trailing zeros (odd positions hold 0); `odd` holds the positions of the
    odd factors in ascending order.  Positions only mean something relative
    to a presentation, which owns the names, the ordering and the sign
    bookkeeping; for `polynomial_algebra`, position k - 1 is c_k.
    """

    even: tuple[int, ...]
    odd: tuple[int, ...]


UNIT_MONOMIAL = Monomial((), ())


def add_exps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise sum of two exponent tuples of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


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

    def named_factors(self, m: Monomial) -> tuple[list[tuple[str, int]], list[str]]:
        """The names behind a positional monomial: (name, exponent) pairs of
        the even part and the names of the odd part, in generator order."""
        gens = self.generators
        return ([(gens[k].name, e) for k, e in enumerate(m.even) if e],
                [gens[k].name for k in m.odd])

    # -- monomial construction and arithmetic ------------------------------

    def make_monomial(self, even: dict[str, int] | None = None,
                      odd: Iterable[str] = ()) -> tuple[int, Monomial | None]:
        """Canonicalize generator data, given by name, into (sign, monomial).

        Returns (1, None) when the monomial dies: a killed generator
        appears, or an odd generator repeats (odd squares vanish).  The
        sign records the parity of the permutation sorting the odd part.
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
                return 1, None
            exps[self.position(name)] = exp
        even_part = [0] * (max(exps) + 1 if exps else 0)
        for k, exp in exps.items():
            even_part[k] = exp

        positions = []
        for name in odd:
            if self.spec(name).parity != "odd":
                raise ValueError(f"{name} is not an odd generator")
            if name in self.killed_generators:
                return 1, None
            positions.append(self.position(name))
        if len(set(positions)) != len(positions):
            return 1, None
        inversions = sum(a > b for i, a in enumerate(positions)
                         for b in positions[i + 1:])
        return (-1 if inversions % 2 else 1,
                Monomial(tuple(even_part), tuple(sorted(positions))))

    def mul_monomials(self, a: Monomial, b: Monomial) -> tuple[int, Monomial | None]:
        """Product of two canonical monomials: (Koszul sign, monomial or None)."""
        if not set(a.odd).isdisjoint(b.odd):
            return 1, None
        sign = -1 if _merge_count_inversions(a.odd, b.odd) % 2 else 1
        return sign, Monomial(add_exps(a.even, b.even), tuple(sorted(a.odd + b.odd)))

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
        # may differ (e.g. a larger polynomial algebra), but positions must
        # name the same generators, so nonzero terms need one to extend the other
        if not isinstance(other, Element):
            return NotImplemented
        if self.algebra.modulus != other.algebra.modulus or self.terms != other.terms:
            return False
        return (not self.terms or self.algebra.extends(other.algebra)
                or other.algebra.extends(self.algebra))

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


def validate_realizability(x: Element) -> bool:
    """Whether every term satisfies the vanishing bound degree <= 2 * weight."""
    return all(x.algebra.mono_bidegree(m).is_realizable for m in x.terms)


@lru_cache(maxsize=64)
def polynomial_algebra(p: Prime, n: int) -> AlgebraPresentation:
    """F_p[c_1, ..., c_n] with c_i of bidegree (2i, i), at position i - 1."""
    gens = tuple(even_gen(f"c{i}", i) for i in range(1, n + 1))
    return AlgebraPresentation(p, gens)


def iter_monomials(alg: AlgebraPresentation, weight: int) -> Iterator[Monomial]:
    """All canonical monomials of the given weight, in a deterministic
    order.  Killed generators are skipped."""
    gens = [(k, g) for k, g in enumerate(alg.generators)
            if g.name not in alg.killed_generators]
    exps = [0] * len(alg.generators)

    def rec(i: int, remaining: int, top: int, odd: list):
        # top: length of the even exponent prefix set so far
        if remaining == 0:
            yield Monomial(tuple(exps[:top]), tuple(odd))
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
        else:
            if w <= remaining:
                odd.append(k)
                yield from rec(i + 1, remaining - w, top, odd)
                odd.pop()

    yield from rec(0, weight, 0, [])
