"""Koszul-complex homology over polynomial Chow rings.

For a module that is the quotient of F_p[c_1, ..., c_n] by a set of
killed generators, the homology of M tensor the exterior algebra on
symbols dc_i computes Tor over the polynomial ring.  These Tor groups
form the starting page of the spectral sequence converging to the
cohomology of the corresponding homogeneous space; the odd-degree linear
part read off at homological index one is the datum the section
obstructions consume.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from .algebra import (AlgebraPresentation, Exps, GeneratorSpec, add_exps,
                      format_term, iter_monomials, odd_gen)
from .linalg import Vector, quotient_basis, rank_and_kernel
from .modp import Prime
from .models import GroupModel

ChainBasisElement = tuple[Exps, tuple[int, ...]]  # module monomial, dc indices


class KoszulComplex(NamedTuple):
    """Chain data for Tor^{F_p[base]}(F_p, module).

    The base-field factor is collapsed to F_p in bidegree (0, 0): the
    obstruction arguments live entirely in that reduced summand.
    """

    modulus: Prime
    base: tuple[GeneratorSpec, ...]
    module: AlgebraPresentation


def build_koszul(base: list[GeneratorSpec], module: AlgebraPresentation) -> KoszulComplex:
    """Assemble the complex, checking the module is a quotient of F_p[base].

    Base generators follow the Chern-class convention: cJ of weight J,
    so that the wedge symbol dcJ carries internal bidegree (2J, J).
    """
    if tuple(module.generators) != tuple(base):
        raise ValueError("module generators must match the Koszul base")
    for g in base:
        if g.parity != "even":
            raise ValueError("Koszul base generators must be even")
        if g.name != f"c{g.bidegree.weight}":
            raise ValueError(f"base generator {g.name!r} must be named by its "
                             f"weight (c{g.bidegree.weight})")
    return KoszulComplex(module.modulus, tuple(base), module)


class TorEntry(NamedTuple):
    dimension: int
    basis: tuple[str, ...]


class TorTable(NamedTuple):
    """Bigraded Tor dimensions with named coset-representative bases.

    Keys are (homological index i, internal degree q, weight j); here all
    internal classes sit on the Chow diagonal, so q = 2j throughout.
    Tables are cached and shared, so both mappings are read-only.
    """

    modulus: int
    degree_bound: int
    entries: Mapping[tuple[int, int, int], TorEntry] = MappingProxyType({})
    chain_dims: Mapping[tuple[int, int, int], int] = MappingProxyType({})

    def rows(self) -> list[tuple[tuple[int, int, int], TorEntry]]:
        return sorted(self.entries.items(),
                      key=lambda kv: (kv[0][2], kv[0][1], kv[0][0]))

    def dimension(self, i: int, q: int, j: int) -> int:
        entry = self.entries.get((i, q, j))
        return entry.dimension if entry else 0

    def total_dimension(self) -> int:
        return sum(e.dimension for e in self.entries.values())

    def euler_consistent(self) -> bool:
        """Alternating homology sums must match alternating chain sums in
        every multidegree."""
        sums: dict[tuple[int, int], int] = {}  # (q, j) -> homology minus chains
        for (i, q, j), e in self.entries.items():
            sums[q, j] = sums.get((q, j), 0) + (-1) ** i * e.dimension
        for (i, q, j), d in self.chain_dims.items():
            sums[q, j] = sums.get((q, j), 0) - (-1) ** i * d
        return not any(sums.values())

    def index_one_classes(self) -> list[tuple[int, str]]:
        """(weight, representative) pairs at homological index one."""
        out = []
        for (i, _, j), entry in self.rows():
            if i == 1:
                out.extend((j, name) for name in entry.basis)
        return out

    def render_text(self) -> str:
        lines = [f"Tor table mod {self.modulus} (internal degree <= {self.degree_bound})",
                 "  i   q   j  dim  basis"]
        for (i, q, j), entry in self.rows():
            basis = ", ".join(entry.basis)
            lines.append(f"{i:3d} {q:3d} {j:3d} {entry.dimension:4d}  {basis}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "degree_bound": self.degree_bound,
            "entries": [
                {"i": i, "q": q, "j": j,
                 "dimension": e.dimension, "basis": list(e.basis)}
                for (i, q, j), e in self.rows()
            ],
        }


def _render_chain_vector(vec: Vector, basis: list[ChainBasisElement],
                         module: AlgebraPresentation) -> str:
    parts = []
    for row in sorted(vec):
        mono, subset = basis[row]
        even, _ = module.named_factors(mono)  # the module has no odd generators
        parts.append(format_term(vec[row], even, [f"dc{i}" for i in subset]))
    return " + ".join(parts)


def koszul_homology(cx: KoszulComplex, degree_bound: int) -> TorTable:
    """Homology of the complex in every multidegree up to the bound.

    Matrices are eliminated exactly over F_p with deterministic pivoting;
    d^2 = 0 is asserted on every multidegree processed.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    p, module = cx.modulus.value, cx.module
    indices = tuple(g.bidegree.weight for g in cx.base)
    # the exponent tuple of each surviving base generator, by weight
    units = {g.bidegree.weight: (0,) * k + (1,)
             for k, g in enumerate(cx.base) if g.name not in module.killed_generators}
    monomials: dict[int, list[Exps]] = {}  # weight -> its module monomials, sorted

    def chain_basis(m: int, weight: int) -> list[ChainBasisElement]:
        """Basis of the homological-index-m chains of the given weight:
        module monomials tensor m-fold wedges of dc symbols, ordered by
        wedge and then by module monomial."""
        out: list[ChainBasisElement] = []
        for subset in sorted(combinations(indices, m)):
            rest = weight - sum(subset)
            if rest >= 0:
                if rest not in monomials:
                    monomials[rest] = sorted(iter_monomials(module, rest),
                                             key=module.sort_key)
                out.extend((mono, subset) for mono in monomials[rest])
        return out

    def differential_columns(codomain_index: dict[ChainBasisElement, int],
                             domain: list[ChainBasisElement]) -> list[Vector]:
        """Columns of d: C_m -> C_{m-1} on the basis `domain` of C_m."""
        cols: list[Vector] = []
        for mono, subset in domain:
            col: Vector = {}
            for s, idx in enumerate(subset):
                unit = units.get(idx)
                if unit is None:  # killed: the module term vanishes
                    continue
                target = add_exps(mono, unit), subset[:s] + subset[s + 1:]
                sign = 1 if s % 2 == 0 else -1
                row = codomain_index[target]
                col[row] = (col.get(row, 0) + sign) % p
            cols.append({r: c for r, c in col.items() if c})
        return cols

    entries: dict[tuple[int, int, int], TorEntry] = {}
    chain_dims: dict[tuple[int, int, int], int] = {}
    max_index = len(indices)
    for weight in range(degree_bound // 2 + 1):
        bases = {m: chain_basis(m, weight) for m in range(max_index + 2)}
        indexes = {m: {b: i for i, b in enumerate(basis)}
                   for m, basis in bases.items()}
        cols = {}
        for m in range(1, max_index + 2):
            cols[m] = differential_columns(indexes[m - 1], bases[m])
        # d^2 = 0 in this multidegree
        for m in range(2, max_index + 2):
            for col, (mono, subset) in zip(cols[m], bases[m]):
                composite: Vector = {}
                for row, coeff in col.items():
                    for row2, coeff2 in cols[m - 1][row].items():
                        composite[row2] = (composite.get(row2, 0) + coeff * coeff2) % p
                if any(v % p for v in composite.values()):
                    raise AssertionError(
                        f"d^2 != 0 at index {m}, weight {weight}, on {mono, subset}")
        for m in range(max_index + 1):
            n_chains = len(bases[m])
            if n_chains:
                chain_dims[(m, 2 * weight, weight)] = n_chains
            if n_chains == 0:
                continue
            if m == 0:
                kernel: list[Vector] = [{i: 1} for i in range(n_chains)]
            else:
                _, kernel = rank_and_kernel(cols[m], p)
            image_vectors = [col for col in cols[m + 1] if col]
            reps = quotient_basis(kernel, image_vectors, p)
            if not reps:
                continue
            names = tuple(_render_chain_vector(v, bases[m], module) for v in reps)
            entries[(m, 2 * weight, weight)] = TorEntry(len(reps), names)
    return TorTable(p, degree_bound, MappingProxyType(entries),
                    MappingProxyType(chain_dims))


def homogeneous_space_complex(family: str, n: int, r: int, p: Prime) -> KoszulComplex:
    """The complex computing Tor for the quotient of the family-n group by
    the rank-r subgroup of the same family: base generators from CH*(BG)/p,
    module the image of CH*(BH)/p (the generators above rank r killed)."""
    model = GroupModel(family, n)
    model.check_prime(p)
    if r < 0 or r > n:
        raise ValueError(f"subgroup rank r={r} out of range for n={n}")
    base = model.even_generators()
    killed = frozenset(g.name for g in base[r:])
    module = AlgebraPresentation(p, tuple(base), killed)
    return build_koszul(base, module)


@lru_cache(maxsize=64)
def _tor_table_cached(family: str, n: int, r: int, p_value: int,
                      degree_bound: int) -> TorTable:
    cx = homogeneous_space_complex(family, n, r, Prime(p_value))
    table = koszul_homology(cx, degree_bound)
    if not table.euler_consistent():
        raise AssertionError("Euler characteristic check failed")
    return table


def homogeneous_space_tor(family: str, n: int, r: int | None = None,
                          p: Prime | None = None,
                          degree_bound: int | None = None) -> TorTable:
    """Full Tor table for the homogeneous space, up to the internal degree
    bound (default: twice the top generator index).  The subgroup rank r
    defaults to 0 for GL and to corank one, n - 1, for Sp / SO, which at
    n = 0 must be given instead."""
    if p is None:
        raise ValueError("a coefficient prime is required")
    model = GroupModel(family, n)
    if r is None:
        if family != "GL" and not n:
            model.check_prime(p)  # a torsion prime is refused first
            raise ValueError(f"{family} at n=0 has no corank-one subgroup; give r")
        r = 0 if family == "GL" else n - 1
    indices = model.generator_indices()
    if degree_bound is None:
        degree_bound = 2 * max(indices, default=0)
    return _tor_table_cached(family, n, r, p.value, degree_bound)


def homogeneous_space_odd_basis(family: str, n: int, r: int | None = None,
                                p: Prime | None = None) -> list[GeneratorSpec]:
    """Odd-degree linear cohomology basis of the homogeneous space.

    GL: the quotient GL_n / GL_r, any 0 <= r <= n.  Sp / SO: the quotient
    by the subgroup of rank r (default corank one, r = n - 1, which
    n = 0 lacks); SO needs p > 2.  The basis is read off the
    homological-index-one part of the Koszul homology and comes back as
    odd generators a_j with their bidegrees.
    """
    table = homogeneous_space_tor(family, n, r, p)
    out = []
    for weight, rep in table.index_one_classes():
        # at homological index one and weight w the only odd class is a_w;
        # the clean quotients here always reduce the representative to dc_w
        if rep != f"dc{weight}":
            raise AssertionError(
                f"unexpected index-one representative {rep!r} at weight {weight}")
        out.append(odd_gen(f"a{weight}", weight))
    return out
