"""Generator tables for the three families of split groups.

Each model records, for a group G in the family, the odd exterior
generators of H*(G) and the even polynomial generators of CH*(BG)/p.
Odd generator aJ sits in bidegree (2J - 1, J); even cJ in (2J, J).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import AlgebraPresentation, GeneratorSpec, even_gen, odd_gen
from .modp import Prime

FAMILIES = ("GL", "Sp", "SO")


class TorsionPrimeError(ValueError):
    """Raised for (family, p) pairs the theory does not cover (SO at p = 2)."""


@dataclass(frozen=True, slots=True)
class GroupModel:
    """A named family member: GL_n, Sp_2n, or SO_{2n+1} with rank parameter n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 0:
            raise ValueError("rank parameter must be nonnegative")

    def generator_indices(self) -> range:
        """Indices J such that aJ / cJ are generators for this model, in
        rank order: the rank-r subgroup has the first r of them."""
        if self.family == "GL":
            return range(1, self.n + 1)
        return range(2, 2 * self.n + 1, 2)

    def odd_generators(self) -> list[GeneratorSpec]:
        return [odd_gen(f"a{j}", j) for j in self.generator_indices()]

    def even_generators(self) -> list[GeneratorSpec]:
        return [even_gen(f"c{j}", j) for j in self.generator_indices()]

    def check_prime(self, p: Prime):
        """SO_{2n+1} is only covered away from its torsion prime 2."""
        if self.family == "SO" and p.value == 2:
            raise TorsionPrimeError("2 is a torsion prime for odd orthogonal groups")

    @lru_cache(maxsize=64)
    def group_algebra(self, p: Prime) -> AlgebraPresentation:
        """Exterior algebra on the odd generators of H*(G), reduced
        coefficients (odd squares vanish).  Cached per (model, p)."""
        self.check_prime(p)
        return AlgebraPresentation(p, tuple(self.odd_generators()))

    def describe(self) -> str:
        if self.family == "GL":
            return f"GL_{self.n}"
        if self.family == "Sp":
            return f"Sp_{2 * self.n}"
        return f"SO_{2 * self.n + 1}"


def model_from_matrix_size(family: str, size: int) -> GroupModel:
    """Build a model from the matrix size (GL:n, Sp:2n, SO:2n+1)."""
    if family == "GL":
        return GroupModel("GL", size)
    if family == "Sp":
        if size % 2 or size < 2:
            raise ValueError("symplectic groups have even positive size")
        return GroupModel("Sp", size // 2)
    if family == "SO":
        if size % 2 == 0 or size < 3:
            raise ValueError("odd orthogonal groups have odd size >= 3")
        return GroupModel("SO", (size - 1) // 2)
    raise ValueError(f"unknown family {family!r}")
