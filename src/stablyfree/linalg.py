"""Exact sparse Gaussian elimination over F_p.

Vectors are dicts mapping row index to a nonzero residue.  Pivoting is
deterministic (smallest available row index first) so kernel and quotient
bases come out in a reproducible order.
"""

from __future__ import annotations

Vector = dict[int, int]


def vec_sub_scaled(target: Vector, source: Vector, factor: int, p: int):
    """target -= factor * source, in place, dropping zeros."""
    for idx, val in source.items():
        new = (target.get(idx, 0) - factor * val) % p
        if new:
            target[idx] = new
        else:
            target.pop(idx, None)


class Eliminator:
    """Incremental echelonization of column vectors over F_p."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, Vector] = {}  # pivot row -> normalized vector

    def reduce(self, v: Vector) -> Vector:
        """Reduce v against the current pivots; returns the residual."""
        v = dict(v)
        while v:
            r = min(v)
            pivot = self.pivots.get(r)
            if pivot is None:
                return v
            vec_sub_scaled(v, pivot, v[r], self.p)
        return v

    def add_pivot(self, residual: Vector) -> Vector | None:
        """Normalize an already reduced residual and store it as the pivot
        of its smallest row; returns the pivot, or None for zero."""
        if not residual:
            return None
        r = min(residual)
        inv = pow(residual[r], self.p - 2, self.p)
        pivot = self.pivots[r] = {i: c * inv % self.p for i, c in residual.items()}
        return pivot

    def insert(self, v: Vector) -> Vector | None:
        """Reduce v and add the residual as a pivot; returns the new pivot,
        or None if v was already in the span."""
        return self.add_pivot(self.reduce(v))

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_and_kernel(columns: list[Vector], p: int) -> tuple[int, list[Vector]]:
    """Rank of the matrix with the given columns, and a kernel basis.

    Kernel vectors are dicts over column indices, echelon-shaped with
    respect to the insertion order of the columns.  Each column carries
    its own combination under the keys offset + idx past the last row, so
    pivots never land there and a residual living only there is a kernel
    vector.
    """
    offset = max((r for col in columns for r in col), default=-1) + 1
    elim = Eliminator(p)
    kernel: list[Vector] = []
    for idx, col in enumerate(columns):
        residual = elim.reduce({**col, offset + idx: 1})
        if min(residual) >= offset:
            kernel.append({k - offset: c for k, c in residual.items()})
        else:
            elim.add_pivot(residual)
    return elim.rank, kernel


def quotient_basis(kernel: list[Vector], image: list[Vector], p: int) -> list[Vector]:
    """Representatives of a basis of span(kernel) / span(image).

    Each returned vector is a kernel vector reduced modulo the image and
    then echelonized against the ones already chosen, so representatives
    are canonical for the given input order.
    """
    image_elim = Eliminator(p)
    for v in image:
        image_elim.insert(v)
    chosen = Eliminator(p)
    reps = (chosen.insert(image_elim.reduce(v)) for v in kernel)
    return [rep for rep in reps if rep is not None]
