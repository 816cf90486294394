"""Section obstructions for quotient maps of the classical split groups.

A hypothetical section pullback must kill every odd class that dies in
the target while fixing every class that survives.  A reduced power
operation carrying a killed generator onto a surviving one with nonzero
binomial coefficient therefore rules the section out.  The combinatorial
checker scans the witness arithmetic directly; the cohomological checker
reproduces the verdict from the computed odd bases and the operation
engine, bypassing the shortcut.

Absence of witnesses is never an existence claim: the method is
one-sided, and reports say so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .koszul import homogeneous_space_odd_basis
from .modp import Prime, binom_mod_p, exponent_n, raynaud_number
from .models import GroupModel
from .steenrod import apply_P_primitive

OBSTRUCTED = "obstructed"
NO_OBSTRUCTION = "no_obstruction_found"
NO_OBSTRUCTION_TEXT = "no obstruction found by this method"


@dataclass(frozen=True, slots=True)
class SectionQuery:
    """A quotient-map shape plus the coefficient characteristic.

    GL: the map GL_n/GL_a -> GL_n/GL_b (a = 0 is the group itself).
    Sp: Sp_2n -> Sp_2n/Sp_{2n-2}.  SO: SO_{2n+1} -> SO_{2n+1}/SO_{2n-1},
    p > 2 only.
    """

    family: str
    n: int
    p: Prime
    a: int = 0
    b: int = 0

    def __post_init__(self):
        self.model.check_prime(self.p)
        if self.family == "GL":
            if not (0 <= self.a <= self.b <= self.n):
                raise ValueError(f"need 0 <= a <= b <= n, got a={self.a}, "
                                 f"b={self.b}, n={self.n}")
        elif self.n < 1:
            raise ValueError("rank must be at least 1")

    @property
    def model(self) -> GroupModel:
        return GroupModel(self.family, self.n)

    @property
    def ranks(self) -> tuple[int, int]:
        """Subgroup ranks (source, target) of the two quotients compared:
        the map loses the generators from the source rank up to the target
        rank and keeps those above it."""
        if self.family == "GL":
            return self.a, self.b
        return 0, self.n - 1

    def describe(self) -> str:
        if self.family == "GL":
            return (f"GL_{self.n}/GL_{self.a} -> GL_{self.n}/GL_{self.b} "
                    f"at p={self.p}")
        if self.family == "Sp":
            return f"Sp_{2*self.n} -> Sp_{2*self.n}/Sp_{2*self.n-2} at p={self.p}"
        return f"SO_{2*self.n+1} -> SO_{2*self.n+1}/SO_{2*self.n-1} at p={self.p}"


@dataclass(frozen=True, slots=True)
class Witness:
    """An operation P^op carrying killed generator a_source onto the
    surviving generator a_target with the given nonzero residue mod p."""

    source: int
    op: int
    target: int
    residue: int

    def __post_init__(self):
        if self.op < 1:
            raise ValueError("witness operation index must be at least 1")
        if not self.residue:
            raise ValueError("witness residue must be nonzero")

    def describe(self) -> str:
        return (f"P^{self.op}(a{self.source}) = {self.residue}*a{self.target}"
                f" survives in the target")


@dataclass(frozen=True)
class ObstructionReport:
    query: SectionQuery
    witnesses: tuple[Witness, ...]
    method: str  # "combinatorial" | "cohomological"
    extrapolated: bool = False

    @property
    def obstructed(self) -> bool:
        return bool(self.witnesses)

    @property
    def verdict(self) -> str:
        return OBSTRUCTED if self.obstructed else NO_OBSTRUCTION

    def render_text(self) -> str:
        lines = [f"query: {self.query.describe()}",
                 f"method: {self.method}"]
        if self.obstructed:
            lines.append("verdict: obstructed (no section exists)")
            for w in self.witnesses:
                lines.append(f"witness: {w.describe()}")
        else:
            lines.append(f"verdict: {NO_OBSTRUCTION_TEXT}")
        if self.extrapolated:
            lines.append("note: extrapolated pattern (target is not corank one)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "query": {
                "family": self.query.family,
                "n": self.query.n,
                "a": self.query.a,
                "b": self.query.b,
                "p": self.query.p.value,
            },
            "method": self.method,
            "verdict": self.verdict,
            "witnesses": [asdict(w) for w in self.witnesses],
            "extrapolated": self.extrapolated,
        }


def _is_extrapolated(query: SectionQuery) -> bool:
    """The paper treats GL targets of corank one (b = n-1) and the trivial
    a = b case; other (a, b) follow the same pullback argument but are
    flagged as extrapolations."""
    if query.family != "GL":
        return False
    return query.b != query.n - 1 and query.a != query.b


def _witness_scan(query: SectionQuery) -> ObstructionReport:
    """The witness rule of every combinatorial check: P^i(a_m) =
    C(m-1, i) * a_{m+i(p-1)} for a generator m the map loses, i >= 1 and
    m + i(p-1) a surviving generator, kept when the residue is nonzero.
    Ordered by source, then by operation."""
    s, t = query.ranks
    indices = query.model.generator_indices()
    survivors = indices[t:]
    step = query.p.value - 1
    witnesses = []
    for m in indices[s:t]:
        first = max(1, -((m - survivors.start) // step))  # ceil((start - m) / step)
        for i in range(first, (survivors.stop - 1 - m) // step + 1):
            target = m + i * step
            if target not in survivors:  # odd targets do not exist for Sp / SO
                continue
            residue = binom_mod_p(m - 1, i, query.p)
            if residue:
                witnesses.append(Witness(m, i, target, residue))
    return ObstructionReport(query, tuple(witnesses), "combinatorial",
                             _is_extrapolated(query))


def check_gl_quotient(n: int, a: int, b: int, p: Prime) -> ObstructionReport:
    """Witness scan for GL_n/GL_a -> GL_n/GL_b.

    Witnesses are pairs (m, i) with a < m <= b (a_m dies in the target),
    b < m + i(p-1) <= n (the image survives), and C(m-1, i) nonzero.
    """
    return _witness_scan(SectionQuery("GL", n, p, a, b))


def check_symplectic(n: int, p: Prime) -> ObstructionReport:
    """Witness scan for Sp_2n -> Sp_2n/Sp_{2n-2}: generators a_{2m} with
    m < n must land on the surviving top class a_{2n}."""
    return _witness_scan(SectionQuery("Sp", n, p))


def check_orthogonal(n: int, p: Prime) -> ObstructionReport:
    """Witness scan for SO_{2n+1} -> SO_{2n+1}/SO_{2n-1}; needs p > 2."""
    return _witness_scan(SectionQuery("SO", n, p))  # rejects the torsion prime


def check_cohomological(query: SectionQuery) -> ObstructionReport:
    """Independent verdict from the computed cohomology of both spaces.

    Obtains the odd bases of source and target from Koszul homology,
    applies the operation engine to every source-only generator, and
    flags images landing on surviving generators.
    """
    p, model = query.p, query.model
    source, target = (homogeneous_space_odd_basis(query.family, query.n, r, p)
                      for r in query.ranks)
    source_idx = [g.bidegree.weight for g in source]
    target_idx = {g.bidegree.weight for g in target}
    indices = model.generator_indices()
    top = indices[-1] if indices else 0
    witnesses = []
    for j in sorted(set(source_idx) - target_idx):
        i = 1
        while j + i * (p.value - 1) <= top:
            image = apply_P_primitive(i, j, model, p)
            for mono, coeff in image.terms.items():
                t = image.algebra.generators[mono.odd[0]].bidegree.weight
                if t in target_idx:
                    witnesses.append(Witness(j, i, t, coeff))
            i += 1
    return ObstructionReport(query, tuple(witnesses), "cohomological",
                             _is_extrapolated(query))


@dataclass(frozen=True)
class DivisibilityScan:
    """Scan of GL_n/GL_{n-q} -> GL_n/GL_{n-1} over a range of n, compared
    with the single-prime divisor p^(1 + n(p, q))."""

    q: int
    p: Prime
    n_max: int
    rows: tuple[tuple[int, bool], ...]  # (n, obstructed)
    divisor: int
    match: bool
    combined_modulus: int

    def render_text(self) -> str:
        lines = [f"scan: GL_n/GL_(n-{self.q}) -> GL_n/GL_(n-1) at p={self.p}, "
                 f"n from {self.q} to {self.n_max}",
                 f"predicted divisor: {self.divisor}",
                 f"combined modulus over all characteristics: {self.combined_modulus}"]
        unobstructed = [n for n, obstructed in self.rows if not obstructed]
        lines.append("no obstruction found at n: "
                     + (" ".join(str(n) for n in unobstructed) or "(none)"))
        lines.append(f"matches divisibility pattern: {'yes' if self.match else 'no'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p": self.p.value,
            "n_max": self.n_max,
            "divisor": self.divisor,
            "combined_modulus": self.combined_modulus,
            "rows": [{"n": n, "obstructed": o} for n, o in self.rows],
            "match": self.match,
        }


def divisibility_scan(q: int, p: Prime, n_max: int) -> DivisibilityScan:
    """Check, for q <= n <= n_max, whether the witness scan for
    GL_n/GL_{n-q} -> GL_n/GL_{n-1} leaves exactly the multiples of
    p^(1 + n(p, q)) unobstructed."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if n_max < q:
        raise ValueError("n_max must be at least q")
    divisor = p.value ** (1 + exponent_n(p, q))
    rows = []
    match = True
    for n in range(q, n_max + 1):
        obstructed = check_gl_quotient(n, n - q, n - 1, p).obstructed
        rows.append((n, obstructed))
        if (not obstructed) != (n % divisor == 0):
            match = False
    return DivisibilityScan(q, p, n_max, tuple(rows), divisor, match,
                            raynaud_number(q, 0))
