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

from typing import NamedTuple

from .koszul import homogeneous_space_odd_basis
from .modp import Prime, binom_mod_p, exponent_n, raynaud_number
from .models import GroupModel
from .steenrod import apply_P_primitive

OBSTRUCTED = "obstructed"
NO_OBSTRUCTION = "no_obstruction_found"
NO_OBSTRUCTION_TEXT = "no obstruction found by this method"


class _SectionQuery(NamedTuple):
    family: str
    n: int
    p: Prime
    a: int = 0
    b: int = 0


class SectionQuery(_SectionQuery):
    """A quotient-map shape plus the coefficient characteristic.

    GL: the map GL_n/GL_a -> GL_n/GL_b (a = 0 is the group itself).
    Sp: Sp_2n -> Sp_2n/Sp_{2n-2}.  SO: SO_{2n+1} -> SO_{2n+1}/SO_{2n-1},
    p > 2 only.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int, p: Prime, a: int = 0, b: int = 0):
        GroupModel(family, n).check_prime(p)
        if family == "GL":
            if not (0 <= a <= b <= n):
                raise ValueError(f"need 0 <= a <= b <= n, got a={a}, b={b}, n={n}")
        elif n < 1:
            raise ValueError("rank must be at least 1")
        return super().__new__(cls, family, n, p, a, b)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

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
        """G/H(s) -> G/H(t) for GL, G -> G/H(t) for Sp and SO, where H(r)
        is the rank-r subgroup of the ranks (s, t)."""
        group = self.model.describe()
        source, target = (f"{group}/{self.model._replace(n=r).describe()}"
                          for r in self.ranks)
        return f"{source if self.family == 'GL' else group} -> {target} at p={self.p}"


class _Witness(NamedTuple):
    source: int
    op: int
    target: int
    residue: int


class Witness(_Witness):
    """An operation P^op carrying killed generator a_source onto the
    surviving generator a_target with the given nonzero residue mod p."""

    __slots__ = ()

    def __new__(cls, source: int, op: int, target: int, residue: int):
        if op < 1:
            raise ValueError("witness operation index must be at least 1")
        if not residue:
            raise ValueError("witness residue must be nonzero")
        return super().__new__(cls, source, op, target, residue)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def describe(self) -> str:
        return (f"P^{self.op}(a{self.source}) = {self.residue}*a{self.target}"
                f" survives in the target")


class ObstructionReport(NamedTuple):
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
        return {**self._asdict(), "query": {**self.query._asdict(), "p": self.query.p.value},
                "witnesses": [w._asdict() for w in self.witnesses], "verdict": self.verdict}


def _is_extrapolated(query: SectionQuery) -> bool:
    """The paper treats GL targets of corank one (b = n-1) and the trivial
    a = b case; other (a, b) follow the same pullback argument but are
    flagged as extrapolations."""
    if query.family != "GL":
        return False
    return query.b != query.n - 1 and query.a != query.b


# the most pairs (m, i) that one witness scan, or one divisibility scan in
# all, may try: they are (b - a)(n - b) for GL_n/GL_a -> GL_n/GL_b at p = 2,
# and (q - 1)(n_max - q + 1) for a scan
MAX_WITNESS_PAIRS = 10 ** 7


def _witness_scan(query: SectionQuery) -> ObstructionReport:
    """The witness rule of every combinatorial check: P^i(a_m) =
    C(m-1, i) * a_{m+i(p-1)} for a generator m the map loses, i >= 1 and
    m + i(p-1) a surviving generator, kept when the residue is nonzero.
    Ordered by source, then by operation.  A query of more than
    MAX_WITNESS_PAIRS pairs (m, i) to try is refused before any work."""
    s, t = query.ranks
    indices = query.model.generator_indices()
    survivors = indices[t:]
    if (pairs := (t - s) * len(survivors)) > MAX_WITNESS_PAIRS:
        raise ValueError(f"{query.describe()}: {pairs} pairs (m, i) to try is past "
                         f"the largest number allowed, {MAX_WITNESS_PAIRS}")
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
                # the image is a multiple of one odd generator, a_t of weight t
                t = image.algebra.mono_bidegree(mono).weight
                if t in target_idx:
                    witnesses.append(Witness(j, i, t, coeff))
            i += 1
    return ObstructionReport(query, tuple(witnesses), "cohomological",
                             _is_extrapolated(query))


class DivisibilityScan(NamedTuple):
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
        return {**self._asdict(), "p": self.p.value,
                "rows": [{"n": n, "obstructed": o} for n, o in self.rows]}


# the largest corank of a scan: the combined modulus N_q has 3 902 digits at
# q = 9000, and from q = 9859 on more than the 4 300 that CPython converts to
# a string
MAX_SCAN_Q = 9000
# the largest n of a scan, which reports one row per n: 10^6 rows took
# 10.4 s and 3.4 MB of text
MAX_SCAN_N = 1_000_000


def divisibility_scan(q: int, p: Prime, n_max: int) -> DivisibilityScan:
    """Check, for q <= n <= n_max, whether the witness scan for
    GL_n/GL_{n-q} -> GL_n/GL_{n-1} leaves exactly the multiples of
    p^(1 + n(p, q)) unobstructed.  A q past MAX_SCAN_Q, an n_max past
    MAX_SCAN_N or more than MAX_WITNESS_PAIRS pairs (m, i) to try in all is
    refused before any work."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if q > MAX_SCAN_Q:
        raise ValueError(f"q = {q} is past the largest corank allowed, {MAX_SCAN_Q}")
    if n_max < q:
        raise ValueError("n_max must be at least q")
    if n_max > MAX_SCAN_N:
        raise ValueError(f"n_max = {n_max} is past the largest n allowed, {MAX_SCAN_N}")
    if (pairs := (q - 1) * (n_max - q + 1)) > MAX_WITNESS_PAIRS:
        raise ValueError(f"q = {q}, n_max = {n_max}: {pairs} pairs (m, i) to try is past "
                         f"the largest number allowed, {MAX_WITNESS_PAIRS}")
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
