"""Seeded inputs of the three workloads.

A run is a sequence of rounds; round k of a workload depends only on
(workload, seed, k).  Every round of a workload has the same make-up, so
its cost does not depend on the seed: the seed varies what does not move
the cost (query order, the coefficients of the two-factor monomials, the
primes of the raised-bound Tor tables, the composites sampled for
checking).  A round is a list of batches; each batch runs in one fresh
worker process.

Queries are JSON-ready dicts; polynomials are lists of
[coefficient, [[Chern index, exponent], ...]] terms.
"""

from __future__ import annotations

import random

WORKLOADS = ("adem-cold", "powers-p7", "verdicts")

# verify --axiom adem at (p, weight bound), cold: about 1.4, 2.0 and 2.3 s.
# Three well separated costs put the median inside one of them (p=3) rather
# than on the boundary between two.
ADEM = ((2, 16), (3, 15), (2, 18))
COMPOSITES_PER_QUERY = 3

# steenrod --poly at (p, monomial, operation), target weights 19 to 21.
# Costs cluster at 0.75-0.95 s (p = 7) and 1.1-1.2 s (p = 5), so the median
# falls inside a dense cluster rather than in a gap between two costs.
POWERS_SINGLE = ((7, ((6, 1),), 2), (7, ((7, 1),), 2), (5, ((4, 1),), 4))
POWERS_PRODUCT = (
    (7, ((1, 1), (6, 1)), 2), (7, ((2, 1), (4, 1)), 2), (7, ((2, 1), (5, 1)), 2),
    (7, ((1, 1), (7, 1)), 2), (7, ((3, 1), (4, 1)), 2), (5, ((1, 1), (4, 1)), 4),
)

# A verdict query is one table at one prime: the GL_n table of all
# 0 <= a <= b <= n for one n in 6..10, the GL_n tables for all n <= 5
# together, or the Sp_2n / SO_2n+1 verdicts for all n <= 8.  Each takes 15
# to 250 ms, so the median query sits among the 30 ms tables rather than
# among sub-millisecond single verdicts.
GL_MAX, GL_GROUPED, CORANK_ONE_MAX = 10, 5, 8
SCANS = ((2, 2), (3, 2), (3, 3), (4, 3), (5, 5))  # (q, p), to n = 200
SCAN_N_MAX = 200
# (family, n, r, degree bound): 0.04 to 0.7 s each, whatever the prime
TOR_TABLES = (("GL", 8, 7, 40), ("GL", 8, 5, 40), ("GL", 9, 7, 32),
              ("Sp", 8, 6, 48), ("SO", 8, 6, 48))


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _composite_samples(rng: random.Random, p: int, bound: int) -> list[dict]:
    """Monomials x in c1..c5 of weight <= 6 with (a, b) in the Adem range
    (1 <= b, a < p*b) and w + (a + b)(p - 1) <= bound."""
    samples = []
    while len(samples) < COMPOSITES_PER_QUERY:
        w = rng.randint(1, 6)
        exps: dict[int, int] = {}
        left = w
        while left:
            k = rng.randint(1, min(left, 5))
            exps[k] = exps.get(k, 0) + 1
            left -= k
        pairs = [(a, b) for b in range(1, bound) for a in range(p * b)
                 if w + (a + b) * (p - 1) <= bound]
        if pairs:
            a, b = rng.choice(pairs)
            samples.append({"x": [[1, sorted(exps.items())]], "a": a, "b": b})
    return samples


def _adem_round(rng: random.Random) -> list[list[dict]]:
    batches = [[{"kind": "verify", "p": p, "bound": bound,
                 "samples": _composite_samples(rng, p, bound)}]
               for p, bound in ADEM]
    rng.shuffle(batches)
    return batches


def _powers_round(rng: random.Random) -> list[list[dict]]:
    queries = [{"kind": "power", "p": p, "x": [[1, list(mono)]], "op": op}
               for p, mono, op in POWERS_SINGLE]
    queries += [{"kind": "power", "p": p, "x": [[rng.randrange(1, p), list(mono)]],
                 "op": op}
                for p, mono, op in POWERS_PRODUCT]
    rng.shuffle(queries)
    return [[q] for q in queries]


def _verdicts_round(rng: random.Random) -> list[list[dict]]:
    corank_one = list(range(1, CORANK_ONE_MAX + 1))
    queries = [{"kind": "gl", "ns": ns, "p": p} for p in (2, 3, 5)
               for ns in [list(range(1, GL_GROUPED + 1))]
               + [[n] for n in range(GL_GROUPED + 1, GL_MAX + 1)]]
    queries += [{"kind": "sp", "ns": corank_one, "p": p} for p in (2, 3, 5)]
    queries += [{"kind": "so", "ns": corank_one, "p": p} for p in (3, 5)]
    queries += [{"kind": "scan", "q": q, "p": p, "n_max": SCAN_N_MAX} for q, p in SCANS]
    for family, n, r, bound in TOR_TABLES:
        p = rng.choice((3, 5) if family == "SO" else (2, 3, 5))
        queries.append({"kind": "tor", "family": family, "n": n, "r": r,
                        "p": p, "bound": bound})
    rng.shuffle(queries)
    return [queries]


_ROUNDS = {"adem-cold": _adem_round, "powers-p7": _powers_round,
           "verdicts": _verdicts_round}


def round_batches(workload: str, seed: int, round_index: int) -> list[list[dict]]:
    return _ROUNDS[workload](_rng(workload, seed, round_index))


def label(q: dict) -> str:
    """Short name of a query, the same in every round, e.g. 'power p=5 c3*c4 op=3'."""
    if q["kind"] == "power":
        mono = render_poly([[1, q["x"][0][1]]])
        return f"power p={q['p']} {mono} op={q['op']}"
    if q["kind"] == "tor":
        return f"tor {q['family']}_{q['n']}/r={q['r']} bound={q['bound']}"
    if "ns" in q:
        ns = q["ns"]
        n = f"{ns[0]}-{ns[-1]}" if len(ns) > 1 else ns[0]
        return f"{q['kind']} n={n} p={q['p']}"
    keys = ("q", "n_max", "bound", "p")
    return " ".join([q["kind"]] + [f"{k}={q[k]}" for k in keys if k in q])


def render_poly(terms: list) -> str:
    """CLI form of a polynomial, e.g. '3*c2*c5'."""
    parts = []
    for coeff, mono in terms:
        factors = [f"c{k}^{e}" if e > 1 else f"c{k}" for k, e in mono]
        if coeff != 1:
            factors.insert(0, str(coeff))
        parts.append("*".join(factors))
    return " + ".join(parts)
