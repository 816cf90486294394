"""One benchmark worker: a fresh process that runs one batch of queries.

    python3 perfbench/worker.py WORKLOAD SEED ROUND BATCH TRACE

BATCH -1 only sets up (a set-up probe).  The worker imports stablyfree,
builds the round's inputs, stamps CLOCK_MONOTONIC (the parent stamped it
before starting the process, so the difference is the set-up time), then
runs its queries one at a time.  It drives the program only through
stablyfree.cli.main and names in stablyfree.__all__.  Outputs are copied
into plain data outside the timed region; the parent checks them.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time

import refclock
import workloads


def _cli(cli, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _witnesses(report) -> list:
    return [[w.source, w.op, int(w.residue)] for w in report.witnesses]


def run_query(sf, cli, q: dict):
    """The timed part of a query: calls into the program only."""
    kind = q["kind"]
    if kind == "verify":
        return _cli(cli, ["verify", "--axiom", "adem", "-p", str(q["p"]),
                          "--bound", str(q["bound"]), "--json"])
    if kind == "power":
        return _cli(cli, ["steenrod", "-p", str(q["p"]), "--poly",
                          workloads.render_poly(q["x"]), "--op", str(q["op"])])
    p = sf.Prime(q["p"])
    if kind == "gl":
        out = []
        for n in q["ns"]:
            for a in range(n + 1):
                for b in range(a, n + 1):
                    report = sf.check_gl_quotient(n, a, b, p)
                    out.append((n, a, b, report, sf.check_cohomological(report.query)))
        return out
    if kind in ("sp", "so"):
        check = sf.check_symplectic if kind == "sp" else sf.check_orthogonal
        out = []
        for n in q["ns"]:
            report = check(n, p)
            out.append((n, 0, 0, report, sf.check_cohomological(report.query)))
        return out
    if kind == "scan":
        return sf.divisibility_scan(q["q"], p, q["n_max"])
    if kind == "tor":
        args = (q["family"], q["n"], q["r"], p)
        return (sf.homogeneous_space_tor(*args, degree_bound=q["bound"]),
                sf.homogeneous_space_odd_basis(*args))
    raise ValueError(f"unknown query kind {kind!r}")


def extract(q: dict, raw) -> tuple[dict, int]:
    """Plain-data copy of a query's output, and its units of work."""
    kind = q["kind"]
    if kind == "verify":
        rc, text = raw
        report = json.loads(text)
        return ({"rc": rc, "passed": report["passed"],
                 "failures": len(report["failures"]),
                 "identities": report["identities_checked"]},
                report["identities_checked"])
    if kind == "power":
        rc, text = raw
        return {"rc": rc, "text": text}, 1
    if kind in ("gl", "sp", "so"):
        return {"tables": [[n, a, b, r.verdict, _witnesses(r), c.verdict, _witnesses(c)]
                           for n, a, b, r, c in raw]}, 1
    if kind == "scan":
        return {"rows": [[n, o] for n, o in raw.rows], "divisor": raw.divisor,
                "match": raw.match}, 1
    table, basis = raw
    return {"entries": [[i, qq, j, e.dimension, list(e.basis)]
                        for (i, qq, j), e in table.rows()],
            "odd": [[g.name, g.bidegree.degree, g.bidegree.weight] for g in basis]}, 1


def composites(sf, q: dict) -> list[str]:
    """Rendered P^a(P^b(x)) for the query's check samples (untimed)."""
    p = sf.Prime(q["p"])
    alg = sf.polynomial_algebra(p, 5)
    out = []
    for s in q["samples"]:
        (coeff, mono), = s["x"]
        x = alg.monomial_element({f"c{k}": e for k, e in mono}, coeff=coeff)
        inner = sf.apply_P_polynomial(s["b"], x, p)
        out.append(sf.apply_P_polynomial(s["a"], inner, p).render())
    return out


def main() -> int:
    workload, seed, round_index, batch, trace = sys.argv[1:6]
    import stablyfree as sf
    from stablyfree import cli
    batches = workloads.round_batches(workload, int(seed), int(round_index))
    queries = batches[int(batch)] if int(batch) >= 0 else []
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    sampler = refclock.Sampler()
    # the first loops of a fresh process run slow; the median of three is steady
    setup_ref = statistics.median(sampler.sample() for _ in range(3))
    tracer = None
    if trace == "1":
        import layers
        tracer = layers.Tracer(sampler.clock)
        tracer.install(sf)
    sampler.start()
    results = []
    for q in queries:
        before = dict(tracer.self_time) if tracer else None
        try:
            raw, t0, t1 = sampler.measure(lambda: run_query(sf, cli, q))
            out, work = extract(q, raw)
            error = None
        except Exception as e:  # a query that raises counts as failed
            t0 = t1 = 0.0
            out, work, error = None, 0, f"{type(e).__name__}: {e}"
        entry = {"interval": (t0, t1), "work": work, "out": out, "error": error}
        if tracer:
            entry["layer_self_s"] = {k: v - before[k] for k, v in tracer.self_time.items()}
            if q["kind"] in ("verify", "power") and error is None:
                tracer.counters["cli.output_bytes"] += len(raw[1].encode())
        results.append(entry)
    sampler.stop()
    for entry in results:
        t0, t1 = entry.pop("interval")
        factor = sampler.scale(t0, t1) if t1 > t0 else 0.0
        entry["wall"] = t1 - t0
        entry["scaled"] = (t1 - t0) * factor
        if tracer:
            entry["layer_self_s"] = {k: v * factor for k, v in entry["layer_self_s"].items()}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    for q, entry in zip(queries, results):
        if q["kind"] == "verify" and entry["error"] is None:
            try:
                entry["out"]["composites"] = composites(sf, q)
            except Exception as e:
                entry["error"] = f"composite sample: {type(e).__name__}: {e}"

    report = {"ready": ready, "setup_ref": setup_ref, "rss_kb": rss_kb,
              "ref_median": statistics.median(r for _, r in sampler.samples),
              "queries": results,
              "module": sf.__file__}
    if tracer:
        report["trace"] = {
            "calls": tracer.calls,
            "counters": tracer.counters,
            "seed_keys": len(tracer.seed_keys),
            "by_name": tracer.by_name,
            "missing": tracer.missing,
            "broken_counters": sorted(tracer.broken_counters),
        }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
