"""Benchmark of stablyfree: three workloads, reference-scaled timings.

    python3 perfbench/run.py --workload adem-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the program is imported from ./src).
Rounds of the workload's queries run in fresh worker processes, one at a
time (a closed loop with one client), until the next round would pass
--seconds; whole rounds only.  Every output is checked by perfbench/checks.py
outside the timed region; a query whose check fails counts as failed.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see perfbench/README.md).  The last line of stdout is one JSON
object; details of the run go to .perfbench-results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import refclock
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = ROOT / ".perfbench-results"
SETUP_PROBES = 5
WORKER_TIMEOUT = 60  # s; the longest batch takes about 5 s

LAYER_COUNTS = {
    "steenrod": ("result_terms",), "symmetric": ("seed_calls",),
    "algebra": ("mul_calls",), "koszul": ("chain_dim", "tor_dim"),
    "linalg": ("columns", "rank"), "obstruction": ("witnesses",),
    "cli": ("output_bytes",), "modp": (),
}


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, round_index: int, batch: int, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # set-up is measured with cached bytecode, as for an installed package:
    # the first worker writes it, the median ignores that one
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), str(round_index),
         str(batch), str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise WorkerError(err.decode(errors="replace").strip()[-2000:])
    report = json.loads(out.decode().splitlines()[-1])
    module = Path(report["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise WorkerError(f"imported stablyfree from {module}, not from {ROOT / 'src'}")
    report["setup_wall"] = report["ready"] - start
    report["setup_scaled"] = report["setup_wall"] * refclock.R0 / report["setup_ref"]
    return report


def check_output(q: dict, out: dict, rng: random.Random,
                 identities: dict) -> str | None:
    kind = q["kind"]
    p = q.get("p")
    if kind == "verify":
        if out["rc"] != 0 or not out["passed"] or out["failures"]:
            return f"verify reported failures: {out}"
        count = identities.setdefault((p, q["bound"]), out["identities"])
        if out["identities"] <= 0 or out["identities"] != count:
            return f"identity count {out['identities']} differs from {count}"
        for sample, value in zip(q["samples"], out["composites"], strict=True):
            (coeff, mono), = sample["x"]
            x = [(coeff, dict(mono))]
            problem = checks.check_composite(p, x, sample["a"], sample["b"],
                                             checks.parse_terms(value), rng)
            if problem:
                return f"P^{sample['a']} P^{sample['b']}({sample['x']}) = {value}: {problem}"
        return None
    if kind == "power":
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        x = [(c, dict(mono)) for c, mono in q["x"]]
        problem = checks.check_power(p, x, q["op"], checks.parse_terms(out["text"]), rng)
        return f"P^{q['op']}({q['x']}) = {out['text'].strip()}: {problem}" if problem else None
    if kind in ("gl", "sp", "so"):
        for n, a, b, verdict, witnesses, coh_verdict, coh_witnesses in out["tables"]:
            if kind == "gl":
                expected = checks.gl_witnesses(n, a, b, p)
            else:
                expected = checks.corank_one_witnesses(n, p)
            for engine, v, w in (("combinatorial", verdict, witnesses),
                                 ("cohomological", coh_verdict, coh_witnesses)):
                problem = checks.check_verdict(expected, v, w)
                if problem:
                    return f"{kind} n={n} a={a} b={b} p={p} {engine}: {problem}"
        return None
    if kind == "scan":
        return checks.check_scan(q["q"], p, q["n_max"], out["rows"], out["divisor"],
                                 out["match"])
    return (checks.check_tor(q["family"], q["n"], q["r"], q["bound"], out["entries"])
            or checks.check_odd_basis(q["family"], q["n"], q["r"], out["odd"]))


def end_to_end(workers: list[dict], done: list[dict], round_rss_kb: list[int]) -> dict:
    scaled = [r["scaled"] for r in done]
    return {
        "setup_s": (statistics.median(w["setup_scaled"] for w in workers), "s"),
        "work_per_s": (sum(r["work"] for r in done) / sum(scaled), "1/s"),
        "query_p50_ms": (statistics.median(scaled) * 1000.0, "ms"),
        # the largest peak of a round's workers, median over rounds: a maximum
        # over the whole run would grow with the number of rounds it fits
        "peak_rss_mb": (statistics.median(round_rss_kb) / 1024.0, "MB"),
    }


def per_layer(workers: list[dict], done: list[dict], rounds: int) -> dict:
    calls: dict[str, float] = {}
    counters: dict[str, float] = {}
    seed_keys = 0
    for w in workers:
        t = w["trace"]
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        seed_keys += t["seed_keys"]
    out: dict[str, tuple[float, str]] = {}
    for layer, extra in LAYER_COUNTS.items():
        self_s = sum(r["layer_self_s"][layer] for r in done)
        out[f"{layer}.self_s"] = (self_s / rounds, "s/round")
        out[f"{layer}.calls"] = (calls[layer] / rounds, "count/round")
        for name in extra:
            out[f"{layer}.{name}"] = (counters[f"{layer}.{name}"] / rounds, "count/round")
    seeds = counters["symmetric.seed_calls"]
    out["symmetric.seed_distinct_ratio"] = (seed_keys / seeds if seeds else 0.0, "ratio")
    tors = counters["koszul.tor_calls"]
    out["koszul.build_ratio"] = (counters["koszul.builds"] / tors if tors else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stablyfree" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stablyfree sources under {ROOT / 'src'}\n")
        return 2
    problems = checks.self_test()
    if problems:
        sys.stderr.write("error: output checks failed their self-test:\n  "
                         + "\n  ".join(problems) + "\n")
        return 1

    started = time.monotonic()
    workers: list[dict] = []
    for _ in range(SETUP_PROBES):
        workers.append(spawn(args.workload, args.seed, 0, -1, args.trace))
    attempted = failed = 0
    check_failures: list[str] = []
    done: list[dict] = []
    identities: dict = {}
    round_rss_kb: list[int] = []
    rounds = 0
    while True:
        batches = workloads.round_batches(args.workload, args.seed, rounds)
        rss_kb = 0
        for b, batch in enumerate(batches):
            attempted += len(batch)
            try:
                report = spawn(args.workload, args.seed, rounds, b, args.trace)
            except WorkerError as e:
                failed += len(batch)
                sys.stderr.write(f"worker failed: {e}\n")
                continue
            workers.append(report)
            rss_kb = max(rss_kb, report["rss_kb"])
            for i, (q, res) in enumerate(zip(batch, report["queries"])):
                if res["error"] is not None:
                    failed += 1
                    sys.stderr.write(f"query failed: {q}: {res['error']}\n")
                    continue
                rng = random.Random(f"check/{args.seed}/{rounds}/{b}/{i}")
                problem = check_output(q, res["out"], rng, identities)
                if problem:
                    failed += 1
                    check_failures.append(problem)
                    sys.stderr.write(f"check failed: {problem}\n")
                    continue
                res["label"] = workloads.label(q)
                done.append(res)
        if rss_kb:
            round_rss_kb.append(rss_kb)
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    if not done:
        sys.stderr.write("error: no query completed\n")
        return 1
    if args.trace:
        metrics = per_layer(workers, done, rounds)
    else:
        metrics = end_to_end(workers, done, round_rss_kb)

    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "attempted": attempted,
        "failed": failed, "check_failures": check_failures,
        "R0": refclock.R0,
        "query_p50_ms": statistics.median(r["scaled"] for r in done) * 1000.0,
        "raw_query_p50_ms": statistics.median(r["wall"] for r in done) * 1000.0,
        "raw_setup_s": statistics.median(w["setup_wall"] for w in workers),
        "ref_median_s": statistics.median(w["ref_median"] for w in workers),
        "queries": [[r["label"], r["wall"], r["scaled"], r["work"]] for r in done],
        "setups": [[w["setup_wall"], w["setup_scaled"]] for w in workers],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if args.trace:
        detail["missing"] = workers[0]["trace"]["missing"]
        detail["broken_counters"] = sorted({n for w in workers
                                            for n in w["trace"]["broken_counters"]})
        by_name: dict[str, list] = {}
        for w in workers:
            for name, (n, s) in w["trace"]["by_name"].items():
                entry = by_name.setdefault(name, [0, 0.0])
                entry[0] += n
                entry[1] += s
        detail["by_name_raw"] = by_name
        if detail["missing"]:
            sys.stderr.write("traced names missing: " + ", ".join(detail["missing"]) + "\n")
        if detail["broken_counters"]:
            sys.stderr.write("counters not recorded for: "
                             + ", ".join(detail["broken_counters"]) + "\n")
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"rounds {rounds}  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
