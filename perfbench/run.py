"""kneserlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A run is a sequence of whole rounds; each
round runs every operation of the workload once, in a fresh interpreter
(perfbench/worker.py), so the lru_cache memos of cd, ecd and alt_min start
empty as they do in a user's process. Rounds run one after another until
S seconds of rounds have passed and at least MIN_ROUNDS have run. The
first round's outputs are checked against independent computations; every
later round must produce the same outputs. Reported times are scaled to one
reference machine speed by a calibration loop timed in every round
(worker.py explains why).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones (README.md lists both).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("defects", "kneser_chi", "product_chi", "lab_cli")
MIN_ROUNDS = 3
# the whole run must end within 180 s: no round starts after LAST_START_S,
# and a round still running at DEADLINE_S is killed
LAST_START_S = 120.0
DEADLINE_S = 175.0


def run_round(args: dict, timeout: float) -> dict:
    """Spawn one worker and return its JSON result; the worker's process
    group, CLI children included, is killed after ``timeout`` seconds."""
    args = dict(args, spawn=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(args)],
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"round of {args['workload']} still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args['workload']} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def scaled_ops(rnd: dict) -> list[float]:
    """A round's operation times at the reference speed (worker.py)."""
    return [t * rnd["scale"] for t in rnd["op_times"]]


def end_to_end(rounds: list[dict]) -> dict:
    walls = [sum(scaled_ops(r)) for r in rounds]
    per_op = [statistics.median(ts) for ts in zip(*(scaled_ops(r) for r in rounds))]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "setup_s": (statistics.median(r["setup_s"] * r["scale"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def layer_metrics(rnd: dict) -> dict:
    """Per-layer figures of one traced round (summed over its processes)."""
    summaries = rnd["layers"]
    names: dict[str, list] = {}
    regions: dict[str, float] = {}
    for s in summaries:
        for name, row in s["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in s["regions"].items():
            regions[key] = regions.get(key, 0.0) + value

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return names.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return names.get(name, [0, 0.0, 0.0])[2]

    warm = [s for s in summaries if s.get("pass") == "warm"]
    starts = [s["process_start_s"] for s in summaries if "process_start_s" in s]
    s, c = "s", "count"
    return {
        "constructions.kneser_s": (regions.get("constructions.kneser@", 0.0), s),
        "constructions.t_hypergraph_s": (incl("constructions.t_hypergraph"), s),
        "invariants.alt_min_s": (incl("invariants.alt_min"), s),
        "invariants.alt_min_calls": (calls("invariants.alt_min"), c),
        "invariants.alt_min_repeat_calls": (sum(x["alt_min_repeat_calls"] for x in summaries), c),
        "invariants.cd_s": (incl("invariants.cd"), s),
        "invariants.ecd_s": (incl("invariants.ecd"), s),
        "invariants.ecd_calls": (calls("invariants.ecd"), c),
        "chromatic.explicit_unsat_s": (regions.get("chromatic.solve_chromatic@bench.unsat", 0.0), s),
        "chromatic.explicit_total_s": (regions.get("chromatic.solve_chromatic@", 0.0), s),
        "chromatic.product_unsat_s": (regions.get("chromatic.solve_product_chromatic@bench.unsat", 0.0), s),
        "chromatic.product_total_s": (regions.get("chromatic.solve_product_chromatic@", 0.0), s),
        "chromatic.bound_report_s": (incl("chromatic.bound_report"), s),
        "prooflab.sigma2_scan_s": (incl("prooflab.sigma2_scan"), s),
        "prooflab.sigma2_scan_calls": (calls("prooflab.sigma2_scan"), c),
        "prooflab.check_lemma_s": (incl("prooflab.check_lemma1") + incl("prooflab.check_lemma2"), s),
        "prooflab.witness_target_s": (incl("prooflab.witness_target"), s),
        "experiments.run_self_s": (self_s("experiments.run"), s),
        "experiments.compare_bounds_s": (incl("experiments.compare_bounds"), s),
        "cache.cold_entries": (rnd.get("cold_entries", 0), c),
        "cache.warm_hits": (sum(x["cache_hits"] for x in warm), c),
        "cache.warm_misses": (sum(x["cache_misses"] for x in warm), c),
        "cache.warm_layer_s": (sum(x["solver_cover_s"] for x in warm), s),
        "cli.process_start_s": (statistics.median(starts) if starts else 0.0, s),
        "cli.main_self_s": (self_s("cli.main"), s),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    per_round = []
    for r in traced:
        per_round.append({k: (v * r["scale"] if u == "s" else v, u) for k, (v, u) in layer_metrics(r).items()})
    out = {}
    for name, (_, unit) in per_round[0].items():
        out[name] = (statistics.median(m[name][0] for m in per_round), unit)
    overhead = statistics.median(sum(scaled_ops(r)) for r in traced) - statistics.median(
        sum(scaled_ops(r)) for r in plain
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "kneserlab" / "__init__.py").is_file():
        print(f"no kneserlab sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = HERE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    base = {"workload": args.workload, "seed": args.seed, "src": str(src), "workdir": str(workdir)}
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    measured = 0.0
    try:
        while True:
            enough = len(plain) >= MIN_ROUNDS and (not args.trace or len(traced) >= MIN_ROUNDS)
            if enough and measured >= args.seconds:
                break
            if time.perf_counter() - started > LAST_START_S:
                break
            trace_now = bool(args.trace) and len(traced) < len(plain)
            t0 = time.perf_counter()
            timeout = DEADLINE_S - (t0 - started)
            rnd = run_round(dict(base, trace=trace_now, check=not plain and not traced), timeout)
            measured += time.perf_counter() - t0
            (traced if trace_now else plain).append(rnd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    problems = [p for r in rounds for p in r.get("problems", [])]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("outputs differ between rounds")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:34s} {value:12.6f} {unit}")
    raw_wall = statistics.median(sum(r["op_times"]) for r in plain)
    scale = statistics.median(r["scale"] for r in rounds)
    print(f"{args.workload:12s} {'unscaled wall_s':34s} {raw_wall:12.6f} s (median speed scale {scale:.3f})")
    result = {
        "correct": not problems,
        "attempted": sum(len(r["op_times"]) for r in rounds),
        "failed": sum(r.get("failed", 0) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
