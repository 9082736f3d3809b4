"""One round of one workload, in a fresh interpreter.

Invoked by run.py as ``python3 perfbench/worker.py '<json arguments>'``.
It imports kneserlab from the checkout's ``src``, builds the round's inputs,
runs every operation one after another, and prints one JSON line: set-up
time, per-operation times, peak memory, a digest of the outputs and, when
asked, the problems found by the independent checks and their negative
controls. With ``trace`` set it installs the span wrappers after set-up
and adds the span summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The machine's speed drifts by up to 2x over minutes (a fixed loop took
# 0.046-0.096 s back to back, in CPU time as much as in wall time). Every
# round therefore times CALIBRATION, a fixed pure-Python loop, after set-up
# and after each operation, and reports SCALE = CALIBRATION_REF_S over the
# median of those timings; run.py multiplies the round's times by it, which
# states them at one reference speed (the loop taking CALIBRATION_REF_S).
CALIBRATION_STEPS = 50_000
CALIBRATION_REF_S = 0.008


def calibrate() -> float:
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(CALIBRATION_STEPS):
        k = i & 63
        acc[k] = acc.get(k, 0) + (i ^ (i >> 3))
    return time.perf_counter() - t0


def scale_of(samples: list[float]) -> float:
    ordered = sorted(samples)
    return CALIBRATION_REF_S / ordered[len(ordered) // 2]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def import_kneserlab(src: Path):
    sys.path.insert(0, str(src))
    import kneserlab
    import kneserlab.cli  # noqa: F401  (the CLI layer is traced too)

    if Path(kneserlab.__file__).resolve().parent != (src / "kneserlab").resolve():
        raise SystemExit(f"kneserlab imported from {kneserlab.__file__}, not from {src}")
    return kneserlab


def library_round(args: dict) -> dict:
    """defects, kneser_chi and product_chi: library calls in this process."""
    kl = import_kneserlab(Path(args["src"]))
    name, seed = args["workload"], args["seed"]
    H = kl.Hypergraph
    if name == "defects":
        items = workloads.defects_inputs(seed)
        calls = [(workloads.defects_op, (H(it["n"], it["edges"]), it["r"])) for it in items]
        encode, probes = workloads.defects_encode, []
    elif name == "kneser_chi":
        items = workloads.kneser_inputs(seed)
        grounds = [H(it["n"], it["edges"]) for it in items]
        calls = [(workloads.kneser_op, (G, it["r"])) for G, it in zip(grounds, items)]
        probes = [(workloads.kneser_probe, (G, it["r"], it["chi"])) for G, it in zip(grounds, items)]
        encode = workloads.kneser_encode
    else:
        items = workloads.product_inputs(seed)
        calls, probes = [], []
        for it in items:
            gs = [H(f["n"], f["edges"]) for f in it["factors"]]
            rs = [f["r"] for f in it["factors"]]
            calls.append((workloads.product_op, (gs, rs)))
            probes.append((workloads.product_probe, (gs, rs, it["chi"])))
        encode = workloads.product_encode
    setup_s = time.perf_counter() - args["spawn"]
    cal = [calibrate()]

    tracer = None
    if args["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    times, raw, errors = [], [], []
    for fn, fargs in calls:
        t0 = time.perf_counter()
        try:
            raw.append(fn(kl, *fargs))
        except Exception as exc:  # a failed operation is counted, not fatal
            raw.append(None)
            errors.append(f"operation {len(raw)}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        cal.append(calibrate())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        with tracer.region("unsat"):
            for fn, fargs in probes:
                fn(kl, *fargs)
        layers = [tracer.summary()]
    results = [None if x is None else encode(x) for x in raw]
    out = {"setup_s": setup_s, "op_times": times, "peak_rss_mb": peak_mb, "scale": scale_of(cal),
           "digest": digest(results), "layers": layers, "failed": len(errors), "problems": errors}
    if args["check"] and not errors:
        rng = random.Random(f"check-{seed}")
        if name == "defects":
            problems = workloads.defects_check(items, results, rng)
            problems += workloads.defects_controls(items, results, rng)
        elif name == "kneser_chi":
            problems = workloads.kneser_check(items, results)
            problems += workloads.kneser_controls(items, results)
        else:
            problems = workloads.product_check(items, results)
            problems += workloads.product_controls(items, results)
        out["problems"] = problems
    return out


def expected_exit(argv: list[str]) -> int:
    return 1 if "--negative-control" in argv else 0


def lab_round(args: dict) -> dict:
    """lab_cli: the session as separate CLI processes, cold then warm."""
    src = Path(args["src"]).resolve()
    work = Path(args["workdir"]).resolve()
    import_kneserlab(src)
    work.mkdir(parents=True, exist_ok=True)
    graph = workloads.session_file(args["seed"])
    graph_path = work / "session-graph.json"
    graph_path.write_text(json.dumps(graph, sort_keys=True))
    cache_path = work / "session-cache.jsonl"
    cache_path.unlink(missing_ok=True)
    session = [line.format(file=graph_path).split() for line in workloads.SESSION]
    env = dict(os.environ, PYTHONPATH=str(src))
    setup_s = time.perf_counter() - args["spawn"]
    cal = [calibrate()]

    times, codes, outputs, layers = [], [], [], []
    cold_entries = 0
    for pass_name in ("cold", "warm"):
        for i, argv in enumerate(session):
            out_path = work / f"{pass_name}-{i}.out"
            if args["trace"]:
                summary_path = work / f"{pass_name}-{i}.trace.json"
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(summary_path), *argv]
            else:
                cmd = [sys.executable, "-m", "kneserlab.cli", *argv]
            cmd += ["--cache", str(cache_path)]
            with out_path.open("w") as fh:
                t0 = time.perf_counter()
                child_env = dict(env, PERFBENCH_SPAWN=repr(t0))
                proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env, cwd=work)
                # a blocking wait: Popen.wait(timeout) polls in steps of up
                # to 50 ms, which would quantise every command time. run.py
                # kills this worker's process group, children included, if
                # the round overruns.
                code = proc.wait()
                times.append(time.perf_counter() - t0)
            cal.append(calibrate())
            codes.append(code)
            outputs.append(out_path)
            if args["trace"]:
                summary = json.loads(summary_path.read_text())
                summary["pass"] = pass_name
                layers.append(summary)
        if pass_name == "cold":
            cold_entries = sum(1 for line in cache_path.read_text().splitlines() if line.strip())
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    parsed = []
    problems = []
    for argv, code, path in zip(session + session, codes, outputs):
        try:
            parsed.append(workloads.parse_output(path.read_text()))
        except ValueError:
            parsed.append(None)
            problems.append(f"{' '.join(argv)}: no JSON results (exit {code})")
    half = len(session)
    comparable = [None if p is None else workloads.strip_timing(p) for p in parsed]
    out = {"setup_s": setup_s, "op_times": times, "peak_rss_mb": peak_mb, "scale": scale_of(cal),
           "digest": digest(comparable), "layers": layers or None, "cold_entries": cold_entries,
           "failed": sum(code != expected_exit(argv) for argv, code in zip(session + session, codes))}
    for i, argv in enumerate(session):
        if comparable[i] != comparable[half + i]:
            problems.append(f"{' '.join(argv)}: warm result differs from cold result")
    if args["check"]:
        checked = []
        for i, argv in enumerate(session):
            if parsed[i] is None:
                continue
            found = workloads.lab_check(argv, codes[i], parsed[i], graph)
            problems += [f"{' '.join(argv)}: {p}" for p in found]
            checked.append((argv, codes[i], parsed[i]))
        problems += workloads.lab_controls(checked, graph)
    out["problems"] = problems
    return out


def main() -> None:
    args = json.loads(sys.argv[1])
    if args["workload"] == "lab_cli":
        out = lab_round(args)
    else:
        out = library_round(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
