#!/usr/bin/env python3
"""perfhom benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py            # every workload, untraced then traced

One process runs one workload: it repeats the workload until another
repetition would overrun ``--seconds`` (at least one repetition), checks
each repetition's outputs, and prints a human summary followed by one
JSON line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` the same loop runs with spans recorded
around the program's public functions and the metrics are per layer.

The program is imported from ``src/`` beside this directory and run as
shipped: no thread settings are changed.  Outputs, traces and a
machine record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def import_perfhom():
    """Import perfhom from this checkout's sources, never from elsewhere."""
    package = SRC / "perfhom"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no perfhom sources at {package}")
    sys.path.insert(0, str(SRC))
    import perfhom
    import perfhom.cli

    if Path(perfhom.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported perfhom from {perfhom.__file__}, not {package}")
    return perfhom


# ---------------------------------------------------------------------------
# machine record


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def blas_record():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "name": info.get("name"),
        "version": info.get("version"),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
        "threads": None,
    }
    # OpenBLAS reports its thread count through a C call; find the loaded library
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                break
    return record


def machine_record(args, reps):
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "repetitions": reps,
        "load": "one process; BLAS helper threads as shipped",
    }


# ---------------------------------------------------------------------------
# one workload


def probe_setup(args, work):
    """Seconds from starting a fresh interpreter until the workload's
    config and potential are parsed, as reported by a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--work", str(work)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=120)
    if line != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    return elapsed


def tail_text(values, unit):
    """Median, plus the highest percentile with at least ten samples above it."""
    n = len(values)
    text = f"p50 {statistics.median(values):.4f} {unit}"
    if n >= 20:
        p = 100 * (n - 10) // n
        rank = math.ceil(p * n / 100)
        text += f", p{p} {sorted(values)[rank - 1]:.4f} {unit}"
    else:
        text += " (no tail percentile: fewer than 20 samples)"
    return text + f", n={n}"


def run_workload(args):
    perfhom = import_perfhom()
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _measure(args, perfhom, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, perfhom, work):
    load = workloads.make(args.workload, args.seed, args.size, work)
    setup = [] if args.trace else [probe_setup(args, work) for _ in range(SETUP_PROBES)]
    state = load.setup(perfhom)
    tracer = tracing.Tracer() if args.trace else None
    walls, cpus, errors = [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    with tracing.installed(tracer, perfhom) if tracer else nullcontext():
        while True:
            if tracer:
                tracer.start_rep()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = load.run(perfhom, state)
                error = None
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                result, error = None, exc
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            attempted += load.operations
            try:
                if error is not None:
                    raise workloads.Failure(f"{type(error).__name__}: {error}")
                failed += load.check(perfhom, result, tracer)
            except (workloads.Failure, OSError, KeyError, ValueError) as exc:
                # a missing or malformed report is a failed check too
                failed += load.operations
                correct = False
                errors.append(str(exc))
            result = None  # free this repetition's outputs before the next one
            spent = time.perf_counter() - start
            if spent + statistics.median(walls) > args.seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = machine_record(args, len(walls))

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(walls)} repetition(s) in a {args.seconds} s budget")
    print("machine " + json.dumps(record, sort_keys=True))
    for message in errors[:5]:
        print(f"check failed: {message}")
    print(f"failures: {failed}/{attempted} operations "
          f"({100.0 * failed / attempted:.1f}%)" + (
              "; lattice pitches rejected by disjointness_check count as failed"
              if args.workload == "lattice" else ""))

    if tracer:
        metrics = _traced_metrics(args, tracer, walls, record)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup),
        }
        print(f"wall_s       {tail_text(walls, 's')}")
        print(f"cpu_s        {tail_text(cpus, 's')}")
        print(f"peak_rss_mb  {peak_mb:.1f} MB (whole process, n=1)")
        print(f"setup_s      {tail_text(setup, 's')} (fresh interpreters)")
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
        (OUT / f"run-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"machine": record, "wall_s": walls, "cpu_s": cpus,
                        "setup_s": setup, "peak_rss_mb": peak_mb}, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced_metrics(args, tracer, walls, record):
    cost = tracing.span_cost_s()
    metrics, layers, inclusive, stages = tracing.summarize(tracer, walls, cost)
    wall = metrics["trace.wall_s"]
    print(f"traced wall {wall:.4f} s per repetition (median); {metrics['trace.spans']:.0f} "
          f"spans, wrapper cost estimated at {metrics['trace.overhead_est_s']:.4f} s")
    print("layer self time (median over repetitions, share of traced wall):")
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        if value <= 0.0:
            continue
        print(f"  {name:<12} {value:9.4f} s  {100 * value / wall:5.1f}%")
    hottest = max(layers, key=layers.get)
    print(f"hottest layer: {hottest} ({100 * layers[hottest] / wall:.1f}% of wall)")
    stage = max(stages, key=stages.get)
    print(f"hottest stage: {stage} ({100 * stages[stage] / wall:.1f}% of wall, with children)")
    print("time including children:")
    for name, value in sorted(inclusive.items(), key=lambda kv: -kv[1])[:12]:
        if value <= 0.0:
            break
        print(f"  {name:<36} {value:9.4f} s  {100 * value / wall:5.1f}%")
    if metrics["stencil.calls"]:
        print(f"stencil per call (computed from array sizes, not measured): "
              f"{metrics['stencil.flops']:.4g} flop, {metrics['stencil.bytes_computed']:.4g} B, "
              f"{metrics['stencil.flops_per_byte']:.3f} flop/B.  No roofline ratio: every "
              f"array fits in the {record['caches'].get('L3', '?')} L3, so no run here "
              f"meets the 4x last-level-cache rule for a bandwidth measurement.")
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "machine": record,
        "rep_walls": walls,
        "layers": layers,
        "inclusive": inclusive,
        "stages": stages,
        "metrics": metrics,
        "span_fields": ["name", "start", "end", "parent", "rep", "counts"],
        "spans": tracer.reps,
    }) + "\n")
    return metrics


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# every workload


def run_all(args):
    """Untraced then traced run of each workload, in fresh processes."""
    rows = []
    for name in workloads.NAMES:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(f"{name}: run failed with exit code {done.returncode}")
                return 1
            results.append(json.loads(lines[-1]))
        rows.append((name, *results))
    print("\nend-to-end metrics (tracing off); the tracing overhead is one traced minus "
          "one untraced run, so read it against the run-to-run spread of wall_s:")
    for name, plain, traced in rows:
        m = plain["metrics"]
        record = json.loads((OUT / f"run-{name}-seed{args.seed}.json").read_text())
        cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items())
        share = 100.0 * plain["failed"] / plain["attempted"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - m["wall_s"]["value"]
        print(f"  {name:<14} {cells}  (medians of n={len(record['wall_s'])} repetitions, "
              f"{len(record['setup_s'])} set-ups)  failed {plain['failed']}/{plain['attempted']} "
              f"({share:.1f}%)  correct {plain['correct']}  tracing overhead "
              f"{overhead:+.4f} s ({100 * overhead / m['wall_s']['value']:+.1f}%)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-check (no reference comparison)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        perfhom = import_perfhom()
        workloads.make(args.workload, args.seed, args.size, args.work).setup(perfhom)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
