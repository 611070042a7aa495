#!/usr/bin/env python3
"""Self-check of the benchmark: ``python3 perfbench/smoke.py``.

Runs every workload at its tiny size, once untraced and once traced, and
asserts that each metric named in ``BENCHMARK.json`` is emitted with its
unit, that the result line has the agreed keys, and that the traced run
wrote a non-empty layer table.  Correctness of the tiny runs is printed,
not asserted: the reference reports hold only for the full-size inputs.
Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise SystemExit(f"{where}: attempted must be a whole number >= 1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise SystemExit(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"{where}: {name} is not a number")


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    if any(not w.get("why") for w in SPEC["workloads"]):
        raise SystemExit("every workload needs a one-line why")
    for workload in names:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run(workload, trace)
            check(workload, trace, result, expected)
            if trace:
                table = json.loads(
                    (HERE / "out" / f"trace-{workload}-seed1.json").read_text()
                )["layers"]
                if not any(v > 0.0 for v in table.values()):
                    raise SystemExit(f"{workload}: traced layer table is empty")
            print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
