#!/usr/bin/env python3
"""Minimal-size pass over every workload of the benchmark.

    python3 bench/selfcheck.py

Run from the root of a checkout. For each workload of BENCHMARK.json it runs
bench/run.py for one second (at least one operation), untraced and traced,
and asserts that the last line names exactly the metrics BENCHMARK.json
lists, that every value is a finite number, that no operation failed, and
that the classical workload never reaches exactpoly or a root-system build.
Exits 1 with a list of problems otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys


def run_once(command, workload: str, trace: int) -> dict:
    out = subprocess.run(command + ["--workload", workload, "--seed", "0",
                                    "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_once(spec["command"], name, trace)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                problems.append((name, trace, "metric names or units differ",
                                 sorted(set(got.items()) ^ set(want.items()))))
            for k, v in metrics.items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append((name, trace, k, v))
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append((name, trace, "failures",
                                 {k: result[k] for k in ("correct", "attempted", "failed")}))
            if trace and metrics["failed_ratio"]["value"] != 0:
                problems.append((name, trace, "failed_ratio", metrics["failed_ratio"]))
            if trace and name == "classical":
                for k, v in metrics.items():
                    if ((k.startswith("exactpoly.") and k.endswith(".calls"))
                            or k == "rootsystems.build.calls") and v["value"] != 0:
                        problems.append((name, trace, k, v))
            print(f"{name} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")
    for p in problems:
        print("problem:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("selfcheck: run from the root of the checkout")
    sys.exit(main())
