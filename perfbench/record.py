"""Run every workload on several seeds and record the spread of each metric.

    python3 perfbench/record.py --out perfbench/results/BENCH_seed.json

Run it from the repository root.  It takes the command, the run time and
the workloads from ``BENCHMARK.json``.  For each workload it runs the
command untraced once per seed (seeds 1..10), then once traced, one
process at a time.  It writes, per workload, every run's end-to-end
values with their median, quartiles and quartile spread as a share of
the median, and next to them the per-layer metrics and the tracing
overhead of the traced run.  It prints one line per end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from spec import BENCHMARK

RUNS = 10  # untraced runs (seeds) per workload


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(detail, result) of one benchmark process."""
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    return detail, json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def record_workload(workload: str) -> tuple[dict, dict]:
    results = [run_once(workload, seed, 0)[1] for seed in range(1, RUNS + 1)]
    traced_detail, traced = run_once(workload, 1, 1)
    end_to_end = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        end_to_end[name] = s = {"unit": first["unit"], "runs": values, **spread(values)}
        print(f"{workload:20s} {name:12s} median {s['median']:.6g} {first['unit']:4s} "
              f"spread {s['spread']:.4f}", flush=True)
    entry = {
        "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
        "failed": sum(r["failed"] for r in results) + traced["failed"],
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "traced_run_all_metrics": traced_detail["metrics"],
    }
    return entry, traced_detail["machine"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, help="JSON file to write (default: none)")
    args = p.parse_args(argv)
    out = {"command": BENCHMARK["command"], "run_seconds": BENCHMARK["run_seconds"], "runs": RUNS,
           "workloads": {}}
    for w in BENCHMARK["workloads"]:
        out["workloads"][w["name"]], out["machine"] = record_workload(w["name"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
