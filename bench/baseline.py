"""Run every workload over several seeds and record medians and spreads.

    python3 bench/baseline.py [--seeds 1-10] [--out bench/baseline.json]

For each workload and end-to-end metric this reports the median of the runs
and the spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4), beside the metric's bound from
BENCHMARK.json.  It then makes one traced run per workload for the
per-layer numbers.  The output file records the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0][len("env "):])
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": [first, last], "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in range(first, last + 1)]
        out.setdefault("env", runs[0]["env"])
        summary = {"attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "correct": all(r["correct"] for r in runs)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bound,
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"{workload} {name}: median {median:.6g} spread {(q3 - q1) / median:.4f}"
                  f" (bound {bound})", flush=True)
        traced = run(workload, first, spec["run_seconds"], 1)
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = summary
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
