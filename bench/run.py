"""relbrauer benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``, nothing is installed.  Workloads (see ``jobs.py`` and
``BENCHMARK.json``): ``highm_pairing``, ``decide_m2``, ``cli_light``.

``--trace 0`` measures the end-to-end metrics:

- ``job_p50_ms``: median job latency, and ``job_tail_ms``: the latency of the
  job with ten slower jobs beyond it, from a closed loop (one client, one job
  in flight) run for S seconds in a fresh worker process;
- ``jobs_per_s``: jobs completed over the time spent in them;
- ``setup_s``: median time of fresh interpreters that only
  ``import relbrauer.cli``, started one at a time;
- ``peak_rss_mb``: the worker's maximum resident set size;
- ``fail_ratio``: failed over attempted jobs.  It is printed, and it is
  ``failed / attempted`` in the result line, but it is not a metric there:
  it is 0 when the program is right, and a bound relative to 0 means nothing.

Times are calibrated for the host's drifting speed (see ``calibrate.py``);
the report prints the wall values beside them.

``--trace 1`` runs the jobs for S/2 seconds with every layer wrapped (see
``tracer.py``), replays the same jobs untraced, and reports the per-layer
metrics, per job where the unit says so, and ``trace.overhead_ratio``; the
spans go to ``bench/results/``.

Every job's output is checked against ``reference/<workload>.json``.  Metric
names and units come from ``BENCHMARK.json``.  The last line of stdout is the
JSON result; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator
from jobs import BLOCKS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SPAWNS = 15
RUN_LIMIT_S = 170


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "relbrauer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_hash(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def commit_hash() -> str:
    """HEAD of the checkout's own .git, or 'unknown' when it has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> tuple[list[float], list[float]]:
    """Calibrated and wall times of fresh interpreters importing
    relbrauer.cli, started one at a time; the first, which may write
    bytecode caches, is not kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cal = Calibrator()
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        cal.sample()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds times up to 50 ms
        subprocess.run([sys.executable, "-c", "import relbrauer.cli"], cwd=ROOT, env=env,
                       check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    cal.sample()
    calibrated = [t * cal.scale(i) for i, t in enumerate(times)]
    return calibrated[1:], times[1:]


def declared(values: dict, specs: list[dict]) -> dict:
    """`values` under the metric names and units of BENCHMARK.json; raise
    ValueError unless the names are exactly the declared ones."""
    names = [spec["name"] for spec in specs]
    if sorted(values) != sorted(names):
        raise ValueError(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(names)}")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}


def main() -> int:
    parser = argparse.ArgumentParser(description="relbrauer benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "relbrauer" / "cli.py").is_file():
        print(f"error: no relbrauer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup, setup_wall = measure_setup() if not args.trace else ([], [])
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(RESULTS / f"{stem}-spans.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: the worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = raw["attempted"], raw["failed"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = declared(raw["per_layer"], spec["per_layer"])
        notes = {}
    else:
        metrics = declared({
            "job_p50_ms": raw["p50_ms"],
            "job_tail_ms": raw["tail_ms"],
            "jobs_per_s": raw["jobs_per_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
        }, spec["end_to_end"])
        notes = {
            "job_p50_ms": f"median of {attempted} jobs; wall {raw['p50_ms_wall']:.6g}",
            "job_tail_ms": (f"p{raw['tail_percentile']:.1f}, {raw['tail_jobs_beyond']} of "
                            f"{attempted} jobs beyond it; wall {raw['tail_ms_wall']:.6g}"),
            "jobs_per_s": (f"{attempted} jobs over their summed time; "
                           f"wall {raw['jobs_per_s_wall']:.6g}"),
            "setup_s": (f"median of {len(setup)} interpreter starts; "
                        f"wall {statistics.median(setup_wall):.6g}"),
            "peak_rss_mb": "worker process",
        }
    correct = failed == 0 and not raw["spot_check"]

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs failed)")
    for line in raw["failures"] + raw["spot_check"]:
        print(f"FAIL {line}")
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "notes": notes, "setup_s_samples": setup,
              "setup_s_wall_samples": setup_wall, **raw, "metrics": metrics}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
