"""Runs one workload in a fresh process and prints its raw results as JSON.

Started by ``run.py``; not meant to be run by hand.  The loop is closed and
single-client: one job in flight, the next sent when the previous returns.
A job is one argv list passed to ``relbrauer.cli.main`` with stdout and
stderr captured; its latency runs from the call to the return.  Each output
is checked against the workload's references right after its job, outside
the timed interval, and is not kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import checker  # noqa: E402
import jobs  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import relbrauer.cli as cli

    if Path(cli.__file__).resolve().parent != src / "relbrauer":
        raise SystemExit(f"relbrauer imported from {cli.__file__}, not from {src}")
    return cli


class Run(NamedTuple):
    """Per-job times of a loop and why its failed jobs failed, by index."""
    wall_s: list[float]
    calibrated_s: list[float]
    failures: dict[int, str]


def run_job(cli, argv: list[str]) -> tuple[object, str, float]:
    """Exit code (or the exception it raised), stdout and wall seconds of
    one job; the time runs from the call to the return."""
    out = io.StringIO()
    clock = time.perf_counter
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
    return code, out.getvalue(), t1 - t0


def run_jobs(cli, source, deadline=None, tracer=None) -> Run:
    """Run jobs from `source` until it ends or a job ends past `deadline`.

    Each job is checked as soon as it returns, outside its timed interval,
    and only its time and any failure are kept.  The calibration kernel runs
    between jobs.
    """
    cal = Calibrator()
    wall, failed = [], {}
    for i, (argv, entry) in enumerate(source):
        cal.sample()
        if tracer is not None:
            tracer.job = i
        code, stdout, seconds = run_job(cli, argv)
        wall.append(seconds)
        reason = checker.check(argv, entry, code, stdout)
        if reason is not None:
            failed[i] = f"{' '.join(argv)}: {reason}"
        if deadline is not None and time.perf_counter() >= deadline:
            break
    cal.sample()
    return Run(wall, [t * cal.scale(i) for i, t in enumerate(wall)], failed)


def _option(argv: list[str], name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def spot_check(cli, ran, limit: int = 2) -> list[str]:
    """Untimed oracle checks on the first pairing jobs of `ran`, the
    (argv, reference entry) pairs of the run.

    Builds the full 2-cocycle table and requires verify_two_cocycle and the
    reference b_normalized; on m = 2 quadratic jobs also requires the
    Hilbert product formula and that the local symbols decide the reference
    status.
    """
    from relbrauer import (INFINITE_PLACE, RationalCocycle, cyclic_reduce, factor,
                           hilbert_symbol, mth_power_free_part, two_cocycle,
                           verify_two_cocycle)

    problems = []
    picked = list(islice((job for job in ran if job[0][0] == "pairing"), limit))
    for argv, entry, *_ in picked:
        curve = cli.parse_curve(_option(argv, "--curve"))
        m = int(_option(argv, "--m"))
        t = cli.parse_point(_option(argv, "--t"), curve)
        p = cli.parse_point(_option(argv, "--p"), curve)
        want = entry["answer"]["results"][0]
        table = two_cocycle(RationalCocycle(curve, m, t), p)
        if not verify_two_cocycle(table):
            problems.append(f"{argv}: the 2-cocycle identity fails")
        b = cyclic_reduce(table)
        if mth_power_free_part(b, m) != Fraction(want["b_normalized"]):
            problems.append(f"{argv}: table gives b = {b}, not the reference class")
        ext = _option(argv, "--ext")
        if m != 2 or not ext.startswith("quad:"):
            continue
        d = int(ext[len("quad:"):])
        primes = {2}
        for n in (d, b.numerator, b.denominator):
            primes.update(factor(n)[1])
        symbols = [hilbert_symbol(d, b, v) for v in [INFINITE_PLACE] + sorted(primes)]
        if symbols.count(-1) % 2:
            problems.append(f"{argv}: Hilbert symbols of ({d}, {b}) break the product formula")
        if want["status"] != "undetermined" and (-1 in symbols) != (want["status"] == "nontrivial"):
            problems.append(f"{argv}: local symbols contradict status {want['status']}")
    if not picked:
        problems.append("no pairing job to spot-check")
    return problems


def latency_summary(run: Run) -> dict:
    """Median, tail and throughput, calibrated and as measured."""
    n = len(run.wall_s)
    beyond = min(10, n - 1)
    out = {"jobs": n, "tail_percentile": 100 * (n - beyond) / n, "tail_jobs_beyond": beyond,
           "latencies_ms": [t * 1000 for t in run.calibrated_s]}
    for suffix, times in (("", run.calibrated_s), ("_wall", run.wall_s)):
        ordered = sorted(times)
        out["p50_ms" + suffix] = statistics.median(ordered) * 1000
        out["tail_ms" + suffix] = ordered[n - 1 - beyond] * 1000
        out["jobs_per_s" + suffix] = n / sum(ordered)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args()

    cli = _import_cli()
    pools = json.loads((BENCH / "reference" / f"{args.workload}.json").read_text())

    # Warm-up on other jobs than the run's, then the checker's self-test.
    warm_stream = jobs.stream(pools, args.workload, args.seed, salt="warm-up")
    warm = [next(warm_stream) for _ in jobs.BLOCKS[args.workload]]
    run_jobs(cli, warm)
    argv, entry = next((argv, entry) for argv, entry in warm if "results" in entry["answer"])
    checker.self_test(argv, entry, run_job(cli, argv)[1])

    def stream():
        return jobs.stream(pools, args.workload, args.seed)

    result = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            run = run_jobs(cli, stream(), time.perf_counter() + args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        replay = run_jobs(cli, islice(stream(), len(run.wall_s)))
        failed = {**replay.failures, **run.failures}
        overhead = sum(run.calibrated_s) / sum(replay.calibrated_s)
        scales = [c / w for c, w in zip(run.calibrated_s, run.wall_s)]
        layer = tracer.metrics(scales, overhead)
        result["per_layer"] = layer
        if args.spans:
            tracer.dump(args.spans, scales, {"workload": args.workload, "seed": args.seed,
                                             "metrics": layer})
    else:
        run = run_jobs(cli, stream(), time.perf_counter() + args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
        failed = run.failures
        result.update(latency_summary(run))
    result["attempted"] = len(run.wall_s)
    result["failed"] = len(failed)
    result["failures"] = list(failed.values())[:20]
    result["spot_check"] = spot_check(cli, islice(stream(), len(run.wall_s)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
