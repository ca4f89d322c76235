"""Build the job pools and record the program's answers as references.

    python3 bench/make_reference.py

Run it from the repository root on a commit whose answers are trusted; it
rewrites ``bench/reference/<workload>.json``, one file per workload so that a
run parses only its own, with one process per CPU it may run on.  Every pool
job must exit 0: the benchmark's workloads are chosen so that no job fails.  Each job runs once
with JSON output; every tenth job also runs with text output, and both
readings must agree, which checks the text parser against the JSON one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checker  # noqa: E402
from relbrauer.cli import main as cli_main  # noqa: E402

# Curves with large rational torsion; t runs over the points of order m, p
# over every nonzero torsion point.  Torsion from `relbrauer torsion`.
HIGHM_CURVES = {
    "E1": ("0 -1 1 -10 -20", 5,
           ["5,-6", "5,5", "16,-61", "16,60"],
           ["5,-6", "5,5", "16,-61", "16,60"]),
    "E2": ("1 1 1 -10 -10", 4,
           ["-2,-2", "-2,3", "8,-27", "8,18"],
           ["-13/4,9/8", "-2,-2", "-2,3", "-1,0", "3,-2", "8,-27", "8,18"]),
    "26b1": ("1 -1 1 -3 3", 7,
             ["-1,-2", "-1,2", "1,-2", "1,0", "3,-6", "3,2"],
             ["-1,-2", "-1,2", "1,-2", "1,0", "3,-6", "3,2"]),
    "54b3": ("1 -1 1 -14 29", 9,
             ["-3,-5", "-3,7", "3,-5", "3,1", "9,-29", "9,19"],
             ["-3,-5", "-3,7", "1,-5", "1,3", "3,-5", "3,1", "9,-29", "9,19"]),
    "90c3": ("1 -1 1 -122 1721", 12,
             ["-9,-41", "-9,49", "81,-761", "81,679"],
             ["-15,7", "-9,-41", "-9,49", "1,-41", "1,39", "9,-41", "9,31",
              "21,-101", "21,79", "81,-761", "81,679"]),
}

# Cyclic degree-m subfields of small cyclotomic fields.
DESCRIPTORS = {
    4: ["cyclo:5:1", "cyclo:13:3", "cyclo:16:7"],
    5: ["cyclo:11:10", "cyclo:25:7"],
    7: ["cyclo:29:12", "cyclo:43:7"],
    9: ["cyclo:19:18", "cyclo:27:26"],
    12: ["cyclo:13:1", "cyclo:37:10"],
}

SMALL_D = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13]

GENERAL_CURVES = [
    "0 -1 1 -10 -20", "0 -1 1 0 0", "1 0 1 4 -6", "1 1 1 -10 -10",
    "1 -1 1 -1 -14", "0 1 1 -9 -15", "0 1 0 4 4", "1 0 0 -4 -1",
    "0 -1 0 -4 4", "1 0 1 -5 -8", "1 -1 1 -3 3", "0 0 1 0 -7",
    "1 0 1 1 2", "1 1 0 -11 0", "0 1 1 9 1", "0 0 1 -1 0",
    "1 -1 1 -14 29", "1 -1 1 -122 1721", "1 0 1 -1 0", "0 1 0 -1 0",
    "1 1 1 -80 242", "1 0 1 -36 -70", "0 1 1 -1 0", "1 0 0 -1 0",
]
SHORT_CURVES = [
    (-1, 0), (-4, 0), (-25, 0), (-36, 0), (0, 1), (0, -432), (-48, 0),
    (4, 0), (-2, 1), (1, 0), (-11, 14), (0, -1), (-7, 6), (0, 8),
    (-432, 8208), (-27, -10), (2, 3),
]

POOL_SIZE = 400


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p: int) -> int:
    phi = p - 1
    qs = [q for q in range(2, phi + 1) if phi % q == 0 and _is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, phi // q, p) != 1 for q in qs))


def _pairing(curve, t, m, p, ext):
    return ["pairing", "--curve", curve, f"--t={t}", "--m", str(m), f"--p={p}", "--ext", ext]


def highm_pools() -> dict[str, list[list[str]]]:
    pools = {}
    for name, (curve, m, ts, points) in HIGHM_CURVES.items():
        pools[name] = [_pairing(curve, t, m, p, ext)
                       for t in ts for p in points for ext in DESCRIPTORS[m]]
    # three-point relbr jobs on 26b1 cost about as much as one 90c3 pairing
    curve, m, ts, points = HIGHM_CURVES["26b1"]
    windows = [";".join(points[(i + k) % len(points)] for k in range(3))
               for i in range(len(points))]
    pools["relbr"] = [["relbr", "--curve", curve, f"--t={t}", "--m", str(m), "--ext", ext,
                       f"--gens={gens}"]
                      for t in ts for ext in DESCRIPTORS[m] for gens in windows]
    return pools


def decide_pools() -> dict[str, list[list[str]]]:
    """m = 2 pairings on y^2 = x^3 - n^2 x; no two jobs share n."""
    rng = random.Random("decide_m2 pool")
    primes = [p for p in range(10**6, 10**6 + 20000) if _is_prime(p)]
    small = rng.sample(range(2, 20000), 2 * POOL_SIZE)
    large = set()
    while len(large) < POOL_SIZE:
        p, q = rng.sample(primes, 2)
        large.add(p * q)

    def job(n, ext):
        point = rng.choice(["0,0", f"{n},0", f"{-n},0"])
        return _pairing(f"[{-n * n},0]", "0,0", 2, point, ext)

    def large_d():
        p, q = rng.sample(primes, 2)
        return rng.choice([1, -1, 2, -2, 3, -3]) * p * q

    squares = {N: pow(_primitive_root(N), 2, N) for N in range(2700, 3100) if _is_prime(N)}
    return {
        # small n, quad:d with d a product of two primes above the
        # trial-division bound
        "small_n": [job(n, f"quad:{large_d()}") for n in small[:POOL_SIZE]],
        # n a product of two primes above the trial-division bound
        "large_n": [job(n, f"quad:{rng.choice(SMALL_D)}") for n in sorted(large)],
        # small n, the quadratic subfield of Q(zeta_N) for N a prime near 3000
        "conductor": [
            job(n, "cyclo:{}:{}".format(*rng.choice(list(squares.items()))))
            for n in small[POOL_SIZE:]
        ],
    }


def cli_pools() -> dict[str, list[list[str]]]:
    torsion = [["torsion", "--curve", c] for c in GENERAL_CURVES]
    for a, b in SHORT_CURVES:
        torsion.append(["torsion", "--curve", f"[{a},{b}]"])
        torsion.append(["torsion", "--curve", f"0 0 0 {a} {b}"])
    pairing, relbr = [], []
    for n in range(1, 13):
        curve = f"[{-n * n},0]"
        for d in SMALL_D[:8]:
            pairing += [_pairing(curve, "0,0", 2, p, f"quad:{d}")
                        for p in ("O", "0,0", f"{n},0", f"{-n},0")]
            base = ["relbr", "--curve", curve, "--t=0,0", "--m", "2", "--ext", f"quad:{d}"]
            relbr += [base, base + [f"--gens=0,0;{n},0"]]
        pairing.append(_pairing(curve, "O", 1, f"{n},0", "cyclo:5:2"))
    return {"torsion": torsion, "pairing": pairing, "relbr": relbr}


def _answer(argv: list[str]) -> dict:
    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(args)
        if code != 0:
            raise RuntimeError(f"pool job exits {code}: {args}")
        return checker.parse_output(args, out.getvalue())

    answer = run(argv + ["--output", "json"])
    if int(hashlib.sha256("\t".join(argv).encode()).hexdigest(), 16) % 10 == 0:
        if run(argv) != answer:
            raise RuntimeError(f"text and JSON answers differ: {argv}")
    return {"argv": argv, "exit": 0, "answer": answer}


def main() -> None:
    workloads = {
        "highm_pairing": highm_pools(),
        "decide_m2": decide_pools(),
        "cli_light": cli_pools(),
    }
    ctx = multiprocessing.get_context("spawn")
    (BENCH / "reference").mkdir(exist_ok=True)
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for workload, classes in workloads.items():
            out = {}
            for cls, jobs in classes.items():
                out[cls] = pool.map(_answer, jobs, chunksize=4)
                print(f"{workload}/{cls}: {len(jobs)} jobs", file=sys.stderr)
            path = BENCH / "reference" / f"{workload}.json"
            path.write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
