"""Seeded job generator.

Each workload is a repeating block of job classes; every slot of a block
draws the next job of its class from a permutation of that class's pool, so
the mix of job costs is the same for every seed while the seed decides which
curves, points, scalars and fields appear.  A pool is walked to its end
before any of its jobs repeats.  The pools and their reference answers live
in ``reference/<workload>.json`` (written by ``make_reference.py``); the
program sees only the argv lists.
"""

from __future__ import annotations

import random
from typing import Iterator

# Why each block is shaped as it is: the median job and the job with ten
# slower ones beyond it must fall inside one class's range of costs, not
# between two classes, or a run's few jobs more or less of one class would
# move them a lot.
BLOCKS = {
    # three cheaper and three dearer jobs around two 54b3 pairings, which
    # hold the median; the two m=12 pairings on 90c3 hold the tail.
    "highm_pairing": ("E1", "E2", "26b1", "54b3", "54b3", "relbr", "90c3", "90c3"),
    # factoring-bound jobs hold the median, large-conductor descriptors the tail.
    "decide_m2": ("small_n", "large_n", "conductor"),
    # half torsion, half m <= 2 classes.
    "cli_light": ("torsion", "torsion", "pairing", "relbr"),
}


def stream(pools: dict[str, list], workload: str, seed: int,
           salt: str = "") -> Iterator[tuple[list[str], dict]]:
    """Endless stream of (argv, reference entry) for one workload; the same
    seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}:{salt}")
    orders: dict[str, list[int]] = {}
    while True:
        for cls in BLOCKS[workload]:
            if not orders.get(cls):
                order = list(range(len(pools[cls])))
                rng.shuffle(order)
                orders[cls] = order
            entry = pools[cls][orders[cls].pop()]
            argv = list(entry["argv"])
            if workload == "cli_light" and rng.random() < 0.5:
                argv += ["--output", "json"]
            yield argv, entry
