"""Workload inputs, shared by the worker that runs them and the checks that verify them.

Nothing here imports harmonicgap: the checks rebuild the inputs from the same
seed without touching the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

NAMES = ("scan-1e6", "certify-ladder", "joint-60", "et-weyl")

# scan-1e6: the record scan through the CLI, serial, with checkpoint and CSV output
SCAN_N_MAX = 1_000_000
SCAN_ARGV = ("scan", "--n-max", str(SCAN_N_MAX), "--threads", "1")
SCAN_SPOT_CHECKS = 64  # seeded n re-derived with mpmath by the checks

# certify-ladder: canonical certification at large k, ascending.  From
# k = 240 ln_ball needs the 8192-bit bucket, whose first use costs ~7 s
# (ln 2 at that precision), so the ladder ends inside it and that cost counts.
# The full even ladder 100..400 takes ~150 s per process on a 2-core machine.
LADDER = tuple(range(100, 251, 10))

# joint-60: the (k, d) window search of the paper's joint minimisation
JOINT_K_MAX = 60
JOINT_WINDOW = 5

# et-weyl: Erdos-Turan checks on seeded rational point sets of fixed shape,
# so every seed does the same amount of work
ET_INSTANCES = 12
ET_POINTS = 400
ET_ORDER = 40


def ops_per_round(workload: str) -> int:
    return {"scan-1e6": 1, "certify-ladder": len(LADDER), "joint-60": 1, "et-weyl": ET_INSTANCES}[workload]


def et_instances(seed: int) -> list[tuple[list[Fraction], Fraction, Fraction, int]]:
    """(points, a, b, order) per instance: N points j/den mod 1 and an interval [a, b]."""
    rng = random.Random(seed)
    out = []
    for _ in range(ET_INSTANCES):
        den = rng.randrange(1 << 15, 1 << 16)
        points = [Fraction(rng.randrange(den), den) for _ in range(ET_POINTS)]
        a = Fraction(rng.randrange(den), den)
        delta = Fraction(rng.randrange(den // 8, den // 2), den)
        out.append((points, a, a + delta, ET_ORDER))
    return out


def scan_spot_ns(seed: int) -> list[int]:
    """Seeded sample of n in [3, SCAN_N_MAX] whose scaled overshoot the checks re-derive."""
    rng = random.Random(seed)
    return sorted(rng.randrange(3, SCAN_N_MAX + 1) for _ in range(SCAN_SPOT_CHECKS))
