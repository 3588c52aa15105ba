"""How this machine's speed drifts: the figures behind wall_s being a mean.

    python3 perfbench/drift.py [--seconds 600]

One process runs the first et-weyl instance of seed 1 and then a gcd of two
seeded 400,000-bit integers, back to back, for --seconds.  It prints the
median time of each per 10 s window, the correlation of the two, and, for
runs of 30, 40 and 60 s starting every second, the spread (Q3 - Q1)/median
over runs of the median and of the mean of each run's 2 s rounds.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is sys.path[0])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=600)
    args = ap.parse_args()
    if args.seconds < 120:
        ap.error("--seconds must be at least 120, twice the longest run")
    from harmonicgap import counting

    points, a, b, order = workloads.et_instances(1)[0]
    instance = (counting.PointSet.of(points), a, b, order)
    rng = random.Random(1)
    x, y = rng.getrandbits(400_000) | 1, rng.getrandbits(400_000) | 1

    samples = []  # (start, instance seconds, gcd seconds)
    start = time.perf_counter()
    while (t0 := time.perf_counter()) - start < args.seconds:
        counting.erdos_turan_check(*instance)
        t1 = time.perf_counter()
        math.gcd(x, y + len(samples))
        samples.append((t0 - start, t1 - t0, time.perf_counter() - t1))

    windows: dict[int, list] = {}
    for s in samples:
        windows.setdefault(int(s[0] // 10), []).append(s)
    et = [statistics.median(s[1] for s in w) for w in windows.values()]
    gcd = [statistics.median(s[2] for s in w) for w in windows.values()]
    print("10 s window medians, instance (ms):", " ".join(f"{1e3 * v:.0f}" for v in et))
    print("10 s window medians, gcd (ms):     ", " ".join(f"{1e3 * v:.0f}" for v in gcd))
    print(f"correlation {statistics.correlation(et, gcd):.2f}")

    per_round = max(1, round(2 / statistics.mean(s[1] + s[2] for s in samples)))
    rounds = [(samples[i][0], sum(s[1] + s[2] for s in samples[i:i + per_round]))
              for i in range(0, len(samples) - per_round + 1, per_round)]
    for length in (30, 40, 60):
        runs = [[r[1] for r in rounds if t <= r[0] < t + length] for t in range(int(args.seconds - length))]
        print(f"{length} s runs: spread {spread([statistics.median(r) for r in runs]):.3f} with the median "
              f"over rounds, {spread([statistics.mean(r) for r in runs]):.3f} with the mean, over {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
