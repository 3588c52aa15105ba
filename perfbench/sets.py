"""Run a set of benchmark runs, one per seed, and summarise each metric.

    python3 perfbench/sets.py [--seeds 1-10] [--trace 0|1]

For every workload it runs perfbench/run.py once per seed, for the
run_seconds of BENCHMARK.json, and prints, per metric, the median, the first
and third quartiles and their distance as a share of the median
(statistics.quantiles(values, n=4)), as Markdown rows.  This regenerates the
reference tables in perfbench/README.md.  Untraced sets also get a row for
wall_s.round_median, the median over each run's rounds, for comparison with
wall_s, their mean.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (perfbench/ is sys.path[0])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads.NAMES:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", args.trace],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if args.trace == "0":
                # the median over rounds that wall_s (a mean) replaced, from the same rounds
                report = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
                values.setdefault("wall_s.round_median", []).append(
                    statistics.median(r["wall_s"] for r in report["rounds"] if r["mode"] == "run" and "wall_s" in r))
                units["wall_s.round_median"] = "s"
            print(f"{workload} seed {seed}: {time.monotonic() - started:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if v["value"]),
                  file=sys.stderr, flush=True)
        for name, vs in values.items():
            if not any(vs):
                continue  # a layer this workload does not run
            median = statistics.median(vs)
            quartiles = ["-", "-", "-"]
            if len(vs) > 1:
                q1, _q2, q3 = statistics.quantiles(vs, n=4)
                quartiles = [f"{q1:.4g}", f"{q3:.4g}", f"{(q3 - q1) / median:.3f}"]
            print(f"| {workload} | {name} ({units[name]}) | {median:.4g} | " + " | ".join(quartiles)
                  + f" | {failed}/{attempted} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
