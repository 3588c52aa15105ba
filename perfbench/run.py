"""Benchmark harness for harmonicgap: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness builds in place whatever
extension setup.py defines, then runs rounds of the workload, each in a
fresh single-threaded process (perfbench/worker.py), until S seconds have
passed (at least two rounds).  After timing, every distinct output is
checked against independent computations (perfbench/checks.py).

With --trace 0 it reports the end-to-end metrics: wall_s (the timed
operations, as the mean over rounds), and as medians setup_s (process start
to first timed operation; set-up-only processes between rounds add samples)
and peak_rss_mb.  The machine's speed drifts between states that last tens
of seconds; the mean averages the speed over the whole run, where a median
would take the speed of whichever state held most rounds.  With --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics of
perfbench/tracing.py, with the traced-minus-untraced mean wall time as the
tracing overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a full report, with the
environment and every round, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (perfbench/ is sys.path[0])
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_ROUNDS = 2  # a certify-ladder round takes 10-15 s; one untraced round alone is a single sample
SETUP_PROBES = 4
PROBE_EVERY_S = 2.0
ROUND_TIMEOUT_S = 150
SCAN_FILES = ("scan.csv", "scan.ckpt")


def child_env() -> dict[str, str]:
    # no HARMONICGAP_* overrides (precision, forced pure kernel) and a fixed hash seed
    env = {k: v for k, v in os.environ.items() if not k.startswith(("HARMONICGAP_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def build() -> None:
    """Build in place the extensions the package's own setup.py defines (none without Cython)."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: build failed\n{proc.stderr[-4000:]}")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast this machine runs Python right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_round(workload: str, seed: int, workdir: Path, mode: str) -> tuple[dict | None, str | None]:
    workdir.mkdir(parents=True)
    launch = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(launch), str(workdir), mode],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"round exceeded {ROUND_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
    with open(workdir / "round.json", encoding="utf-8") as fh:
        return json.load(fh), None


def measure(args, work: Path) -> tuple[list[float], list[dict]]:
    """Timed rounds for at most args.seconds, with set-up probes.

    After MIN_ROUNDS rounds, a round starts only if, at the mean round time
    so far, it ends within args.seconds, so a run takes about the same time
    whatever its round length.
    Untraced, set-up-only processes run before each round and after the last,
    SETUP_PROBES at first and then one per PROBE_EVERY_S of the run, so the
    set-up samples spread over the whole run.
    """
    run_round(args.workload, args.seed, work / "warm", "probe")  # fills __pycache__
    probes: list[float] = []
    modes = ("run", "trace") if args.trace else ("run",)
    rounds: list[dict] = []
    start = time.monotonic()

    def probe_up_to_now() -> None:
        due = 0 if args.trace else SETUP_PROBES + (time.monotonic() - start) / PROBE_EVERY_S
        while len(probes) < due:
            result, error = run_round(args.workload, args.seed, work / f"probe-{len(probes)}", "probe")
            if result is None:
                raise SystemExit(f"perfbench: set-up failed: {error}")
            probes.append(result["setup_s"])

    while True:
        probe_up_to_now()
        for mode in modes:
            workdir = work / f"round-{len(rounds)}"
            result, error = run_round(args.workload, args.seed, workdir, mode)
            rounds.append({"mode": mode, "dir": workdir, "result": result, "error": error})
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + len(modes)) / len(rounds) > args.seconds:
            probe_up_to_now()
            return probes, rounds


def check_rounds(workload: str, seed: int, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(failed, rejected, reasons) over all rounds; each distinct output is checked once."""
    per_round = workloads.ops_per_round(workload)
    verdicts_by_output: dict[str, list] = {}
    failed = rejected = 0
    reasons: list[str] = []
    for rnd in rounds:
        result = rnd["result"]
        if result is None or len(result["ops"]) != per_round:
            failed += per_round
            reasons.append(rnd["error"] or "wrong number of operations")
            continue
        files = {name: (rnd["dir"] / name).read_text() for name in SCAN_FILES if (rnd["dir"] / name).exists()}
        digest = hashlib.sha256(json.dumps([result["ops"], files], sort_keys=True).encode()).hexdigest()
        if digest not in verdicts_by_output:
            verdicts_by_output[digest] = checks.check_round(workload, seed, result["ops"], files)
        for op, verdict in zip(result["ops"], verdicts_by_output[digest]):
            if verdict is not None:
                failed += 1
                rejected += "error" not in op
                reasons.append(verdict)
    return failed, rejected, reasons


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "harmonicgap" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} is not a harmonicgap checkout (setup.py, src/harmonicgap)", file=sys.stderr)
        return 2

    build()
    calibration_s = calibrate()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        probes, rounds = measure(args, work)
        failed, rejected, reasons = check_rounds(args.workload, args.seed, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r["result"] for r in rounds if r["mode"] == "run" and r["result"] is not None]
    traced = [r["result"] for r in rounds if r["mode"] == "trace" and r["result"] is not None]
    if not untraced or (args.trace and not traced):
        print("perfbench: no round completed: " + "; ".join(reasons[:3]), file=sys.stderr)
        return 1
    wall = statistics.mean(r["wall_s"] for r in untraced)
    if args.trace:
        per_round = [tracing.layer_metrics(r["spans"], r["counters"], r["wall_s"]) for r in traced]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = statistics.mean(r["wall_s"] for r in traced) - wall
        units = dict(tracing.PER_LAYER)
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(probes + [r["setup_s"] for r in untraced]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = dict(untraced[0]["env"], cores=os.cpu_count(), calibration_s=calibration_s)
    summary = {"correct": rejected == 0, "attempted": len(rounds) * workloads.ops_per_round(args.workload),
               "failed": failed, "metrics": metrics}
    report = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=env,
        setup_probes_s=probes,
        rounds=[
            {"mode": r["mode"], "error": r["error"]}
            | ({k: r["result"][k] for k in ("setup_s", "wall_s", "peak_rss_mb")} if r["result"] else {})
            for r in rounds
        ],
        failures=reasons,
    )
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if traced:
        with open(results / f"{args.workload}-seed{args.seed}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": traced[0]["spans"], "counters": traced[0]["counters"]}, fh)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"kernel={env['kernel']} gmpy2={env['gmpy2']} python={env['python']} cores={env['cores']} "
          f"calibration={calibration_s:.4f}s")
    for reason in reasons[:5]:
        print(f"  FAILED: {reason}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
