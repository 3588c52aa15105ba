"""One round of a workload in a fresh, single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED LAUNCH_NS WORKDIR MODE

MODE is `probe` (set up, then stop), `run` (set up and time the operations)
or `trace` (the same with layer spans recorded).  LAUNCH_NS is the parent's
time.monotonic_ns() just before it started this process, so set-up time
covers interpreter start, package import and input generation.  The round's
timings, peak RSS, encoded outputs and spans go to WORKDIR/round.json; the
scan workload leaves its CSV and checkpoint in WORKDIR as well.

Big integers are written in hex: decimal conversion is quadratic in CPython
and the exact overshoots of joint-60 have about a million bits.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is sys.path[0])


def peak_rss_kb() -> int:
    """This process's peak resident set.

    VmHWM restarts at exec; ru_maxrss would report the parent's peak when that
    is higher, since Linux carries it across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def encode_ball(b) -> list:
    return [hex(b.lo.man), b.lo.exp, hex(b.hi.man), b.hi.exp]


def encode_fraction(f) -> list:
    return [hex(f.numerator), hex(f.denominator)]


def encode_pair(p) -> dict:
    return {
        "k": p.k,
        "d": p.d,
        "m": hex(p.m),
        "n": hex(p.n),
        "quality": encode_ball(p.quality),
        "overshoot": encode_ball(p.overshoot),
        "overshoot_exact": None if p.overshoot_exact is None else encode_fraction(p.overshoot_exact),
        "canonical": p.canonical,
        "bound_ok": p.bound_ok,
    }


def prepare(workload: str, seed: int, workdir: Path):
    """(operations, encoder) for one round; everything here counts as set-up."""
    from harmonicgap import cli, construct, counting

    if workload == "scan-1e6":
        argv = [*workloads.SCAN_ARGV, "--checkpoint", str(workdir / "scan.ckpt"), "--output", str(workdir / "scan.csv")]
        return [lambda: cli.main(argv)], lambda rc: {"rc": rc}

    if workload == "certify-ladder":
        return [lambda k=k: construct.certify(k) for k in workloads.LADDER], encode_pair

    if workload == "joint-60":
        def joint():
            return construct.joint_search(workloads.JOINT_K_MAX, window=workloads.JOINT_WINDOW, workers=1)

        return [joint], lambda r: {"skipped": r[1], "pairs": [encode_pair(p) for p in r[0]]}

    if workload == "et-weyl":
        # keep every |S_m| ball the check computes, so the checks can test each one
        weyl = counting.weyl_sum_abs
        sink: list = []

        def recording_weyl(ps, m, bits=72):
            out = weyl(ps, m, bits)
            sink.append((m, bits, out))
            return out

        counting.weyl_sum_abs = recording_weyl

        def check(points, a, b, order):
            sink.clear()
            report = counting.erdos_turan_check(points, a, b, order)
            return report, list(sink)

        ops = [
            lambda inst=(counting.PointSet.of(p), a, b, order): check(*inst)
            for p, a, b, order in workloads.et_instances(seed)
        ]

        def encode(result):
            r, balls = result
            return {
                "n_points": r.n_points,
                "count": r.count,
                "delta": encode_fraction(r.delta),
                "order": r.order,
                "lhs": encode_fraction(r.lhs),
                "rhs": encode_ball(r.rhs),
                "holds": r.holds,
                "weyl": [[m, bits, encode_ball(ball)] for m, bits, ball in balls],
            }

        return ops, encode

    raise SystemExit(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, seed, launch_ns, workdir, mode = argv
    workdir = Path(workdir)
    import harmonicgap
    from harmonicgap import _intops, _screen

    if not Path(harmonicgap.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"harmonicgap imported from {harmonicgap.__file__}, not from this checkout")
    ops, encode = prepare(workload, int(seed), workdir)
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    start = time.monotonic_ns()
    results = []
    if mode != "probe":
        for op in ops:
            try:
                results.append((True, op()))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((False, f"{type(exc).__name__}: {exc}"))
    end = time.monotonic_ns()
    peak_rss_mb = peak_rss_kb() / 1024

    out = {
        "setup_s": (start - int(launch_ns)) / 1e9,
        "wall_s": (end - start) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "kernel": _screen.kernel_name(),
            "gmpy2": _intops.HAVE_GMPY2,
            "python": platform.python_version(),
        },
        "ops": [encode(value) if ok else {"error": value} for ok, value in results],
    }
    if tracer is not None:
        csv = workdir / "scan.csv"
        if csv.exists():
            tracer.add("scan.output_bytes", csv.stat().st_size)
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    with open(workdir / "round.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
