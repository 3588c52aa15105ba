"""Span tracing of harmonicgap's layers, and the per-layer metrics derived from it.

`install` rebinds the public functions of each layer at the module attributes
their callers look up, so a call from one layer into another opens a span
(name, start, end, parent).  Spans stay in memory; the worker writes them out
when the round ends and `layer_metrics` turns them into self times and counts.
A span's self time is its duration minus that of its direct children; a
layer's self time is the sum over the spans named after it.

Coverage is the share of the traced wall time spent in spans below a
workload's entry spans (cli.main, certify, joint_search, erdos_turan_check).
An entry span's own self time is not covered: it holds, besides the entry
function's own work, any call into code that is not wrapped.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

# (name, unit); every traced run reports all of them, 0 where a layer does not run
PER_LAYER = (
    ("screen.s", "s"),
    ("screen.calls", "count"),
    ("screen.flags", "count"),
    ("scan.self_s", "s"),
    ("scan.settled", "count"),
    ("scan.settled_ratio", "ratio"),
    ("scan.exact_calls", "count"),
    ("scan.connection_s", "s"),
    ("scan.checkpoint_s", "s"),
    ("scan.checkpoint_writes", "count"),
    ("scan.checkpoint_bytes", "bytes"),
    ("scan.serialize_s", "s"),
    ("scan.output_bytes", "bytes"),
    ("harmonic.self_s", "s"),
    ("harmonic.ball_sum_s", "s"),
    ("harmonic.ball_sum_calls", "count"),
    ("harmonic.exact_sum_s", "s"),
    ("harmonic.exact_sum_calls", "count"),
    ("exactnum.ln_s", "s"),
    ("exactnum.ln_calls", "count"),
    ("exactnum.ln_max_bits", "bits"),
    ("exactnum.decisions", "count"),
    ("exactnum.escalations", "count"),
    ("intops.sum_s", "s"),
    ("intops.gcd_s", "s"),
    ("intops.max_bits", "bits"),
    ("contfrac.s", "s"),
    ("contfrac.calls", "count"),
    ("construct.self_s", "s"),
    ("construct.multiplier_s", "s"),
    ("construct.exact_route", "count"),
    ("construct.ball_route", "count"),
    ("counting.self_s", "s"),
    ("counting.weyl_s", "s"),
    ("counting.weyl_calls", "count"),
    ("counting.weyl_terms", "count"),
    ("counting.escalations", "count"),
    ("cli.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until the round ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind each layer's entry points, at every binding a caller uses, to traced versions."""
    from harmonicgap import cli, construct, contfrac, counting, exactnum, harmonic, scan

    def rebind(attr, wrapped, *modules):
        for module in modules:
            setattr(module, attr, wrapped)

    # screen: the only caller is scan._run_screen
    scan.screen_block = tracer.span(
        "screen.screen_block", scan.screen_block, lambda a, r: tracer.add("screen.flags", len(r[0]))
    )

    # scan
    scan.scan_records = tracer.span("scan.scan_records", scan.scan_records)
    scan._confirm_exact = tracer.span("scan.confirm_exact", scan._confirm_exact)
    scan.ConnectionReport.build = staticmethod(tracer.span("scan.connection", scan.ConnectionReport.build))
    scan._save_checkpoint = tracer.span(
        "scan.checkpoint", scan._save_checkpoint, lambda a, r: tracer.add("scan.checkpoint_bytes", os.path.getsize(a[0]))
    )
    scan.RecordTable.csv_lines = tracer.span("scan.serialize", scan.RecordTable.csv_lines)

    # harmonic, at the bindings of scan and construct
    for attr in ("ball_sum", "exact_sum", "pair_offset", "predicted_overshoot"):
        wrapped = tracer.span(f"harmonic.{attr}", getattr(harmonic, attr))
        rebind(attr, wrapped, *(m for m in (scan, construct) if hasattr(m, attr)))

    # _intops, at harmonic's bindings
    harmonic.harmonic_pair = tracer.span(
        "intops.harmonic_pair",
        harmonic.harmonic_pair,
        lambda a, r: tracer.peak("intops.max_bits", max(abs(r[0]).bit_length(), r[1].bit_length())),
    )
    harmonic.fraction_from = tracer.span("intops.fraction_from", harmonic.fraction_from)

    # exactnum: harmonic.em_difference imports ln_ball from exactnum at call time
    ln = tracer.span("exactnum.ln_ball", exactnum.ln_ball, lambda a, r: tracer.peak("exactnum.ln_max_bits", r.prec))
    rebind("ln_ball", ln, exactnum, construct, counting)

    escalating = exactnum.escalating

    @functools.wraps(escalating)
    def counted_escalating(compute, *args, **kwargs):
        attempts = 0

        def attempt(prec):
            nonlocal attempts
            attempts += 1
            return compute(prec)

        try:
            return escalating(attempt, *args, **kwargs)
        finally:
            tracer.add("exactnum.decisions")
            tracer.add("exactnum.escalations", attempts - 1)

    rebind("escalating", counted_escalating, exactnum, harmonic, scan, construct, contfrac)

    # contfrac, at the bindings of construct and scan
    construct.odd_convergent = tracer.span("contfrac.odd_convergent", construct.odd_convergent)
    scan.is_e_convergent = tracer.span("contfrac.is_e_convergent", scan.is_e_convergent)

    # construct
    construct.ideal_multiplier = tracer.span("construct.ideal_multiplier", construct.ideal_multiplier)
    construct.pick_multiplier = tracer.span("construct.pick_multiplier", construct.pick_multiplier)
    construct._overshoot_ball = tracer.span(
        "construct.overshoot",
        construct._overshoot_ball,
        lambda a, r: tracer.add("construct.exact_route" if r[1] is not None else "construct.ball_route"),
    )
    construct.certify = tracer.span("construct.certify", construct.certify)
    construct.joint_search = tracer.span("construct.joint_search", construct.joint_search)

    # counting
    def weyl_done(args, result):
        tracer.add("counting.weyl_calls")
        tracer.add("counting.weyl_terms", len(args[0]))

    counting.weyl_sum_abs = tracer.span("counting.weyl_sum_abs", counting.weyl_sum_abs, weyl_done)
    traced_check = tracer.span("counting.erdos_turan_check", counting.erdos_turan_check)

    @functools.wraps(traced_check)
    def erdos_turan_check(ps, a, b, order, *args, **kwargs):
        # each attempt evaluates |S_m| for m = 1..order; further attempts are escalations
        before = tracer.counters.get("counting.weyl_calls", 0)
        report = traced_check(ps, a, b, order, *args, **kwargs)
        calls = tracer.counters.get("counting.weyl_calls", 0) - before
        tracer.add("counting.escalations", calls // order - 1)
        return report

    counting.erdos_turan_check = erdos_turan_check

    # cli: the scan workload enters through cli.main
    cli.main = tracer.span("cli.main", cli.main)


def layer_metrics(spans: list, counters: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round (without the overhead, which needs an untraced round)."""
    covered = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    below_entry_s = 0.0
    for (name, start, end, parent), child in zip(spans, covered):
        self_s[name] += (end - start - child) / 1e9
        calls[name] += 1
        if parent < 0:
            below_entry_s += child / 1e9
    layer_s: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        layer_s[name.split(".", 1)[0]] += seconds

    flags = counters.get("screen.flags", 0)
    exact_calls = calls["scan.confirm_exact"]
    return {
        "screen.s": layer_s["screen"],
        "screen.calls": calls["screen.screen_block"],
        "screen.flags": flags,
        "scan.self_s": layer_s["scan"],
        "scan.settled": flags - exact_calls,
        "scan.settled_ratio": (flags - exact_calls) / flags if flags else 0.0,
        "scan.exact_calls": exact_calls,
        "scan.connection_s": self_s["scan.connection"],
        "scan.checkpoint_s": self_s["scan.checkpoint"],
        "scan.checkpoint_writes": calls["scan.checkpoint"],
        "scan.checkpoint_bytes": counters.get("scan.checkpoint_bytes", 0),
        "scan.serialize_s": self_s["scan.serialize"],
        "scan.output_bytes": counters.get("scan.output_bytes", 0),
        "harmonic.self_s": layer_s["harmonic"],
        "harmonic.ball_sum_s": self_s["harmonic.ball_sum"],
        "harmonic.ball_sum_calls": calls["harmonic.ball_sum"],
        "harmonic.exact_sum_s": self_s["harmonic.exact_sum"],
        "harmonic.exact_sum_calls": calls["harmonic.exact_sum"],
        "exactnum.ln_s": self_s["exactnum.ln_ball"],
        "exactnum.ln_calls": calls["exactnum.ln_ball"],
        "exactnum.ln_max_bits": counters.get("exactnum.ln_max_bits", 0),
        "exactnum.decisions": counters.get("exactnum.decisions", 0),
        "exactnum.escalations": counters.get("exactnum.escalations", 0),
        "intops.sum_s": self_s["intops.harmonic_pair"],
        "intops.gcd_s": self_s["intops.fraction_from"],
        "intops.max_bits": counters.get("intops.max_bits", 0),
        "contfrac.s": layer_s["contfrac"],
        "contfrac.calls": calls["contfrac.odd_convergent"] + calls["contfrac.is_e_convergent"],
        "construct.self_s": layer_s["construct"],
        "construct.multiplier_s": self_s["construct.pick_multiplier"] + self_s["construct.ideal_multiplier"],
        "construct.exact_route": counters.get("construct.exact_route", 0),
        "construct.ball_route": counters.get("construct.ball_route", 0),
        "counting.self_s": layer_s["counting"],
        "counting.weyl_s": self_s["counting.weyl_sum_abs"],
        "counting.weyl_calls": calls["counting.weyl_sum_abs"],
        "counting.weyl_terms": counters.get("counting.weyl_terms", 0),
        "counting.escalations": counters.get("counting.escalations", 0),
        "cli.s": layer_s["cli"],
        "trace.wall_s": wall_s,
        "trace.coverage": below_entry_s / wall_s,
    }
