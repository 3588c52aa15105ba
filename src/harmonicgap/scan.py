"""Exhaustive record scan for the scaled overshoot n^2 * (H_t - H_{n-1} - 1).

A fixed-point screen (compiled kernel when available) walks every n up to
the horizon, flagging candidates that might improve the running record or
fall below the connection threshold, each with a certified lower bound on
its scaled overshoot.  The merge confirms in exact rationals only the flags
whose bound still beats the running record or the threshold, and every
emitted record is re-verified with pure rational arithmetic.

The connection threshold tau = (3/e + 1/e^2 - 1)/24 is the scaled quality
below which (asymptotically) the offset y must drop under 1/8, forcing the
reduced fraction (2m+1)/(2n-1) to be a convergent of e.  Every scanned n
with n^2 eps below tau * (1 - 10/n) gets a connection report; a
non-convergent there would be a release-blocking finding.

Scan results are a pure function of the horizon: blocks have a fixed size
independent of the worker count, every block is screened independently,
and the merge is sequential and deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import __version__
from ._pool import ordered_map
from ._screen import KIND_RECORD, KIND_TAU, frac_bits_for, kernel_name, screen_block
from .contfrac import is_e_convergent
from .errors import CheckpointError
from .exactnum import Ball, constants, escalating
from .harmonic import _walk, exact_sum, pair_offset

__all__ = [
    "RecordRow",
    "ConnectionReport",
    "RecordTable",
    "quality_threshold",
    "connection_report",
    "scan_records",
    "DEFAULT_BLOCK_SIZE",
]

DEFAULT_BLOCK_SIZE = 1 << 16
CSV_HEADER = "n,t,eps_num,eps_den,scaled_num,scaled_den,reduced_p,reduced_q,d,is_convergent"


def quality_threshold(prec: int = 128) -> Ball:
    """tau = (3/e + e^-2 - 1)/24, the scaled-quality connection threshold.

    At offset exactly 1/8 the second-order prediction times n^2 equals tau.
    """
    c = constants(prec + 16)
    inv = Ball.from_fraction(1, prec + 16).div(c.e)
    return (3 * inv + inv * inv - 1).div(Ball.from_fraction(24, prec + 16)).at(prec)


@dataclass(frozen=True)
class ConnectionReport:
    """Reduction of (2m+1)/(2n-1) and its convergent membership."""

    n: int
    m: int
    d: int
    reduced_p: int
    reduced_q: int
    is_convergent: bool
    offset: Ball

    @staticmethod
    def build(n: int, m: int) -> "ConnectionReport":
        d, p, q = _reduced(n, m)
        return ConnectionReport(
            n=n,
            m=m,
            d=d,
            reduced_p=p,
            reduced_q=q,
            is_convergent=is_e_convergent(p, q),
            offset=pair_offset(n, m, 128),
        )


def _reduced(n: int, m: int) -> tuple[int, int, int]:
    """(d, p, q) with d = gcd(2m+1, 2n-1) and p/q = (2m+1)/(2n-1) in lowest terms."""
    a, b = 2 * m + 1, 2 * n - 1
    d = gcd(a, b)
    return d, a // d, b // d


def connection_report(n: int, m: int) -> ConnectionReport:
    if not 2 <= n <= m:
        raise ValueError("need 2 <= n <= m")
    return ConnectionReport.build(n, m)


@dataclass(frozen=True)
class RecordRow:
    n: int
    t: int
    overshoot: Fraction
    scaled: Fraction
    reduced_p: int
    reduced_q: int
    d: int
    is_convergent: bool

    def csv(self) -> str:
        return (
            f"{self.n},{self.t},{self.overshoot.numerator},{self.overshoot.denominator},"
            f"{self.scaled.numerator},{self.scaled.denominator},"
            f"{self.reduced_p},{self.reduced_q},{self.d},{str(self.is_convergent).lower()}"
        )

    def json_obj(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "eps_num": str(self.overshoot.numerator),
            "eps_den": str(self.overshoot.denominator),
            "scaled_num": str(self.scaled.numerator),
            "scaled_den": str(self.scaled.denominator),
            "reduced_p": str(self.reduced_p),
            "reduced_q": str(self.reduced_q),
            "d": self.d,
            "is_convergent": self.is_convergent,
        }


@dataclass
class RecordTable:
    horizon: int
    records: list[RecordRow] = field(default_factory=list)
    below_threshold: list[RecordRow] = field(default_factory=list)
    exact_hits: list[tuple[int, int]] = field(default_factory=list)  # (n, t) with overshoot exactly 0
    kernel: str = ""
    wall_time_s: float | None = None

    def csv_lines(self) -> list[str]:
        return [CSV_HEADER] + [r.csv() for r in self.records]

    def json_obj(self, timing: bool = False) -> dict:
        return {
            "horizon": self.horizon,
            "version": __version__,
            "wall_time_s": self.wall_time_s if timing else None,
            "kernel": self.kernel,
            "records": [r.json_obj() for r in self.records],
            "below_threshold": [r.json_obj() for r in self.below_threshold],
            "exact_hits": [list(pair) for pair in self.exact_hits],
        }

    def profile(self, delta: Fraction, prec: int = 96) -> list[tuple[int, str, str]]:
        """n^(2+delta) * overshoot per record: the conjectured-divergence view."""
        out = []
        for r in self.records:
            v = Ball.from_fraction(r.n, prec).pow_frac(2 + Fraction(delta), prec).mul(
                Ball.from_fraction(r.overshoot, prec)
            )
            lo, hi = v.interval_str(20)
            out.append((r.n, lo, hi))
        return out


def _confirm_exact(n: int, t_screen: int) -> tuple[int, Fraction]:
    """Exact crossing and overshoot, walked from the screen's estimate.

    The window holds about 1.72 n terms.  exact_sum adds them at any size
    over a denominator near lcm(n..t_screen), about 1.44 t_screen bits, and
    reduces once.
    """
    return _walk(n, t_screen, exact_sum(n, t_screen))


def _tau_compare_exact(scaled: Fraction, n: int) -> bool:
    """Decide n^2 eps < tau (1 - 10/n) for exact scaled and n > 10, escalating tau."""
    target = scaled * Fraction(n, n - 10)

    def attempt(w: int) -> bool | None:
        cmp = quality_threshold(w).cmp_fraction(target)
        return None if cmp is None else cmp > 0

    return escalating(attempt, start=128, what="connection threshold comparison")


class _Merger:
    """Sequential, deterministic confirmation of screened candidates."""

    def __init__(self):
        self.records: list[RecordRow] = []
        self.below: list[RecordRow] = []
        self.exact_hits: list[tuple[int, int]] = []
        self.min_scaled: Fraction | None = None
        self.tau_hi: Fraction = quality_threshold(128).hi.as_fraction()

    def _row(self, n: int, t: int, eps: Fraction, scaled: Fraction) -> RecordRow:
        d, p, q = _reduced(n, t)
        return RecordRow(
            n=n,
            t=t,
            overshoot=eps,
            scaled=scaled,
            reduced_p=p,
            reduced_q=q,
            d=d,
            is_convergent=is_e_convergent(p, q),
        )

    def feed(self, n: int, t_screen: int, kind: int, lo: Fraction) -> None:
        """Confirm a flag whose certified lower bound lo on n^2 eps can still
        set a record or fall below the connection threshold."""
        want_record = kind & KIND_RECORD and (self.min_scaled is None or lo < self.min_scaled)
        want_tau = kind & KIND_TAU and n > 10 and lo < self.tau_hi * Fraction(n - 10, n)
        if not (want_record or want_tau):
            return

        t, eps = _confirm_exact(n, t_screen)
        scaled = n * n * eps
        if eps == 0:
            self.exact_hits.append((n, t))
        if self.min_scaled is None or scaled < self.min_scaled:
            self.records.append(self._row(n, t, eps, scaled))
            self.min_scaled = scaled
        if n > 10 and _tau_compare_exact(scaled, n):
            self.below.append(self._row(n, t, eps, scaled))


def _screen_args(n_max: int, block_size: int, start: int, frac_bits: int, tau_fp: int):
    # every block rebuilds its initial window (~1.72 * lo terms), so spans
    # grow with the position to keep that amortized; boundaries depend only
    # on (start, n_max, block_size), never on the worker count
    lo = start
    while lo <= n_max:
        span = max(block_size, lo // 8)
        hi = min(lo + span, n_max + 1)
        yield (lo, hi, frac_bits, tau_fp)
        lo = hi


def _run_screen(args):
    return screen_block(*args)


def _tau_fp_bound(frac_bits: int) -> int:
    tau = quality_threshold(160)
    hi = tau.hi
    shift = frac_bits - 32 + hi.exp
    if shift >= 0:
        return (hi.man << shift) + 1
    return -((-hi.man) >> -shift) + 1


# ----------------------------------------------------------------------
# Checkpoints: tiny, cursor-only; sums are recomputed on resume
# ----------------------------------------------------------------------

_CKPT_FORMAT = 1


def _checkpoint_payload(n_max, block_size, next_start, merger: _Merger) -> dict:
    return {
        "format": _CKPT_FORMAT,
        "horizon": n_max,
        "block_size": block_size,
        "next_start": next_start,
        "records": [[r.n, r.t] for r in merger.records],
        "below_threshold": [[r.n, r.t] for r in merger.below],
        "exact_hits": [list(pair) for pair in merger.exact_hits],
    }


def _save_checkpoint(path: str, payload: dict) -> None:
    """Replace the checkpoint atomically: a crash mid-save leaves the previous one."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode()).hexdigest()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"payload": payload, "sha256": digest}, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _check_cursors(path: str, payload: dict, n_max: int) -> None:
    """Refuse hash-valid cursors that resuming could not use."""
    next_start = payload.get("next_start")
    # type() rather than isinstance: JSON true and false are bools, a subclass of int
    if type(next_start) is not int or not 2 <= next_start <= n_max + 1:
        raise CheckpointError(f"checkpoint {path} has an invalid next_start {next_start!r}")
    for key in ("records", "below_threshold", "exact_hits"):
        entries = payload.get(key)
        if not isinstance(entries, list):
            raise CheckpointError(f"checkpoint {path} has no {key} list")
        for entry in entries:
            # n < next_start and n <= t(n) < 3n bound the exact re-verification
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and all(type(v) is int for v in entry)
                and 2 <= entry[0] < next_start
                and entry[0] <= entry[1] <= 3 * entry[0]
            ):
                raise CheckpointError(f"checkpoint {path} has a malformed {key} entry {entry!r}")


def _load_checkpoint(path: str, n_max: int, block_size: int) -> dict | None:
    """The checkpoint's payload, or None when there is no checkpoint yet."""
    try:
        with open(path, encoding="utf-8") as fh:
            wrapper = json.load(fh)
        payload = wrapper["payload"]
        digest = wrapper["sha256"]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode()).hexdigest() != digest:
        raise CheckpointError(f"checkpoint {path} failed its integrity hash")
    if not isinstance(payload, dict) or payload.get("format") != _CKPT_FORMAT:
        raise CheckpointError(f"checkpoint {path} has an unsupported format")
    if payload.get("horizon") != n_max or payload.get("block_size") != block_size:
        raise CheckpointError(
            f"checkpoint {path} was taken for a different scan "
            f"(horizon {payload.get('horizon')}, block {payload.get('block_size')})"
        )
    _check_cursors(path, payload, n_max)
    return payload


def _replay_merger(payload: dict) -> _Merger:
    """Feed every stored row through the merge, which must rebuild the stored
    lists exactly; a record left out of them cannot be seen without re-screening."""
    merger = _Merger()
    rows = {tuple(row) for key in ("records", "below_threshold", "exact_hits") for row in payload[key]}
    for n, t in sorted(rows):
        merger.feed(n, t, KIND_RECORD | KIND_TAU, Fraction(0))
    if _checkpoint_payload(payload["horizon"], payload["block_size"], payload["next_start"], merger) != payload:
        raise CheckpointError("checkpoint rows do not re-verify")
    return merger


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def scan_records(
    n_max: int,
    threads: int = 1,
    checkpoint_path: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> RecordTable:
    """Complete record table for 2 <= n <= n_max.

    The output is a pure function of n_max: thread count,
    block size and checkpoint placement never change it.  Records are
    emitted only after exact rational re-verification.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if block_size < 1024:
        raise ValueError("block_size must be >= 1024")
    started = time.monotonic()
    frac_bits = frac_bits_for(n_max)
    tau_fp = _tau_fp_bound(frac_bits)
    unit = 1 << (frac_bits - 32)

    start = 2
    merger = _Merger()
    payload = None if checkpoint_path is None else _load_checkpoint(checkpoint_path, n_max, block_size)
    if payload is not None:
        merger = _replay_merger(payload)
        start = payload["next_start"]

    args = list(_screen_args(n_max, block_size, start, frac_bits, tau_fp))
    with ordered_map(_run_screen, args, threads) as screened:
        for (_lo, hi, _, _), (flags, _m) in zip(args, screened):
            for n, t, kind, scaled_lo in flags:
                merger.feed(n, t, kind, Fraction(scaled_lo, unit))
            if checkpoint_path is not None:
                _save_checkpoint(
                    checkpoint_path,
                    _checkpoint_payload(n_max, block_size, hi, merger),
                )

    return RecordTable(
        horizon=n_max,
        records=merger.records,
        below_threshold=merger.below,
        exact_hits=merger.exact_hits,
        kernel=kernel_name(frac_bits, n_max + 1),
        wall_time_s=time.monotonic() - started,
    )
