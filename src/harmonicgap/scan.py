"""Exhaustive record scan for the scaled overshoot n^2 * (H_t - H_{n-1} - 1).

Every n below N0 = 64 is walked exactly.  From N0 on, the screen of
`_screen` (one u128 addition per n) flags the n with n (ceil z - z) < 17/16,
z = e n - (1+e)/2.  Its certificate shows that t(n) >= ceil z, and that
every other n has n^2 eps >= 1/3, so holds no record after n = 2 and no row
below the connection threshold.  Each flag is certified at m = ceil z by
`harmonic.scaled_overshoot` at y = n delta and h = 1/n: where S >= 1,
t(n) = ceil z and the flag carries the ball's lower end, a lower bound on
n^2 eps; where S < 1, y >= n and the flag is dropped; where the sign is
undecided, the flag carries 0.  The merge confirms in exact
rationals only the flags whose bound still beats the running record or the
threshold, and every emitted record is re-verified with pure rational
arithmetic.

The connection threshold tau = (3/e + 1/e^2 - 1)/24 is the scaled quality
below which (asymptotically) the offset y must drop under 1/8, forcing the
reduced fraction (2m+1)/(2n-1) to be a convergent of e.  Every scanned n
with n^2 eps below tau * (1 - 10/n) becomes a below_threshold row, which
records its reduced fraction and whether that is a convergent; a
non-convergent there would be a release-blocking finding.

Scan results are a pure function of the horizon: block bounds do not depend
on the worker count, a block's flags depend only on its bounds (each block
starts its walk from e at a fixed cost), and the merge is sequential and
deterministic.  The screen runs for any n, so the exact
confirmation of records sets the horizon.  With the C kernels (2-core
machine, Python 3.11.7), `scan --n-max` takes 0.2-0.3 s at 10^6 and 10^7,
mostly start-up, and about 100 s at 10^8, nearly all of it the exact sum
of the row at n = 15,586,535.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import __version__, _screen
from ._intops import _EXACT, decimal
from ._pool import ordered_map
from ._screen import N0, ceil_z, kernel_name
from .contfrac import is_e_convergent
from .errors import CheckpointError
from .exactnum import Ball, escalating
from .harmonic import _walk, exact_sum, iter_crossings, pair_delta, scaled_overshoot

__all__ = [
    "RecordRow",
    "ConnectionReport",
    "RecordTable",
    "quality_threshold",
    "scan_records",
    "DEFAULT_BLOCK_SIZE",
]

DEFAULT_BLOCK_SIZE = 1 << 16
KIND_RECORD = 1  # a flag the merge compares with the running record
KIND_TAU = 2  # a flag that may lie below the connection threshold
CSV_HEADER = "n,t,eps_num,eps_den,scaled_num,scaled_den,reduced_p,reduced_q,d,is_convergent"


@lru_cache(maxsize=None)
def quality_threshold(prec: int = 128) -> Ball:
    """tau = (3/e + e^-2 - 1)/24, the scaled-quality connection threshold:
    harmonic.scaled_overshoot at y = 1/8 and h = 0, once per precision."""
    return scaled_overshoot(Fraction(1, 8), 0, prec).at(prec)


class ConnectionReport(NamedTuple):
    """Reduction of (2m+1)/(2n-1) and its convergent membership: the scan's
    one classifier, built once for every emitted row."""

    n: int
    m: int
    d: int
    reduced_p: int
    reduced_q: int
    is_convergent: bool

    @staticmethod
    def build(n: int, m: int) -> "ConnectionReport":
        if not 2 <= n <= m:
            raise ValueError("need 2 <= n <= m")
        a, b = 2 * m + 1, 2 * n - 1
        d = gcd(a, b)
        p, q = a // d, b // d
        return ConnectionReport(n=n, m=m, d=d, reduced_p=p, reduced_q=q, is_convergent=is_e_convergent(p, q))


class RecordRow(NamedTuple):
    n: int
    t: int
    overshoot: Fraction
    scaled: Fraction
    reduced_p: int
    reduced_q: int
    d: int
    is_convergent: bool

    def csv(self) -> str:
        # every value is a decimal integer or a bool, so lower() only touches the bools
        return ",".join(str(v).lower() for v in self.json_obj().values())

    def json_obj(self) -> dict:
        # scaled = n^2 eps in lowest terms is eps_num (n^2/g) / (eps_den/g) with
        # g = gcd(n^2, eps_den), so only eps's two big integers go to decimal
        num, den = self.overshoot.numerator, self.overshoot.denominator
        g = gcd(self.n * self.n, den)
        num_dec, den_dec = decimal(num), decimal(den)
        return {
            "n": self.n,
            "t": self.t,
            "eps_num": str(num_dec),
            "eps_den": str(den_dec),
            "scaled_num": str(_EXACT.multiply(num_dec, self.n * self.n // g)),
            "scaled_den": str(_EXACT.divide_int(den_dec, g)),
            "reduced_p": str(self.reduced_p),
            "reduced_q": str(self.reduced_q),
            "d": self.d,
            "is_convergent": self.is_convergent,
        }


class RecordTable:
    def __init__(
        self,
        horizon: int,
        records: list[RecordRow],
        below_threshold: list[RecordRow],
        exact_hits: list[tuple[int, int]],  # (n, t) with overshoot exactly 0
        kernel: str,
        wall_time_s: float | None,
    ):
        self.horizon = horizon
        self.records = records
        self.below_threshold = below_threshold
        self.exact_hits = exact_hits
        self.kernel = kernel
        self.wall_time_s = wall_time_s

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

    def profile(self, delta: Fraction) -> list[tuple[int, str, str]]:
        """n^(2+delta) * overshoot per record, at 96 bits: the
        conjectured-divergence view."""
        out = []
        for r in self.records:
            power = Ball.from_fraction(r.n, 96).pow_frac(2 + Fraction(delta), 96)
            v = power * Ball.from_fraction(r.overshoot, 96)
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

    def _row(self, n: int, t: int, eps: Fraction, scaled: Fraction) -> RecordRow:
        # looked up on the class at call time, so a rebound build is the one called
        rep = ConnectionReport.build(n, t)
        return RecordRow(
            n=n,
            t=t,
            overshoot=eps,
            scaled=scaled,
            reduced_p=rep.reduced_p,
            reduced_q=rep.reduced_q,
            d=rep.d,
            is_convergent=rep.is_convergent,
        )

    def feed(self, n: int, t_screen: int, kind: int, lo: Fraction) -> None:
        """Confirm a flag whose certified lower bound lo on n^2 eps can still
        set a record, or that the screen flagged as possibly below the
        connection threshold (its KIND_TAU is the one threshold filter)."""
        want_record = kind & KIND_RECORD and (self.min_scaled is None or lo < self.min_scaled)
        want_tau = kind & KIND_TAU
        if not (want_record or want_tau):
            return

        t, eps = _confirm_exact(n, t_screen)
        scaled = n * n * eps
        if eps == 0:
            self.exact_hits.append((n, t))
        row = None  # one row, classified once, when n is both a record and below tau
        if self.min_scaled is None or scaled < self.min_scaled:
            row = self._row(n, t, eps, scaled)
            self.records.append(row)
            self.min_scaled = scaled
        if n > 10 and _tau_compare_exact(scaled, n):
            self.below.append(row or self._row(n, t, eps, scaled))


def _screen_args(n_max: int, start: int):
    # spans grow with the position, so a scan to N > 2^19 has about
    # 8 + 8.5 ln(N / 2^19) blocks, each with one checkpoint save; boundaries
    # depend only on (start, n_max), never on the worker count
    lo = start
    while lo <= n_max:
        span = max(DEFAULT_BLOCK_SIZE, lo // 8)
        hi = min(lo + span, n_max + 1)
        yield (lo, hi)
        lo = hi


def _run_screen(args):
    return screen_block(*args)


@lru_cache(maxsize=None)
def _tau_hi() -> Fraction:
    return quality_threshold(160).hi.as_fraction()


def _flag(n: int, t: int, lo: Fraction) -> tuple[int, int, int, Fraction]:
    """The flag for t = t(n) and a lower bound lo on n^2 eps: a record
    candidate, and a threshold candidate unless lo rules that out."""
    below = n > 10 and lo * n < _tau_hi() * (n - 10)
    return n, t, KIND_RECORD | (KIND_TAU if below else 0), lo


def screen_block(n_start: int, n_end: int) -> tuple[list[tuple[int, int, int, Fraction]], int]:
    """(flags, screened) for n in [n_start, n_end): the n below N0 from the
    exact walk, then each n that the fixed-point screen flags (screened of
    them), certified at m = ceil z as in the module docstring.  Each flag is
    (n, t, kind, lo), with lo <= n^2 eps at the crossing t = t(n), or
    t = ceil z and lo = 0 where the sign there is undecided."""
    flags = [_flag(c.n, c.t, c.scaled) for c in iter_crossings(n_start, min(n_end, N0) - 1)]
    screened = _screen.screen_block(max(n_start, N0), n_end)
    for n in screened:
        m = ceil_z(n)
        scaled = scaled_overshoot(pair_delta(n, m, 64) * n, Ball.from_fraction(Fraction(1, n), 96), 64)
        sign = scaled.sign()
        if sign is None:
            flags.append((n, m, KIND_RECORD | KIND_TAU, Fraction(0)))
        elif sign >= 0:
            flags.append(_flag(n, m, scaled.lo.as_fraction()))
    return flags, len(screened)


# ----------------------------------------------------------------------
# Checkpoints: tiny, cursor-only; sums are recomputed on resume
# ----------------------------------------------------------------------

_CKPT_FORMAT = 1


def _checkpoint_payload(n_max, next_start, merger: _Merger) -> dict:
    return {
        "format": _CKPT_FORMAT,
        "horizon": n_max,
        "block_size": DEFAULT_BLOCK_SIZE,  # fixed; kept so that format-1 files still load
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


def _load_checkpoint(path: str, n_max: int) -> dict | None:
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
    if payload.get("horizon") != n_max or payload.get("block_size") != DEFAULT_BLOCK_SIZE:
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
    if _checkpoint_payload(payload["horizon"], payload["next_start"], merger) != payload:
        raise CheckpointError("checkpoint rows do not re-verify")
    return merger


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def scan_records(n_max: int, threads: int = 1, checkpoint_path: str | None = None) -> RecordTable:
    """Complete record table for 2 <= n <= n_max.

    The output is a pure function of n_max: thread count and checkpoint
    placement never change it.  Records are emitted only after exact
    rational re-verification.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    started = time.monotonic()
    start = 2
    merger = _Merger()
    payload = None if checkpoint_path is None else _load_checkpoint(checkpoint_path, n_max)
    if payload is not None:
        merger = _replay_merger(payload)
        start = payload["next_start"]

    args = list(_screen_args(n_max, start))
    with ordered_map(_run_screen, args, threads) as screened:
        for (_lo, hi), (flags, _screened) in zip(args, screened):
            for flag in flags:
                merger.feed(*flag)
            if checkpoint_path is not None:
                _save_checkpoint(checkpoint_path, _checkpoint_payload(n_max, hi, merger))

    return RecordTable(
        horizon=n_max,
        records=merger.records,
        below_threshold=merger.below,
        exact_hits=merger.exact_hits,
        kernel=kernel_name(),
        wall_time_s=time.monotonic() - started,
    )
