"""Explicit construction of near-1 harmonic differences.

From each even subsequence index k, an odd multiplier d turns the entry
p/q of contfrac.odd_convergent, both odd, into an integer pair via
2m+1 = d*p and 2n-1 = d*q.  The ideal real multiplier makes the scaled gap
r * d^2 * n/(2n-1) hit sinh(1)/6 exactly; the canonical choice (closest odd
integer to ideal+2, ties upward) forces the overshoot positive with the
certified bound quality * sqrt(k) <= 1001.

The joint search scans a window of odd multipliers per index instead,
centered on the ideal multiplier (the true minimizer; the +2 shift exists
only to force positivity), ranking pairs by |n^2 * overshoot|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._pool import ordered_map
from .contfrac import OddConvergent, odd_convergent
from .errors import PrecisionError
from .exactnum import Ball, constants, escalating, ln_ball
from .harmonic import exact_sum, scaled_overshoot

__all__ = [
    "CandidatePair",
    "closest_odd",
    "ideal_multiplier",
    "pick_multiplier",
    "pair_from",
    "certify",
    "joint_search",
]

QUALITY_BOUND = 1001  # certified: n^2 * overshoot * sqrt(k) <= this
DEFAULT_WINDOW = 5  # the joint search's odd multipliers within +-this of the ideal

# certify sums the overshoot exactly up to this m, by balls beyond.  Measured
# on one 2-core machine (Python 3.11.7): the exact sum takes 17-18 ms at
# m = 172,098 (k = 4, d = 7, the largest exact pair of the k <= 60 joint
# search) and 32-34 ms at m = 2^18 (n = 96,437) with the C kernel _sum_c,
# 72-139 ms and 124-149 ms without it, growing superlinearly; the ball
# route works at a fixed 224 bits and takes milliseconds at k <= 1000.
# Raising the cap turns overshoot_exact from null into a fraction for the
# pairs it admits, so it is an output change.
EXACT_ROUTE_CAP = 1 << 18

# every step reads the remainder at this precision: one cached per index
WORK_PREC = 192


def _nearest_odd(fr: Fraction) -> int:
    o = 2 * ((fr - 1) // 2) + 1
    return o if fr < o + 1 else o + 2


def closest_odd(z: Ball) -> int | None:
    """Closest odd integer to every point of z, or None if z straddles a
    midpoint (escalate and retry).  An exact even-integer point ball is a
    tie, broken upward."""
    a = _nearest_odd(z.lo.as_fraction())
    b = _nearest_odd(z.hi.as_fraction())
    return a if a == b else None


def pair_from(k: int, d: int) -> tuple[int, int]:
    """(m, n) with 2m+1 = d * p and 2n-1 = d * q for entry k's p/q."""
    if k < 0:
        raise ValueError("subsequence index must be >= 0")
    if d < 1 or d % 2 == 0:
        raise ValueError("multiplier must be a positive odd integer")
    s = odd_convergent(k, WORK_PREC)
    return (d * s.p - 1) // 2, (d * s.q + 1) // 2


def _ideal(s: OddConvergent, w: int) -> Ball | None:
    """The ideal multiplier from one remainder at w bits: the crude d0 under
    (2n-1)/n ~ 2, its n0, then the refined value (None if d0 is undecided)."""
    c = constants(w)
    d0 = closest_odd((2 * (c.gap_target / s.remainder)).sqrt() + 2)
    if d0 is None:
        return None
    n0 = (d0 * s.q + 1) // 2
    ratio = Ball.from_fraction(Fraction(2 * n0 - 1, n0), w)
    return (ratio * c.gap_target / s.remainder).sqrt()


@lru_cache(maxsize=64)
def ideal_multiplier(k: int) -> Ball:
    """The real multiplier nulling the scaled gap, with the factor (2n-1)/n
    evaluated by one fixed-point pass, at most 2^-96 wide and deciding the
    canonical choice closest_odd(ideal + 2).

    The initial n comes from the multiplier the construction would actually
    use under the crude (2n-1)/n ~ 2 approximation, so the refined value
    reflects the constructed pair.  The first attempt reads the WORK_PREC
    remainder that certify uses; at most about 2^-189 (2k+4)^1.5 wide, it
    decides at any reachable k.  Cached like odd_convergent, so a window
    search computes it once per index, not once per multiplier.
    """
    if k < 0 or k % 2:
        raise ValueError("ideal_multiplier is defined for even k >= 0")

    def attempt(w: int) -> Ball | None:
        out = _ideal(odd_convergent(k, w), w)
        if out is None or not out.width_leq(-96) or closest_odd(out + 2) is None:
            return None
        return out

    return escalating(attempt, start=WORK_PREC, what=f"ideal multiplier k={k}")


def pick_multiplier(k: int) -> int:
    """Closest odd integer to ideal+2 (ties upward); satisfies
    ideal+1 <= d <= ideal+3."""
    return closest_odd(ideal_multiplier(k) + 2)


@dataclass(frozen=True)
class CandidatePair:
    """A constructed (m, n) pair with its certification artifacts."""

    k: int
    d: int
    m: int
    n: int
    offset: Ball             # y with m = e n - (1+e)/2 + y/n
    overshoot: Ball          # segment sum minus 1
    quality: Ball            # n^2 * overshoot
    overshoot_exact: Fraction | None
    canonical: bool          # d == pick_multiplier(k)
    bound_ok: bool | None    # overshoot > 0 and quality * sqrt(k) <= 1001; None at k = 0

    def scaled_quality(self) -> Ball:
        """|quality| * (ln n)^(5/4), the refined-rate yardstick, at 128 bits."""
        logn = ln_ball(Fraction(self.n), 128)
        return abs(self.quality) * logn.pow_frac(Fraction(5, 4), 128)


def _delta(k: int, d: int, w: int) -> Ball:
    """delta = d(p - e q)/2 = -sign d r/(2q) at w + 32 bits, from the
    remainder r at w bits: the pair (k, d) has m - e(n-1) = (e-1)/2 + delta
    and offset y = n delta."""
    s = odd_convergent(k, w)
    W = w + 32
    return s.remainder * Ball.from_fraction(-s.sign * d, W) / Ball.from_fraction(2 * s.q, W).at(W)


def _overshoot_ball(k: int, d: int, m: int, n: int) -> tuple[Ball, Fraction | None]:
    """S - 1 for S = 1/n + ... + 1/m: exact up to EXACT_ROUTE_CAP, else
    harmonic.scaled_overshoot at y = n delta, with delta from the
    convergent's remainder, and h = 1/n, over n^2, at a precision that
    starts at WORK_PREC and in practice decides its sign."""
    if m <= EXACT_ROUTE_CAP:
        eps = exact_sum(n, m) - 1
        return Ball.from_fraction(eps, WORK_PREC), eps

    def attempt(w: int) -> Ball | None:
        out = scaled_overshoot(_delta(k, d, w) * n, Ball.from_fraction(Fraction(1, n), w + 32), w)
        # two divisions by n: at k = 20,000 squaring n takes 15 ms, the two 0.8 ms (2-core machine)
        return out / n / n if out.sign() is not None else None

    return escalating(attempt, start=WORK_PREC, what=f"overshoot sign of pair k={k}, d={d}"), None


def certify(k: int, d: int | None = None) -> CandidatePair:
    """Build and certify the pair for (k, d).

    For k even >= 2 the overshoot's sign and quality * sqrt(k) <= 1001 are
    decided for every d, or PrecisionError is raised; bound_ok says whether
    the overshoot is positive and within the bound.  The canonical multiplier
    asserts both; any other d gets its measured quality reported without
    asserting the bound.  k = 0 is constructible for demonstration but
    excluded from certification claims.
    The overshoot is summed exactly (overshoot_exact) when m <= EXACT_ROUTE_CAP,
    and otherwise from the convergent's remainder at a fixed precision, like
    the offset (PrecisionError if no precision decides its sign).
    """
    if k < 0 or k % 2:
        raise ValueError("certification is defined for even k >= 0")
    canonical_d = pick_multiplier(k)
    if d is None:
        d = canonical_d
    m, n = pair_from(k, d)
    overshoot, overshoot_exact = _overshoot_ball(k, d, m, n)
    quality = overshoot * Ball.from_fraction(n * n, overshoot.prec)
    offset = _delta(k, d, WORK_PREC) * n
    canonical = d == canonical_d

    bound_ok: bool | None = None
    if k >= 2:
        sqrt_k = Ball.from_fraction(k, WORK_PREC).sqrt()
        within = (quality * sqrt_k).decide_le(Ball.from_fraction(QUALITY_BOUND, WORK_PREC))
        positive = overshoot.sign()
        if within is None or positive is None:
            raise PrecisionError(f"certification undecided for k={k}, d={d}")
        bound_ok = within and positive == 1

    return CandidatePair(
        k=k,
        d=d,
        m=m,
        n=n,
        offset=offset,
        overshoot=overshoot,
        quality=quality,
        overshoot_exact=overshoot_exact,
        canonical=canonical,
        bound_ok=bound_ok,
    )


def joint_search(
    k_max: int,
    window: int = DEFAULT_WINDOW,
    workers: int = 1,
) -> tuple[list[CandidatePair], int]:
    """All odd multipliers within +-window of the ideal for every even k in
    [2, k_max], certified and sorted by |quality| ascending.  Returns
    (pairs, skipped) where skipped counts undecidable entries."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = [(k, window) for k in range(2, k_max + 1, 2)]
    with ordered_map(_joint_one_k, items, workers) as results:
        chunks, skips = zip(*results)
    pairs = sorted((p for chunk in chunks for p in chunk), key=_quality_sort_key)
    return pairs, sum(skips)


def _joint_one_k(args) -> tuple[list[CandidatePair], int]:
    """The window search at one index: (pairs sorted by |quality|, skipped)."""
    k, window = args
    if window < 0:
        raise ValueError("window must be >= 0")
    ideal = ideal_multiplier(k)
    lo = ideal.lo.as_fraction() - window
    hi = ideal.hi.as_fraction() + window
    d_lo = max(1, math.ceil(lo))  # the first odd d >= lo
    if d_lo % 2 == 0:
        d_lo += 1
    out: list[CandidatePair] = []
    skipped = 0
    d = d_lo
    while d <= hi:
        try:
            out.append(certify(k, d))
        except PrecisionError:
            skipped += 1
        d += 2
    return sorted(out, key=_quality_sort_key), skipped


def _quality_sort_key(pair: CandidatePair):
    q = abs(pair.quality)
    return (q.hi.as_fraction(), pair.k, pair.d)
