"""Explicit construction of near-1 harmonic differences.

From each even subsequence index k, an odd multiplier d turns the convergent
p/q at index 3k+2 into an integer pair via 2m+1 = d*p and 2n-1 = d*q.  The
ideal real multiplier makes the scaled gap r * d^2 * n/(2n-1) hit sinh(1)/6
exactly; the canonical choice (closest odd integer to ideal+2, ties upward)
forces the overshoot positive with the certified bound
quality * sqrt(k) <= 1001.

The joint search scans a window of odd multipliers per index instead,
centered on the ideal multiplier (the true minimizer; the +2 shift exists
only to force positivity), ranking pairs by |n^2 * overshoot|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from ._pool import ordered_map
from .contfrac import odd_convergent
from .errors import PrecisionError
from .exactnum import Ball, constants, escalating, ln_ball
from .harmonic import MAX_EXACT_TERMS, ball_sum, exact_sum, pair_offset, predicted_overshoot

__all__ = [
    "CandidatePair",
    "closest_odd",
    "ideal_multiplier",
    "pick_multiplier",
    "pair_from",
    "certify",
    "joint_search",
    "gap_bracket",
]

QUALITY_BOUND = 1001  # certified: n^2 * overshoot * sqrt(k) <= this


def _nearest_odd(fr: Fraction, tie_up: bool = True) -> int:
    o = 2 * ((fr - 1) // 2) + 1
    gap = fr - (o + 1)
    if gap > 0:
        return o + 2
    if gap < 0:
        return o
    return o + 2 if tie_up else o


def closest_odd(z: Ball, tie_up: bool = True) -> int | None:
    """Closest odd integer to every point of z, or None if z straddles a
    midpoint (escalate and retry).  An exact even-integer point ball is a
    tie, broken upward."""
    a = _nearest_odd(z.lo.as_fraction(), tie_up)
    b = _nearest_odd(z.hi.as_fraction(), tie_up)
    return a if a == b else None


def pair_from(k: int, d: int) -> tuple[int, int]:
    """(m, n) with 2m+1 = d * p_{3k+2} and 2n-1 = d * q_{3k+2}."""
    if k < 0:
        raise ValueError("subsequence index must be >= 0")
    if d < 1 or d % 2 == 0:
        raise ValueError("multiplier must be a positive odd integer")
    s = odd_convergent(k)
    return (d * s.p - 1) // 2, (d * s.q + 1) // 2


def ideal_multiplier(k: int, prec: int = 64) -> Ball:
    """The real multiplier nulling the scaled gap, with the factor (2n-1)/n
    evaluated by one fixed-point pass.

    The initial n comes from the multiplier the construction would actually
    use under the crude (2n-1)/n ~ 2 approximation, so the refined value
    reflects the constructed pair.
    """
    if k < 0 or k % 2:
        raise ValueError("ideal_multiplier is defined for even k >= 0")

    def attempt(w: int) -> Ball | None:
        s = odd_convergent(k, prec=w)
        c = constants(w)
        crude = (2 * c.gap_target.div(s.remainder)).sqrt()
        d0 = closest_odd(crude + 2)
        if d0 is None or d0 < 1:
            return None
        n0 = (d0 * s.q + 1) // 2
        ratio = Ball.from_fraction(Fraction(2 * n0 - 1, n0), w)
        out = ratio.mul(c.gap_target).div(s.remainder).sqrt()
        return out if out.width_leq(-max(prec, 48)) else None

    return escalating(attempt, start=max(prec, 96), what=f"ideal multiplier k={k}")


def pick_multiplier(k: int) -> int:
    """Closest odd integer to ideal+2 (ties upward); satisfies
    ideal+1 <= d <= ideal+3."""
    if k < 0 or k % 2:
        raise ValueError("pick_multiplier is defined for even k >= 0")

    def attempt(w: int) -> int | None:
        z = ideal_multiplier(k, w) + 2
        return closest_odd(z)

    d = escalating(attempt, start=96, what=f"multiplier choice k={k}")
    if d < 1:  # pragma: no cover - ideal > 0 always
        raise PrecisionError(f"multiplier choice k={k} collapsed below 1")
    return d


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
    bound_ok: bool | None    # quality * sqrt(k) <= 1001 (only asserted when canonical)

    @property
    def overshoot_positive(self) -> bool | None:
        s = self.overshoot.sign()
        return None if s is None else s > 0

    def scaled_quality(self, prec: int = 128) -> Ball:
        """|quality| * (ln n)^(5/4), the refined-rate yardstick."""
        logn = ln_ball(Fraction(self.n), prec)
        return abs(self.quality).mul(logn.pow_frac(Fraction(5, 4), prec))


def _overshoot_ball(k: int, m: int, n: int, exact_cap: int) -> tuple[Ball, Fraction | None]:
    if m <= exact_cap and m - n <= MAX_EXACT_TERMS:
        eps = exact_sum(n, m) - 1
        return Ball.from_fraction(eps, 192), eps
    # interval route: quarter of the predicted magnitude decides the sign
    pred = predicted_overshoot(n, pair_offset(n, m), prec=64)
    mag = max(abs(pred.lo.as_fraction()), abs(pred.hi.as_fraction()))
    if mag == 0:
        mag = Fraction(1, 1000 * max(1, isqrt(k)) * n * n)
    floor = Fraction(1, 15 * (n - 1) ** 4)
    target = mag / 4 + 2 * floor
    for _ in range(8):
        b = ball_sum(n, m, target) - 1
        if b.sign() is not None:
            return b, None
        if target <= 2 * floor:
            break
        target = max(target / 64, 2 * floor)
    raise PrecisionError(f"overshoot sign undecided for pair k={k} (m={m})")


def certify(
    k: int,
    d: int | None = None,
    exact_cap: int = MAX_EXACT_TERMS,
    strict: bool = True,
) -> CandidatePair:
    """Build and certify the pair for (k, d).

    With the canonical multiplier the overshoot is decided strictly positive
    and quality * sqrt(k) <= 1001 is decided (k even >= 2); any other d gets
    its measured quality reported without asserting the bound.  k = 0 is
    constructible for demonstration but excluded from certification claims.
    """
    if k < 0 or k % 2:
        raise ValueError("certification is defined for even k >= 0")
    canonical_d = pick_multiplier(k)
    if d is None:
        d = canonical_d
    m, n = pair_from(k, d)
    overshoot, overshoot_exact = _overshoot_ball(k, m, n, exact_cap)
    quality = overshoot.mul(Ball.from_fraction(n * n, overshoot.prec))
    offset = pair_offset(n, m)
    canonical = d == canonical_d

    bound_ok: bool | None = None
    if k >= 2:
        sqrt_k = Ball.from_fraction(k, 192).sqrt()
        within = quality.mul(sqrt_k).decide_le(Ball.from_fraction(QUALITY_BOUND, 192))
        positive = overshoot.sign()
        if within is None or positive is None:
            if canonical and strict:
                raise PrecisionError(f"certification undecided for k={k}, d={d}")
            bound_ok = None
        else:
            bound_ok = bool(within) and positive == 1

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


def gap_bracket(k: int, prec: int = 128) -> tuple[Ball, Ball, Ball]:
    """(lhs, gap, rhs) of the multiplier-choice bracket for the canonical d:

        (1/2) ideal * r  <=  r d^2 n/(2n-1) - sinh(1)/6  <=  7 ideal * r
    """
    d = pick_multiplier(k)
    m, n = pair_from(k, d)
    s = odd_convergent(k, prec=prec)
    c = constants(prec)
    ideal = ideal_multiplier(k, prec)
    ratio = Ball.from_fraction(Fraction(n, 2 * n - 1), prec)
    gap = s.remainder * Ball.from_fraction(d * d, prec) * ratio - c.gap_target
    half = Ball.from_fraction(Fraction(1, 2), prec)
    return half * ideal * s.remainder, gap, 7 * ideal * s.remainder


def joint_search(
    k_max: int,
    window: int = 5,
    center_shifted: bool = False,
    exact_cap: int = MAX_EXACT_TERMS,
    workers: int = 1,
) -> tuple[list[CandidatePair], int]:
    """All odd multipliers within +-window of the ideal (or of ideal+2 with
    center_shifted) for every even k in [2, k_max], certified and sorted by
    |quality| ascending.  Returns (pairs, skipped) where skipped counts
    undecidable entries."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    items = [(k, window, center_shifted, exact_cap) for k in range(2, k_max + 1, 2)]
    with ordered_map(_joint_one_k, items, workers) as results:
        chunks, skips = zip(*results)
    pairs = sorted((p for chunk in chunks for p in chunk), key=_quality_sort_key)
    return pairs, sum(skips)


def _joint_one_k(args) -> tuple[list[CandidatePair], int]:
    k, window, center_shifted, exact_cap = args
    ideal = ideal_multiplier(k, 96)
    center = ideal + 2 if center_shifted else ideal
    lo = center.lo.as_fraction() - window
    hi = center.hi.as_fraction() + window
    d_lo = max(1, int(lo) - 1)
    if d_lo % 2 == 0:
        d_lo += 1
    out: list[CandidatePair] = []
    skipped = 0
    d = d_lo
    while d <= hi:
        try:
            out.append(certify(k, d, exact_cap=exact_cap, strict=False))
        except PrecisionError:
            skipped += 1
        d += 2
    return out, skipped


def _quality_sort_key(pair: CandidatePair):
    q = abs(pair.quality)
    return (q.hi.as_fraction(), pair.k, pair.d)
