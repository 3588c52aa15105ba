"""Harmonic-number differences: exact, certified, and asymptotic.

The central quantities: the segment sum S(n, m) = 1/n + 1/(n+1) + ... + 1/m,
the least crossing index t(n) where the segment starting at n first reaches
1, and the exact overshoot S(n, t(n)) - 1 at the crossing.

Every certified overshoot stands on one Euler-Maclaurin identity.  For real
x > 0, H_x = psi(x+1) + gamma = ln x + gamma + 1/(2x) - 1/(12x^2) + r_x with
r_x in (0, 1/(120 x^4)) (DLMF 5.11); gamma cancels in a difference.  So for
n >= 2 and real m > 0 the sum S(n, m) = H_m - H_N, N = n - 1, is
psi(m+1) - psi(n), which increases in m.  Write m = e*n - (1+e)/2 + y/n, so
y = n*delta for delta = m - e*n + (1+e)/2, and h = 1/n.  With
a = m - eN = (e-1)/2 + y h, hm = h m = e - (1+e)h/2 + y h^2,
hP = h(m + eN) = hm + e(1 - h) and v = a/hP, so that u = hv = a/(m + eN)
gives ln(m/N) = 1 + 2 atanh u, and the order-1/n terms combined free of
cancellation,

    n^2 (S - 1) = [4 e y (1-h)^2 + (4a^2 - (3e-1) a)(1-h) - a^2 h] / (2 hm (1-h) hP)
                  + h v^3 sum_{j>=1} 2 u^(2j-2)/(2j+1)
                  + (1/(1-h)^2 - 1/hm^2)/12 + n^2 R,
    n^2 R = n^2 (r_m - r_N) in (-h^2/(120 (1-h)^4), h^2/(120 hm^4)).

At h = 0 it is y/e - (1 - e^-2)/24, the second-order prediction of
n^2 (S - 1), which at y = 1/8 is the scan's connection threshold tau.
scaled_overshoot evaluates it for any balls y and h inside [0, 1/2] with
|u| < 1/2.  Since S increases in m, an upper bound at a real m holds at
every integer below it and a lower bound at every integer above, and one
ball over a range of h covers every n with 1/n in it.  ball_sum, the slow
twin, takes ln(m/N) directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from ._intops import fraction_from, harmonic_pair
from .exactnum import Ball, Dyadic, _operand, const_e, escalating

__all__ = [
    "Crossing",
    "exact_sum",
    "ball_sum",
    "scaled_overshoot",
    "pair_delta",
    "crossing",
    "iter_crossings",
    "pair_offset",
    "predicted_overshoot",
]


def exact_sum(first: int, last: int) -> Fraction:
    """Exact segment sum 1/first + ... + 1/last, in lowest terms from harmonic_pair."""
    if not 1 <= first <= last:
        raise ValueError("need 1 <= first <= last")
    num, den = harmonic_pair(first, last)
    return fraction_from(num, den)


def ball_sum(first: int, last: int, target_width: Fraction) -> Ball:
    """Certified segment sum via the Euler-Maclaurin difference, from
    ln(m/(first-1)) with last = m.

    Sound for first >= 2 at any segment length; the width target drives the
    working precision, escalating from a size-informed start.
    """
    if not 2 <= first <= last:
        raise ValueError("need 2 <= first <= last")
    n1, m = first - 1, last
    remainder = Fraction(1, 120 * m**4) + Fraction(1, 120 * n1**4)  # |r_m| + |r_N|
    if Fraction(target_width) <= 2 * remainder:
        raise ValueError(
            "target width below the Euler-Maclaurin remainder floor "
            f"{float(2 * remainder):.3e} for this segment"
        )
    tw = Fraction(target_width) - 2 * remainder
    bits = max(64, _width_bits(tw) + 16)

    from .exactnum import ln_ball  # looked up per call, so a rebound exactnum.ln_ball is seen

    def attempt(w: int) -> Ball | None:
        out = ln_ball(Fraction(m, n1), w) + Ball.from_fraction(Fraction(1, 2 * m) - Fraction(1, 2 * n1), w)
        out = out + Ball.from_fraction(Fraction(1, 12 * n1 * n1) - Fraction(1, 12 * m * m), w)
        out = out.widen_by(remainder)
        return out if out.width().cmp_fraction(Fraction(target_width)) <= 0 else None

    return escalating(attempt, start=bits, what=f"segment sum [{_operand(first)}, {_operand(last)}]")


def _width_bits(w: Fraction) -> int:
    # smallest b with 2^-b <= w, roughly
    return max(1, w.denominator.bit_length() - w.numerator.bit_length() + 2)


class Crossing(NamedTuple):
    """Least t with 1/n + ... + 1/t >= 1, and the exact overshoot."""

    n: int
    t: int
    overshoot: Fraction

    @property
    def scaled(self) -> Fraction:
        return self.n * self.n * self.overshoot


def _crossing_bracket_ok(n: int, t: int, total: Fraction) -> bool:
    return total >= 1 and (t == n or total - Fraction(1, t) < 1)


def _walk(n: int, t: int, total: Fraction) -> tuple[int, Fraction]:
    """t(n) and its overshoot, from any t >= n with total = 1/n + ... + 1/t:
    extend t until the sum reaches 1, then shrink it back while it stays there."""
    while total < 1:
        t += 1
        total += Fraction(1, t)
    while t > n and total - Fraction(1, t) >= 1:
        total -= Fraction(1, t)
        t -= 1
    return t, total - 1


def crossing(n: int) -> Crossing:
    """t(n) and the exact overshoot, with the minimality bracket verified."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Crossing(1, 1, Fraction(0))
    # jump near the asymptotic location, then walk exactly
    e = const_e(64 + 2 * n.bit_length())
    est = Ball.from_fraction(n, e.prec) * e - (Ball.from_fraction(1, e.prec) + e) / 2
    t = max(n, int(est.midpoint().as_fraction()))
    t, overshoot = _walk(n, t, exact_sum(n, t))
    assert _crossing_bracket_ok(n, t, overshoot + 1)
    return Crossing(n, t, overshoot)


def iter_crossings(n_lo: int, n_hi: int) -> Iterator[Crossing]:
    """Crossings for n_lo <= n <= n_hi, maintained incrementally and exactly."""
    if n_lo < 2:
        raise ValueError("incremental crossings start at n >= 2")
    if n_hi < n_lo:
        return
    first = crossing(n_lo)
    total = first.overshoot + 1
    t = first.t
    yield first
    for n in range(n_lo + 1, n_hi + 1):
        total -= Fraction(1, n - 1)
        while total < 1:
            t += 1
            total += Fraction(1, t)
        yield Crossing(n, t, total - 1)


@lru_cache(maxsize=None)
def _e_balls(W: int) -> tuple[Ball, Ball, Ball, Ball, Ball]:
    """e, (e-1)/2, (1+e)/2, 3e-1 and 4e at W bits: the terms of
    scaled_overshoot that do not depend on y or h."""
    e = const_e(W)
    return e, (e - 1) / 2, (1 + e) / 2, 3 * e - 1, 4 * e


def scaled_overshoot(y: Ball | Fraction | int, h: Ball | Fraction | int, w: int) -> Ball:
    """n^2 (S(n, m) - 1) for m = e n - (1+e)/2 + y/n and h = 1/n, by the
    identity of the module docstring, for any ball y and any ball h inside
    [0, 1/2], h = 0 included, every term a ball 32 bits above w.
    ValueError outside that domain or |u| < 1/2."""
    W = w + 32
    if not isinstance(h, Ball):
        h = Ball.from_fraction(h, W)
    if h.lo.man < 0 or h.hi.cmp_fraction(Fraction(1, 2)) > 0:
        raise ValueError("scaled_overshoot needs h inside [0, 1/2]")
    e, a0, b0, e31, e4 = _e_balls(W)
    g = 1 - h
    yh = y * h
    a = a0 + yh
    hm = e - h * (b0 - yh)
    hp = hm + e * g
    v = a / hp
    u = h * v
    top = abs(u).hi
    ell = -top.bit_magnitude() if top.man else w + 8  # |u| < 2^-ell
    if ell < 1:
        raise ValueError("scaled_overshoot outside |u| < 1/2")
    # the series in u^2 by Horner, to a tail under 2^-(2 T ell) for T terms
    terms = (w + 8) // (2 * ell) + 1
    series = Ball.from_fraction(Fraction(2, 2 * terms + 1), W)
    if terms > 1:
        u2 = u * u
        for j in range(terms - 1, 0, -1):
            series = series * u2 + Fraction(2, 2 * j + 1)
    series = series.widen_by(Dyadic(1, -2 * terms * ell))
    aa, g2, hm2 = a * a, g * g, hm * hm
    lead = (e4 * y * g2 + (4 * aa - e31 * a) * g - aa * h) / ((hm + hm) * g * hp)
    out = lead + u * v * (v * series) + (1 / g2 - 1 / hm2) / 12
    # n^2 R, with h^2/(120 x^4) = (h/x^2)^2/120
    r_lo, r_hi = h / g2, h / hm2
    return out + Ball(-(r_lo * r_lo / 120).hi, (r_hi * r_hi / 120).hi, W)


def pair_delta(n: int, m: int, w: int) -> Ball:
    """delta = m - e*n + (1+e)/2 from e at w + 2 bitlen(m) bits, rounded to
    w + 32 bits like scaled_overshoot's terms."""
    W = w + 2 * m.bit_length()
    e = const_e(W)
    return (Ball.from_fraction(m, W) - e * Ball.from_fraction(n, W) + (1 + e) / 2).at(w + 32)


def pair_offset(n: int, m: int, prec: int = 0) -> Ball:
    """The offset y = n*delta with m = e*n - (1+e)/2 + y/n, certified.

    Nonzero for every integer pair since e is irrational; the enclosure
    tightens with precision but never decides y = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def attempt(w: int) -> Ball | None:
        out = pair_delta(n, m, w) * n
        return out if out.width_leq(-max(prec, 32)) else None

    return escalating(attempt, start=max(prec, 64), what=f"pair offset ({_operand(n)}, {_operand(m)})")


def predicted_overshoot(n: int, offset: Ball, prec: int = 128) -> Ball:
    """Second-order prediction (24 y/e + e^-2 - 1) / (24 n^2) of the
    overshoot of the segment sum over 1: scaled_overshoot at h = 0, over n^2.

    At offset = sinh(1)/12 the numerator vanishes identically.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return scaled_overshoot(offset, 0, max(prec, 64)) / (n * n)
