"""Equidistribution machinery at desk scale.

Exponential (Weyl) sums with certified magnitudes, the Erdos-Turan
discrepancy inequality in its compact-error form, exact counting of
quadratic residues near a target modulo 1, and a constructive search for
approximations of a real by fractions with square denominators.

The only transcendental need here is e(x) = exp(2 pi i x).  A dedicated
fixed-point evaluator computes cos/sin of 2 pi t with an explicit,
deliberately generous error envelope; it exists because the certified
magnitude |S_m| feeds the inequality's right-hand side and must be sound.
Its pi is the floor of exactnum.const_pi's lower end at the fixed-point
width.  Its two loops, the Taylor evaluation and the complex power step of
the Weyl sums, also ship as a hand-written C kernel (`_weyl_c`, from
`_weyl_c.c`, built whenever a C compiler is present), used wherever it is
importable and its 128-bit values hold (widths up to 125 bits); both
compute the same integers, so every ball is the same either way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable

from .exactnum import Ball, Dyadic, const_pi, escalating, ln_ball

try:
    from . import _weyl_c  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover
    _weyl_c = None

# the compiled kernel's limits (see _weyl_c.c): widths up to 125 bits, and
# _PowerSums keeps every component and sum below 2^127
_COMPILED_WIDTH = 125
_COMPILED_SUM_LIMIT = 1 << 127

WEYL_BITS = 72  # the Weyl sums' first width; erdos_turan_check escalates to 4x it

__all__ = [
    "PointSet",
    "ETReport",
    "CountReport",
    "ApproxHit",
    "cos_sin_2pi",
    "weyl_sum_abs",
    "erdos_turan_check",
    "count_quadratic",
    "square_denominator_search",
    "verify_hit",
    "random_et_instance",
]


# ----------------------------------------------------------------------
# Certified cos/sin of 2*pi*t in fixed point
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pi_fp(bits: int) -> int:
    """Lower bound on pi * 2^bits within 1 ulp: the floor of const_pi's lower
    end at 64 bits finer, which is floor(pi * 2^bits) for bits up to 4096."""
    lo = const_pi(bits + 64).lo
    return (lo.man << bits) >> -lo.exp


def _series_eval(z_fp: int, w: int, terms: int) -> tuple[int, int]:
    """Fixed-point alternating Taylor sums for cos and sin of z = z_fp 2^-w >= 0:
    the pure twin of `_weyl_c.series_eval`."""
    z2 = (z_fp * z_fp) >> w
    c = 1 << w
    t = c
    sign = -1
    for j in range(1, terms):
        t = ((t * z2) >> w) // ((2 * j - 1) * (2 * j))
        c += sign * t
        sign = -sign
    s = z_fp
    t = z_fp
    sign = -1
    for j in range(1, terms):
        t = ((t * z2) >> w) // ((2 * j) * (2 * j + 1))
        s += sign * t
        sign = -sign
    return c, s


@lru_cache(maxsize=None)
def _series_plan(bits: int) -> tuple[int, int]:
    """(terms, radius in ulp) for the fixed-point evaluation at `bits`.

    terms is J + 1 for the smallest J with (pi/4)^(2J) / (2J)! <= 2^-(bits+4),
    using (pi/4)^2 < 16/25 as the per-term ratio bound.

    The radius envelope is deliberately loose: with J terms every
    accumulated arithmetic error stays below 64*J + 64 ulp (each
    fixed-point step floors at most twice on operands bounded by 2^bits,
    with contraction factor z^2/d < 0.31 per term), plus 2 ulp of series
    tail by the choice of J and the 2-ulp argument error scaled by
    |sin'| <= 1.
    """
    num, den, fact = 1, 1, 1
    j = 0
    while den * fact < num << (bits + 4):
        j += 1
        num *= 16
        den *= 25
        fact *= (2 * j - 1) * (2 * j)
    terms = j + 1
    return terms, 64 * terms + 64


def _cos_sin_fp(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """Fixed-point (cos, sin, radius_ulp) of 2*pi*num/den, den > 0."""
    # quadrant reduction: num/den = qd/4 + u with |u| <= 1/8
    qd = (8 * num + den) // (2 * den)
    aun = 4 * num - qd * den
    aud = 4 * den
    neg = aun < 0
    if neg:
        aun = -aun
    z_fp = (2 * _pi_fp(bits) * aun) // aud
    terms, radius = _series_plan(bits)
    # z_fp <= (pi/4) 2^bits < 2^bits, as the compiled kernel requires
    series = _series_eval if _weyl_c is None or bits > _COMPILED_WIDTH else _weyl_c.series_eval
    c_fp, s_fp = series(z_fp, bits, terms)
    if neg:
        s_fp = -s_fp
    q = qd % 4
    if q == 0:
        return c_fp, s_fp, radius
    if q == 1:
        return -s_fp, c_fp, radius
    if q == 2:
        return -c_fp, -s_fp, radius
    return s_fp, -c_fp, radius


def cos_sin_2pi(t: Fraction, bits: int = WEYL_BITS) -> tuple[Ball, Ball]:
    """Certified (cos 2 pi t, sin 2 pi t) for a rational t.

    Fixed-point Taylor evaluation after quadrant reduction, wrapped into
    balls.
    """
    t = Fraction(t)
    cos_fp, sin_fp, radius = _cos_sin_fp(t.numerator, t.denominator, bits)

    def ball(v: int) -> Ball:
        return Ball(Dyadic(v - radius, -bits), Dyadic(v + radius, -bits), max(64, bits))

    return ball(cos_fp), ball(sin_fp)


# ----------------------------------------------------------------------
# Point sets and exponential sums
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointSet:
    """Finite list of rationals mod 1, each stored as a Fraction in [0, 1).

    A point that already is a Fraction in [0, 1) is kept as it is.
    `weyl_sum_abs` keeps a memo in the instance's `__dict__`; it is not a
    field, so equality, hash and repr ignore it.
    """

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(
            x if type(x) is Fraction and 0 <= x.numerator < x.denominator else Fraction(x) % 1
            for x in self.points
        ))

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def of(values) -> "PointSet":
        return PointSet(tuple(values))


def _magnitude(re: int, im: int, err: int, n: int, w: int, prec: int) -> Ball:
    """Ball on |S| from a fixed-point sum re + i im at 2^-w with
    |S 2^w - (re + i im)| <= err, intersected with [0, n]."""
    r = isqrt(re * re + im * im)  # r <= |re + i im| < r + 1
    return Ball(Dyadic(max(r - err, 0), -w), Dyadic(min(r + 1 + err, n << w), -w), prec)


_WEYL_GUARD = 16  # extra bits carried by the power recurrence
_MEMO = "_power_sums"  # weyl_sum_abs's key in a PointSet's __dict__


def _pack(pairs) -> bytes:
    """(re, im) pairs as the compiled kernel's packed native int128s."""
    o = sys.byteorder
    return b"".join([c.to_bytes(16, o, signed=True) + s.to_bytes(16, o, signed=True) for c, s in pairs])


def _unpack(buf) -> list[tuple[int, int]]:
    """The (re, im) pairs of a packed buffer."""
    v = [int.from_bytes(buf[i:i + 16], sys.byteorder, signed=True) for i in range(0, len(buf), 16)]
    return list(zip(v[::2], v[1::2]))


def _power_step(powers: list, base: list, w: int) -> list[tuple[int, int]]:
    """floor(z z_1 / 2^w) componentwise for each point's (z, z_1): the pure
    twin of `_weyl_c.power_step`."""
    return [((a * c - b * s) >> w, (a * s + b * c) >> w) for (a, b), (c, s) in zip(powers, base)]


class _PowerSums:
    """S_m = sum of e(m x) over a point set for m = 1, 2, ..., extended on demand.

    Each point gets one evaluation z_1 = e(x) by `_cos_sin_fp` at width
    w = bits + _WEYL_GUARD; every later power is one complex fixed-point product
    z_{m+1} = floor(z_m z_1 / 2^w), floored componentwise.  E_m bounds the
    complex modulus |z_m - e(m x) 2^w| in ulp, the same for every point:

    - E_1 = 2 r_0 >= sqrt(2) r_0, with r_0 the per-component radius of
      `_series_plan(w)`;
    - z_m z_1 - e((m+1) x) 2^2w = e(m x) eps_1 + eps_m e(x) + eps_m eps_1
      with |eps_m| <= E_m 2^w, and the two floors add less than sqrt(2) ulp,
      so E_{m+1} <= E_m (1 + E_1 2^-w) + E_1 + 2.

    `err` takes this step with E_m E_1 2^-w rounded up, which is 1 ulp
    while E_m E_1 <= 2^w and at most 4 ulp for m <= 50 at the narrowest
    width, w = 24.  So E_m grows linearly, about m (E_1 + 3): E_50 is
    51,401 ulp at w = 24 and 96,147 ulp at w = 88.  Componentwise radii
    would grow like sqrt(2)^m instead.  The sum over N points is within
    N E_m of S_m 2^w.

    Every component of z_m is at most 2^w + E_m in absolute value, so a sum
    over N points is at most N (2^w + E_m).  While that stays below 2^127
    at w <= 125 and `_weyl_c` imports, the powers are packed int128 pairs
    (`_pack`) and each step is one `_weyl_c.power_step` call, which updates
    them in place and returns the sums; past the bound they are unpacked and
    the pure step, the same floors in Python ints, goes on.
    """

    def __init__(self, points: tuple, bits: int):
        self.w = bits + _WEYL_GUARD
        self.n = len(points)
        self.prec = max(64, bits)
        base = [_cos_sin_fp(x.numerator, x.denominator, self.w)[:2] for x in points]
        self.base_err = self.err = 2 * _series_plan(self.w)[1]
        self.balls = [self._sum_ball(sum(c for c, _ in base), sum(s for _, s in base))]
        self.packed = self._compiled_fits()
        self.base = _pack(base) if self.packed else base
        self._powers = bytearray(self.base) if self.packed else base

    @property
    def powers(self) -> list[tuple[int, int]]:
        """z_m per point as (re, im), for the largest m computed."""
        return _unpack(self._powers) if self.packed else self._powers

    def _compiled_fits(self) -> bool:
        return (
            _weyl_c is not None
            and self.w <= _COMPILED_WIDTH
            and self.n * ((1 << self.w) + self.err) < _COMPILED_SUM_LIMIT
        )

    def _sum_ball(self, re: int, im: int) -> Ball:
        return _magnitude(re, im, self.n * self.err, self.n, self.w, self.prec)

    def get(self, m: int) -> Ball:
        w = self.w
        while len(self.balls) < m:
            # E_{m+1} from E_m, with E_m E_1 / 2^w rounded up
            self.err += -(-self.err * self.base_err >> w) + self.base_err + 2
            if self.packed and not self._compiled_fits():
                self.base, self._powers = _unpack(self.base), self.powers
                self.packed = False
            if self.packed:
                re, im = _weyl_c.power_step(self._powers, self.base, w)
            else:
                self._powers = _power_step(self._powers, self.base, w)
                re = sum(c for c, _ in self._powers)
                im = sum(s for _, s in self._powers)
            self.balls.append(self._sum_ball(re, im))
        return self.balls[m - 1]


def weyl_sum_abs(ps: PointSet, m: int, bits: int = WEYL_BITS) -> Ball:
    """Certified |S_m| where S_m = sum of e(m x) over the rational point set.

    The sums come from `_PowerSums`: one Taylor evaluation per point, then
    powers, all in integer fixed point; only the magnitude is a ball.  Each
    instance keeps its sums per `bits` in its own `__dict__`, so the calls
    for m = 1..L share the powers and the memo is freed with the instance
    (`erdos_turan_check` drops it as soon as it has decided).
    """
    if m < 1:
        raise ValueError("frequency m must be >= 1")
    memo = ps.__dict__.setdefault(_MEMO, {})
    sums = memo.get(bits)
    if sums is None:
        sums = memo[bits] = _PowerSums(ps.points, bits)
    return sums.get(m)


# ----------------------------------------------------------------------
# Erdos-Turan inequality
# ----------------------------------------------------------------------

def _count_in_window(points, a: Fraction, delta: Fraction) -> int:
    """#{x : (x - a) mod 1 <= delta} in integers: with x = xn/xd, a = an/ad
    and delta = dn/dd, ((xn ad - an xd) mod (xd ad)) dd <= dn xd ad."""
    an, ad, dn, dd = a.numerator, a.denominator, delta.numerator, delta.denominator
    count = 0
    for x in points:
        xd = x.denominator
        den = xd * ad
        if (x.numerator * ad - an * xd) % den * dd <= dn * den:
            count += 1
    return count


@dataclass(frozen=True)
class ETReport:
    n_points: int
    count: int
    delta: Fraction
    order: int              # L
    lhs: Fraction           # |count - N delta|
    rhs: Ball               # N/(L+1) + E, compact error form
    holds: bool


def erdos_turan_check(ps: PointSet, a: Fraction, b: Fraction, order: int) -> ETReport:
    """Check |#{x in [a,b] mod 1} - N delta| <= N/(L+1) + E with
    E = 2 (1/(L+1) + delta) * sum_{m<=L} |S_m| (the compact upper form)."""
    a, b = Fraction(a), Fraction(b)
    delta = b - a
    if not 0 < delta < 1:
        raise ValueError("need an interval of length strictly between 0 and 1")
    if order < 1:
        raise ValueError("order L must be >= 1")
    n = len(ps)
    count = _count_in_window(ps.points, a, delta)
    lhs = abs(count - n * delta)

    def attempt(attempt_bits: int) -> ETReport | None:
        sums = sum(weyl_sum_abs(ps, m, attempt_bits) for m in range(1, order + 1))
        rhs = (
            Ball.from_fraction(Fraction(n, order + 1), 128)
            + Ball.from_fraction(2 * (Fraction(1, order + 1) + delta), 128) * sums
        )
        decided = Ball.from_fraction(lhs, 128).decide_le(rhs)
        return None if decided is None else ETReport(n, count, delta, order, lhs, rhs, bool(decided))

    try:
        return escalating(attempt, start=WEYL_BITS, cap=4 * WEYL_BITS, what="inequality comparison")
    finally:
        # the powers take about 0.3 KB per point, and no later check needs them
        ps.__dict__.pop(_MEMO, None)


def random_et_instance(rng) -> tuple[PointSet, Fraction, Fraction, int]:
    """Seeded random rational instance for inequality property runs."""
    n = rng.randint(1, 1000)
    den = rng.randint(50, 1 << 16)
    pts = PointSet.of(Fraction(rng.randrange(den), den) for _ in range(n))
    a = Fraction(rng.randrange(den), den)
    delta = Fraction(rng.randint(1, den - 1), den)
    order = rng.randint(1, 50)
    return pts, a, a + delta, order


# ----------------------------------------------------------------------
# Quadratic counting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CountReport:
    p: int
    q: int
    shift: Fraction          # the target r
    delta: Fraction
    n_max: int
    residue: int
    modulus: int
    count: int
    boundary_ties: int       # ||.|| == delta exactly; excluded from count
    main_term: Fraction      # 2 N delta / b
    eta: Fraction
    error_bound: Ball        # the displayed error expression, constant 1
    multiplier: int
    within_bound: bool | None


def _class(residue: int, modulus: int, n_max: int) -> range:
    """The n in [1, n_max] with n = residue (mod modulus), ascending."""
    return range(residue % modulus or modulus, n_max + 1, modulus)


def count_quadratic(
    p: int,
    q: int,
    shift: Fraction = Fraction(0),
    delta: Fraction = Fraction(1, 4),
    n_max: int = 100,
    residue: int = 0,
    modulus: int = 1,
    eta: Fraction = Fraction(1, 10),
    multiplier: int = 10,
) -> CountReport:
    """Exact count of n <= n_max, n = residue (mod modulus), with
    ||p n^2 / q - shift|| < delta, plus the lemma's main term and error
    expression for comparison.

    The count runs in integers: with shift = rn/rd and Q = q rd, the
    distance is min(w, Q - w)/Q for w = (p n^2 rd - rn q) mod Q, compared
    with delta by cross-multiplication.  `_count_by_fractions` is its twin."""
    shift, delta = Fraction(shift), Fraction(delta)
    if q < 1 or gcd(p, q) != 1:
        raise ValueError("need q >= 1 and p coprime to q")
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("need 0 < delta < 1/2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if eta <= 0 or multiplier <= 0:
        raise ValueError("the lemma needs eta > 0 and a positive multiplier")
    # first, so that an exponent that pow_frac refuses fails before the count
    err = _error_expression(q, delta, n_max, eta)
    big_q = q * shift.denominator
    prd, off = p * shift.denominator, shift.numerator * q
    dd, edge = delta.denominator, delta.numerator * big_q
    count = ties = 0
    for n in _class(residue, modulus, n_max):
        w = (prd * n * n - off) % big_q
        d = min(w, big_q - w) * dd
        if d < edge:
            count += 1
        elif d == edge:
            ties += 1

    main = Fraction(2 * n_max * delta, modulus)
    dev = abs(count - main)
    bound = Ball.from_fraction(multiplier, err.prec) * err
    within = Ball.from_fraction(dev, 128).decide_le(bound)
    return CountReport(
        p, q, shift, delta, n_max, residue, modulus, count, ties, main, eta, err,
        multiplier, within,
    )


def _count_by_fractions(
    p: int, q: int, shift: Fraction, delta: Fraction, n_max: int, residue: int, modulus: int
) -> tuple[int, int]:
    """(count, boundary_ties) of `count_quadratic` with one Fraction per n:
    its independent twin, unvalidated."""
    count = ties = 0
    for n in _class(residue, modulus, n_max):
        v = Fraction(p * n * n, q) - shift
        f = v - v // 1
        d = min(f, 1 - f)
        if d < delta:
            count += 1
        elif d == delta:
            ties += 1
    return count, ties


def _error_expression(q: int, delta: Fraction, n_max: int, eta: Fraction) -> Ball:
    # N^(1+2 eta) / delta^eta * (ln q / N + 1/q + q delta ln q / N^2)^(1/2)
    prec = 128
    n_ball = Ball.from_fraction(n_max, prec)
    lead = n_ball.pow_frac(1 + 2 * eta, prec) / Ball.from_fraction(delta, prec).pow_frac(eta, prec)
    lq = ln_ball(q, prec) if q > 1 else Ball.from_fraction(0, prec)
    inner = (
        lq / n_ball
        + Ball.from_fraction(Fraction(1, q), prec)
        + Ball.from_fraction(q * delta, prec) * lq / Ball.from_fraction(n_max * n_max, prec)
    )
    return lead * inner.sqrt()


# ----------------------------------------------------------------------
# Approximation by fractions with square denominators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxHit:
    m: int
    n: int
    error: Ball  # |alpha - m/n^2|


def square_denominator_search(
    alpha: Callable[[int], Ball],
    exponent: Fraction,
    n_max: int,
    n_mod: tuple[int, int] = (0, 1),
    m_mod: tuple[int, int] = (0, 1),
    prec: int = 96,
) -> tuple[list[ApproxHit], int]:
    """All (m, n) with n <= n_max in the given residue classes such that
    |alpha - m/n^2| < n^(-exponent), where m is the nearest integer to
    alpha n^2 within its class.  alpha maps a precision to a ball
    enclosing the target at that precision.  Returns (hits, skipped):
    undecidable candidates are skipped with a warning count."""
    exponent = Fraction(exponent)
    if exponent > Fraction(5, 2):
        raise ValueError("exponent must be <= 5/2")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    a_n, b_n = n_mod
    a_m, b_m = m_mod
    if b_n < 1 or b_m < 1:
        raise ValueError("moduli must be >= 1")
    av = alpha(prec)
    if av.sign() != 1:
        raise ValueError("alpha must be decidedly positive")
    hits: list[ApproxHit] = []
    skipped = 0
    for n in _class(a_n, b_n, n_max):
        if n < 2:
            continue
        got = _attempt_hit(av, exponent, n, a_m, b_m)
        if got == "skip":
            skipped += 1
        elif got is not None:
            hits.append(got)
    return hits, skipped


def _attempt_hit(av: Ball, exponent: Fraction, n: int, a_m: int, b_m: int):
    prec = av.prec
    v = av * Ball.from_fraction(n * n, prec)
    scaled = (v - Ball.from_fraction(a_m, prec)) / Ball.from_fraction(b_m, prec)
    mid = scaled.midpoint().as_fraction()
    j = (mid + Fraction(1, 2)) // 1
    if not (
        scaled.lo.cmp_fraction(j - Fraction(1, 2)) > 0
        and scaled.hi.cmp_fraction(j + Fraction(1, 2)) < 0
    ):
        return "skip"
    m = a_m + b_m * int(j)
    if m <= 0:
        return None
    err_scaled, decided = _within(v, m, n, exponent)
    if decided is None:
        return "skip"
    if not decided:
        return None
    return ApproxHit(m, n, err_scaled / Ball.from_fraction(n * n, prec))


def _within(v: Ball, m: int, n: int, exponent: Fraction) -> tuple[Ball, bool | None]:
    """(|v - m|, whether it is below n^(2 - exponent)) for v = alpha n^2,
    both at v's precision."""
    err = abs(v - Ball.from_fraction(m, v.prec))
    return err, err.decide_lt(Ball.from_fraction(n, v.prec).pow_frac(2 - exponent, v.prec))


def verify_hit(alpha: Callable[[int], Ball], exponent: Fraction, hit: ApproxHit, prec: int) -> bool:
    """Re-verify an accepted pair at alpha(prec), typically at doubled precision."""
    v = alpha(prec) * Ball.from_fraction(hit.n * hit.n, prec)
    return _within(v, hit.m, hit.n, Fraction(exponent))[1] is True
