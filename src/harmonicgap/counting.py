"""Equidistribution machinery at desk scale.

Exponential (Weyl) sums with certified magnitudes, the Erdos-Turan
discrepancy inequality in its compact-error form, exact counting of
quadratic residues near a target modulo 1, and a constructive search for
approximations of a real by fractions with square denominators.

The only transcendental need here is e(x) = exp(2 pi i x).  A dedicated
fixed-point evaluator computes cos/sin of 2 pi t with an explicit,
deliberately generous error envelope; it exists because the certified
magnitude |S_m| feeds the inequality's right-hand side and must be sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable

from .exactnum import Ball, Dyadic, escalating, ln_ball

__all__ = [
    "PointSet",
    "ETReport",
    "CountReport",
    "ApproxHit",
    "cos_sin_2pi",
    "weyl_sum_abs",
    "erdos_turan_check",
    "count_quadratic",
    "count_quadratic_modular",
    "square_denominator_search",
    "verify_hit",
    "random_et_instance",
]


# ----------------------------------------------------------------------
# Certified cos/sin of 2*pi*t in fixed point
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pi_fraction_bracket(terms: int) -> tuple[Fraction, Fraction]:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239); alternating partial sums
    # bracket each atan
    def atan_bracket(x: int) -> tuple[Fraction, Fraction]:
        s = Fraction(0)
        sign = 1
        p = Fraction(1, x)
        x2 = x * x
        lo = hi = None
        for j in range(terms):
            s += sign * p / (2 * j + 1)
            if sign > 0:
                hi = s
            else:
                lo = s
            sign = -sign
            p /= x2
        return lo, hi

    lo5, hi5 = atan_bracket(5)
    lo239, hi239 = atan_bracket(239)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


@lru_cache(maxsize=None)
def _pi_fp(bits: int) -> int:
    """floor of a lower bound on pi * 2^bits, within 2 ulp of the truth."""
    terms = bits // 4 + 8  # atan(1/5) gains log2(25) ~ 4.6 bits per term
    while True:
        lo, hi = _pi_fraction_bracket(terms)
        if (hi - lo) * (1 << bits) <= 1:
            return (lo.numerator << bits) // lo.denominator
        terms *= 2  # pragma: no cover


def _series_eval(z_fp: int, one: int, terms: int) -> tuple[int, int]:
    """Fixed-point alternating Taylor sums for cos and sin at z >= 0."""
    z2 = (z_fp * z_fp) // one
    c = one
    t = one
    sign = -1
    for j in range(1, terms):
        t = (t * z2 // one) // ((2 * j - 1) * (2 * j))
        c += sign * t
        sign = -sign
    s = z_fp
    t = z_fp
    sign = -1
    for j in range(1, terms):
        t = (t * z2 // one) // ((2 * j) * (2 * j + 1))
        s += sign * t
        sign = -sign
    return c, s


def _series_terms(bits: int) -> int:
    # smallest J with (pi/4)^(2J) / (2J)! <= 2^-(bits+4), using
    # (pi/4)^2 < 16/25 as the per-term ratio bound
    num, den, fact = 1, 1, 1
    j = 0
    while True:
        j += 1
        num *= 16
        den *= 25
        fact *= (2 * j - 1) * (2 * j)
        if den * fact >= num << (bits + 4):
            return j + 1


@lru_cache(maxsize=None)
def _series_plan(bits: int) -> tuple[int, int]:
    """(terms, radius in ulp) for the fixed-point evaluation at `bits`.

    The radius envelope is deliberately loose: with J terms every
    accumulated arithmetic error stays below 64*J + 64 ulp (each
    fixed-point step floors at most twice on operands bounded by 2^bits,
    with contraction factor z^2/d < 0.31 per term), plus 2 ulp of series
    tail by the choice of J and the 2-ulp argument error scaled by
    |sin'| <= 1.
    """
    terms = _series_terms(bits)
    return terms, 64 * terms + 64


def _cos_sin_fp(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """Fixed-point (cos, sin, radius_ulp) of 2*pi*num/den, den > 0."""
    one = 1 << bits
    # quadrant reduction: num/den = qd/4 + u with |u| <= 1/8
    qd = (8 * num + den) // (2 * den)
    aun = 4 * num - qd * den
    aud = 4 * den
    neg = aun < 0
    if neg:
        aun = -aun
    z_fp = (2 * _pi_fp(bits) * aun) // aud
    terms, radius = _series_plan(bits)
    c_fp, s_fp = _series_eval(z_fp, one, terms)
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


def cos_sin_2pi(t: Fraction, bits: int = 72) -> tuple[Ball, Ball]:
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

    `weyl_sum_abs` keeps a memo in the instance's `__dict__`; it is not a
    field, so equality, hash and repr ignore it.
    """

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(Fraction(x) % 1 for x in self.points))

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
    """

    def __init__(self, points: tuple, bits: int):
        self.w = bits + _WEYL_GUARD
        self.n = len(points)
        self.prec = max(64, bits)
        self.base = [_cos_sin_fp(x.numerator, x.denominator, self.w)[:2] for x in points]
        self.base_err = 2 * _series_plan(self.w)[1]
        self.powers = self.base
        self.err = self.base_err
        self.balls = [self._sum_ball()]

    def _sum_ball(self) -> Ball:
        re = sum(c for c, _ in self.powers)
        im = sum(s for _, s in self.powers)
        return _magnitude(re, im, self.n * self.err, self.n, self.w, self.prec)

    def get(self, m: int) -> Ball:
        w = self.w
        while len(self.balls) < m:
            self.powers = [
                ((a * c - b * s) >> w, (a * s + b * c) >> w)
                for (a, b), (c, s) in zip(self.powers, self.base)
            ]
            # E_m E_1 / 2^w, rounded up
            self.err += -(-self.err * self.base_err >> w) + self.base_err + 2
            self.balls.append(self._sum_ball())
        return self.balls[m - 1]


def weyl_sum_abs(ps: PointSet, m: int, bits: int = 72) -> Ball:
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

@dataclass(frozen=True)
class ETReport:
    n_points: int
    count: int
    delta: Fraction
    order: int              # L
    lhs: Fraction           # |count - N delta|
    rhs: Ball               # N/(L+1) + E, compact error form
    holds: bool


def erdos_turan_check(
    ps: PointSet,
    a: Fraction,
    b: Fraction,
    order: int,
    bits: int = 72,
) -> ETReport:
    """Check |#{x in [a,b] mod 1} - N delta| <= N/(L+1) + E with
    E = 2 (1/(L+1) + delta) * sum_{m<=L} |S_m| (the compact upper form)."""
    a, b = Fraction(a), Fraction(b)
    delta = b - a
    if not 0 < delta < 1:
        raise ValueError("need an interval of length strictly between 0 and 1")
    if order < 1:
        raise ValueError("order L must be >= 1")
    if bits < 8:
        # the cap 4*bits must reach the 32-bit minimum for any attempt to run
        raise ValueError("bits must be >= 8")
    n = len(ps)
    count = sum(1 for x in ps.points if (x - a) % 1 <= delta)
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
        return escalating(attempt, start=bits, cap=4 * bits, what="inequality comparison")
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


def _dist_to_nearest_int(v: Fraction) -> Fraction:
    f = v - (v // 1)
    return min(f, 1 - f)


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
    expression for comparison."""
    if q < 1 or gcd(p, q) != 1:
        raise ValueError("need q >= 1 and p coprime to q")
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("need 0 < delta < 1/2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    shift = Fraction(shift)
    count = ties = 0
    start = residue % modulus
    if start == 0:
        start = modulus
    for n in range(start, n_max + 1, modulus):
        d = _dist_to_nearest_int(Fraction(p * n * n, q) - shift)
        if d < delta:
            count += 1
        elif d == delta:
            ties += 1

    main = Fraction(2 * n_max * delta, modulus)
    err = _error_expression(q, delta, n_max, eta)
    dev = abs(count - main)
    bound = Ball.from_fraction(multiplier, err.prec) * err
    within = Ball.from_fraction(dev, 128).decide_le(bound)
    return CountReport(
        p, q, shift, delta, n_max, residue, modulus, count, ties, main, eta, err,
        multiplier, within,
    )


def _error_expression(q: int, delta: Fraction, n_max: int, eta: Fraction) -> Ball:
    # N^(1+2 eta) / delta^eta * (ln q / N + 1/q + q delta ln q / N^2)^(1/2)
    prec = 128
    n_ball = Ball.from_fraction(n_max, prec)
    lead = n_ball.pow_frac(1 + 2 * eta, prec).div(
        Ball.from_fraction(delta, prec).pow_frac(eta, prec)
    )
    lq = ln_ball(q, prec) if q > 1 else Ball.point(0, prec)
    inner = (
        lq.div(n_ball)
        + Ball.from_fraction(Fraction(1, q), prec)
        + Ball.from_fraction(q * delta, prec) * lq / Ball.from_fraction(n_max * n_max, prec)
    )
    return lead.mul(inner.sqrt())


def count_quadratic_modular(
    p: int,
    q: int,
    shift: Fraction = Fraction(0),
    delta: Fraction = Fraction(1, 4),
    n_max: int = 100,
    residue: int = 0,
    modulus: int = 1,
) -> tuple[int, int]:
    """Independent enumeration path: residue tables, no Fraction arithmetic.

    Returns (count, boundary_ties); must agree exactly with count_quadratic.
    """
    if q < 1 or gcd(p, q) != 1:
        raise ValueError("need q >= 1 and p coprime to q")
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("need 0 < delta < 1/2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rn, rd = shift.numerator, shift.denominator
    dn, dd = delta.numerator, delta.denominator
    big_q = q * rd
    count = ties = 0
    start = residue % modulus
    if start == 0:
        start = modulus
    for n in range(start, n_max + 1, modulus):
        c = (p * ((n % q) * (n % q) % q)) % q
        w = (c * rd - rn * q) % big_q
        dist_num = min(w, big_q - w)  # ||...|| = dist_num / big_q
        lhs = dist_num * dd
        rhs = dn * big_q
        if lhs < rhs:
            count += 1
        elif lhs == rhs:
            ties += 1
    return count, ties


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
    start = a_n % b_n
    if start == 0:
        start = b_n
    for n in range(start, n_max + 1, b_n):
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
    err_scaled = abs(v - Ball.from_fraction(m, prec))  # |alpha n^2 - m|
    threshold = Ball.from_fraction(n, prec).pow_frac(2 - exponent, prec)
    decided = err_scaled.decide_lt(threshold)
    if decided is None:
        return "skip"
    if not decided:
        return None
    err = err_scaled.div(Ball.from_fraction(n * n, prec))
    return ApproxHit(m, n, err)


def verify_hit(alpha: Callable[[int], Ball], exponent: Fraction, hit: ApproxHit, prec: int) -> bool:
    """Re-verify an accepted pair at alpha(prec), typically at doubled precision."""
    av = alpha(prec)
    err = abs(av * Ball.from_fraction(hit.n * hit.n, prec) - Ball.from_fraction(hit.m, prec))
    threshold = Ball.from_fraction(hit.n, prec).pow_frac(2 - Fraction(exponent), prec)
    return err.decide_lt(threshold) is True
