"""Exact rational arithmetic and certified dyadic interval (ball) arithmetic.

Every rigorous real-valued quantity in this package is a Ball: a closed
interval with dyadic endpoints (integer mantissa times a power of two) and
outward rounding, so the true value of an operation on members of the input
balls always lies in the output ball.  Dyadic endpoints make directed
rounding exact integer work; no floating-point environment is involved.

Exact quantities are Fractions: convergent ratios, harmonic sums and
overshoots.

Precision policy: one loop, `escalating`, runs a computation at doubling
working precision from the caller's start until it returns a result (a width
met, a sign decided) and raises PrecisionError past MAX_PREC.  Downstream
certifications need *decided* signs and bounds, never silent rounding.
Where the cancellation is taken out algebraically, the first attempt
decides: construct certifies its pairs from the convergent's remainder at a
fixed 224 bits, at any size of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._intops import decimal_str, iroot
from .errors import PrecisionError

DEFAULT_PREC = 192
MAX_PREC = 1 << 16
_MIN_PREC = 32
# a b-th root shifts by b*(prec + 2) bits and runs Newton from a power-of-two
# seed: at 96 to 192 bits one pow_frac took about 4 ms at b = 64, 9-24 ms at
# b = 128 and 0.13-0.47 s at b = 1024 (2-core machine, Python 3.11)
MAX_ROOT_DEGREE = 64


# ----------------------------------------------------------------------
# Dyadic endpoints
# ----------------------------------------------------------------------

class Dyadic:
    """Exact dyadic real man * 2**exp, stored as given (exp 0 for zero): one
    value has many stored forms, so equality, order and every operation go by value."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        self.man, self.exp = man, (exp if man else 0)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp, 1)
        return Fraction(self.man, 1 << -self.exp)

    def bit_magnitude(self) -> int:
        """Upper bound b with |value| < 2**b (0 for zero)."""
        if self.man == 0:
            return 0
        return abs(self.man).bit_length() + self.exp

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if self.man == 0:
            return other
        if other.man == 0:
            return self
        e = min(self.exp, other.exp)
        return Dyadic((self.man << (self.exp - e)) + (other.man << (other.exp - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.man * other.man, self.exp + other.exp)

    def _cmp(self, other: "Dyadic") -> int:
        e = min(self.exp, other.exp)
        a, b = self.man << (self.exp - e), other.man << (other.exp - e)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, Dyadic) and self._cmp(other) == 0

    def cmp_fraction(self, fr: Fraction) -> int:
        # man*2^exp vs num/den, den > 0: cross-multiply exactly
        num, den = fr.numerator, fr.denominator
        if self.exp >= 0:
            lhs = (self.man << self.exp) * den
        else:
            lhs = self.man * den
            num = num << -self.exp
        return (lhs > num) - (lhs < num)

    def round_down(self, prec: int) -> "Dyadic":
        """Round toward -inf keeping at most prec mantissa bits."""
        excess = abs(self.man).bit_length() - prec
        if excess <= 0:
            return self
        return Dyadic(self.man >> excess, self.exp + excess)

    def round_up(self, prec: int) -> "Dyadic":
        """Round toward +inf keeping at most prec mantissa bits."""
        excess = abs(self.man).bit_length() - prec
        if excess <= 0:
            return self
        return Dyadic(-((-self.man) >> excess), self.exp + excess)

    def __float__(self) -> float:
        # display/diagnostics only; saturates instead of raising
        m, e = self.man, self.exp
        extra = abs(m).bit_length() - 64
        if extra > 0:
            m >>= extra
            e += extra
        try:
            return math.ldexp(m, e)
        except OverflowError:  # pragma: no cover
            return math.inf if m > 0 else -math.inf

    def decimal_str(self, digits: int, round_up: bool) -> str:
        """Decimal string with directed rounding (exact integer arithmetic),
        printed through _intops.decimal_str at any length."""
        if self.man == 0:
            return "0"
        scaled = self.man * 10 ** digits
        if self.exp >= 0:
            q = scaled << self.exp
        elif round_up:
            q = -((-scaled) >> -self.exp)
        else:
            q = scaled >> -self.exp
        sign = "-" if q < 0 else ""
        q = abs(q)
        s = decimal_str(q).rjust(digits + 1, "0")
        if digits == 0:
            return f"{sign}{s}"
        ip, fp = s[:-digits], s[-digits:]
        fp = fp.rstrip("0")
        return f"{sign}{ip}.{fp}" if fp else f"{sign}{ip}"

    def __repr__(self):
        return f"Dyadic({self.man}, {self.exp})"


ZERO = Dyadic(0)


def _scaled_divmod(num: int, den: int, prec: int) -> tuple[int, int, int]:
    """(q, r, s) for num/den, den > 0, with q = floor(num * 2^s / den) of ~prec
    significant bits and r = 0 iff that quotient is exact: num/den rounds down
    to q * 2^-s and up to (q + (r > 0)) * 2^-s."""
    s = prec - num.bit_length() + den.bit_length() + 2
    q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    return q, r, s


def _dyadic_div(a: Dyadic, b: Dyadic, prec: int, up: bool) -> Dyadic:
    if b.man == 0:
        raise ZeroDivisionError("dyadic division by zero")
    num, den = a.man, b.man
    if den < 0:
        num, den = -num, -den
    q, r, s = _scaled_divmod(num, den, prec)
    return Dyadic(q + (up and r > 0), a.exp - b.exp - s)


def _dyadic_root(a: Dyadic, n: int, prec: int, up: bool) -> Dyadic:
    if a.man < 0:
        raise ValueError("root of a negative dyadic")
    if a.man == 0:
        return ZERO
    z = (a.man & -a.man).bit_length() - 1  # root the odd mantissa: its length sets the shift
    m, e = a.man >> z, a.exp + z
    shift = max(0, n * (prec + 2) - m.bit_length())
    shift += (e - shift) % n  # make the final exponent divisible by n
    m <<= shift
    e -= shift
    r = iroot(m, n)
    if up and r**n < m:
        r += 1
    return Dyadic(r, e // n)


# ----------------------------------------------------------------------
# Balls
# ----------------------------------------------------------------------

class Ball:
    """Closed interval [lo, hi] of dyadic reals with outward rounding."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: Dyadic, hi: Dyadic, prec: int = DEFAULT_PREC):
        if prec < _MIN_PREC:
            raise ValueError(f"precision must be >= {_MIN_PREC}")
        if lo > hi:
            raise ValueError("ball with lo > hi")
        self.lo = lo
        self.hi = hi
        self.prec = prec

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_fraction(fr: Fraction | int, prec: int = DEFAULT_PREC) -> "Ball":
        fr = Fraction(fr)
        num, den = fr.numerator, fr.denominator
        if den == 1 or (den & (den - 1)) == 0:  # dyadic: exact
            d = Dyadic(num, -(den.bit_length() - 1))
            return Ball(d, d, prec)
        q, r, s = _scaled_divmod(num, den, prec)
        return Ball(Dyadic(q, -s), Dyadic(q + (r > 0), -s), prec)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction, prec: int = DEFAULT_PREC) -> "Ball":
        return Ball(Ball.from_fraction(lo, prec).lo, Ball.from_fraction(hi, prec).hi, prec)

    # -- inspection ----------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def midpoint(self) -> Dyadic:
        s = self.lo + self.hi
        return Dyadic(s.man, s.exp - 1)

    def contains(self, v: Fraction | int) -> bool:
        fr = Fraction(v)
        return self.lo.cmp_fraction(fr) <= 0 and self.hi.cmp_fraction(fr) >= 0

    def overlaps(self, other: "Ball") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def sign(self) -> int | None:
        """-1, 0 (exact point zero) or +1 when decided, None when straddling."""
        if self.lo.man > 0:
            return 1
        if self.hi.man < 0:
            return -1
        if self.lo.man == 0 and self.hi.man == 0:
            return 0
        return None

    def cmp_fraction(self, fr: Fraction) -> int | None:
        """-1 if ball < fr, +1 if ball > fr, 0 if point-equal, else None."""
        hi_c = self.hi.cmp_fraction(fr)
        lo_c = self.lo.cmp_fraction(fr)
        if hi_c < 0:
            return -1
        if lo_c > 0:
            return 1
        if lo_c == 0 and hi_c == 0:
            return 0
        return None

    def decide_le(self, other: "Ball") -> bool | None:
        if self.hi <= other.lo:
            return True
        if self.lo > other.hi:
            return False
        return None

    def decide_lt(self, other: "Ball") -> bool | None:
        if self.hi < other.lo:
            return True
        if self.lo >= other.hi:
            return False
        return None

    def width_leq(self, bits: int) -> bool:
        """True iff width <= 2**bits."""
        w = self.width()
        return w.man == 0 or w.bit_magnitude() <= bits

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "Ball":
        return Ball(-self.hi, -self.lo, self.prec)

    def __abs__(self) -> "Ball":
        if self.lo.man >= 0:
            return self
        if self.hi.man <= 0:
            return -self
        hi = self.hi if self.hi >= -self.lo else -self.lo
        return Ball(ZERO, hi, self.prec)

    def __add__(self, other) -> "Ball":
        other = self._coerce(other)
        p = max(self.prec, other.prec)
        return Ball((self.lo + other.lo).round_down(p), (self.hi + other.hi).round_up(p), p)

    __radd__ = __add__

    def __sub__(self, other) -> "Ball":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "Ball":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Ball":
        other = self._coerce(other)
        p = max(self.prec, other.prec)
        cands = [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi]
        return Ball(min(cands).round_down(p), max(cands).round_up(p), p)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Ball":
        other = self._coerce(other)
        p = max(self.prec, other.prec)
        if other.lo.man <= 0 <= other.hi.man:
            raise PrecisionError("division by a ball containing zero")
        if other.hi.man < 0:
            return -self / -other
        # a positive divisor: each end of the quotient divides by the end of
        # the divisor that pushes it outward
        lo = _dyadic_div(self.lo, other.hi if self.lo.man >= 0 else other.lo, p, up=False)
        hi = _dyadic_div(self.hi, other.lo if self.hi.man >= 0 else other.hi, p, up=True)
        return Ball(lo, hi, p)

    def __rtruediv__(self, other) -> "Ball":
        return self._coerce(other) / self

    def _coerce(self, other) -> "Ball":
        """A Ball, int, Fraction or Dyadic operand as a ball; a float or any other type is refused."""
        if isinstance(other, Ball):
            return other
        if isinstance(other, (int, Fraction)):
            return Ball.from_fraction(other, self.prec)
        if isinstance(other, Dyadic):
            return Ball(other, other, self.prec)
        raise TypeError(f"unsupported operand type for Ball arithmetic: {type(other).__name__!r}")

    def sqrt(self) -> "Ball":
        p = self.prec
        if self.lo.man < 0:
            raise ValueError("sqrt of a ball with negative lower endpoint")
        # the root at p - 1 keeps the 2p + 2 mantissa bits of a p-bit square root
        return Ball(_dyadic_root(self.lo, 2, p - 1, up=False), _dyadic_root(self.hi, 2, p - 1, up=True), p)

    def root(self, n: int, prec: int | None = None) -> "Ball":
        p = prec or self.prec
        if self.lo.man < 0:
            raise ValueError("root of a ball with negative lower endpoint")
        return Ball(_dyadic_root(self.lo, n, p, up=False), _dyadic_root(self.hi, n, p, up=True), p)

    def pow_frac(self, expo: Fraction, prec: int | None = None) -> "Ball":
        """x**(a/b) for x >= 0: the power by square-and-multiply at p + 8 bits,
        O(log a) ball products, then the b-th root, b <= MAX_ROOT_DEGREE."""
        p = prec or self.prec
        a, b = expo.numerator, expo.denominator
        if b > MAX_ROOT_DEGREE:
            raise ValueError(f"exponent {a}/{b}: denominator above {MAX_ROOT_DEGREE}")
        if a < 0:
            return Ball.from_fraction(1, p) / self.pow_frac(-expo, p)
        cur = Ball.from_fraction(1, p + 8)
        base = self.at(p + 8)
        while a:
            if a & 1:
                cur = cur * base
            a >>= 1
            if a:
                base = base * base
        return cur.root(b, p) if b > 1 else cur.at(p)

    def widen_by(self, radius: Fraction | Dyadic) -> "Ball":
        if not isinstance(radius, Dyadic):
            q, r, s = _scaled_divmod(radius.numerator, radius.denominator, self.prec)
            radius = Dyadic(q + (r > 0), -s)
        p = self.prec
        return Ball((self.lo - radius).round_down(p), (self.hi + radius).round_up(p), p)

    def at(self, prec: int) -> "Ball":
        return Ball(self.lo.round_down(prec), self.hi.round_up(prec), prec)

    def __float__(self) -> float:
        return float(self.midpoint())

    def __repr__(self):
        return f"Ball[{float(self.lo)!r}, {float(self.hi)!r}]@{self.prec}"

    def interval_str(self, digits: int = 24) -> tuple[str, str]:
        return self.lo.decimal_str(digits, round_up=False), self.hi.decimal_str(digits, round_up=True)


def _operand(x: int | Fraction) -> str:
    """x for the `what` of an escalation: in decimal up to 64 bits, else by
    its bit length, so that the one-line exit-3 message stays short."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{_operand(x.numerator)}/{_operand(x.denominator)}"
    x = int(x)
    return str(x) if x.bit_length() <= 64 else f"<{x.bit_length()}-bit integer>"


def escalating(compute, start: int = 128, cap: int = MAX_PREC, what: str = "value"):
    """Run compute(prec) at doubling precision until it returns non-None."""
    p = max(start, _MIN_PREC)
    while p <= cap:
        out = compute(p)
        if out is not None:
            return out
        p *= 2
    raise PrecisionError(f"undecidable {what} at precision cap {cap}")


# ----------------------------------------------------------------------
# Logarithms of rationals
# ----------------------------------------------------------------------

def _bucket(prec: int) -> int:
    b = 128
    while b < prec:
        b *= 2
    return b


def _arccot(x: int, w: int, hyperbolic: bool = False) -> tuple[Fraction, Fraction]:
    """(s, t) with t < 2^-w: atanh(1/x) lies in [s, s + t] (hyperbolic) and
    atan(1/x) in [s - t, s + t], for an integer x >= 2.

    s sums T = w // (bits(x^2) - 1) + 4 terms +-(1/x)^(2j+1)/(2j+1) exactly
    over lcm(1, 3, ..., 2T - 1) x^(2T - 1), by Horner in x^2; the tail is
    under x^-(2T+1) x^2/(x^2 - 1), positive for atanh, of either sign for
    atan.  For ln 2 it gives the same ball as the ball series _two_atanh in
    0.22 ms against 3.0 ms at 128 bits and 21 ms against 1.75 s at 8192 bits
    (measured on a 2-core machine, Python 3.11).
    """
    x2 = x * x
    terms = w // (x2.bit_length() - 1) + 4
    lcm = math.lcm(*range(1, 2 * terms, 2))
    num = 0
    for j in range(terms):
        step = lcm // (2 * j + 1)
        num = x2 * num + (step if hyperbolic or j % 2 == 0 else -step)
    s = Fraction(num, lcm * x ** (2 * terms - 1))
    return s, Fraction(x2, x2 - 1) / Fraction(x) ** (2 * terms + 1)


@lru_cache(maxsize=None)
def _ln2(prec: int) -> Ball:
    # ln 2 = 2 atanh(1/3)
    w = prec + 16
    s, tail = _arccot(3, w, hyperbolic=True)
    return Ball.from_endpoints(2 * s, 2 * (s + tail), w).at(prec)


def _two_atanh(u: Ball, ell: int, w: int) -> Ball:
    """2*atanh(u) - 2u for every u in the ball, given |u| < 2^-ell with
    ell >= 1: the series sum 2 u^(2j+1)/(2j+1) from j = 1, with its
    remainder.  The remainder is under 2^(-w-7-3*ell) and every step rounds
    relative to its term, so the error shrinks with u."""
    terms = (w + 8) // (2 * ell) + 2
    u2 = u * u
    term = u
    acc = Ball.from_fraction(0, u.prec)
    for j in range(1, terms):
        term = term * u2
        acc = acc + term / Ball.from_fraction(2 * j + 1, w + 16)
    # tail <= |u|^(2T+1)/((2T+1)(1-u^2)) < 2^(-(2T+1)*ell), doubled
    return (acc + acc).widen_by(Dyadic(1, -(2 * terms + 1) * ell + 1))


def ln_ball(r: Fraction | int, prec: int = DEFAULT_PREC) -> Ball:
    """Sound enclosure of ln(r) for rational r > 0, width <= 2**(4-prec).

    One argument reduction, r = x * 2^s with x in [2/3, 4/3], then
    ln x = 2u + (2*atanh(u) - 2u) for u = (x-1)/(x+1), |u| <= 1/5, by the
    series with its explicit geometric remainder, and s * ln 2 from the
    cached _ln2.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ln of a non-positive rational")
    num, den = r.numerator, r.denominator
    s = num.bit_length() - den.bit_length()
    a, b = (num, den << s) if s >= 0 else (num << -s, den)
    # a/b lies in (1/2, 2), so one halving or doubling lands in [2/3, 4/3]
    if 3 * a > 4 * b:
        s, b = s + 1, 2 * b
    elif 3 * a < 2 * b:
        s, a = s - 1, 2 * a
    unum, uden = a - b, a + b
    ell = uden.bit_length() - abs(unum).bit_length()
    if abs(unum) << ell >= uden:
        ell -= 1  # now |u| < 2^-ell, and |u| <= 1/5 keeps ell >= 2

    def attempt(w: int) -> Ball | None:
        out = Ball.from_fraction(0, w)
        if unum:
            u = Ball.from_fraction(Fraction(unum, uden), w + 16)
            out = _two_atanh(u, ell, w) + (u + u)
        if s:
            out = out + _ln2(_bucket(w + s.bit_length() + 8)) * Ball.from_fraction(s, w)
        out = out.at(w)
        # keep the working precision: re-rounding to prec bits would break
        # the absolute width contract once |ln r| exceeds 2^4
        return out if out.width_leq(4 - prec) else None

    return escalating(attempt, start=_bucket(prec + 16), what=f"ln({_operand(r)})")


# ----------------------------------------------------------------------
# e, pi, sinh(1) and derived constants
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _exp_series(prec: int) -> Ball:
    """e from its Taylor series, summed exactly.

    After term k the sum of 1/j! over j <= k is num/k!, so each term costs
    num' = k num + 1.  The sum stops before the first term 1/(K+1)! under
    2^(-prec-6) with K >= 1; past it the terms fall by ratios under 1/2, so
    the tail lies in (0, 2/(K+1)!).
    """
    num = den = k = 1
    while k < 2 or (den * k).bit_length() - 1 <= prec + 6:
        num = num * k + 1
        den *= k
        k += 1
    return Ball.from_endpoints(Fraction(num, den), Fraction(num * k + 2, den * k), prec)


def const_e(prec: int = DEFAULT_PREC) -> Ball:
    """Enclosure of e from its Taylor series, summed once per bucket."""
    return _exp_series(_bucket(prec + 8)).at(prec)


@lru_cache(maxsize=None)
def _pi(prec: int) -> Ball:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239), within 20 * 2^-(prec+6)
    s5, t5 = _arccot(5, prec + 6)
    s239, t239 = _arccot(239, prec + 6)
    mid, rad = 16 * s5 - 4 * s239, 16 * t5 + 4 * t239
    return Ball.from_endpoints(mid - rad, mid + rad, prec)


def const_pi(prec: int = DEFAULT_PREC) -> Ball:
    """Enclosure of pi from Machin's formula, summed once per bucket."""
    return _pi(_bucket(prec + 8)).at(prec)


def const_sinh1(prec: int = DEFAULT_PREC) -> Ball:
    """sinh(1) = (e - 1/e)/2 in ball arithmetic."""
    w = prec + 16
    e = const_e(w)
    half = Ball.from_fraction(Fraction(1, 2), w)
    return ((e - Ball.from_fraction(1, w) / e) * half).at(prec)


@dataclass(frozen=True)
class Constants:
    """The recurring certified constants, all at a common precision."""

    critical_offset: Ball  # sinh(1)/12: the offset nulling the n^-2 error term
    gap_target: Ball       # sinh(1)/6: what the scaled gap must approach
    three_over_sinh1: Ball


@lru_cache(maxsize=None)
def _constants_cached(prec: int) -> Constants:
    sinh1 = const_sinh1(prec + 16)
    twelve = Ball.from_fraction(12, prec + 16)
    six = Ball.from_fraction(6, prec + 16)
    three = Ball.from_fraction(3, prec + 16)
    return Constants(
        critical_offset=(sinh1 / twelve).at(prec),
        gap_target=(sinh1 / six).at(prec),
        three_over_sinh1=(three / sinh1).at(prec),
    )


def constants(prec: int = DEFAULT_PREC) -> Constants:
    return _constants_cached(_bucket(prec))
