"""Big-integer helpers: exact segment sums, gcd reduction and integer roots.

The segment sum 1/lo + ... + 1/hi is built by balanced splitting whose nodes
combine over the lcm of their halves' denominators, so no intermediate grows
much past lcm(lo..hi), about 7 times shorter than the product of the terms.
The one reduction at the end then works on numbers of that size.  gmpy2 is
used for the big-integer arithmetic when it is installed; every path falls
back to the standard library with identical results.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    import gmpy2 as _g

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised via the forced-fallback test
    _g = None
    HAVE_GMPY2 = False


def big_gcd(a: int, b: int) -> int:
    if HAVE_GMPY2:
        return int(_g.gcd(a, b))
    return math.gcd(a, b)


def fraction_from(num: int, den: int) -> Fraction:
    """Lowest-terms Fraction, reducing once with big_gcd.

    Fraction(num, den) would reduce again with the stdlib gcd; building the
    reduced pair through the private constructor skips that.  Falls back to
    the public constructor if the internals ever change.
    """
    if den < 0:
        num, den = -num, -den
    g = big_gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    try:
        f = Fraction.__new__(Fraction)
        f._numerator = num
        f._denominator = den
        return f
    except AttributeError:  # pragma: no cover
        return Fraction(num, den)


def harmonic_pair(lo: int, hi: int) -> tuple[int, int]:
    """(num, den) with num/den = sum of 1/k for lo <= k <= hi, not reduced.

    Balanced splitting: each node adds its halves over lcm(d1, d2), so every
    node's denominator stays near the lcm of its own range.  den is a multiple
    of lcm(lo..hi) that divides lcm(lo..hi) * _BASE_TERMS!, the slack of the
    base cases' plain products.  num and den may still share a factor;
    fraction_from reduces it.
    """
    num, den = _harmonic_pair(lo, hi)
    return int(num), int(den)


_BASE_TERMS = 48  # accumulated with plain ints; small-operand churn dominates below this


def _harmonic_pair(lo: int, hi: int):
    if hi - lo < _BASE_TERMS:
        num, den = 0, 1
        for k in range(lo, hi + 1):
            num = num * k + den
            den *= k
        return (_g.mpz(num), _g.mpz(den)) if HAVE_GMPY2 else (num, den)
    mid = (lo + hi) >> 1
    n1, d1 = _harmonic_pair(lo, mid)
    n2, d2 = _harmonic_pair(mid + 1, hi)
    g = _g.gcd(d1, d2) if HAVE_GMPY2 else math.gcd(d1, d2)
    c1, c2 = d1 // g, d2 // g
    return n1 * c2 + n2 * c1, c1 * d2


def iroot(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer."""
    if x < 0:
        raise ValueError("iroot of a negative integer")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // n)  # upper seed; Newton descends
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr
