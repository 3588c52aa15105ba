"""The record scan's screen: the n >= N0 that can hold a record or a row
below the connection threshold.

With z(n) = e n - (1+e)/2, the crossing is t(n) = z + y/n for an offset y,
and n^2 eps = n^2 (S(n, t) - 1) is `harmonic.scaled_overshoot` at (y, 1/n).
For real m the sum S(n, m) = psi(m+1) - psi(n) increases in m, so an upper
bound at a real m holds at every integer below it and a lower bound at every
integer above, and one ball over every h in [0, 1/N0] covers every n >= N0.
`certificate` checks two such balls:

- at y = 0, S(n, floor z) <= S(n, z) < 1, so t(n) >= ceil z;
- at y = Y = 17/16, n^2 (S(n, z + Y/n) - 1) >= 1/3.  So if ceil z - z >= Y/n,
  then t(n) >= z + Y/n and n^2 eps >= 1/3: no record after n = 2 (whose
  n^2 eps is 1/3) and no row below tau ~ 0.00996.

The screen therefore only has to find the n with n (ceil z - z) < Y.  A
block walks F = frac(z(n)) 2^128 by one wrapping u128 addition of
floor(e 2^128) per n.  It starts from floor(frac(z(n_start)) 2^128), so F
is less than n - n_start + 1 units below the true value.  On each stretch
[a, b) of the block, with b <= 9a/8, it flags n when
2^128 - F <= ceil(Y 2^128 / a) + (b - n_start): every n with
n (ceil z - z) < Y, and a few more.  Y = 1 would not do, since
1/e - (1 - e^-2)/24 < 1/3.

The kernel ships twice: `_screen_c` (the hand-written C file `_screen_c.c`,
built whenever a C compiler is present), used whenever it imports, and the
pure-Python twin `_screen_py`; both give the same flags for any n below 2^63,
and the stretches that reach 2^63, past the C kernel's signed 64-bit n, go
to the pure twin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import _screen_py
from .exactnum import Ball, const_e, escalating
from .harmonic import scaled_overshoot

try:
    from . import _screen_c  # type: ignore[attr-defined]

    HAVE_COMPILED = True
except ImportError:  # pragma: no cover
    _screen_c = None
    HAVE_COMPILED = False

Y = Fraction(17, 16)
N0 = 64  # the scan walks every n below N0 exactly
_ONE = 1 << 128


def kernel_name() -> str:
    """The kernel that screens every block: `compiled` whenever the C extension imports."""
    return "compiled" if HAVE_COMPILED else "pure-python"


def certificate() -> bool:
    """Whether both inequalities of the module docstring hold for every
    n >= N0, from two balls over h in [0, 1/N0]."""
    h = Ball.from_endpoints(Fraction(0), Fraction(1, N0), 96)
    below = scaled_overshoot(0, h, 64).hi.man < 0
    return below and scaled_overshoot(Y, h, 64).lo.cmp_fraction(Fraction(1, 3)) >= 0


def _fixed(a: int, b: int) -> int:
    """floor((a e + b) 2^127) for an integer a >= 1, from an e tight enough to decide it."""

    def attempt(w: int) -> int | None:
        x = (const_e(w) * a + b) * (1 << 127)
        lo = math.floor(x.lo.as_fraction())
        return lo if lo == math.floor(x.hi.as_fraction()) else None

    return escalating(attempt, start=160 + a.bit_length(), what=f"fixed point of {a} e + {b}")


@lru_cache(maxsize=None)
def _step() -> int:
    """floor(e 2^128) mod 2^128, built on the first screen once the certificate holds."""
    if not certificate():  # pragma: no cover
        raise ArithmeticError("the screen's certificate does not hold")
    return _fixed(2, 0) % _ONE


def ceil_z(n: int) -> int:
    """ceil(e n - (1+e)/2), the least crossing the certificate allows for n >= N0."""
    return (_fixed(2 * n - 1, -1) >> 128) + 1


def screen_block(n_start: int, n_end: int) -> list[int]:
    """Every n in [n_start, n_end) with n (ceil z - z) < Y, and a few more;
    n_start >= N0.  One walk from n_start, carried from stretch to stretch,
    whose threshold is set afresh on each, so that it stays within 9/8 of
    Y 2^128 / n."""
    if n_start < N0:
        raise ValueError(f"the screen starts at n = {N0}")
    step = _step()
    frac = _fixed(2 * n_start - 1, -1) % _ONE
    flags: list[int] = []
    lo = n_start
    while lo < n_end:
        hi = min(n_end, lo + lo // 8)
        bound = -(-(Y.numerator << 128) // (Y.denominator * lo)) + (hi - n_start)
        kernel = _screen_c if HAVE_COMPILED and hi < 1 << 63 else _screen_py
        found, frac = kernel.screen_block(lo, hi, frac, step, _ONE - bound)
        flags += found
        lo = hi
    return flags
