"""Big-integer helpers: exact segment sums in lowest terms, integer roots and
decimal output.

The segment sum 1/lo + ... + 1/hi is built from the primes of the range, over
L = lcm(lo..hi), and comes out in lowest terms with no gcd and no long
division on big numbers (CPython's are quadratic; only its products are
Karatsuba).  With B = isqrt(hi):

- Ls = prod of p^e over primes p <= B, p^e the largest power of p with a
  multiple in [lo, hi].  Every B-smooth k in the range divides Ls.
- Every other k is p*j for exactly one prime p > B, with j <= B, so the terms
  with that p sum to x_p / (p * Ls), where x_p = sum of Ls // j.  The leaves
  x_p / p have pairwise coprime denominators, so a product tree over them is
  already exact over their lcm Q, the product of the big primes.  A big prime
  divides the final numerator exactly when p | x_p, so such a leaf drops p
  from its denominator on the spot.
- The smooth terms add Q * sum(Ls // k), and L = Ls * Q.  What is left to
  reduce shares only small primes with Ls: gcd(N % Ls, Ls), a small number.

A range far from 1 (hi above 64 times its length) skips that sieve up to hi.

The split ships twice: a hand-written C kernel on 64-bit limbs with its own
Karatsuba products (`_sum_c`, from `_sum_c.c`, built whenever a C compiler is
present), used whenever it imports, and the pure `_prime_split`, its twin and
fallback.  Both leave the final reduction to `_lowest`.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress

try:
    from . import _sum_c  # type: ignore[attr-defined]
except ImportError:  # no C compiler at build time: the pure split runs
    _sum_c = None

HAVE_GMPY2 = False  # perfbench/worker.py writes it into every report's environment block


def fraction_from(num: int, den: int) -> Fraction:
    """Fraction of a pair already in lowest terms with den > 0, such as
    harmonic_pair returns.

    Fraction(num, den) would run a gcd over the whole pair again; building it
    through the private constructor skips that.  Falls back to the public
    constructor if the internals ever change.
    """
    try:
        f = Fraction.__new__(Fraction)
        f._numerator = num
        f._denominator = den
        return f
    except AttributeError:  # pragma: no cover
        return Fraction(num, den)


_FAR = 64  # ranges with hi > _FAR * terms skip the sieve, which would cost over _FAR bytes a term


def harmonic_pair(lo: int, hi: int) -> tuple[int, int]:
    """(num, den) in lowest terms with num/den = sum of 1/k for 1 <= lo <= k <= hi.

    Ranges far from 1 are summed by a product tree over the terms and reduced
    by one gcd.  Every other range, however short, goes through the prime
    split of the module docstring, whose den is lcm(lo..hi) before the final
    small reduction.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"harmonic_pair needs 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi <= _FAR * (hi - lo + 1):
        if _sum_c is None:
            return _prime_split(lo, hi)
        return _lowest(*(int.from_bytes(b, "little") for b in _sum_c.prime_split(lo, hi)))
    num, den = _tree((1, k) for k in range(lo, hi + 1))
    g = math.gcd(num, den)
    return num // g, den // g


def _tree(leaves):
    """Sum of the fractions n/d of leaves, over the product of their d.

    A binary counter merges equal-sized partial sums as the leaves stream in,
    so the products stay balanced and at most log2(count) sums are held.
    """
    stack = []  # (num, den, leaves merged)
    for n, d in leaves:
        size = 1
        while stack and stack[-1][2] == size:
            n2, d2, _ = stack.pop()
            n, d, size = n2 * d + n * d2, d2 * d, 2 * size
        stack.append((n, d, size))
    num, den = 0, 1
    while stack:
        n, d, _ = stack.pop()
        num, den = n * den + num * d, d * den
    return num, den


def _prime_sieve(n: int) -> bytearray:
    """s with s[i] == 1 exactly when i <= n is prime, for n >= 1."""
    s = bytearray(b"\x01") * (n + 1)
    s[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if s[i]:
            s[i * i :: i] = bytes((n - i * i) // i + 1)
    return s


def _prime_split(lo: int, hi: int) -> tuple[int, int]:
    root = math.isqrt(hi)
    is_prime = _prime_sieve(hi)
    small = 1  # Ls
    for p in compress(range(root + 1), is_prime):
        pe = 1
        while hi // (pe * p) > (lo - 1) // (pe * p):
            pe *= p
        small *= pe
    # prefix[j] = sum of Ls // i for i <= j; the differences used are exact,
    # since each j with some p*j in range divides Ls
    prefix = list(accumulate((small // j for j in range(1, hi // (root + 1) + 1)), initial=0))
    smooth = bytearray(b"\x01") * (hi - lo + 1)

    def big_leaves():
        for p in compress(range(root + 1, hi + 1), memoryview(is_prime)[root + 1 :]):
            a, b = (lo - 1) // p, hi // p  # the range holds p*j for a < j <= b
            if a == b:
                continue
            smooth[(a + 1) * p - lo :: p] = bytes(b - a)
            x = prefix[b] - prefix[a]
            yield (x // p, 1) if x % p == 0 else (x, p)

    num, q = _tree(big_leaves())
    num += q * sum(small // k for k in compress(range(lo, hi + 1), smooth))
    return _lowest(num, small, q)


def _lowest(num: int, small: int, q: int) -> tuple[int, int]:
    """num / (small * q) in lowest terms, when no prime of q divides num."""
    g = math.gcd(num % small, small)
    return num // g, small // g * q


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


# decimal_str joins binary halves in libmpdec, whose products are subquadratic
# (Karatsuba, then number-theoretic transforms).  The context is exact: any
# rounding would raise instead of printing a wrong digit.
_DECIMAL_LEAF = 2048  # bits; str() of one such leaf is cheap
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def decimal(n: int) -> Decimal:
    """n as an exact Decimal, in subquadratic time and regardless of the
    interpreter's int-string limit.

    CPython 3.11 converts an int to decimal in quadratic time, and so does a
    split by divmod(n, 10**k), since its long division is schoolbook.  So n is
    split in binary, by shifts and masks at widths _DECIMAL_LEAF * 2^j, and
    the halves are joined as hi * 2^w + lo in exact Decimal arithmetic
    (Brent & Zimmermann, Modern Computer Arithmetic, section 1.7).
    """
    if n < 0:
        return decimal(-n).copy_negate()
    return _to_decimal(n, ((n.bit_length() - 1) // _DECIMAL_LEAF).bit_length() - 1)


def decimal_str(n: int) -> str:
    """str(n), by `decimal` past _DECIMAL_LEAF bits."""
    return str(n) if abs(n).bit_length() <= _DECIMAL_LEAF else str(decimal(n))


def _to_decimal(x: int, j: int) -> Decimal:
    """x < 2^(_DECIMAL_LEAF * 2^(j+1)) as an exact Decimal."""
    if j < 0:
        return Decimal(str(x))
    w = _DECIMAL_LEAF << j
    if x.bit_length() <= w:
        return _to_decimal(x, j - 1)
    return _EXACT.fma(_to_decimal(x >> w, j - 1), _pow2(j), _to_decimal(x & ((1 << w) - 1), j - 1))


@lru_cache(maxsize=None)
def _pow2(j: int) -> Decimal:
    """2^(_DECIMAL_LEAF * 2^j), exact: every conversion shares the powers."""
    if j == 0:
        return Decimal(str(1 << _DECIMAL_LEAF))
    half = _pow2(j - 1)
    return _EXACT.multiply(half, half)
