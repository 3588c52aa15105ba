"""Integer helper paths: exact segment sums, Fraction construction, integer
roots, decimal output."""

import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap import _intops

from conftest import harmonic_pair_lcm_split, int_str_limit

SRC = Path(__file__).resolve().parents[1] / "src"


def test_harmonic_pair_paths_agree():
    expected = sum(Fraction(1, k) for k in range(100, 1501))
    num, den = _intops.harmonic_pair(100, 1500)
    assert type(num) is int and type(den) is int
    assert (num, den) == (expected.numerator, expected.denominator)


def test_fraction_from_matches_constructor():
    # fraction_from takes a pair already in lowest terms with den > 0
    rng = random.Random(8)
    for _ in range(200):
        f = Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        g = _intops.fraction_from(f.numerator, f.denominator)
        assert g == f
        assert (g.numerator, g.denominator) == (f.numerator, f.denominator)


def test_iroot():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 9)
        x = rng.randint(0, 10**30)
        r = _intops.iroot(x, n)
        assert r**n <= x < (r + 1) ** n
    assert _intops.iroot(0, 5) == 0
    assert _intops.iroot(31, 5) == 1
    assert _intops.iroot(32, 5) == 2


@settings(max_examples=150, deadline=None)
@given(lo=st.integers(1, 10**5), terms=st.integers(1, 1024))
@example(lo=2, terms=3)  # short ranges near 1 go through the prime split too
@example(lo=107, terms=183)
@example(lo=1, terms=512)
@example(lo=1, terms=513)
@example(lo=99_999, terms=1025)
def test_harmonic_pair_matches_fraction_fold(lo, terms):
    hi = lo + terms - 1
    expected = Fraction(0)
    for k in range(lo, hi + 1):
        expected += Fraction(1, k)
    assert _intops.harmonic_pair(lo, hi) == (expected.numerator, expected.denominator)


# the four k = 4 pairs of the k <= 60 joint search, (n, m) for d = 1, 3, 5, 7;
# d = 3 is also the scan's record range n = 27134, t = 73756
K4_PAIRS = [(9045, 24585), (27134, 73756), (45223, 122927), (63312, 172098)]


@pytest.mark.parametrize("lo, hi", K4_PAIRS)
def test_harmonic_pair_matches_lcm_split_on_pairs(lo, hi):
    assert _intops.harmonic_pair(lo, hi) == harmonic_pair_lcm_split(lo, hi)


# (lo, terms) spans: anywhere; from 1; across a prime square, where the sieve's
# bound isqrt(hi) moves and a small prime's power grows; and on both sides of
# the switch at hi = _FAR * terms, above which the sieve is skipped
SPANS = st.one_of(
    st.tuples(st.integers(1, 20_000), st.integers(1, 3000)),
    st.tuples(st.just(1), st.integers(1, 6000)),
    st.builds(
        lambda p, back, past: (p * p - back, back + 1 + past),
        st.sampled_from([29, 31, 97, 101, 211]), st.integers(0, 800), st.integers(512, 1000),
    ),
    st.builds(
        lambda terms, shift: (_intops._FAR * terms - terms + 1 + shift, terms),
        st.integers(513, 1024), st.integers(-1, 1),
    ),
)


@settings(max_examples=150, deadline=None)
@given(span=SPANS)
@example(span=(1, 1))
@example(span=(1, 513))
@example(span=(97 * 97 - 600, 600))  # hi = 97^2 - 1: 97 is a big prime
@example(span=(97 * 97 - 599, 600))  # hi = 97^2: 97 is small, with p^2 in range
@example(span=(_intops._FAR * 600 - 599, 600))  # the last span through the sieve
@example(span=(_intops._FAR * 600 - 598, 600))  # the first span skipping it
def test_harmonic_pair_matches_lcm_split(span):
    lo, terms = span
    hi = lo + terms - 1
    assert _intops.harmonic_pair(lo, hi) == harmonic_pair_lcm_split(lo, hi)


def test_harmonic_pair_denominator_is_the_reduced_lcm_divisor():
    # the prime split builds the sum over lcm(lo..hi) and reduces it by small
    # primes only: den divides the lcm and is the lowest-terms denominator
    lo, hi = 27134, 73756
    num, den = _intops.harmonic_pair(lo, hi)
    # lcm of the chunks' lcms: the same number as math.lcm(*range(lo, hi + 1)), 8x faster
    lcm = math.lcm(*(math.lcm(*range(a, min(a + 1000, hi + 1))) for a in range(lo, hi + 1, 1000)))
    assert lcm % den == 0
    assert math.gcd(num, den) == 1
    assert (num, den) == harmonic_pair_lcm_split(lo, hi)


def test_harmonic_pair_streams_its_primes():
    # the big primes and their leaves stream through the product tree; a list
    # of them at m = 172,098 would add about 4.4 MB of allocations.  A fresh
    # interpreter keeps earlier tests' caches out of the count.
    script = (
        "import tracemalloc\n"
        "from harmonicgap._intops import harmonic_pair\n"
        "tracemalloc.start()\n"
        "harmonic_pair(63312, 172098)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2 << 20


def _of_width(width: int, seed: int) -> int:
    """A pseudo-random integer of exactly `width` bits (0 for width 0)."""
    return random.Random(seed).getrandbits(width) | 1 << (width - 1) if width else 0


LEAF = _intops._DECIMAL_LEAF
# magnitudes: at each split width +-1; random up to about 300 kbit; 2^k, 10^k
# and 10^k - 1 (all nines, where a lost carry would show)
SPLIT_WIDTHS = [w + s for w in (LEAF, 2 * LEAF, 4 * LEAF) for s in (-1, 0, 1)]
MAGNITUDES = st.one_of(
    st.builds(_of_width, st.sampled_from(SPLIT_WIDTHS), st.integers(0, 2**32)),
    st.builds(_of_width, st.integers(0, 300_000), st.integers(0, 2**32)),
    st.integers(0, 300_000).map(lambda k: 1 << k),
    st.builds(lambda k, nines: 10**k - nines, st.integers(0, 90_000), st.integers(0, 1)),
)


@settings(max_examples=100, deadline=None)
@given(x=MAGNITUDES, negative=st.booleans())
@example(x=0, negative=False)
@example(x=1, negative=True)
@example(x=_of_width(LEAF - 1, 1), negative=False)
@example(x=_of_width(LEAF, 2), negative=True)
@example(x=_of_width(LEAF + 1, 3), negative=False)
@example(x=_of_width(2 * LEAF - 1, 4), negative=False)
@example(x=_of_width(2 * LEAF + 1, 5), negative=True)
@example(x=_of_width(4 * LEAF - 1, 6), negative=False)
@example(x=_of_width(4 * LEAF + 1, 7), negative=False)
@example(x=1 << 4 * LEAF, negative=False)
@example(x=10**5000, negative=False)
@example(x=10**5000 - 1, negative=True)
@example(x=_of_width(300_000, 8), negative=False)
def test_decimal_str_matches_str(x, negative):
    # slow twin: CPython's quadratic str, allowed past the default 4300
    # digits only around the comparison; decimal_str runs outside it
    x = -x if negative else x
    got = _intops.decimal_str(x)
    with int_str_limit(0):
        assert got == str(x)


def test_decimal_str_threads_share_the_powers():
    # threads that build the cached powers at once must still agree with str()
    xs = [_of_width(64 * LEAF, seed) for seed in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _intops._pow2.cache_clear()
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(_intops.decimal_str, xs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    with int_str_limit(0):
        assert got == [str(x) for x in xs]
