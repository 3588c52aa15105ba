"""Integer helper paths, including the stdlib fallbacks."""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap import _intops


def test_harmonic_pair_paths_agree(monkeypatch):
    expected = sum(Fraction(1, k) for k in range(100, 1501))
    n1, d1 = _intops.harmonic_pair(100, 1500)
    assert type(n1) is int and type(d1) is int
    monkeypatch.setattr(_intops, "HAVE_GMPY2", False)
    n2, d2 = _intops.harmonic_pair(100, 1500)
    assert (n1, d1) == (n2, d2)
    assert Fraction(n1, d1) == expected


def test_fraction_from_matches_constructor(monkeypatch):
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randint(-(10**12), 10**12)
        b = rng.randint(1, 10**12) * rng.choice((1, -1))
        assert _intops.fraction_from(a, b) == Fraction(a, b)
    monkeypatch.setattr(_intops, "HAVE_GMPY2", False)
    for _ in range(50):
        a = rng.randint(-(10**12), 10**12)
        b = rng.randint(1, 10**12)
        assert _intops.fraction_from(a, b) == Fraction(a, b)


def test_big_gcd_fallback(monkeypatch):
    a, b = 2**977 * 3**41, 2**300 * 7**11 * 3**5
    assert _intops.big_gcd(a, b) == math.gcd(a, b)
    monkeypatch.setattr(_intops, "HAVE_GMPY2", False)
    assert _intops.big_gcd(a, b) == math.gcd(a, b)


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
@given(lo=st.integers(1, 10**5), terms=st.integers(1, 400))
@example(lo=1, terms=_intops._BASE_TERMS)
@example(lo=1, terms=_intops._BASE_TERMS + 1)
@example(lo=99_999, terms=2 * _intops._BASE_TERMS + 1)
def test_harmonic_pair_matches_fraction_fold(lo, terms):
    hi = lo + terms - 1
    expected = Fraction(0)
    for k in range(lo, hi + 1):
        expected += Fraction(1, k)
    num, den = _intops.harmonic_pair(lo, hi)
    assert Fraction(num, den) == expected
    reduced = _intops.fraction_from(num, den)
    assert (reduced.numerator, reduced.denominator) == (expected.numerator, expected.denominator)


def test_harmonic_pair_denominator_stays_near_lcm():
    # Nodes add their halves over lcm(d1, d2), so the denominator is the lcm of
    # the base cases' products: a multiple of lcm(lo..hi), and a divisor of
    # lcm(lo..hi) * B! for B = _BASE_TERMS (204 bits more at B = 48).  The
    # product of the terms would have 725,800 bits here, the lcm has 106,390.
    lo, hi = 27134, 73756
    _, den = _intops.harmonic_pair(lo, hi)
    # lcm of the chunks' lcms: the same number as math.lcm(*range(lo, hi + 1)), 8x faster
    lcm = math.lcm(*(math.lcm(*range(a, min(a + 1000, hi + 1))) for a in range(lo, hi + 1, 1000)))
    slack = math.factorial(_intops._BASE_TERMS)
    assert den % lcm == 0
    assert (lcm * slack) % den == 0
    assert den.bit_length() <= lcm.bit_length() + slack.bit_length()
