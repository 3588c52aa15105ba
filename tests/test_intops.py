"""Integer helper paths, including the stdlib fallbacks."""

import math
import random
from fractions import Fraction

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
