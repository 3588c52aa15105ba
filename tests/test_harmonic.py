"""Harmonic segment sums, crossings, and the second-order prediction."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap.construct import certify, pair_from
from harmonicgap.exactnum import Ball, const_e, constants
from harmonicgap.harmonic import (
    _walk,
    ball_sum,
    crossing,
    exact_sum,
    iter_crossings,
    pair_delta,
    pair_offset,
    predicted_overshoot,
    scaled_overshoot,
)

from conftest import overshoot_by_ball_sum


def _naive_sum(a: int, b: int) -> Fraction:
    total = Fraction(0)
    for k in range(a, b + 1):
        total += Fraction(1, k)
    return total


class TestExactSum:
    def test_small_by_hand(self):
        assert exact_sum(2, 4) == Fraction(13, 12)

    def test_5_to_12(self):
        assert exact_sum(5, 12) == Fraction(28271, 27720)

    def test_single_term(self):
        assert exact_sum(7, 7) == Fraction(1, 7)

    def test_against_naive(self):
        rng = random.Random(3)
        for _ in range(25):
            a = rng.randint(1, 400)
            b = a + rng.randint(0, 300)
            assert exact_sum(a, b) == _naive_sum(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_sum(5, 4)


def _em_floor(first: int, last: int) -> Fraction:
    return 2 * (Fraction(1, 120 * (first - 1) ** 4) + Fraction(1, 120 * last**4))


class TestBallSum:
    def test_contains_exact_constructed_pair(self):
        b = ball_sum(107, 289, Fraction(1, 10**8))
        assert b.contains(exact_sum(107, 289))
        eps = b - Ball.from_fraction(1, b.prec)
        assert eps.lo.cmp_fraction(Fraction(68, 10**7)) > 0
        assert eps.hi.cmp_fraction(Fraction(74, 10**7)) < 0

    def test_small_segment(self):
        b = ball_sum(2, 4, Fraction(1, 15))
        assert b.contains(Fraction(13, 12))

    def test_single_term_segments(self):
        for n in (2, 5, 17, 1000):
            b = ball_sum(n, n, Fraction(1, 30) if n < 5 else 4 * _em_floor(n, n))
            assert b.contains(Fraction(1, n))

    def test_oracle_agreement_sweep(self):
        # certified sum contains the exact sum at every crossing, 2 <= n <= 2000
        for rec in iter_crossings(2, 2000):
            target = Fraction(1, 10**9) + 4 * _em_floor(rec.n, rec.t)
            b = ball_sum(rec.n, rec.t, target)
            assert b.contains(rec.overshoot + 1), rec.n

    def test_width_request_honored(self):
        b = ball_sum(1000, 3000, Fraction(1, 10**10))
        assert b.width().cmp_fraction(Fraction(1, 10**10)) <= 0

    def test_huge_endpoints(self):
        n = 10**40 + 1
        m = int(Fraction(27182818284590452353602874713526624977572, 10**40) * n)
        b = ball_sum(n, m, Fraction(1, 10**90))
        assert b.width().cmp_fraction(Fraction(1, 10**90)) <= 0
        # the sum sits within 2/n of 1 by construction of m ~ e n
        assert abs(b - 1).hi.cmp_fraction(Fraction(2, 10**39)) < 0

    def test_floor_guard(self):
        with pytest.raises(ValueError):
            ball_sum(2, 4, Fraction(1, 10**9))


class TestCrossing:
    def test_n1_exact_hit(self):
        rec = crossing(1)
        assert rec.t == 1 and rec.overshoot == 0

    def test_n2(self):
        rec = crossing(2)
        assert rec.t == 4
        assert rec.overshoot == Fraction(1, 12)
        assert rec.scaled == Fraction(1, 3)

    def test_n5(self):
        rec = crossing(5)
        assert rec.t == 12
        assert rec.overshoot == Fraction(551, 27720)

    def test_bracketing_exact(self):
        for n in (2, 3, 17, 64, 65, 107, 500, 2001):
            rec = crossing(n)
            s = exact_sum(n, rec.t)
            assert s >= 1
            assert s - Fraction(1, rec.t) < 1

    def test_iter_matches_pointwise(self):
        seq = list(iter_crossings(50, 220))
        for rec in (seq[0], seq[57], seq[-1]):
            solo = crossing(rec.n)
            assert (solo.t, solo.overshoot) == (rec.t, rec.overshoot)

    def test_iter_empty_range(self):
        assert list(iter_crossings(10, 5)) == []
        assert [rec.n for rec in iter_crossings(10, 10)] == [10]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 400), shift=st.integers(-1200, 1200))
    def test_walk_from_any_hint(self, n, shift):
        # a plain walk from n; hints above t(n) exercise the shrink step
        total, t = Fraction(0), n - 1
        while total < 1:
            t += 1
            total += Fraction(1, t)
        hint = max(n, t + shift)
        assert _walk(n, hint, exact_sum(n, hint)) == (t, total - 1)

    def test_crossing_location_envelope(self):
        # |t(n) - e n + (1+e)/2| <= 1.1 empirically on 10 <= n <= 10^4
        e = const_e(128)
        for rec in iter_crossings(10, 10**4):
            loc = Ball.from_fraction(rec.t, 96) - Ball.from_fraction(rec.n, 96) * e + (
                1 + e
            ) / Ball.from_fraction(2, 96)
            assert abs(loc).hi.cmp_fraction(Fraction(11, 10)) < 0, rec.n


class TestOffset:
    def test_constructed_pair(self):
        y = pair_offset(107, 289)
        # 107*(289 - 107 e + (1+e)/2) = 0.319423794...
        assert y.lo.cmp_fraction(Fraction(319423, 10**6)) > 0
        assert y.hi.cmp_fraction(Fraction(319424, 10**6)) < 0

    def test_small_pair(self):
        y = pair_offset(2, 4)
        # 2*(4 - 2e + (1+e)/2) = 0.845155...
        assert y.lo.cmp_fraction(Fraction(845, 10**3)) > 0
        assert y.hi.cmp_fraction(Fraction(846, 10**3)) < 0

    def test_never_zero(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 10**6)
            m = rng.randint(n, 4 * n)
            assert pair_offset(n, m).sign() in (-1, 1)


E = const_e(128).midpoint().as_fraction()  # e to 2^-120, to place pairs


def _scaled(n: int, m: int, w: int = 192) -> Ball:
    """scaled_overshoot at the pair's offset y = n delta, from the generic
    pair_delta, and h = 1/n."""
    return scaled_overshoot(pair_delta(n, m, w) * n, Ball.from_fraction(Fraction(1, n), w + 32), w)


@st.composite
def _near_crossing(draw, n_lo: int, n_hi: int) -> tuple[int, int]:
    """(n, m) with m within 20 of e*n - (1+e)/2, the crossing's location,
    kept below 3e(n-1), the top of scaled_overshoot's domain (n = 4 reaches it)."""
    n = draw(st.integers(n_lo, n_hi))
    m = max(n, math.floor(E * n - (1 + E) / 2) + draw(st.integers(-20, 20)))
    return n, min(m, math.floor(3 * E * (n - 1)))


class TestEmOvershoot:
    """The Euler-Maclaurin overshoot n^2 (S - 1), scaled_overshoot at h = 1/n,
    against exact_sum up to n = 10^5 and against ball_sum's ln route beyond."""

    @settings(max_examples=40, deadline=None)
    @given(nm=_near_crossing(4, 10**5), w=st.sampled_from([64, 192]))
    # the constructed pairs (k, d) = (2, 1), (2, 3), (2, 5) and (4, 1)
    @example(nm=(36, 96), w=160)
    @example(nm=(107, 289), w=160)
    @example(nm=(178, 482), w=160)
    @example(nm=(9045, 24585), w=160)
    def test_contains_exact_sum(self, nm, w):
        n, m = nm
        scaled = n * n * (exact_sum(n, m) - 1)
        ball = _scaled(n, m, w)
        assert ball.contains(scaled)
        # n^2 R's interval is n^2 (1/(120 N^4) + 1/(120 m^4)) wide: under 1/(15 n^2) from n = 4
        assert abs(ball - Ball.from_fraction(scaled, w)).hi.cmp_fraction(Fraction(1, 15 * n**2)) < 0

    @settings(max_examples=25, deadline=None)
    @given(nm=_near_crossing(10**5, 10**15))
    def test_overlaps_ball_sum_twin(self, nm):
        n, m = nm
        assert _scaled(n, m).overlaps(overshoot_by_ball_sum(n, m) * (n * n))

    def test_domain(self):
        # h = 1/n <= 1/2, and |u| < 1/2 for u = (m - eN)/(m + eN): eN/3 < m < 3eN
        for n, m in ((1, 5), (3, 20), (10, 100)):
            with pytest.raises(ValueError):
                _scaled(n, m)
        for n, m in ((2, 2), (1000, 1000)):
            assert _scaled(n, m).contains(n * n * (exact_sum(n, m) - 1))
        for n in (2, 3, 10, 1000):
            top = math.floor(3 * E * (n - 1))
            assert _scaled(n, top).contains(n * n * (exact_sum(n, top) - 1))
            with pytest.raises(ValueError):
                _scaled(n, top + 1)
        # below n the identity gives H_m - H_N - 1, a sum taken away
        bottom = math.ceil(E * 999 / 3)
        assert _scaled(1000, bottom).contains(1000**2 * (-exact_sum(bottom + 1, 999) - 1))
        with pytest.raises(ValueError):
            _scaled(1000, bottom - 1)

    def test_record_past_the_exact_frontier(self):
        # the scan's row n = 15,586,535 is pair_from(6, 3): the signs at t and
        # t - 1 certify t(n), and n^2 eps matches certify(6, 3)
        n, t = 15586535, 42368593
        assert pair_from(6, 3) == (t, n)
        scaled = _scaled(n, t)
        assert (scaled.sign(), _scaled(n, t - 1).sign()) == (1, -1)
        assert scaled.overlaps(certify(6, 3).quality)
        lo, hi = Fraction("0.01902982094775"), Fraction("0.01902982094776")
        assert scaled.overlaps(Ball.from_endpoints(lo, hi, 128))


class TestScaledOvershoot:
    """scaled_overshoot in (y, h): its limit at h = 0, its exact sum at
    h = 1/n, and its domain in h."""

    @pytest.mark.parametrize("y", [Fraction(0), Fraction(1, 8), Fraction(17, 16), Fraction(-3, 7), Fraction(5)])
    def test_limit_at_h_0(self, y):
        ball = scaled_overshoot(y, Ball.from_fraction(0, 96), 64)
        with mpmath.workdps(60):
            e = mpmath.e
            ref = Fraction(mpmath.nstr(mpmath.mpf(y.numerator) / y.denominator / e - (1 - e**-2) / 24, 58))
        slack = Fraction(1, 10**50)  # mpmath's own rounding at 60 digits
        assert ball.lo.cmp_fraction(ref + slack) <= 0 and ball.hi.cmp_fraction(ref - slack) >= 0
        assert ball.width_leq(-80)

    @settings(max_examples=25, deadline=None)
    @given(nm=_near_crossing(30, 10**5))
    @example(nm=(2, 4))
    @example(nm=(8, 20))
    @example(nm=(29, 77))
    @example(nm=(27134, 73756))
    def test_overlaps_em_overshoot_and_exact_sum(self, nm):
        # the Euler-Maclaurin overshoot at h = 1/n, here at the records below
        # 10^5, against the exact sum
        n, m = nm
        assert _scaled(n, m, 96).contains(n * n * (exact_sum(n, m) - 1))

    @pytest.mark.parametrize("h", [Fraction(-1, 100), Fraction(3, 5)])
    def test_domain(self, h):
        with pytest.raises(ValueError):
            scaled_overshoot(0, Ball.from_endpoints(min(h, 0), max(h, 0), 64), 64)


class TestPrediction:
    def test_vanishes_at_critical_offset(self):
        c = constants(128)
        p = predicted_overshoot(107, c.critical_offset)
        assert p.contains(0)
        assert p.width_leq(-100)

    def test_matches_constructed_pair(self):
        y = pair_offset(107, 289)
        p = predicted_overshoot(107, y)
        eps = exact_sum(107, 289) - 1
        # prediction within O(n^-3) of the true overshoot
        diff = p - Ball.from_fraction(eps, 128)
        assert abs(diff).hi.cmp_fraction(Fraction(1, 107**3)) < 0

    def test_zero_offset_negative(self):
        p = predicted_overshoot(50, Ball.from_fraction(0, 128))
        assert p.sign() == -1
