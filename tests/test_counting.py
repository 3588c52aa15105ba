"""Equidistribution machinery: Weyl sums, discrepancy inequality, counting."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap.counting import (
    PointSet,
    _cos_sin_fp,
    _magnitude,
    _PowerSums,
    cos_sin_2pi,
    count_quadratic,
    count_quadratic_modular,
    erdos_turan_check,
    random_et_instance,
    square_denominator_search,
    verify_hit,
    weyl_sum_abs,
)
from harmonicgap.exactnum import Ball, constants


class TestTrig:
    def test_special_values(self):
        c, s = cos_sin_2pi(Fraction(0))
        assert c.contains(1) and s.contains(0)
        c, s = cos_sin_2pi(Fraction(1, 2))
        assert c.contains(-1) and s.contains(0)
        c, s = cos_sin_2pi(Fraction(1, 4))
        assert c.contains(0) and s.contains(1)
        c, s = cos_sin_2pi(Fraction(1, 8))
        half_sqrt2 = Ball.from_fraction(Fraction(1, 2), 96).sqrt()
        assert c.overlaps(half_sqrt2) and s.overlaps(half_sqrt2)

    def test_against_float_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            t = Fraction(rng.randrange(10**6), 10**6) + rng.randint(-3, 3)
            c, s = cos_sin_2pi(t)
            fc = math.cos(2 * math.pi * float(t % 1))
            fs = math.sin(2 * math.pi * float(t % 1))
            assert abs(float(c.midpoint()) - fc) < 1e-9
            assert abs(float(s.midpoint()) - fs) < 1e-9
            # envelope sanity: width stays tiny
            assert c.width_leq(-48) and s.width_leq(-48)

    def test_pythagorean_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            t = Fraction(rng.randrange(997), 997)
            c, s = cos_sin_2pi(t)
            assert (c * c + s * s).contains(1)


class TestWeylSum:
    def test_all_zero_points(self):
        ps = PointSet.of([Fraction(0)] * 7)
        for m in (1, 2, 5):
            b = weyl_sum_abs(ps, m)
            assert b.contains(7)

    def test_cancellation(self):
        ps = PointSet.of([Fraction(0), Fraction(1, 2)])
        b = weyl_sum_abs(ps, 1)
        assert b.contains(0)
        assert b.width_leq(-40)

    def test_magnitude_capped_at_n(self):
        ps = PointSet.of([Fraction(0)] * 3)
        b = weyl_sum_abs(ps, 4)
        assert b.hi.cmp_fraction(Fraction(3)) <= 0

    def test_reflection_symmetry(self):
        rng = random.Random(17)
        pts = [Fraction(rng.randrange(10**4), 10**4) for _ in range(40)]
        ps = PointSet.of(pts)
        refl = PointSet.of([(1 - x) % 1 for x in pts])
        for m in (1, 3):
            a = weyl_sum_abs(ps, m)
            b = weyl_sum_abs(refl, m)
            assert a.overlaps(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            weyl_sum_abs(PointSet.of([Fraction(0)]), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.builds(Fraction, st.integers(-(1 << 20), 1 << 20), st.integers(1, 1 << 16)),
            min_size=1,
            max_size=30,
        ),
        bits=st.sampled_from([8, 72, 144]),
        ms=st.lists(st.integers(1, 50), min_size=1, max_size=12),
    )
    @example(points=[Fraction(k, 97) for k in range(30)], bits=8, ms=[50, 1, 50, 17, 2, 17])
    @example(points=[Fraction(3, 7), Fraction(1, 2), Fraction(0)], bits=72, ms=[49, 7, 14, 1, 7])
    @example(points=[Fraction(k * k, 1009) for k in range(30)], bits=144, ms=[33, 50, 1, 33])
    def test_power_route_matches_slow_twin(self, points, bits, ms):
        # ms come in any order and may repeat, so the memo is read and
        # extended out of order
        ps = PointSet.of(points)
        for m in ms:
            fast = weyl_sum_abs(ps, m, bits)
            assert fast.overlaps(_direct_weyl(ps, m, bits)), (m, bits)
            ref = _mp_weyl(ps.points, m)
            assert fast.lo.cmp_fraction(ref + MP_SLACK) <= 0 <= fast.hi.cmp_fraction(ref - MP_SLACK), (m, bits)

    def test_power_bound_at_narrowest_width(self):
        # bits = 8 gives the narrowest width w = 24, where E_m E_1 passes
        # 2^w before m = 50: every power must stay within E_m of e(m x)
        rng = random.Random(8)
        points = tuple(Fraction(rng.randrange(1 << 16), 1 << 16) for _ in range(60))
        sums = _PowerSums(points, 8)
        assert sums.w == 24
        one = 1 << sums.w
        with mpmath.workprec(200):
            for m in range(1, 51):
                sums.get(m)
                for x, (c, s) in zip(points, sums.powers):
                    u = mpmath.expjpi(2 * m * mpmath.mpf(x.numerator) / x.denominator)
                    assert abs(mpmath.mpc(c, s) - u * one) <= sums.err, (m, x)
        assert sums.err == 51401  # the figure in the _PowerSums docstring

    def test_inequality_at_smallest_bits(self):
        # L = 50 at bits = 8: one attempt at 32 bits, the largest radii
        # erdos_turan_check can meet
        rng = random.Random(7)
        for _ in range(20):
            ps, a, b, _ = random_et_instance(rng)
            assert erdos_turan_check(ps, a, b, 50, bits=8).holds

    def test_memo_leaves_identity_alone(self):
        pts = [Fraction(k * k % 101, 101) for k in range(50)]
        ps, twin = PointSet.of(pts), PointSet.of(pts)
        before = (hash(ps), repr(ps))
        calls = [(9, 72), (2, 72), (9, 144), (30, 72)]
        balls = {c: weyl_sum_abs(ps, *c) for c in calls}
        assert (hash(ps), repr(ps)) == before
        assert ps == twin and hash(ps) == hash(twin) and repr(ps) == repr(twin)
        again = {c: weyl_sum_abs(twin, *c) for c in reversed(calls)}
        for c in calls:
            assert (balls[c].lo, balls[c].hi, balls[c].prec) == (again[c].lo, again[c].hi, again[c].prec)
        # each width keeps its own sums
        assert balls[(9, 144)].width_leq(-100) and not balls[(9, 72)].width_leq(-100)


MP_SLACK = Fraction(1, 1 << 300)


def _direct_weyl(ps, m, bits):
    """Slow twin of weyl_sum_abs: one Taylor evaluation per point and frequency."""
    re = im = rad = 0
    for x in ps.points:
        c, s, r = _cos_sin_fp(m * x.numerator, x.denominator, bits)
        re += c
        im += s
        rad += r
    # componentwise radius rad, so complex radius sqrt(2) rad <= 2 rad
    return _magnitude(re, im, 2 * rad, len(ps), bits, max(64, bits))


def _mp_weyl(points, m) -> Fraction:
    with mpmath.workprec(400):
        total = mpmath.fsum(mpmath.expjpi(2 * m * mpmath.mpf(x.numerator) / x.denominator) for x in points)
        man, exp = mpmath.mpf(abs(total)).man_exp
        return Fraction(man) * Fraction(2) ** exp


class TestErdosTuran:
    def test_single_point_example(self):
        # one point at 1/2, interval [0.4, 0.6], L = 1:
        # lhs = |1 - 0.2| = 0.8; rhs = 0.5 + 2*(0.5+0.2)*1 = 1.9
        rep = erdos_turan_check(
            PointSet.of([Fraction(1, 2)]), Fraction(2, 5), Fraction(3, 5), 1
        )
        assert rep.count == 1
        assert rep.lhs == Fraction(4, 5)
        assert rep.holds
        assert rep.rhs.contains(Fraction(19, 10)) or rep.rhs.overlaps(
            Ball.from_fraction(Fraction(19, 10), 128)
        )

    def test_equidistributed(self):
        n = 240
        ps = PointSet.of(Fraction(i, n) for i in range(1, n + 1))
        rep = erdos_turan_check(ps, Fraction(0), Fraction(1, 2), 40)
        assert rep.holds
        assert rep.lhs <= 1

    def test_wrapping_interval(self):
        ps = PointSet.of([Fraction(0), Fraction(9, 10), Fraction(1, 3)])
        rep = erdos_turan_check(ps, Fraction(4, 5), Fraction(11, 10), 2)
        # interval [0.8, 1.1] mod 1 contains 0.9 and 0.0
        assert rep.count == 2
        assert rep.holds

    def test_validation(self):
        ps = PointSet.of([Fraction(1, 3)])
        with pytest.raises(ValueError):
            erdos_turan_check(ps, Fraction(0), Fraction(3, 2), 3)
        with pytest.raises(ValueError):
            erdos_turan_check(ps, Fraction(0), Fraction(1, 2), 0)

    def test_hundred_seeded_instances(self):
        rng = random.Random(7)
        for _ in range(100):
            ps, a, b, order = random_et_instance(rng)
            rep = erdos_turan_check(ps, a, b, order)
            assert rep.holds


class TestCountQuadratic:
    def test_even_squares_mod_2(self):
        rep = count_quadratic(1, 2, Fraction(0), Fraction(3, 10), 10)
        assert rep.count == 5  # exactly the even n
        assert rep.boundary_ties == 0

    def test_q1_always_hits(self):
        rep = count_quadratic(1, 1, Fraction(0), Fraction(49, 100), 25)
        assert rep.count == 25  # ||integer|| = 0 < delta

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            count_quadratic(1, 2, Fraction(0), Fraction(1, 2), 10)

    @pytest.mark.parametrize("count", [count_quadratic, count_quadratic_modular])
    @pytest.mark.parametrize("n_max", [0, -5])
    def test_n_max_domain(self, count, n_max):
        with pytest.raises(ValueError):
            count(1, 2, Fraction(0), Fraction(1, 4), n_max)

    def test_big_prime_modulus(self):
        rep = count_quadratic(3, 10007, Fraction(0), Fraction(1, 20), 2000)
        assert rep.count == 204  # frozen by direct enumeration
        assert rep.main_term == 200
        assert rep.within_bound is True

    def test_congruence_classes(self):
        rep = count_quadratic(1, 2, Fraction(0), Fraction(3, 10), 10, residue=0, modulus=2)
        assert rep.count == 5
        rep = count_quadratic(1, 2, Fraction(0), Fraction(3, 10), 10, residue=1, modulus=2)
        assert rep.count == 0

    def test_boundary_ties_counted_separately(self):
        # ||n^2/4|| = 1/4 exactly at odd n, 0 at even n
        rep = count_quadratic(1, 4, Fraction(0), Fraction(1, 4), 8)
        assert rep.boundary_ties == 4
        assert rep.count == 4

    def test_modular_path_agrees(self):
        rng = random.Random(31)
        for _ in range(40):
            q = rng.randint(1, 400)
            p = rng.randint(1, 400)
            while math.gcd(p, q) != 1:
                p += 1
            shift = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            delta = Fraction(rng.randint(1, 48), 100)
            n_max = rng.randint(1, 300)
            modulus = rng.randint(1, 5)
            residue = rng.randrange(modulus)
            rep = count_quadratic(p, q, shift, delta, n_max, residue, modulus)
            c2, t2 = count_quadratic_modular(p, q, shift, delta, n_max, residue, modulus)
            assert (rep.count, rep.boundary_ties) == (c2, t2)


class TestSquareDenominatorSearch:
    def test_alpha_four_exact(self):
        hits, skipped = square_denominator_search(
            lambda prec: Ball.from_fraction(4, prec), Fraction(2), 30
        )
        assert skipped == 0
        assert [(h.m, h.n) for h in hits] == [(4 * n * n, n) for n in range(2, 31)]
        for h in hits:
            assert h.error.contains(0)

    def test_three_over_sinh1_includes_23_3(self):
        alpha = lambda prec: constants(prec).three_over_sinh1
        hits, _ = square_denominator_search(
            alpha, Fraction(9, 4), 100, n_mod=(1, 2), m_mod=(3, 4)
        )
        assert (23, 3) in [(h.m, h.n) for h in hits]
        for h in hits:
            assert h.m % 4 == 3 and h.n % 2 == 1
            assert verify_hit(alpha, Fraction(9, 4), h, 192)

    def test_unconstrained_nonempty(self):
        alpha = lambda prec: constants(prec).three_over_sinh1
        hits, _ = square_denominator_search(alpha, Fraction(9, 4), 200)
        assert hits

    def test_exponent_cap(self):
        with pytest.raises(ValueError):
            square_denominator_search(lambda prec: Ball.from_fraction(4, prec), Fraction(3), 10)

    def test_hits_connect_to_subsequence_remainders(self):
        # accepted (m, n) with m = 3 (mod 4), n odd translate to even
        # k = (m-3)/2 and multiplier d = n with r_{3k+2} d^2 close to
        # sinh(1)/3; checked for every found pair with k <= 200
        from harmonicgap.contfrac import odd_convergent

        alpha = lambda prec: constants(prec).three_over_sinh1
        hits, _ = square_denominator_search(
            alpha, Fraction(9, 4), 25, n_mod=(1, 2), m_mod=(3, 4)
        )
        checked = 0
        target = constants(160).sinh1 / 3
        for h in hits:
            k = (h.m - 3) // 2
            if k > 200:
                continue
            assert k % 2 == 0 and h.n % 2 == 1
            checked += 1
            r = odd_convergent(k, prec=96).remainder
            gap = abs(r * Ball.from_fraction(h.n * h.n, 160) - target)
            assert gap.hi.cmp_fraction(Fraction(1, k)) < 0, (h.m, h.n)
        assert checked >= 2
