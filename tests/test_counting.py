"""Equidistribution machinery: Weyl sums, discrepancy inequality, counting."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harmonicgap import counting
from harmonicgap.counting import (
    PointSet,
    _class,
    _cos_sin_fp,
    _count_by_fractions,
    _count_in_window,
    _magnitude,
    _pack,
    _pi_fp,
    _power_step,
    _PowerSums,
    _series_eval,
    _series_plan,
    _unpack,
    cos_sin_2pi,
    count_quadratic,
    erdos_turan_check,
    random_et_instance,
    square_denominator_search,
    verify_hit,
    weyl_sum_abs,
)
from harmonicgap.exactnum import Ball, const_sinh1, constants


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

    def test_pi_fp_matches_mpmath_floor(self):
        # one mpmath pi 64 bits past the widest width, floored at each width
        with mpmath.workprec(4096 + 64):
            man, exp = (+mpmath.pi).man_exp
        for bits in range(8, 4097):
            assert _pi_fp(bits) == man >> -(exp + bits), bits


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

    def test_inequality_at_smallest_bits(self, monkeypatch):
        # L = 50 from 8 bits: one attempt at 32 bits, the largest radii
        # erdos_turan_check can meet
        monkeypatch.setattr(counting, "WEYL_BITS", 8)
        rng = random.Random(7)
        for _ in range(20):
            ps, a, b, _ = random_et_instance(rng)
            assert erdos_turan_check(ps, a, b, 50).holds

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


def _ball_key(ball):
    return (ball.lo.man, ball.lo.exp, ball.hi.man, ball.hi.exp, ball.prec)


class TestWeylKernel:
    """The C kernel (built by the `weyl_c` fixture) against the pure loops."""

    @settings(max_examples=300, deadline=None)
    @given(w=st.integers(0, 125), data=st.data())
    def test_series_eval_matches_pure(self, weyl_c, w, data):
        z = data.draw(st.integers(0, (1 << w) - 1), label="z")
        terms = data.draw(st.integers(1, 40) | st.just(_series_plan(w)[0]), label="terms")
        assert weyl_c.series_eval(z, w, terms) == _series_eval(z, w, terms)

    @pytest.mark.parametrize("w", [0, 1, 24, 88, 124, 125])
    def test_series_eval_edges(self, weyl_c, w):
        # the largest argument it takes and the largest _cos_sin_fp passes, pi/4
        terms = _series_plan(w)[0]
        for z in ((1 << w) - 1, (2 * _pi_fp(w)) >> 3, 0):
            assert weyl_c.series_eval(z, w, terms) == _series_eval(z, w, terms), (w, z)

    @settings(max_examples=300, deadline=None)
    @given(w=st.integers(24, 125), data=st.data())
    def test_power_step_matches_pure(self, weyl_c, w, data):
        # components up to 2^w + 2^(w-4), of either sign; every new component
        # is then below 2.3 * 2^w, and n of them sum to less than 2^127
        n = data.draw(st.integers(1, min(8, (1 << 127) // (3 << w))), label="n")
        bound = (1 << w) + (1 << (w - 4))
        comp = st.integers(-bound, bound) | st.sampled_from([-bound, bound, -(1 << w), 0, -1])
        pair = st.tuples(comp, comp)
        powers = data.draw(st.lists(pair, min_size=n, max_size=n), label="powers")
        base = data.draw(st.lists(pair, min_size=n, max_size=n), label="base")
        packed = bytearray(_pack(powers))
        sums = weyl_c.power_step(packed, _pack(base), w)
        want = _power_step(powers, base, w)
        assert _unpack(packed) == want
        assert sums == (sum(c for c, _ in want), sum(s for _, s in want))

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda k: k.series_eval(0, 126, 5), ValueError),
            (lambda k: k.series_eval(1 << 10, 10, 5), ValueError),
            (lambda k: k.series_eval(-1, 10, 5), OverflowError),
            (lambda k: k.series_eval(1, 10, 0), ValueError),
            (lambda k: k.power_step(bytearray(32), bytes(32), 126), ValueError),
            (lambda k: k.power_step(bytearray(32), bytes(64), 30), ValueError),
            (lambda k: k.power_step(bytearray(16), bytes(16), 30), ValueError),
            (lambda k: k.power_step(bytes(32), bytes(32), 30), TypeError),
            # two new real parts of 9 * 2^123 each sum past 2^127
            (lambda k: k.power_step(bytearray(_pack([(3 << 124, 0)] * 2)), _pack([(3 << 124, 0)] * 2), 125),
             OverflowError),
        ],
        ids=["width", "z-range", "z-negative", "terms", "step-width", "lengths", "partial-point",
             "read-only", "sum-overflow"],
    )
    def test_out_of_range_raises(self, weyl_c, call, error):
        with pytest.raises(error):
            call(weyl_c)

    def test_selector_edges(self, weyl_c, monkeypatch):
        pts = tuple(Fraction(k, 7) for k in range(3))
        monkeypatch.setattr(counting, "_weyl_c", None)
        want = {(p, b): [_ball_key(_PowerSums(p, b).get(m)) for m in range(1, 13)]
                for p in (pts, pts + (Fraction(1, 2),)) for b in (108, 109, 110)}
        monkeypatch.setattr(counting, "_weyl_c", weyl_c)
        for (p, bits), balls in want.items():
            sums = _PowerSums(p, bits)
            # w = bits + 16 <= 125, and N (2^w + E_m) < 2^127 holds for 3 points
            # at w = 125 but not for 4
            assert sums.packed == (bits + 16 <= 125 and (len(p) < 4 or bits < 109)), (len(p), bits)
            assert [_ball_key(sums.get(m)) for m in range(1, 13)] == balls, (len(p), bits)

    def test_falls_back_mid_stream(self, weyl_c, monkeypatch):
        pts = tuple(Fraction(k * k % 101, 101) for k in range(40))
        monkeypatch.setattr(counting, "_weyl_c", None)
        pure = _PowerSums(pts, 72)
        want = [_ball_key(pure.get(m)) for m in range(1, 21)]
        monkeypatch.setattr(counting, "_weyl_c", weyl_c)
        sums = _PowerSums(pts, 72)
        got = [_ball_key(sums.get(m)) for m in range(1, 8)]
        assert sums.packed
        monkeypatch.setattr(counting, "_COMPILED_SUM_LIMIT", 0)  # the bound fails from E_8 on
        got += [_ball_key(sums.get(m)) for m in range(8, 21)]
        assert not sums.packed
        assert got == want
        assert sums.powers == pure.powers

    @pytest.mark.parametrize("bits", [8, 72, 120])
    def test_reports_same_with_kernel_hidden_and_shown(self, weyl_c, monkeypatch, bits):
        monkeypatch.setattr(counting, "WEYL_BITS", bits)

        def reports():
            rng = random.Random(bits)
            out = []
            for _ in range(6):
                rep = erdos_turan_check(*random_et_instance(rng))
                out.append((rep.count, rep.lhs, _ball_key(rep.rhs), rep.holds))
            return out

        monkeypatch.setattr(counting, "_weyl_c", None)
        hidden = reports()
        monkeypatch.setattr(counting, "_weyl_c", weyl_c)
        assert reports() == hidden


_FRACTIONS = st.builds(Fraction, st.integers(-(1 << 20), 1 << 20), st.integers(1, 1 << 16))


class TestErdosTuranParts:
    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(_FRACTIONS, max_size=30),
        a=_FRACTIONS,
        delta=st.fractions(0, 1).filter(lambda d: 0 < d < 1),
    )
    @example(points=[Fraction(1, 3), Fraction(2, 3), Fraction(0)], a=Fraction(-2, 3), delta=Fraction(1, 3))
    @example(points=[Fraction(5, 7)], a=Fraction(12, 7), delta=Fraction(1, 2))
    def test_count_matches_fraction_twin(self, points, a, delta):
        # the boundary examples put points at a and at a + delta mod 1
        ps = PointSet.of(points)
        want = sum(1 for x in ps.points if (x - a) % 1 <= delta)
        assert _count_in_window(ps.points, a, delta) == want

    def test_point_set_keeps_fractions_in_unit_interval(self):
        inside = Fraction(3, 7)
        raw = [inside, Fraction(0), Fraction(-1, 3), Fraction(7, 3), Fraction(1), 2, 0.5]
        ps = PointSet.of(raw)
        assert ps.points[0] is inside
        ref = tuple(Fraction(x) % 1 for x in raw)
        assert ps.points == ref
        assert all(type(x) is Fraction for x in ps.points)
        assert hash(ps) == hash(PointSet.of(ref))
        assert repr(ps) == f"PointSet(points={ref!r})"


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


def _seeded_count_cases() -> list[dict]:
    """Forty seeded instances: p and q up to 400, residue in [0, modulus)."""
    rng = random.Random(31)
    cases = []
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
        cases.append(dict(
            p=p, q=q, shift=shift, delta=delta, n_max=n_max, residue=residue, modulus=modulus
        ))
    return cases


SEEDED_COUNT_CASES = _seeded_count_cases()


def _with_examples(cases):
    """Apply hypothesis's @example once per case."""
    def apply(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return apply


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

    @pytest.mark.parametrize("count", [count_quadratic])
    @pytest.mark.parametrize("n_max", [0, -5])
    def test_n_max_domain(self, count, n_max):
        with pytest.raises(ValueError):
            count(1, 2, Fraction(0), Fraction(1, 4), n_max)

    @pytest.mark.parametrize("count", [count_quadratic])
    @pytest.mark.parametrize("modulus", [0, -1])
    def test_modulus_domain(self, count, modulus):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            count(1, 2, Fraction(0), Fraction(1, 4), 10, modulus=modulus)

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

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.one_of(st.just(1), st.integers(2, 400), st.integers(2**64, 2**66)),
        p=st.one_of(st.integers(-400, 400), st.integers(-(2**66), 2**66)),
        shift=st.fractions(min_value=-50, max_value=50, max_denominator=60),
        delta=st.integers(3, 120).flatmap(
            lambda dd: st.integers(1, (dd - 1) // 2).map(lambda dn: Fraction(dn, dd))
        ),
        n_max=st.integers(1, 300),
        residue=st.integers(-7, 11),
        modulus=st.integers(1, 5),
    )
    @example(p=1, q=4, shift=Fraction(0), delta=Fraction(1, 4), n_max=8, residue=0, modulus=1)
    @example(p=3, q=7, shift=Fraction(0), delta=Fraction(1, 7), n_max=50, residue=-3, modulus=4)
    @example(p=2, q=9, shift=Fraction(1, 3), delta=Fraction(1, 9), n_max=40, residue=12, modulus=5)
    @example(p=1, q=5, shift=Fraction(0), delta=Fraction(1, 4), n_max=2, residue=3, modulus=5)
    @example(p=-7, q=1, shift=Fraction(-1, 3), delta=Fraction(1, 3), n_max=30, residue=1, modulus=2)
    @example(p=-5, q=12, shift=Fraction(-5, 18), delta=Fraction(5, 36), n_max=200, residue=-1, modulus=3)
    @example(p=-5, q=12, shift=Fraction(-5, 18), delta=Fraction(1, 4), n_max=200, residue=-1, modulus=3)
    @example(
        p=3 * (2**64 + 13) // 7, q=2**64 + 13, shift=Fraction(-7, 4), delta=Fraction(1, 5),
        n_max=300, residue=0, modulus=1,
    )
    @_with_examples(SEEDED_COUNT_CASES)
    def test_modular_path_agrees(self, p, q, shift, delta, n_max, residue, modulus):
        """The integer count equals its Fraction twin, and the class walk
        visits exactly the n in [1, n_max] congruent to residue."""
        assume(math.gcd(p, q) == 1)
        rep = count_quadratic(p, q, shift, delta, n_max, residue, modulus)
        twin = _count_by_fractions(p, q, shift, delta, n_max, residue, modulus)
        assert (rep.count, rep.boundary_ties) == twin
        assert list(_class(residue, modulus, n_max)) == [
            n for n in range(1, n_max + 1) if (n - residue) % modulus == 0
        ]


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

    def test_nearest_m_zero_is_no_hit(self):
        # alpha n^2 < 1/2 for n <= 3, so the nearest m is 0
        hits, skipped = square_denominator_search(
            lambda prec: Ball.from_fraction(Fraction(1, 1000), prec), Fraction(2), 3
        )
        assert (hits, skipped) == ([], 0)

    def test_tie_with_threshold_skipped(self):
        # at n = 81, alpha n^2 = 4/3 lies exactly 81^(-1/4) = 1/3 from m = 1
        hits, skipped = square_denominator_search(
            lambda prec: Ball.from_fraction(Fraction(4, 19683), prec), Fraction(9, 4), 81, n_mod=(81, 100)
        )
        assert (hits, skipped) == ([], 1)

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
        target = const_sinh1(160) / 3
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
