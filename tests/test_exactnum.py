"""Tests for exact rationals and the certified ball arithmetic."""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap.construct import pair_from
from harmonicgap.errors import PrecisionError
from harmonicgap.exactnum import (
    MAX_ROOT_DEGREE,
    Ball,
    Dyadic,
    const_e,
    const_pi,
    const_sinh1,
    constants,
    _exp_series,
    _dyadic_div,
    _dyadic_root,
    _ln2,
    ln_ball,
)

from conftest import ball_mul_four, int_str_limit

# independent oracle: ln via exact-rational atanh series with geometric tail
def _ln_oracle(x: Fraction) -> tuple[Fraction, Fraction]:
    u = (x - 1) / (x + 1)
    assert 0 < abs(u) < Fraction(9, 10)
    # enough terms for |u|^(2 terms) <= 2^-200; the tail below is exact either way
    terms = math.ceil(100 / -math.log2(abs(u))) + 1
    s = Fraction(0)
    p = u
    u2 = u * u
    for j in range(terms):
        s += p / (2 * j + 1)
        p *= u2
    tail = abs(p) / ((2 * terms + 1) * (1 - u2))
    return 2 * s, 2 * tail


# independent oracle: e via exact-rational Taylor with factorial tail
def _e_oracle(K: int = 40) -> tuple[Fraction, Fraction]:
    s = Fraction(0)
    f = 1
    for k in range(K + 1):
        if k:
            f *= k
        s += Fraction(1, f)
    return s, Fraction(2, f * (K + 1))


class TestDyadic:
    @settings(max_examples=200, deadline=None)
    @given(
        man=st.integers(-(2**80), 2**80),
        exp=st.integers(-80, 80),
        shift=st.integers(0, 80),
        other_man=st.integers(-(2**80), 2**80),
        other_exp=st.integers(-80, 80),
        prec=st.integers(1, 40),
    )
    @example(man=3, exp=2, shift=2, other_man=3, other_exp=1, prec=1)  # 12 as (3, 2) and as (12, 0)
    @example(man=0, exp=5, shift=7, other_man=-1, other_exp=0, prec=8)
    def test_stored_form_does_not_matter(self, man, exp, shift, other_man, other_exp, prec):
        # a value stored with trailing zero bits behaves as its odd form
        a, b, c = Dyadic(man, exp), Dyadic(man << shift, exp - shift), Dyadic(other_man, other_exp)
        assert a == b and b == a
        assert [a < c, a <= c, a > c, a >= c, a == c] == [b < c, b <= c, b > c, b >= c, b == c]
        assert a.as_fraction() == b.as_fraction()
        assert a.bit_magnitude() == b.bit_magnitude()
        for up in (False, True):
            assert a.decimal_str(24, up) == b.decimal_str(24, up)
            if c.man:
                assert _dyadic_div(a, c, prec, up) == _dyadic_div(b, c, prec, up)
            if a.man:
                assert _dyadic_div(c, a, prec, up) == _dyadic_div(c, b, prec, up)
            for n in (2, 3, 64):
                # past n * (prec + 2) bits the mantissa's length stops setting the shift
                for s in (shift, shift + n * (prec + 2)):
                    wide = Dyadic(abs(man) << s, exp - s)
                    assert _dyadic_root(wide, n, prec, up) == _dyadic_root(Dyadic(abs(man), exp), n, prec, up)
        assert a.round_down(prec) == b.round_down(prec)
        assert a.round_up(prec) == b.round_up(prec)

    def test_round_directed(self):
        d = Dyadic(0b10111, 0)  # 23
        assert d.round_down(3).as_fraction() == 20
        assert d.round_up(3).as_fraction() == 24
        n = Dyadic(-23, 0)
        assert n.round_down(3).as_fraction() == -24
        assert n.round_up(3).as_fraction() == -20

    def test_decimal_str_directed(self):
        d = Dyadic(1, -1)
        assert d.decimal_str(4, round_up=False) == "0.5"
        third_down = Ball.from_fraction(Fraction(1, 3), 64).lo
        s = third_down.decimal_str(6, round_up=False)
        assert s.startswith("0.333333")


# a dyadic of either sign, or zero, with a mantissa of up to 200 bits
_dyadics = st.builds(Dyadic, st.integers(-(2**200), 2**200), st.integers(-(10**5), 10**5))


class TestDyadicCmp:
    """_cmp decides by sign and bit magnitude and aligns mantissas only at
    equal magnitudes; Fraction comparison is its twin."""

    @staticmethod
    def _check(a: Dyadic, b: Dyadic):
        x, y = a.as_fraction(), b.as_fraction()
        assert a._cmp(b) == (x > y) - (x < y)
        assert b._cmp(a) == (y > x) - (y < x)

    @settings(max_examples=300, deadline=None)
    @given(a=_dyadics, b=_dyadics)
    @example(a=Dyadic(0, 9), b=Dyadic(0, -9))
    @example(a=Dyadic(0), b=Dyadic(-1, -(10**5)))
    @example(a=Dyadic(1, 10**5), b=Dyadic(1, -(10**5)))  # a gap of 2 * 10^5 bits
    def test_matches_fractions(self, a, b):
        self._check(a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        man=st.integers(1, 2**200),
        other=st.integers(1, 2**200),
        exp=st.integers(-(10**5), 10**5),
        signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    )
    def test_equal_exponents(self, man, other, exp, signs):
        self._check(Dyadic(signs[0] * man, exp), Dyadic(signs[1] * other, exp))

    @settings(max_examples=300, deadline=None)
    @given(
        man=st.integers(1, 2**200),
        other=st.integers(1, 2**200),
        exp=st.integers(-(10**5), 10**5),
        sign=st.sampled_from([1, -1]),
        same=st.booleans(),
    )
    @example(man=5, other=5, exp=0, sign=1, same=True)
    @example(man=1, other=2**199, exp=-(10**5), sign=-1, same=False)
    def test_equal_bit_magnitudes(self, man, other, exp, sign, same):
        # b gets a's bit magnitude at another exponent (the same value when
        # `same`), so only the aligned mantissas decide
        if same:
            other = man
        gap = man.bit_length() - other.bit_length()
        a, b = Dyadic(sign * man, exp), Dyadic(sign * other, exp + gap)
        assert a.bit_magnitude() == b.bit_magnitude()
        self._check(a, b)
        if same:
            assert a._cmp(Dyadic(sign * (man << 7), exp - 7)) == 0


class TestBallMul:
    """The sign-dispatched product against the four-product twin, on every
    pair of sign classes."""

    # (lo, hi) bit patterns: negative, ending at zero, the zero point,
    # straddling, starting at zero, positive; a point ball when equal
    _classes = {
        "neg": (st.integers(-(2**90), -1), st.integers(-(2**90), -1)),
        "nonpos": (st.integers(-(2**90), -1), st.just(0)),
        "zero": (st.just(0), st.just(0)),
        "straddle": (st.integers(-(2**90), -1), st.integers(1, 2**90)),
        "nonneg": (st.just(0), st.integers(1, 2**90)),
        "pos": (st.integers(1, 2**90), st.integers(1, 2**90)),
    }

    @classmethod
    def _balls(cls, kind):
        lo, hi = cls._classes[kind]
        return st.builds(
            lambda a, b, e, f, point, prec: Ball(
                *sorted((Dyadic(a, e), Dyadic(a if point else b, f)), key=Dyadic.as_fraction), prec
            ),
            lo, hi, st.integers(-120, 120), st.integers(-120, 120), st.booleans(), st.sampled_from([32, 64, 200]),
        )

    @pytest.mark.parametrize("left", sorted(_classes))
    @pytest.mark.parametrize("right", sorted(_classes))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_four_products(self, left, right, data):
        x, y = data.draw(self._balls(left)), data.draw(self._balls(right))
        for got in (x * y, y * x):
            want = ball_mul_four(x, y)
            assert got.lo.as_fraction() == want.lo.as_fraction()
            assert got.hi.as_fraction() == want.hi.as_fraction()
            assert got.prec == want.prec


def _decimal_str_reference(d: Dyadic, digits: int, round_up: bool) -> str:
    """Dyadic.decimal_str from the exact value, rounded by floor or ceil and
    printed by str() with no int-string limit."""
    scaled = d.as_fraction() * 10**digits
    q = math.ceil(scaled) if round_up else math.floor(scaled)
    ip, fp = divmod(abs(q), 10**digits)
    with int_str_limit(0):
        ip, fp = str(ip), str(fp).rjust(digits, "0").rstrip("0")
    sign = "-" if q < 0 else ""
    return f"{sign}{ip}.{fp}" if fp else f"{sign}{ip}"


class TestDyadicDecimalStr:
    @settings(max_examples=150, deadline=None)
    @given(
        man=st.integers(-(2**80), 2**80),
        exp=st.integers(-400, 20_000),
        digits=st.integers(0, 40),
        round_up=st.booleans(),
    )
    @example(man=10**5001 + 7, exp=-3, digits=24, round_up=False)  # over 5000 integer digits
    @example(man=-7, exp=-1, digits=0, round_up=False)  # no fraction digits
    @example(man=-(10**5001) - 7, exp=-3, digits=24, round_up=True)
    @example(man=3, exp=18_000, digits=20, round_up=True)
    @example(man=-1, exp=-200, digits=12, round_up=True)  # rounds up to zero
    def test_matches_str_reference(self, man, exp, digits, round_up):
        d = Dyadic(man, exp)
        assert d.decimal_str(digits, round_up) == _decimal_str_reference(d, digits, round_up)

    def test_zero_digits_is_the_rounded_integer(self):
        assert Dyadic(120).decimal_str(0, False) == "120"
        assert Dyadic(7, -1).decimal_str(0, True) == "4"
        assert Dyadic(7, -1).decimal_str(0, False) == "3"
        assert Dyadic(-7, -1).decimal_str(0, True) == "-3"
        assert Dyadic(-7, -1).decimal_str(0, False) == "-4"
        assert Dyadic(-1, -1).decimal_str(0, True) == "0"


class TestBallOps:
    def test_add_exact_points(self):
        b = Ball.from_fraction(1, 64) + Ball.from_fraction(1, 64)
        assert b.lo == b.hi and b.lo.as_fraction() == 2

    def test_sqrt_point(self):
        b = Ball.from_fraction(4, 64).sqrt()
        assert b.contains(2)
        w = b.width()
        assert w.man == 0 or w.bit_magnitude() <= 1 - 64 + 2

    def test_div_third(self):
        third = Ball.from_fraction(1, 64) / Ball.from_fraction(3, 64)
        assert third.contains(Fraction(1, 3))
        assert third.width_leq(-62)

    def test_div_by_zero_ball(self):
        straddling = Ball.from_endpoints(Fraction(-1), Fraction(1), 64)
        with pytest.raises(PrecisionError):
            Ball.from_fraction(1, 64) / straddling

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValueError):
            Ball.from_fraction(-1, 64).sqrt()

    def test_float_operand_refused(self):
        b = Ball.from_fraction(Fraction(3, 64))
        for op in (
            lambda: b + 1.5,
            lambda: 1.5 * b,
            lambda: b / 2.0,
            lambda: b * "x",
            lambda: 2.0 - b,
            lambda: b - 0.5,
        ):
            with pytest.raises(TypeError, match="operand type"):
                op()

    def test_containment_ten_thousand_rationals(self):
        # single-op containment over 10^4 random rationals
        rng = random.Random(6021023)
        for _ in range(10000):
            a = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
            b = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
            ba = Ball.from_fraction(a, 80)
            bb = Ball.from_fraction(b, 80)
            op = rng.choice("asmd")
            if op == "a":
                assert (ba + bb).contains(a + b)
            elif op == "s":
                assert (ba - bb).contains(a - b)
            elif op == "m":
                assert (ba * bb).contains(a * b)
            elif b != 0:
                assert (ba / bb).contains(a / b)

    def test_containment_random_op_sequences(self):
        # the exact Fraction result always lies inside the ball result
        rng = random.Random(20240814)
        for _ in range(400):
            fr = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            ball = Ball.from_fraction(fr, 96)
            for _ in range(rng.randint(1, 12)):
                op = rng.choice("asmd")
                other = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                if op == "a":
                    fr, ball = fr + other, ball + other
                elif op == "s":
                    fr, ball = fr - other, ball - other
                elif op == "m":
                    fr, ball = fr * other, ball * other
                elif op == "d" and other != 0:
                    fr, ball = fr / other, ball / other
            assert ball.contains(fr)

    def test_width_contract_halves(self):
        # doubling prec at least halves the output width on a fixed op sequence
        rng = random.Random(7)
        for _ in range(100):
            ops = [
                (rng.choice("asmd"), Fraction(rng.randint(1, 99), rng.randint(1, 99)))
                for _ in range(8)
            ]
            widths = []
            for prec in (64, 128):
                b = Ball.from_fraction(Fraction(1, 3), prec)
                for op, v in ops:
                    if op == "a":
                        b = b + Ball.from_fraction(v, prec)
                    elif op == "s":
                        b = b - Ball.from_fraction(v, prec)
                    elif op == "m":
                        b = b * Ball.from_fraction(v, prec)
                    else:
                        b = b / Ball.from_fraction(v, prec)
                widths.append(b.width().as_fraction())
            assert widths[1] * 2 <= widths[0] or widths[0] == 0

    def test_pow_frac_root_degree_cap(self):
        x = Ball.from_fraction(10, 96)
        root = x.pow_frac(Fraction(1, MAX_ROOT_DEGREE))  # the largest degree accepted
        power = Ball.from_fraction(1, 96)
        for _ in range(MAX_ROOT_DEGREE):
            power = power * root
        assert power.contains(10)
        with pytest.raises(ValueError, match="denominator"):
            x.pow_frac(Fraction(1, MAX_ROOT_DEGREE + 1))
        with pytest.raises(ValueError, match="denominator"):
            x.pow_frac(Fraction(-1, 1000))

    def test_root(self):
        b = Ball.from_fraction(32, 96).root(5)
        assert b.contains(2)
        c = Ball.from_fraction(10, 96).pow_frac(Fraction(5, 4))
        # 10^(5/4) = 17.7827941...
        assert c.contains(Fraction(177827941, 10**7)) or (
            c.lo.cmp_fraction(Fraction(1778279, 10**5)) > 0
            and c.hi.cmp_fraction(Fraction(1778280, 10**5)) < 0
        )


def _pow_frac_sequential(x: Ball, expo: Fraction, p: int) -> Ball:
    """x**(a/b) with the power taken by |a| sequential ball products."""
    a, b = expo.numerator, expo.denominator
    if a < 0:
        return Ball.from_fraction(1, p) / _pow_frac_sequential(x, -expo, p)
    cur = Ball.from_fraction(1, p + 8)
    base = x.at(p + 8)
    for _ in range(a):
        cur = cur * base
    return cur.root(b, p) if b > 1 else cur.at(p)


class TestPowFrac:
    @settings(max_examples=200, deadline=None)
    @given(
        num=st.integers(1, 10**12),
        den=st.integers(1, 10**12),
        a=st.integers(-40, 40),
        b=st.integers(1, 8),
        prec=st.integers(32, 256),
    )
    @example(num=6254, den=293, a=5, b=3, prec=64)
    @example(num=1, den=3, a=-40, b=1, prec=32)
    @example(num=10**12, den=1, a=40, b=7, prec=256)
    def test_encloses_mpmath_and_tracks_sequential_width(self, num, den, a, b, prec):
        ball = Ball.from_fraction(Fraction(num, den), prec)
        out = ball.pow_frac(Fraction(a, b))
        with mpmath.workprec(4 * prec):
            man, exp = (mpmath.root(mpmath.mpf(num) / den, b) ** a).man_exp
        ref = Fraction(man) * Fraction(2) ** exp
        slack = ref / (1 << (4 * prec - 16))  # mpmath's own rounding
        assert out.lo.cmp_fraction(ref + slack) <= 0 and out.hi.cmp_fraction(ref - slack) >= 0
        # Both routes enclose the same exact image of the ball and differ only
        # in where they round: squaring takes fewer roundings but doubles the
        # earlier ones, so neither is always narrower.  Each route's roundings
        # add a few units of the result's last place (the two differed by at
        # most 2 on 50,000 random inputs); 4 units bound the difference.
        ulp = Fraction(2) ** (out.hi.bit_magnitude() - prec)
        seq = _pow_frac_sequential(ball, Fraction(a, b), prec)
        assert out.width().as_fraction() <= seq.width().as_fraction() + 4 * ulp

    def test_large_exponent_by_squaring(self, monkeypatch):
        x = Ball.from_fraction(Fraction(3, 7), 192)
        calls = []
        mul = Ball.__mul__
        monkeypatch.setattr(Ball, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
        start = time.perf_counter()
        out = x.pow_frac(Fraction(-20000))
        assert time.perf_counter() - start < 0.5
        assert len(calls) <= 2 * (20000).bit_length()  # not 20000 products
        assert out.contains(Fraction(7, 3) ** 20000)


class TestLn:
    def test_ln_one_exact_zero(self):
        b = ln_ball(1, 64)
        assert b.lo.man == 0 and b.hi.man == 0

    def test_ln_two(self):
        lo, tail = _ln_oracle(Fraction(2))
        b = ln_ball(2, 96)
        # the oracle bracket [lo, lo+tail] and the ball must overlap
        assert b.lo.cmp_fraction(lo + tail) <= 0 and b.hi.cmp_fraction(lo) >= 0
        # frozen digits: ln 2 = 0.69314718055994530941...
        assert b.lo.cmp_fraction(Fraction(6931471805, 10**10)) > 0
        assert b.hi.cmp_fraction(Fraction(6931471806, 10**10)) < 0

    def test_ln_289_over_106(self):
        x = Fraction(289, 106)
        lo, tail = _ln_oracle(x)
        b = ln_ball(x, 96)
        assert b.lo.cmp_fraction(lo + tail) <= 0 and b.hi.cmp_fraction(lo) >= 0
        # frozen digits from the oracle: 1.002987594000...
        assert b.lo.cmp_fraction(Fraction(1002987593, 10**9)) > 0
        assert b.hi.cmp_fraction(Fraction(1002987595, 10**9)) < 0
        # cross-check ln(289) - ln(106)
        diff = ln_ball(289, 96) - ln_ball(106, 96)
        assert diff.overlaps(b)

    def test_width_contract(self):
        for prec in (48, 96, 192, 384):
            b = ln_ball(Fraction(355, 113), prec)
            assert b.width_leq(4 - prec)
        # ratios near e, where the series runs longest after the reduction,
        # up to the k = 250, d = 17 pair ratio m/(n-1) at 4000 bits
        m, n = pair_from(250, 17)
        for r, prec in ((Fraction(19, 7), 32), (Fraction(m, n - 1), 4000)):
            b = ln_ball(r, prec)
            assert b.width_leq(4 - prec)
            assert b.overlaps(ln_ball(r.numerator, prec) - ln_ball(r.denominator, prec))
        lo, tail = _ln_oracle(Fraction(19, 7))
        b = ln_ball(Fraction(19, 7), 96)
        assert b.lo.cmp_fraction(lo + tail) <= 0 and b.hi.cmp_fraction(lo) >= 0

    @pytest.mark.parametrize("r", [Fraction(17, 31), Fraction(65, 127)])
    def test_doubling_step(self, r):
        # same bit length above and below with 3a < 2b: the reduction doubles
        lo, tail = _ln_oracle(r)
        for prec in (48, 192):
            b = ln_ball(r, prec)
            assert b.width_leq(4 - prec)
            assert b.lo.cmp_fraction(lo + tail) <= 0 and b.hi.cmp_fraction(lo - tail) >= 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_ball(0, 64)
        with pytest.raises(ValueError):
            ln_ball(Fraction(-2), 64)

    def test_huge_argument(self):
        x = Fraction(10**200 + 7, 3)
        b = ln_ball(x, 128)
        assert b.width_leq(4 - 128)
        s = x.numerator.bit_length() - x.denominator.bit_length()
        while x / Fraction(2) ** s > Fraction(4, 3):
            s += 1
        while x / Fraction(2) ** s < Fraction(2, 3):
            s -= 1
        lo, tail = _ln_oracle(x / Fraction(2) ** s)
        l2, l2t = _ln_oracle(Fraction(2))
        approx = lo + s * l2
        slack = tail + s * l2t + Fraction(1, 10**20)
        assert b.lo.cmp_fraction(approx - slack) >= 0
        assert b.hi.cmp_fraction(approx + slack) <= 0


def _retired_ln2(prec: int) -> Ball:
    # ln 2 as exactnum summed it before the one arccot series: 2 atanh(1/3)
    # by Horner in 9, with a geometric tail of ratio 1/9
    w = prec + 16
    terms = w // 3 + 4
    lcm = math.lcm(*range(1, 2 * terms, 2))
    num = 0
    for j in range(terms):
        num = 9 * num + lcm // (2 * j + 1)
    s = Fraction(num, lcm * 3 ** (2 * terms - 1))
    tail = Fraction(9, 8) / Fraction(3) ** (2 * terms + 1)
    return Ball.from_endpoints(2 * s, 2 * (s + tail), w).at(prec)


class TestLn2:
    @staticmethod
    def _term_by_term(prec: int) -> Ball:
        # the same partial series of 2 atanh(1/3), one Fraction op per step
        w = prec + 16
        terms = w // 3 + 4
        s = Fraction(0)
        p9 = Fraction(1, 3)
        for j in range(terms):
            s += p9 / (2 * j + 1)
            p9 /= 9
        tail = Fraction(9, 8) / Fraction(3) ** (2 * terms + 1)
        return Ball.from_endpoints(2 * s, 2 * (s + tail), w).at(prec)

    @pytest.mark.parametrize("prec", [32, 128, 256, 1024, 4096])
    def test_matches_term_by_term_sum(self, prec):
        fast, slow = _ln2(prec), self._term_by_term(prec)
        assert (fast.lo.man, fast.lo.exp, fast.hi.man, fast.hi.exp, fast.prec) == (
            slow.lo.man,
            slow.lo.exp,
            slow.hi.man,
            slow.hi.exp,
            slow.prec,
        )

    @pytest.mark.parametrize("bucket", [1 << j for j in range(7, 15)])
    def test_matches_retired_sum(self, bucket):
        assert _bits(_ln2(bucket)) == _bits(_retired_ln2(bucket))


class TestConstants:
    def test_e_value(self):
        lo, tail = _e_oracle()
        b = const_e(96)
        assert b.lo.cmp_fraction(lo + tail) <= 0 and b.hi.cmp_fraction(lo) >= 0
        # frozen digits 2.718281828459045235...
        assert b.lo.cmp_fraction(Fraction(2718281828459045, 10**15)) > 0
        assert b.hi.cmp_fraction(Fraction(2718281828459046, 10**15)) < 0

    def test_e_monotone_refinement(self):
        for p1 in (48, 64, 128, 300):
            b1 = const_e(p1)
            b2 = const_e(p1 + 8)
            assert b1.lo <= b2.lo and b2.hi <= b1.hi

    def test_e_width(self):
        for prec in (32, 64, 128, 512):
            b = const_e(prec)
            # width <= 2^(1-prec) * magnitude ~ 2^(2-prec)
            assert b.width_leq(3 - prec)

    def test_sinh1(self):
        b = const_sinh1(96)
        # frozen digits 1.1752011936438014...
        assert b.lo.cmp_fraction(Fraction(11752011936438013, 10**16)) > 0
        assert b.hi.cmp_fraction(Fraction(11752011936438015, 10**16)) < 0

    def test_derived_constants(self):
        c = constants(128)
        # y* = sinh(1)/12 = 0.0979334328036501...
        assert c.critical_offset.lo.cmp_fraction(Fraction(979334328, 10**10)) > 0
        assert c.critical_offset.hi.cmp_fraction(Fraction(979334329, 10**10)) < 0
        # 3/sinh(1) = 2.55275438...
        assert c.three_over_sinh1.lo.cmp_fraction(Fraction(255275438, 10**8)) > 0
        assert c.three_over_sinh1.hi.cmp_fraction(Fraction(255275439, 10**8)) < 0
        # sinh(1)/6 = 2 * y*
        twice = c.critical_offset + c.critical_offset
        assert twice.overlaps(c.gap_target)


def _retired_e(prec: int) -> Ball:
    # e as exactnum summed it before the one exp series: sum_{k<=K} 1/k! by
    # accumulated falling factorials, with remainder in (1/(K+1)!, 2/(K+1)!)
    K = 3
    fact = 24  # (K+1)!
    while fact.bit_length() < prec + 8:
        K += 1
        fact *= K + 1
    c = 1
    s = 1
    for k in range(K, 0, -1):
        c *= k
        s += c
    lo = Fraction(s, fact // (K + 1))
    return Ball.from_endpoints(lo, lo + Fraction(2, fact), prec)


def _bits(b: Ball) -> tuple:
    return b.lo.man, b.lo.exp, b.hi.man, b.hi.exp, b.prec


class TestExpSeries:
    @pytest.mark.parametrize("bucket", [1 << j for j in range(7, 18)])
    def test_e_matches_retired_sum(self, bucket):
        ref = _retired_e(bucket)
        assert _bits(_exp_series(bucket)) == _bits(ref)
        # const_e(p) reads the bucket of p + 8
        assert _bits(const_e(bucket - 8)) == _bits(ref.at(bucket - 8))

    @settings(max_examples=150, deadline=None)
    @given(prec=st.integers(32, 4096))
    @example(prec=32)
    @example(prec=4096)
    def test_const_e_encloses_mpmath(self, prec):
        b = const_e(prec)
        with mpmath.workprec(prec + 64):
            man, exp = (+mpmath.e).man_exp
        ref = Fraction(man) * Fraction(2) ** exp
        slack = Fraction(1, 1 << (prec + 60))  # mpmath's own rounding
        assert b.lo.cmp_fraction(ref + slack) <= 0 and b.hi.cmp_fraction(ref - slack) >= 0
        assert b.width_leq(3 - prec)


class TestConstE:
    def test_validation(self):
        # the precision floor is Ball's, checked once in .at(prec)
        with pytest.raises(ValueError, match="precision must be >= 32"):
            const_e(31)


class TestPi:
    @settings(max_examples=150, deadline=None)
    @given(prec=st.integers(32, 4096))
    @example(prec=32)
    @example(prec=120)
    @example(prec=4096)
    def test_encloses_mpmath(self, prec):
        b = const_pi(prec)
        with mpmath.workprec(prec + 64):
            man, exp = (+mpmath.pi).man_exp
        ref = Fraction(man) * Fraction(2) ** exp
        slack = Fraction(1, 1 << (prec + 60))  # mpmath's own rounding
        assert b.lo.cmp_fraction(ref + slack) <= 0 and b.hi.cmp_fraction(ref - slack) >= 0
        assert b.width_leq(3 - prec)

    def test_validation(self):
        with pytest.raises(ValueError):
            const_pi(31)
