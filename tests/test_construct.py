"""Construction and certification of near-1 pairs."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap import construct, contfrac
from harmonicgap.construct import (
    certify,
    closest_odd,
    ideal_multiplier,
    joint_search,
    pair_from,
    pick_multiplier,
)
from harmonicgap.errors import PrecisionError
from harmonicgap.exactnum import Ball, const_sinh1, constants, escalating
from harmonicgap.harmonic import pair_offset

from conftest import gap_bracket, multiplier_from_mpmath, overshoot_by_ball_sum


def _naive_overshoot(n: int, m: int) -> Fraction:
    return sum(Fraction(1, k) for k in range(n, m + 1)) - 1


class TestIdealMultiplier:
    def test_k2(self):
        # refined value with the fixed-point pass: 1.661135...
        d = ideal_multiplier(2)
        assert d.lo.cmp_fraction(Fraction(165, 100)) > 0
        assert d.hi.cmp_fraction(Fraction(167, 100)) < 0

    def test_k0_degenerate(self):
        # fixed-point pass lands on n0 = 2, giving 1.02122...; the crude
        # (2n-1)/n ~ 2 approximation would instead give 1.179
        d = ideal_multiplier(0)
        assert d.lo.cmp_fraction(Fraction(101, 100)) > 0
        assert d.hi.cmp_fraction(Fraction(104, 100)) < 0

    def test_asymptotic_ratio(self):
        # ideal(k) / sqrt(2 k sinh(1)/3) -> 1
        sinh1 = const_sinh1(128)
        for k, tol in ((20, Fraction(1, 10)), (100, Fraction(1, 45)), (200, Fraction(1, 90))):
            d = ideal_multiplier(k)
            ref = (Ball.from_fraction(2 * k, 128) * sinh1 / 3).sqrt()
            ratio = d / ref
            assert abs(ratio - 1).hi.cmp_fraction(tol) < 0, k

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            ideal_multiplier(3)


class TestPickMultiplier:
    def test_k2(self):
        assert pick_multiplier(2) == 3

    def test_k0(self):
        assert pick_multiplier(0) == 3

    def test_bracket_holds(self):
        for k in range(2, 40, 2):
            d = pick_multiplier(k)
            ideal = ideal_multiplier(k)
            assert (ideal + 1).hi.cmp_fraction(Fraction(d)) <= 0 or (
                ideal + 1
            ).lo.cmp_fraction(Fraction(d)) < 0
            lo_ok = (ideal + 1).lo.cmp_fraction(Fraction(d)) <= 0
            hi_ok = (ideal + 3).hi.cmp_fraction(Fraction(d)) >= 0
            assert lo_ok and hi_ok, k

    @pytest.mark.parametrize("k", [0, 2, 4, 40, 200, 1000])
    def test_reads_the_ideal(self, k):
        assert pick_multiplier(k) == closest_odd(ideal_multiplier(k) + 2)

    def test_tie_rule(self):
        # exact even-integer point ball: tie broken upward
        assert closest_odd(Ball.from_fraction(4, 64)) == 5
        assert closest_odd(Ball.from_fraction(3, 64)) == 3
        assert closest_odd(Ball.from_fraction(Fraction(366, 100), 64)) == 3
        assert closest_odd(Ball.from_fraction(Fraction(51, 10), 64)) == 5


class TestMultiplierTwin:
    """The ideal multiplier and the canonical choice against their slow twin,
    from mpmath's e at about 400 bits past the cancellation in e - p/q."""

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(0, 1000).map(lambda j: 2 * j))
    @example(k=0)
    @example(k=2)
    @example(k=100)
    def test_matches_mpmath(self, k):
        ideal, d = multiplier_from_mpmath(k)
        assert ideal_multiplier(k).contains(ideal), k
        assert pick_multiplier(k) == d, k


class TestOneRemainderPerIndex:
    """Each index's remainder is computed once and read by the multiplier
    choice, the offset and the overshoot; no escalating attempt in construct
    starts while another is running."""

    @pytest.mark.parametrize(
        "run, k",
        [
            pytest.param(certify, 100, id="certify-100"),
            pytest.param(certify, 250, id="certify-250"),
            pytest.param(lambda k: construct._joint_one_k((k, 5)), 200, id="window-200"),
            pytest.param(gap_bracket, 40, id="gap_bracket-40"),
        ],
    )
    def test_once_and_not_nested(self, monkeypatch, run, k):
        tails: Counter = Counter()
        tail_enclosure = contfrac.tail_enclosure

        def counted_tail(kk, prec=64):
            tails[kk] += 1
            return tail_enclosure(kk, prec)

        depth, nested = [0], []

        def tracked(compute, *args, **kwargs):
            def attempt(w):
                if depth[0]:
                    nested.append(kwargs.get("what"))
                depth[0] += 1
                try:
                    return compute(w)
                finally:
                    depth[0] -= 1

            return escalating(attempt, *args, **kwargs)

        monkeypatch.setattr(contfrac, "tail_enclosure", counted_tail)
        monkeypatch.setattr(construct, "escalating", tracked)
        contfrac.odd_convergent.cache_clear()
        run(k)
        assert tails == {k: 1}
        assert contfrac.odd_convergent.cache_info().misses == 1
        assert nested == []

    @pytest.mark.parametrize("k", [100, 250])
    def test_offset_reuses_the_overshoot_delta(self, k):
        # on the ball route, the offset reads the delta of the overshoot's
        # first attempt instead of computing it again
        construct._delta.cache_clear()
        pair = certify(k)
        assert pair.overshoot_exact is None
        info = construct._delta.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestPairFrom:
    def test_k2_d3(self):
        assert pair_from(2, 3) == (289, 107)

    def test_k0_d1(self):
        assert pair_from(0, 1) == (1, 1)

    def test_k3_d1(self):
        assert pair_from(3, 1) == (1360, 501)

    def test_parity_error(self):
        with pytest.raises(ValueError):
            pair_from(2, 4)


class TestCertify:
    def test_spot_k2(self):
        pair = certify(2)
        assert (pair.d, pair.m, pair.n) == (3, 289, 107)
        assert pair.canonical and pair.bound_ok
        eps = pair.overshoot_exact
        assert eps == _naive_overshoot(107, 289)
        assert Fraction(68, 10**7) <= eps <= Fraction(74, 10**7)
        # quality ~ 0.08169, and quality * sqrt(2) ~ 0.1155 <= 1001
        assert pair.quality.lo.cmp_fraction(Fraction(816, 10**4)) > 0
        assert pair.quality.hi.cmp_fraction(Fraction(818, 10**4)) < 0

    def test_reduction_recovers_convergent(self):
        from math import gcd

        pair = certify(2)
        a, b = 2 * pair.m + 1, 2 * pair.n - 1
        g = gcd(a, b)
        assert g == pair.d == 3
        assert (a // g, b // g) == (193, 71)

    @pytest.mark.parametrize("d", [None, 3], ids=["canonical", "d3"])
    def test_undecided_bound_raises(self, monkeypatch, d):
        # every d is decided or raises, canonical (d = 5) or not
        monkeypatch.setattr(Ball, "decide_le", lambda self, other: None)
        with pytest.raises(PrecisionError, match="certification undecided for k=4"):
            certify(4, d)

    def test_undecided_pairs_are_skipped(self, monkeypatch):
        # the window 2 around the ideal multiplier 2.08 holds d = 1 and 3
        monkeypatch.setattr(Ball, "decide_le", lambda self, other: None)
        assert construct._joint_one_k((4, 2)) == ([], 2)

    def test_k0_d3_degenerate(self):
        pair = certify(0, 3)
        assert (pair.m, pair.n) == (4, 2)
        assert pair.overshoot_exact == Fraction(1, 12)
        assert pair.bound_ok is None  # no claim at k = 0

    def test_k2_d1_negative(self):
        pair = certify(2, 1)
        assert not pair.canonical
        assert pair.overshoot.sign() == -1
        assert pair.bound_ok is False

    def test_interval_route_matches_exact(self, monkeypatch):
        # every pair of the k <= 60 joint search on the exact route (k = 2
        # with d = 1, 3, 5 and k = 4 with d = 1, 3, 5, 7), and (2, 9)
        exact = {(p.k, p.d): p for p in joint_search(60)[0] if p.m <= construct.EXACT_ROUTE_CAP}
        assert len(exact) == 7
        exact[2, 9] = certify(2, 9)
        # force the ball route by shrinking the exact-route cap; its ball is
        # about as wide as the Euler-Maclaurin remainder, so leaving out the
        # atanh term or the remainder would exclude the exact value
        monkeypatch.setattr(construct, "EXACT_ROUTE_CAP", 1)
        for (k, d), ex in exact.items():
            pair = certify(k, d)
            assert pair.overshoot_exact is None and ex.overshoot_exact is not None
            assert pair.overshoot.prec == construct.WORK_PREC + 32, (k, d)  # decided at WORK_PREC
            assert pair.overshoot.contains(ex.overshoot_exact), (k, d)
            assert pair.quality.contains(pair.n**2 * ex.overshoot_exact), (k, d)
            assert pair.bound_ok == ex.bound_ok, (k, d)

    def test_k1000_certified(self):
        pair = certify(1000)
        assert pair.bound_ok is True
        assert pair.overshoot_exact is None

    def test_even_k_sweep_certified(self):
        for k in range(2, 41, 2):
            pair = certify(k)
            assert pair.bound_ok, k
            assert pair.overshoot.sign() == 1, k

    def test_offset_convergence(self):
        # 1/(200 sqrt k) <= y - y* <= 50/sqrt k for canonical pairs, k >= 4
        crit = constants(128).critical_offset
        for k in range(4, 41, 2):
            pair = certify(k)
            dev = pair.offset - crit
            s = Ball.from_fraction(k, 128).sqrt()
            assert (dev * s).lo.cmp_fraction(Fraction(1, 200)) > 0, k
            assert (dev * s).hi.cmp_fraction(Fraction(50)) < 0, k


@st.composite
def _pair_index(draw):
    """(k, d): the canonical multiplier, one in its joint-search window, or
    any odd multiplier below 100."""
    k = 2 * draw(st.integers(1, 100))
    kind = draw(st.sampled_from(["canonical", "window", "any"]))
    if kind == "canonical":
        return k, pick_multiplier(k)
    if kind == "window":
        return k, max(1, pick_multiplier(k) + 2 * draw(st.integers(-6, 6)))
    return k, 2 * draw(st.integers(0, 49)) + 1


class TestBallRoute:
    """The fixed-precision route against its slow twin, ball_sum at a
    precision that grows with n."""

    @settings(max_examples=20, deadline=None)
    @given(kd=_pair_index())
    @example(kd=(2, 1))
    @example(kd=(200, 15))
    def test_matches_ball_sum_route(self, kd):
        k, d = kd
        m, n = pair_from(k, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "EXACT_ROUTE_CAP", 0)  # the ball route at every m
            fast, _ = construct._overshoot_ball(k, d, m, n)
        slow = overshoot_by_ball_sum(n, m)
        assert fast.overlaps(slow)
        assert slow.sign() is not None and fast.sign() == slow.sign()
        assert certify(k, d).offset.overlaps(pair_offset(n, m))


class TestGapBracket:
    def test_bracket_decided(self):
        for k in range(2, 41, 2):
            lhs, gap, rhs = gap_bracket(k)
            assert lhs.decide_le(gap) is True, k
            assert gap.decide_le(rhs) is True, k


class TestJointSearch:
    @pytest.mark.parametrize("k, window", [(4, 2), (4, 5), (46, 5), (60, 5), (60, 1)])
    def test_window_is_every_odd_d_in_range(self, k, window):
        # no pair lies below ideal - window: d = 1 did at k = 46, ..., 60 with window 5
        ideal = construct.ideal_multiplier(k)
        lo, hi = ideal.lo.as_fraction() - window, ideal.hi.as_fraction() + window
        pairs, skipped = construct._joint_one_k((k, window))
        assert skipped == 0
        assert sorted(p.d for p in pairs) == [d for d in range(1, int(hi) + 1, 2) if d >= lo]

    def test_window_contains_canonical(self):
        pairs, skipped = joint_search(6, window=5)
        assert skipped == 0
        keys = {(p.k, p.d) for p in pairs}
        for k in (2, 4, 6):
            assert (k, pick_multiplier(k)) in keys

    def test_beats_canonical_at_k4(self):
        # the canonical d = 5 is conservative: d = 1 undershoots with the
        # smallest |quality| in the window, and d = 3 is the best pair with
        # a positive overshoot (the record (73756, 27134))
        pairs, _ = joint_search(4, window=5)
        k4 = {p.d: p for p in pairs if p.k == 4}
        canonical = certify(4)
        assert canonical.d == 5
        best = min(k4.values(), key=lambda p: abs(p.quality).hi.as_fraction())
        assert best.d == 1
        assert best.overshoot.sign() == -1
        assert abs(best.quality).decide_lt(abs(canonical.quality)) is True
        d3 = k4[3]
        assert (d3.m, d3.n) == (73756, 27134)
        assert d3.overshoot.sign() == 1
        assert abs(d3.quality).decide_lt(abs(canonical.quality)) is True

    def test_sorted_by_quality(self):
        pairs, _ = joint_search(8, window=3)
        mags = [abs(p.quality).hi.as_fraction() for p in pairs]
        assert mags == sorted(mags)

    def test_min_quality_monotone_in_k(self):
        pairs, _ = joint_search(10, window=3)
        best: dict[int, Fraction] = {}
        for p in pairs:
            q = abs(p.quality).hi.as_fraction()
            best[p.k] = min(best.get(p.k, q), q)
        running = None
        for k in sorted(best):
            running = best[k] if running is None else min(running, best[k])
            cumulative_min = min(v for kk, v in best.items() if kk <= k)
            assert cumulative_min <= best[k]

    def test_one_ideal_multiplier_per_index(self, monkeypatch):
        # certify reads the canonical multiplier at every d of the window;
        # each index computes its ideal once: 30 for k = 2, 4, ..., 60
        calls = Counter()
        ideal = construct._ideal

        def counted(s, w):
            calls[s.k] += 1
            return ideal(s, w)

        monkeypatch.setattr(construct, "_ideal", counted)
        construct.ideal_multiplier.cache_clear()
        joint_search(60)
        assert calls == Counter(range(2, 61, 2))

    def test_workers_deterministic(self):
        seq, s1 = joint_search(6, window=2)
        par, s2 = joint_search(6, window=2, workers=2)
        assert s1 == s2
        assert [(p.k, p.d, p.m, p.n) for p in seq] == [(p.k, p.d, p.m, p.n) for p in par]
