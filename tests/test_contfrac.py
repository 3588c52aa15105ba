"""Continued-fraction engine tests, including the subsequence lemma suite."""

import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import islice
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap import contfrac
from harmonicgap.contfrac import (
    convergents,
    e_convergent,
    e_partial_quotient,
    exp_recip_partial_quotient,
    is_e_convergent,
    odd_convergent,
    odd_convergents,
    tail_enclosure,
)
from harmonicgap.exactnum import Ball, Dyadic, const_e

from conftest import convergent_by_euclid, ratio_from_walk, remainder_from_e

SRC = Path(__file__).resolve().parents[1] / "src"

E_FIRST_EIGHT = [(2, 1), (3, 1), (8, 3), (11, 4), (19, 7), (87, 32), (106, 39), (193, 71)]
SUBSEQ_FIRST_FOUR = [(3, 1), (19, 7), (193, 71), (2721, 1001)]


class TestPartialQuotients:
    def test_e_leading(self):
        assert e_partial_quotient(1) == 2

    def test_e_sixth(self):
        assert e_partial_quotient(6) == 4

    def test_e_ninth(self):
        assert e_partial_quotient(9) == 6

    def test_e_prefix(self):
        got = [e_partial_quotient(i) for i in range(1, 15)]
        assert got == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1, 1]

    def test_index_error(self):
        with pytest.raises(IndexError):
            e_partial_quotient(0)

    def test_exp_half(self):
        got = [exp_recip_partial_quotient(2, i) for i in range(1, 9)]
        assert got == [1, 1, 1, 1, 5, 1, 1, 9]

    def test_exp_third(self):
        got = [exp_recip_partial_quotient(3, i) for i in range(1, 9)]
        assert got == [1, 2, 1, 1, 8, 1, 1, 14]

    def test_exp_quarter(self):
        got = [exp_recip_partial_quotient(4, i) for i in range(1, 9)]
        assert got == [1, 3, 1, 1, 11, 1, 1, 19]

    def test_exp_domain(self):
        with pytest.raises(ValueError):
            exp_recip_partial_quotient(1, 1)


class TestConvergents:
    def test_first_eight_of_e(self):
        got = [(c.p, c.q) for c in convergents(e_partial_quotient, 8)]
        assert got == E_FIRST_EIGHT

    def test_first_alone(self):
        assert (e_convergent(1).p, e_convergent(1).q) == (2, 1)

    def test_subsequence_member_at_11(self):
        c = e_convergent(11)
        assert (c.p, c.q) == (2721, 1001)
        assert 11 == 3 * 3 + 2

    def test_count_validated(self):
        with pytest.raises(ValueError):
            convergents(e_partial_quotient, 0)

    def test_generic_source_exp_half(self):
        # convergents of e^(1/2) from its quotients; recurrence invariants
        # hold for any source, and the values approach sqrt(e)
        from functools import partial

        src = partial(exp_recip_partial_quotient, 2)
        cs = convergents(src, 12)
        assert [(c.p, c.q) for c in cs[:6]] == [
            (1, 1), (2, 1), (3, 2), (5, 3), (28, 17), (33, 20),
        ]
        sign = -1  # (-1)^1; the loop starts at i = 2
        for prev, cur in zip(cs, cs[1:]):
            sign = -sign
            assert cur.p * prev.q - prev.p * cur.q == sign
        # sqrt(e) lies between consecutive convergents
        root_e = const_e(160).sqrt()
        last, prev = cs[-1].as_fraction(), cs[-2].as_fraction()
        lo, hi = min(last, prev), max(last, prev)
        assert root_e.lo.cmp_fraction(lo) > 0
        assert root_e.hi.cmp_fraction(hi) < 0

    def test_determinant_identity_to_3000(self):
        cs = convergents(e_partial_quotient, 3000)
        sign = -1  # (-1)^1
        for prev, cur in zip(cs, cs[1:]):
            sign = -sign
            assert cur.p * prev.q - prev.p * cur.q == sign

    @settings(max_examples=40, deadline=None)
    @given(i=st.integers(1, 3000))
    def test_e_convergent_matches_enumeration(self, i):
        assert e_convergent(i) == convergents(e_partial_quotient, i)[-1]

    def test_coprime(self):
        for c in convergents(e_partial_quotient, 199):
            assert gcd(c.p, c.q) == 1

    def test_parity_table_to_1800(self):
        # p odd at residues {2,4,5,6} of i mod 6, even at {1,3};
        # q odd at {1,2,3,5}, even at {4,6}; residue 0 stands for i = 6k+6
        for c in convergents(e_partial_quotient, 1800):
            r = c.i % 6
            expect_p_odd = r in {2, 4, 5, 0}
            expect_q_odd = r in {1, 2, 3, 5}
            assert (c.p % 2 == 1) == expect_p_odd, (c.i, c.p)
            assert (c.q % 2 == 1) == expect_q_odd, (c.i, c.q)

    def test_enclosure_inequality_to_300(self):
        # 1/(q_i (q_{i+1} + q_i)) < |e - p_i/q_i| < 1/(q_i q_{i+1})
        cs = convergents(e_partial_quotient, 301)
        prec = 2 * cs[-1].q.bit_length() + 64
        e = const_e(prec)
        for c, nxt in zip(cs, cs[1:]):
            diff = abs(e - Ball.from_fraction(c.as_fraction(), prec))
            low = Fraction(1, c.q * (nxt.q + c.q))
            high = Fraction(1, c.q * nxt.q)
            assert diff.lo.cmp_fraction(low) > 0, c.i
            assert diff.hi.cmp_fraction(high) < 0, c.i

    def test_telescoping_partial_sums(self):
        # 2 + sum_{j<=K} (-1)^(j+1)/(q_j q_{j+1}) = p_{K+1}/q_{K+1} -> e
        prec = 512
        e = const_e(prec)
        total = Fraction(2)
        cs = convergents(e_partial_quotient, 60)
        for j, (cj, cK) in enumerate(zip(cs, cs[1:]), start=1):
            qj, qj1 = cj.q, cK.q
            total += Fraction((-1) ** (j + 1), qj * qj1)
            assert total == cK.as_fraction()
            gap = abs(e - Ball.from_fraction(total, prec))
            assert gap.hi.cmp_fraction(Fraction(1, qj * qj1)) < 0


class TestOddConvergents:
    def test_k0(self):
        s = odd_convergent(0)
        assert (s.p, s.q) == (3, 1)
        assert s.sign == -1
        assert s.remainder.lo.cmp_fraction(Fraction(1, 4)) >= 0
        assert s.remainder.hi.cmp_fraction(Fraction(1, 2)) <= 0
        # r = 3 - e = 0.28171817...
        assert s.remainder.contains(Fraction(28171817, 10**8)) or (
            s.remainder.lo.cmp_fraction(Fraction(2817, 10**4)) > 0
            and s.remainder.hi.cmp_fraction(Fraction(2818, 10**4)) < 0
        )

    def test_k2(self):
        s = odd_convergent(2)
        assert (s.p, s.q) == (193, 71)
        # r ~ 0.1413029... in [1/8, 1/6]
        assert s.remainder.lo.cmp_fraction(Fraction(1413, 10**4)) > 0
        assert s.remainder.hi.cmp_fraction(Fraction(1414, 10**4)) < 0

    def test_k3(self):
        s = odd_convergent(3)
        assert (s.p, s.q) == (2721, 1001)

    def test_subsequence_list(self):
        got = [(odd_convergent(k).p, odd_convergent(k).q) for k in range(4)]
        assert got == SUBSEQ_FIRST_FOUR

    def test_lemma_suite_to_60(self):
        # full 2.5-lemma checks on a prefix (the acceptance suite goes to 300)
        for k in range(60):
            s = odd_convergent(k)
            assert s.p % 2 == 1 and s.q % 2 == 1
            assert s.sign == (-1) ** (k + 1)
            lo, hi = s.remainder_bounds()
            assert s.remainder.lo.cmp_fraction(lo) >= 0
            assert s.remainder.hi.cmp_fraction(hi) <= 0


class TestDeterminantCheck:
    """The entry's sign is checked by the exact identity
    p_{i-1} q_i - p_i q_{i-1} = (-1)^(k+1), which catches corruptions that
    keep both parities and p q_{i-1} mod q, and a corrupted q_{i-1}, which
    the remainder does not read."""

    corruptions = pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda pp, qp, p, q: (pp, qp, p + 2 * q, q), id="p-plus-2q"),
            pytest.param(lambda pp, qp, p, q: (pp, qp + 2, p, q), id="q-prev"),
        ],
    )

    @staticmethod
    def _corrupt_entry_10(monkeypatch, corrupt):
        # entry k = 10 is convergent 32, walked as (p_31, q_31, p_32, q_32)
        entry = contfrac._odd_entry

        def corrupted(k, prec, walked):
            return entry(k, prec, corrupt(*walked) if k == 10 else walked)

        monkeypatch.setattr(contfrac, "_odd_entry", corrupted)
        contfrac.odd_convergent.cache_clear()

    @corruptions
    def test_corrupted_entry_raises(self, monkeypatch, corrupt):
        self._corrupt_entry_10(monkeypatch, corrupt)
        with pytest.raises(AssertionError, match="determinant"):
            contfrac.odd_convergent(10)
        with pytest.raises(AssertionError, match="determinant"):
            contfrac.odd_convergents(12)

    @corruptions
    def test_corrupted_entry_raises_when_resumed(self, monkeypatch, corrupt):
        # the cursor rests at entry 5 (convergent 17), so entry 10 resumes it
        self._corrupt_entry_10(monkeypatch, corrupt)
        contfrac.odd_convergent(5)
        assert contfrac._cursor[0] == 17
        with pytest.raises(AssertionError, match="determinant"):
            contfrac.odd_convergent(10)
        assert contfrac._cursor[0] == 32
        contfrac.odd_convergents(8)
        with pytest.raises(AssertionError, match="determinant"):
            contfrac.odd_convergents(12)


def _entry_key(s):
    # Ball compares by identity, so entries are compared by their fields
    return s.k, s.p, s.q, s.sign, s.remainder.lo, s.remainder.hi, s.remainder.prec


class TestOddConvergentListing:
    @pytest.mark.parametrize("prec", [36, 192])
    def test_one_walk_matches_entries(self, prec):
        contfrac.odd_convergent.cache_clear()
        listed = [_entry_key(s) for s in odd_convergents(60, prec)]
        assert listed == [_entry_key(odd_convergent(k, prec)) for k in range(61)]

    def test_ends(self):
        assert [_entry_key(s) for s in odd_convergents(0)] == [_entry_key(odd_convergent(0))]
        with pytest.raises(IndexError):
            odd_convergents(-1)


def _fresh_walked(i):
    # the slow twin of the cursor: convergent i of e by a walk from the start
    return next(islice(contfrac._walk(e_partial_quotient), i - 1, None))


class TestCursor:
    """Every request through the cursor, resumed or started afresh, gives
    what a walk from the start gives."""

    _requests = st.lists(
        st.one_of(
            st.tuples(st.just("entry"), st.integers(0, 300), st.sampled_from([36, 192])),
            st.tuples(st.just("listing"), st.integers(0, 60), st.just(36)),
            st.tuples(st.just("convergent"), st.integers(1, 900), st.just(0)),
        ),
        min_size=1,
        max_size=8,
    )

    @settings(max_examples=60, deadline=None)
    @given(requests=_requests)
    @example(requests=[("entry", k, 36) for k in (3, 50, 120, 300)])  # ascending
    @example(requests=[("entry", k, 36) for k in (300, 120, 50, 3, 0)])  # descending
    @example(requests=[("entry", 40, 36), ("entry", 40, 192), ("convergent", 122, 0)])  # repeated
    @example(requests=[("entry", 90, 36), ("listing", 30, 36), ("convergent", 1, 0), ("entry", 31, 36)])
    def test_matches_fresh_walk(self, requests):
        for kind, n, prec in requests:
            contfrac.odd_convergent.cache_clear()
            if kind == "entry":
                want = contfrac._odd_entry(n, prec, _fresh_walked(3 * n + 2))
                assert _entry_key(odd_convergent(n, prec)) == _entry_key(want)
            elif kind == "listing":
                want = [contfrac._odd_entry(k, prec, _fresh_walked(3 * k + 2)) for k in range(n + 1)]
                assert [_entry_key(s) for s in odd_convergents(n, prec)] == [_entry_key(s) for s in want]
            else:
                _, _, p, q = _fresh_walked(n)
                assert e_convergent(n) == contfrac.Convergent(n, e_partial_quotient(n), p, q)

    def test_threads_share_the_cursor(self):
        # four threads move one cursor up and down at a short switch
        # interval; a resume from another thread's index would give a wrong
        # convergent
        want = [(p, q) for _, _, p, q in islice(contfrac._walk(e_partial_quotient), 2000)]
        wrong = []

        def requests(seed):
            rng = random.Random(seed)
            for _ in range(100):
                i = rng.randrange(1, 2001)
                try:
                    c = e_convergent(i)
                except Exception as exc:  # a generator entered twice raises ValueError
                    wrong.append((i, repr(exc)))
                else:
                    if (c.p, c.q) != want[i - 1]:
                        wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=requests, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_ladder_walks_once(self):
        # the certify ladder k = 100, 110, ..., 250 asks for p and q in
        # ascending order: 1,468 partial quotients with the cursor (752 of
        # them the walk to index 752, the rest the ratio enclosures) against
        # 9,148 when every index was walked from the start
        script = (
            "from harmonicgap import construct, contfrac\n"
            "calls, quotient = [], contfrac.e_partial_quotient\n"
            "contfrac.e_partial_quotient = lambda i: calls.append(i) or quotient(i)\n"
            "for k in range(100, 251, 10):\n"
            "    construct.certify(k)\n"
            "print(len(calls))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 3000


class TestRatioEnclosure:
    """c_k = q_{3k+1}/q_{3k+2} is enclosed from the reversed partial quotients
    [0; a_{3k+2}, ..., a_2], walked 64 bits past the working precision."""

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(0, 2000), prec=st.sampled_from([32, 96, 192, 1024]))
    @example(k=0, prec=32)
    @example(k=1, prec=1024)
    @example(k=2, prec=96)
    def test_contains_exact_ratio(self, k, prec):
        enclosures = []
        enclose = contfrac._enclose

        def recorded(quotient, p, length=0):
            ball = enclose(quotient, p, length)
            if length:
                enclosures.append((p, ball))
            return ball

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contfrac, "_enclose", recorded)
            contfrac.odd_convergent.cache_clear()
            odd_convergent(k, prec)
        [(p, ball)] = enclosures
        assert p == max(prec, 36) + 8 + 64
        assert ball.contains(ratio_from_walk(k))
        assert ball.width_leq(1 - p)
        if k == 0:  # the fraction [0; 1] ends at its value
            assert ball.lo == ball.hi == Dyadic(1)


class TestLegendre:
    def test_membership(self):
        assert is_e_convergent(11, 4)
        assert is_e_convergent(193, 71)
        assert not is_e_convergent(7, 3)
        assert not is_e_convergent(53, 19)

    def test_convergents_and_neighbours_match_euclid_twin(self):
        for c in convergents(e_partial_quotient, 60):
            assert is_e_convergent(c.p, c.q) and convergent_by_euclid(c.p, c.q)
            for p in (c.p - 1, c.p + 1):
                g = gcd(p, c.q)
                assert is_e_convergent(p // g, c.q // g) == convergent_by_euclid(p // g, c.q // g)

    @settings(max_examples=300, deadline=None)
    @given(q=st.integers(1, 10**6), offset=st.integers(-(10**6), 10**6))
    @example(q=1, offset=1)  # 3/1 = [2; 1], which Euclid writes [3]
    def test_random_fractions_match_euclid_twin(self, q, offset):
        """p/q in lowest terms for p = floor(e q) + offset, so small offsets
        land next to e."""
        e60 = e_convergent(60)
        p = max(1, q * e60.p // e60.q + offset)
        g = gcd(p, q)
        assert is_e_convergent(p // g, q // g) == convergent_by_euclid(p // g, q // g)


class TestRefinement:
    def test_c0(self):
        assert ratio_from_walk(0) == 1

    def test_recurrence_exact_to_100(self):
        for k in range(100):
            lhs = ratio_from_walk(k + 1)
            ck = ratio_from_walk(k)
            assert lhs == Fraction(1, 2) + Fraction(1, 2 * (4 * k + 5 + 2 * ck))

    def test_tail_in_unit_interval_to_100(self):
        for k in range(0, 101, 7):
            w = tail_enclosure(k, 80)
            assert w.lo.cmp_fraction(Fraction(2 * k + 2)) > 0
            assert w.hi.cmp_fraction(Fraction(2 * k + 3)) < 0

    def test_inverse_remainder_identity(self):
        # r from 1/r = c_k + w_k against the slow twin |e - p/q| q^2
        for k in range(0, 40, 3):
            s = odd_convergent(k, prec=96)
            assert s.remainder.overlaps(remainder_from_e(k, 96)), k

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 300), prec=st.sampled_from([32, 96, 192, 1024]))
    def test_remainder_matches_slow_twin(self, k, prec):
        s = odd_convergent(k, prec)
        assert s.remainder.overlaps(remainder_from_e(k, prec))
        assert s.remainder.width_leq(4 - prec)
        # 1/r_e - c_k encloses w_k; the twin runs 3 * bits(2k+4) bits finer,
        # so it is narrower than the distance from w_k to the tail bracket's ends
        finer = prec + 3 * (2 * k + 4).bit_length() + 16
        w_e = 1 / remainder_from_e(k, finer) - ratio_from_walk(k)
        w = tail_enclosure(k, prec)
        assert w.lo <= w_e.lo and w_e.hi <= w.hi, k

    def test_refined_envelope_prefix(self):
        # |1/r - (2k+3)| <= 2/k on a prefix (acceptance covers k <= 300)
        for k in range(1, 50):
            s = odd_convergent(k, prec=96)
            inv = Ball.from_fraction(1, 256) / s.remainder
            dev = abs(inv - Ball.from_fraction(2 * k + 3, 256))
            assert dev.hi.cmp_fraction(Fraction(2, k)) <= 0, k


class TestMemory:
    def test_walk_keeps_no_table(self):
        # the walk to index 15,002 holds two convergents at a time, not
        # every p_i, q_i (a table of them peaks at 117 MB of allocations),
        # and the fresh walk back to index 32 keeps no more;
        # a fresh interpreter keeps earlier tests' caches out of the count
        script = (
            "import tracemalloc\n"
            "from harmonicgap.contfrac import odd_convergent\n"
            "tracemalloc.start()\n"
            "odd_convergent(5000)\n"
            "odd_convergent(10)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 16 << 20
