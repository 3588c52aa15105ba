"""Record scan: exactness, determinism, checkpoints, connection reports."""

import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicgap import _screen, _screen_py, cli, scan
from harmonicgap.errors import CheckpointError
from harmonicgap.exactnum import Ball
from harmonicgap.harmonic import crossing, exact_sum, iter_crossings, scaled_overshoot
from harmonicgap.scan import (
    ConnectionReport,
    quality_threshold,
    scan_records,
)

from conftest import convergent_by_euclid

# frozen by the independent incremental oracle below (and by hand for n=2)
RECORDS_TO_1000 = [(2, 4), (8, 20), (29, 77), (107, 289)]
RECORDS_TO_100000 = RECORDS_TO_1000 + [(27134, 73756)]


def _oracle_records(n_max: int):
    """Brute-force record table from the exact incremental iterator."""
    best = None
    out = []
    for rec in iter_crossings(2, n_max):
        if best is None or rec.scaled < best:
            out.append((rec.n, rec.t, rec.scaled))
            best = rec.scaled
    return out


def _summed_rows(n_max: int, bits: int = 192) -> tuple[list, list]:
    """(records, below_threshold) as (n, t) for 2 <= n <= n_max, from a walk
    of the window [n, t] in fixed point, the slow twin that reaches 10^5:
    acc is the sum of floor(2^bits / k) over the window, so
    acc <= 2^bits S(n, t) < acc + (t - n + 1).  Every crossing and every
    comparison is decided from these brackets (asserted), with tau from
    mpmath.  (_oracle_records' exact fractions take about 1.3 s to 10^4 and
    grow faster than quadratically.)"""
    one = 1 << bits
    with mpmath.workdps(80):
        e = mpmath.e
        tau = int(mpmath.floor((3 / e + 1 / (e * e) - 1) / 24 * 2**bits))  # tau in [tau, tau + 1) / 2^bits
    t, acc = 1, 0  # the empty window for n = 2, whose sum is below 1
    best = None  # [lo, hi) of the running minimum of n^2 eps, times 2^bits
    records, below = [], []
    for n in range(2, n_max + 1):
        cnt = t - n + 1
        while acc + cnt < one:  # S(n, t) < 1 for certain
            t += 1
            acc += one // t
            cnt += 1
        assert acc >= one, n  # and S(n, t - 1) < 1: t = t(n)
        lo, hi = n * n * (acc - one), n * n * (acc + cnt - one)
        if best is None or hi <= best[0]:
            records.append((n, t))
            best = (lo, hi)
        else:
            assert lo >= best[1], n
        if n > 10:
            # n^2 eps < tau (1 - 10/n), decided
            if n * hi <= tau * (n - 10):
                below.append((n, t))
            else:
                assert n * lo >= (tau + 1) * (n - 10), n
        acc -= one // n
    return records, below


class TestThreshold:
    def test_value(self):
        tau = quality_threshold(128)
        # (3/e + e^-2 - 1)/24 = 0.00995723...
        assert tau.lo.cmp_fraction(Fraction(995723, 10**8)) > 0
        assert tau.hi.cmp_fraction(Fraction(995724, 10**8)) < 0

    def test_matches_prediction_at_eighth(self):
        from harmonicgap.exactnum import Ball
        from harmonicgap.harmonic import predicted_overshoot

        tau = quality_threshold(160)
        n = 1000
        pred = predicted_overshoot(n, Ball.from_fraction(Fraction(1, 8), 160))
        scaled = pred * Ball.from_fraction(n * n, 160)
        assert scaled.overlaps(tau)

    @pytest.mark.parametrize("prec", [128, 160, 512])
    def test_encloses_mpmath(self, prec):
        # tau is built from the prediction's formula; this twin takes e from mpmath
        tau = quality_threshold(prec)
        with mpmath.workdps(300):
            e = mpmath.e
            man, exp = ((3 / e + 1 / (e * e) - 1) / 24).man_exp
        ref = Fraction(man) * Fraction(2) ** exp
        slack = Fraction(1, 10**290)  # mpmath's own rounding at 300 digits
        assert tau.lo.cmp_fraction(ref + slack) <= 0 and tau.hi.cmp_fraction(ref - slack) >= 0
        assert tau.width_leq(4 - prec)

    def test_critical_offset_below(self):
        from harmonicgap.exactnum import constants
        from harmonicgap.harmonic import predicted_overshoot

        pred = predicted_overshoot(1000, constants(128).critical_offset)
        assert pred.contains(0)


class TestConnectionReport:
    def test_constructed_pair(self):
        rep = ConnectionReport.build(107, 289)
        assert (rep.reduced_p, rep.reduced_q, rep.d) == (193, 71, 3)
        assert rep.is_convergent

    def test_tiny_pair(self):
        rep = ConnectionReport.build(2, 4)
        assert (rep.reduced_p, rep.reduced_q, rep.d) == (3, 1, 3)
        assert rep.is_convergent

    def test_non_convergent(self):
        rep = ConnectionReport.build(10, 26)
        assert (rep.reduced_p, rep.reduced_q) == (53, 19)
        assert not rep.is_convergent

    @pytest.mark.parametrize("n, m", [(1, 4), (5, 4)])
    def test_validation(self, n, m):
        with pytest.raises(ValueError):
            ConnectionReport.build(n, m)

    def test_shared_row_classified_once(self, monkeypatch):
        # every confirmed n > 10 counts as below tau, so the records past
        # n = 10 are connection entries too, as at the k = 8 record
        calls = []
        is_conv = scan.is_e_convergent

        def counted(p, q):
            calls.append((p, q))
            return is_conv(p, q)

        monkeypatch.setattr(scan, "_tau_compare_exact", lambda scaled, n: n > 10)
        monkeypatch.setattr(scan, "is_e_convergent", counted)
        table = scan_records(1000)
        by_key = {(r.n, r.t): r for r in table.records}
        shared = [r for r in table.below_threshold if (r.n, r.t) in by_key]
        assert [(r.n, r.t) for r in shared] == [(29, 77), (107, 289)]
        assert all(r is by_key[r.n, r.t] for r in shared)
        rows = {(r.n, r.t) for r in table.records + table.below_threshold}
        assert len(calls) == len(rows)


class TestScan:
    def test_tiny_horizon(self):
        table = scan_records(10)
        # n = 8 already improves on n = 2 (t reaches past the horizon freely)
        assert [(r.n, r.t) for r in table.records] == [(2, 4), (8, 20)]
        row = table.records[0]
        assert row.scaled == Fraction(1, 3)
        assert row.overshoot == Fraction(1, 12)
        assert (row.reduced_p, row.reduced_q, row.d) == (3, 1, 3)
        assert row.is_convergent

    def test_records_to_1000_match_oracle(self):
        table = scan_records(1000)
        oracle = _oracle_records(1000)
        assert [(r.n, r.t) for r in table.records] == [(n, t) for n, t, _ in oracle]
        assert [(r.n, r.t) for r in table.records] == RECORDS_TO_1000
        for row, (_, _, scaled) in zip(table.records, oracle):
            assert row.scaled == scaled

    def test_rows_to_10000_match_exact_oracle(self):
        table = scan_records(10**4)
        oracle = _oracle_records(10**4)
        assert [(r.n, r.t, r.scaled) for r in table.records] == oracle
        assert table.below_threshold == []

    def test_rows_to_100000_match_summed_twin(self):
        table = scan_records(10**5)
        records, below = _summed_rows(10**5)
        assert [(r.n, r.t) for r in table.records] == records == RECORDS_TO_100000
        assert [(r.n, r.t) for r in table.below_threshold] == below == []

    def test_pinned_bytes_at_a_million(self, tmp_path):
        # sha256 of the CSV and checkpoint that `scan --n-max 1000000` wrote
        # with the window screen this screen replaced
        csv, ck = tmp_path / "scan.csv", tmp_path / "scan.ckpt"
        assert cli.main(["scan", "--n-max", "1000000", "--checkpoint", str(ck), "--output", str(csv)]) == 0
        digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in (csv, ck)]
        assert digests == [
            "80bb937314e3196dbfcc3afa0f02e800183ce52e665d211c901890f9062c24f0",
            "d2598824aced3b5d810e51e346bf8b5b243eed8712484675420241614bd73094",
        ]

    def test_exactness_of_rows(self):
        table = scan_records(300)
        for row in table.records:
            s = exact_sum(row.n, row.t)
            assert s - 1 == row.overshoot
            assert s - Fraction(1, row.t) < 1 <= s

    def test_rows_match_connection_reports(self, monkeypatch):
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 4096)
        table = scan_records(30000)
        assert [(r.n, r.t) for r in table.records] == RECORDS_TO_100000
        for row in table.records:
            rep = ConnectionReport.build(row.n, row.t)
            assert (row.d, row.reduced_p, row.reduced_q, row.is_convergent) == (
                rep.d, rep.reduced_p, rep.reduced_q, rep.is_convergent
            )
            # and independently of both: gcd reduction and Euclid's expansion
            d = math.gcd(2 * row.t + 1, 2 * row.n - 1)
            assert (row.d, row.reduced_p, row.reduced_q) == (d, (2 * row.t + 1) // d, (2 * row.n - 1) // d)
            assert row.is_convergent == convergent_by_euclid(row.reduced_p, row.reduced_q)

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_records(1)

    def test_minimal_horizon(self):
        table = scan_records(2)
        assert [(r.n, r.t) for r in table.records] == [(2, 4)]

    def test_thread_invariance_bytes(self, monkeypatch):
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 4096)
        t1 = scan_records(20000, threads=1)
        t4 = scan_records(20000, threads=4)
        a = "\n".join(t1.csv_lines())
        b = "\n".join(t4.csv_lines())
        assert a == b
        assert json.dumps(t1.json_obj(), sort_keys=True) == json.dumps(
            t4.json_obj(), sort_keys=True
        )

    def test_block_size_invariance(self, monkeypatch):
        t_big = scan_records(9000)
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 1024)
        t_small = scan_records(9000)
        assert t_small.csv_lines() == t_big.csv_lines()

    def test_no_exact_hits_small(self):
        table = scan_records(3000)
        assert table.exact_hits == []

    def test_below_threshold_empty_small(self):
        # tau ~ 0.00996: no scanned n under 1e5 falls below it
        table = scan_records(2000)
        assert table.below_threshold == []

    def test_profile_decreasing_records(self):
        table = scan_records(1000)
        prof = table.profile(Fraction(1, 10))
        assert len(prof) == len(table.records)


    def test_confirms_only_emitted_records(self, monkeypatch):
        confirm = scan._confirm_exact
        confirmed = []

        def spy(n, t_screen):
            confirmed.append(n)
            return confirm(n, t_screen)

        monkeypatch.setattr(scan, "_confirm_exact", spy)
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 1024)
        table = scan_records(20000)
        assert confirmed == [r.n for r in table.records]


def _scaled_gap(n: int) -> Fraction:
    """n (ceil z - z) for z = e n - (1+e)/2, from mpmath's e at 60 digits."""
    with mpmath.workdps(60):
        z = mpmath.e * n - (1 + mpmath.e) / 2
        return Fraction(mpmath.nstr(n * (mpmath.ceil(z) - z), 40))


class TestScreen:
    """The fixed-point screen: its certificate, its flags and their certification."""

    def test_certificate_holds_at_the_chosen_constants(self):
        h = Ball.from_endpoints(Fraction(0), Fraction(1, _screen.N0), 96)
        assert scaled_overshoot(0, h, 64).hi.cmp_fraction(Fraction(0)) < 0
        assert scaled_overshoot(_screen.Y, h, 64).lo.cmp_fraction(Fraction(1, 3)) >= 0
        assert _screen.certificate()

    @pytest.mark.parametrize("n0", [_screen.N0, 10**9])
    def test_certificate_fails_at_y_1(self, n0):
        # 1/e - (1 - e^-2)/24 < 1/3, already at h = 0
        h = Ball.from_endpoints(Fraction(0), Fraction(1, n0), 96)
        assert scaled_overshoot(1, h, 64).lo.cmp_fraction(Fraction(1, 3)) < 0

    def test_ceil_z(self):
        with mpmath.workdps(60):
            for n in (64, 65, 1000, 27134, 15586535, 2**40 + 7, 10**15 + 3):
                z = mpmath.e * n - (1 + mpmath.e) / 2
                assert _screen.ceil_z(n) == int(mpmath.ceil(z))

    def test_starts_at_n0(self):
        with pytest.raises(ValueError):
            _screen.screen_block(_screen.N0 - 1, 1000)

    def test_flags_every_n_below_y(self, monkeypatch):
        monkeypatch.setattr(_screen, "HAVE_COMPILED", False)
        flags = set(_screen.screen_block(_screen.N0, 30000))
        must = {n for n in range(_screen.N0, 30000) if _scaled_gap(n) < _screen.Y}
        # and no flag is far from it: stretches keep the threshold within 9/8
        assert all(_scaled_gap(n) < 2 * _screen.Y for n in flags)
        assert must <= flags and len(must) >= 5

    def test_unflagged_rows_are_above_a_third(self):
        # every n the block does not flag has n^2 eps >= 1/3; every flag has t = t(n)
        # and a lower bound, or the bound 0 where its sign was undecided
        by_n = {n: (t, kind, lo) for n, t, kind, lo in scan.screen_block(2, 3000)[0]}
        for rec in iter_crossings(2, 2999):
            if rec.n not in by_n:
                assert rec.scaled >= Fraction(1, 3), rec.n
                continue
            t, kind, lo = by_n[rec.n]
            assert kind & scan.KIND_RECORD and lo <= rec.scaled
            assert t == rec.t or lo == 0

    def test_flag_with_s_below_1_at_ceil_z_is_dropped(self):
        # the fixed-point screen passes n = 9045, but S(n, ceil z) < 1 there:
        # t(n) = ceil z + 1, so y >= n and n^2 eps is far above 1/3
        flags, screened = scan.screen_block(9000, 9100)
        assert (flags, screened) == ([], 1)
        rec = crossing(9045)
        assert rec.t == _screen.ceil_z(9045) + 1 and rec.scaled >= Fraction(1, 3)

    def test_undecided_signs_are_confirmed_exactly(self, monkeypatch):
        # a ball that never decides its sign turns every flag from N0 on into
        # an ambiguous one, which the merge confirms in exact rationals
        expected = scan_records(30000).csv_lines()
        monkeypatch.setattr(scan, "scaled_overshoot", lambda y, h, w: Ball.from_endpoints(-1, 1, 64))
        flags = scan.screen_block(_screen.N0, 30000)[0]
        assert flags and all(kind == scan.KIND_RECORD | scan.KIND_TAU and lo == 0 for _, _, kind, lo in flags)
        assert scan_records(30000).csv_lines() == expected


class TestScreenBound:
    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(2, 20000), length=st.integers(1, 3000))
    def test_flag_bounds_are_certified(self, lo, length):
        for n, t, kind, scaled_lo in scan.screen_block(lo, lo + length)[0]:
            rec = crossing(n)
            assert scaled_lo <= rec.scaled
            assert t == rec.t or scaled_lo == 0
            if n > 10 and rec.scaled * n < scan.quality_threshold(128).lo.as_fraction() * (n - 10):
                assert kind & scan.KIND_TAU


class TestCheckpoints:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 1024)

    def test_resume_identical(self, tmp_path, monkeypatch):
        ck, direct_ck = tmp_path / "scan.ckpt", tmp_path / "direct.ckpt"
        screen = scan._run_screen

        def interrupted_at_3074(args):
            if args[0] == 3074:
                raise KeyboardInterrupt
            return screen(args)

        with monkeypatch.context() as patch:
            patch.setattr(scan, "_run_screen", interrupted_at_3074)
            with pytest.raises(KeyboardInterrupt):
                scan_records(5000, checkpoint_path=str(ck))
        # the cursor is mid-scan, after the records at 2, 8, 29 and 107
        assert scan._load_checkpoint(str(ck), 5000)["next_start"] == 3074
        resumed = scan_records(5000, checkpoint_path=str(ck))
        direct = scan_records(5000, checkpoint_path=str(direct_ck))
        assert resumed.csv_lines() == direct.csv_lines()
        assert ck.read_bytes() == direct_ck.read_bytes()

    def test_parallel_checkpoints_match_serial(self, tmp_path, monkeypatch):
        ck1, ck2 = tmp_path / "serial.ckpt", tmp_path / "parallel.ckpt"
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 4096)
        t1 = scan_records(20000, threads=1, checkpoint_path=str(ck1))
        t2 = scan_records(20000, threads=2, checkpoint_path=str(ck2))
        assert t1.csv_lines() == t2.csv_lines()
        assert ck1.read_bytes() == ck2.read_bytes()

    def test_failed_save_keeps_previous(self, tmp_path, monkeypatch):
        ck = tmp_path / "scan.ckpt"
        real_open = open
        writes = []

        class Torn:
            """A file whose write stops halfway with an I/O error."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        def open_tearing_third_save(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            if "w" in mode:
                writes.append(path)
                if len(writes) == 3:
                    return Torn(fh)
            return fh

        with monkeypatch.context() as patch:
            patch.setattr(scan, "open", open_tearing_third_save, raising=False)
            with pytest.raises(OSError, match="disk full"):
                scan_records(5000, checkpoint_path=str(ck))
        # blocks end at 1026, 2050, 3074, ...: the second save survives
        assert scan._load_checkpoint(str(ck), 5000)["next_start"] == 2050
        assert [p.name for p in tmp_path.iterdir()] == ["scan.ckpt"]
        resumed = scan_records(5000, checkpoint_path=str(ck))
        assert "\n".join(resumed.csv_lines()) == "\n".join(scan_records(5000).csv_lines())

    def test_partial_then_longer_refused(self, tmp_path):
        ck = str(tmp_path / "scan.ckpt")
        scan_records(4000, checkpoint_path=ck)
        with pytest.raises(CheckpointError):
            scan_records(8000, checkpoint_path=ck)

    def test_corrupt_refused(self, tmp_path):
        ck = tmp_path / "scan.ckpt"
        scan_records(4000, checkpoint_path=str(ck))
        body = ck.read_text()
        ck.write_text(body.replace('"next_start": 4001', '"next_start": 3001'))
        with pytest.raises(CheckpointError):
            scan_records(4000, checkpoint_path=str(ck))

    def test_garbage_refused(self, tmp_path):
        ck = tmp_path / "scan.ckpt"
        ck.write_text("{not json")
        with pytest.raises(CheckpointError):
            scan_records(4000, checkpoint_path=str(ck))


OUT_OF_RANGE = [(0, 10, 0, 0, 0), (-1, 10, 0, 0, 0), (2, 10, 1 << 128, 0, 0), (2, 10, 0, -1, 0), (2, 10, 0, 0, 1 << 128)]
OUT_OF_RANGE_IDS = ["n_start=0", "n_start=-1", "frac=2^128", "step<0", "cut=2^128"]
# the window kernel's (n_start, n_end, frac_bits, tau[, window]) calls, named
# for what was out of range in them: none has an int cut, so neither kernel
# may read one as (n_start, n_end, frac, step, cut)
WINDOW_ARGS = [(2, 100, 127, 0), (2, (1 << 31) + 1, 126, 0), (2, 100, 126, 1 << 96)] + [
    (100, 200, 126, 0, window) for window in [(98, 0), (99, 1 << 127), (-5, 0), (99, -1), (109, (1 << 126) - 10), [99, 0]]
]
WINDOW_IDS = ["frac_bits=127", "n_end=2^31+1", "tau=2^96"] + [
    f"window:{name}" for name in ["t<n_start-1", "acc>=2^127", "t<0", "acc<0", "acc+cnt=one", "list"]
]


def _kernel_args(lo: int, hi: int, y: Fraction = _screen.Y) -> tuple:
    """The arguments _screen.screen_block hands a kernel for a block [lo, hi)
    short enough to be one stretch."""
    bound = -(-(y.numerator << 128) // (y.denominator * lo)) + (hi - lo)
    return lo, hi, _screen._fixed(2 * lo - 1, -1) % (1 << 128), _screen._step(), (1 << 128) - bound


class TestKernelCrossValidation:
    """The C kernel (built by the `screen_c` fixture) against the pure one."""

    def test_compiled_matches_pure(self, screen_c, monkeypatch):
        monkeypatch.setattr(_screen, "_screen_c", screen_c)
        runs = {}
        for compiled in (True, False):
            monkeypatch.setattr(_screen, "HAVE_COMPILED", compiled)
            runs[compiled] = _screen.screen_block(_screen.N0, 50001)
        assert runs[True] == runs[False] == [68, 107, 178, 572, 1037, 8044, 9045, 17589, 27134, 45223]

    @pytest.mark.parametrize(
        "lo, length, y",
        [
            (_screen.N0, 20000, Fraction(16)),
            ((1 << 31) - 3000, 3000, Fraction(1 << 27)),
            ((1 << 40) + 12345, 3000, Fraction(1 << 36)),
        ],
        ids=["from-n0", "ending-at-2^31", "near-2^40"],
    )
    def test_real_blocks(self, screen_c, monkeypatch, lo, length, y):
        # a y far above Y makes flags common enough to compare; the flags
        # must still hold every n with n (ceil z - z) < y
        monkeypatch.setattr(_screen, "Y", y)
        monkeypatch.setattr(_screen, "_screen_c", screen_c)
        runs = {}
        for compiled in (True, False):
            monkeypatch.setattr(_screen, "HAVE_COMPILED", compiled)
            runs[compiled] = _screen.screen_block(lo, lo + length)
        assert runs[True] == runs[False]
        must = [n for n in range(lo, lo + length) if _scaled_gap(n) < y]
        assert set(must) <= set(runs[True]) and len(must) > 10

    def test_random_windows(self, screen_c):
        # random blocks, and arguments at the ends of their ranges
        rng = random.Random(31)
        top = (1 << 128) - 1
        for _ in range(60):
            lo = rng.choice([1, rng.randrange(1, 1 << 31), rng.randrange(1, 1 << 62)])
            args = (lo, lo + rng.randrange(2000), rng.randrange(1 << 128), rng.randrange(1 << 128), rng.randrange(1 << 128))
            assert screen_c.screen_block(*args) == _screen_py.screen_block(*args)
        edge = (1 << 63) - 1000
        for args in [(5, 900, top, top, top), (5, 900, 0, 1, 0), (5, 900, top, 1, 0), (edge, edge + 999, 0, top // 7, 1 << 127)]:
            assert screen_c.screen_block(*args) == _screen_py.screen_block(*args)

    @settings(max_examples=80, deadline=None)
    @given(lo=st.integers(1, 1 << 40), length=st.integers(0, 400), data=st.data())
    def test_windows_property(self, screen_c, lo, length, data):
        u128 = st.integers(0, (1 << 128) - 1)
        args = (lo, lo + length, data.draw(u128), data.draw(u128), data.draw(u128))
        assert screen_c.screen_block(*args) == _screen_py.screen_block(*args)

    def test_low_resolution_windows(self, screen_c):
        # frac, step and cut cut down to their top fb bits, so that F meets cut
        # exactly now and then and the edge of the comparison shows; at fb = 0
        # all three are 0 and every n is flagged
        ties = 0
        for n in (2, 10, 11, 107, 1000, 27134):
            for fb in (0, 8, 16, 24, 32):
                drop = 128 - fb
                for hi in (n + 1, n + 64):
                    frac, step, cut = (v >> drop << drop for v in _kernel_args(n, hi)[2:])
                    result = screen_c.screen_block(n, hi, frac, step, cut)
                    assert result == _screen_py.screen_block(n, hi, frac, step, cut)
                    if fb == 0:
                        assert result == (list(range(n, hi)), 0)
                    ties += fb > 0 and any((frac + k * step) % (1 << 128) == cut for k in range(hi - n))
        assert ties

    @pytest.mark.parametrize("n", [11, 107, 1000, 27134])
    def test_threshold_edge(self, screen_c, n):
        # a one-n block is flagged exactly when F >= cut, at the edge of cut
        _, _, frac, step, cut = _kernel_args(n, n + 1)
        for c in (0, frac - 1, frac, frac + 1, cut, (1 << 128) - 1):
            if 0 <= c < 1 << 128:
                result = screen_c.screen_block(n, n + 1, frac, step, c)
                assert result == _screen_py.screen_block(n, n + 1, frac, step, c)
                assert result[0] == ([n] if frac >= c else [])

    @pytest.mark.parametrize(
        "args, c_error, py_error",
        [(args, (ValueError, OverflowError), ValueError) for args in OUT_OF_RANGE]
        + [(args, TypeError, TypeError) for args in WINDOW_ARGS],
        ids=OUT_OF_RANGE_IDS + WINDOW_IDS,
    )
    def test_out_of_range_raises(self, screen_c, args, c_error, py_error):
        with pytest.raises(c_error):
            screen_c.screen_block(*args)
        with pytest.raises(py_error):
            _screen_py.screen_block(*args)

    def test_past_2_63_raises(self, screen_c):
        with pytest.raises(OverflowError):
            screen_c.screen_block(2, 1 << 63, 0, 0, 0)

    def test_selector_sends_out_of_range_blocks_to_pure(self, screen_c, monkeypatch):
        # the C kernel's n is a signed 64-bit integer, so a stretch that
        # reaches 2^63 goes to the pure twin; a y far above Y makes flags
        # common enough to check that each block still holds every n with
        # n (ceil z - z) < y
        _screen._step()  # the certificate, at the real Y
        y = Fraction(1 << 59)
        monkeypatch.setattr(_screen, "Y", y)
        ran = []

        def spy(name, kernel):
            class Spy:
                @staticmethod
                def screen_block(*args):
                    ran.append(name)
                    return kernel.screen_block(*args)

            return Spy

        monkeypatch.setattr(_screen, "HAVE_COMPILED", True)
        monkeypatch.setattr(_screen, "_screen_c", spy("compiled", screen_c))
        monkeypatch.setattr(_screen, "_screen_py", spy("pure", _screen_py))
        top = 1 << 63
        for hi in (top - 1, top + 900):
            flags = _screen.screen_block(top - 900, hi)
            must = [n for n in range(top - 900, hi) if _scaled_gap(n) < y]
            assert set(must) <= set(flags) and len(must) > 10
        assert ran == ["compiled", "pure"]

    @pytest.mark.parametrize(
        "n_max, kernel", [((1 << 31) - 1, "compiled"), (1 << 31, "compiled"), (1 << 31, "pure-python")]
    )
    def test_kernel_field_names_the_kernel_that_ran(self, monkeypatch, n_max, kernel):
        # stub kernels flag nothing, so a scan to 2^31 takes milliseconds; the
        # compiled kernel has no cap at 2^31 any more, and the pure one runs
        # where the compiled one does not import
        ran = []

        def stub(name):
            class Stub:
                @staticmethod
                def screen_block(n_start, n_end, frac, step, cut):
                    ran.append((name, n_end))
                    return [], frac

            return Stub

        monkeypatch.setattr(_screen, "HAVE_COMPILED", kernel == "compiled")
        monkeypatch.setattr(_screen, "_screen_c", stub("compiled"))
        monkeypatch.setattr(_screen, "_screen_py", stub("pure-python"))
        assert scan_records(n_max).kernel == kernel == _screen.kernel_name()
        assert {name for name, _ in ran} == {kernel}
        assert max(end for _, end in ran) == n_max + 1


@pytest.fixture(scope="module", params=["pure-python", "compiled"])
def kernel(request):
    return _screen_py if request.param == "pure-python" else request.getfixturevalue("screen_c")


class TestCarriedWindow:
    """The walk carried across a split point is one walk, and a block's own
    start from e lies within the block's error margin of the walk carried
    from the block before: F is at most hi - lo + 1 units below the truth."""

    @pytest.mark.parametrize("n_max", [10**5, 10**6])
    def test_scan_blocks_match_rebuilds(self, kernel, n_max):
        # at 10^6 the spans grow to lo // 8 past the fixed block size
        blocks = list(scan._screen_args(n_max, 2))
        assert len(blocks) == (2 if n_max == 10**5 else 14)
        step = _screen._step()
        for lo, hi in blocks:
            lo = max(lo, _screen.N0)  # the screen's part of the first block
            _, _, frac, _, cut = _kernel_args(lo, hi)
            _, carried = kernel.screen_block(lo, hi, frac, step, cut)
            rebuilt = _screen._fixed(2 * hi - 1, -1) % (1 << 128)
            assert 0 <= (rebuilt - carried) % (1 << 128) <= hi - lo

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.integers(1, 1 << 40),
        first=st.integers(0, 300),
        second=st.integers(0, 300),
        data=st.data(),
    )
    def test_split_points(self, kernel, lo, first, second, data):
        mid, hi = lo + first, lo + first + second
        u128 = st.integers(0, (1 << 128) - 1)
        frac, step, cut = data.draw(u128), data.draw(u128), data.draw(u128)
        whole = kernel.screen_block(lo, hi, frac, step, cut)
        head = kernel.screen_block(lo, mid, frac, step, cut)
        tail = kernel.screen_block(mid, hi, head[1], step, cut)
        assert (head[0] + tail[0], tail[1]) == whole
