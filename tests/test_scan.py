"""Record scan: exactness, determinism, checkpoints, connection reports."""

import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap import _screen, _screen_py, scan
from harmonicgap.errors import CheckpointError
from harmonicgap.harmonic import crossing, exact_sum, iter_crossings
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


class TestScreenBound:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.integers(2, 6000),
        length=st.integers(1, 120),
        coarse=st.integers(0, 30),
        tau_bits=st.integers(0, 52),
    )
    def test_flag_bounds_are_certified(self, lo, length, coarse, tau_bits):
        # coarse < frac_bits_for lowers the resolution so ambiguous
        # crossings (scaled_lo = 0) occur too
        fb = max(40, scan.frac_bits_for(lo + length) - coarse)
        tau = 1 << max(0, fb - 32 - 40 + tau_bits)
        flags = _screen_py.screen_block(lo, lo + length, fb, tau)[0]
        for n, t, _kind, scaled_lo in flags:
            rec = crossing(n)
            assert Fraction(scaled_lo, 1 << (fb - 32)) <= rec.scaled
            if scaled_lo > 0:
                assert t == rec.t


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


# windows a block from n = 100 at frac_bits 126 must refuse: t below n - 1,
# acc of 2^127 or more, negative values, acc + cnt = 2^frac_bits
BAD_WINDOWS = [(98, 0), (99, 1 << 127), (-5, 0), (99, -1), (109, (1 << 126) - 10)]
BAD_WINDOW_IDS = ["t<n_start-1", "acc>=2^127", "t<0", "acc<0", "acc+cnt=one"]
N_TOP = (1 << 31) - 64
ONE_126 = 1 << 126


class TestKernelCrossValidation:
    """The C kernel (built by the `screen_c` fixture) against the pure one."""

    def test_compiled_matches_pure(self, screen_c):
        fb = _screen.frac_bits_for(50000)
        tau = 1 << (fb - 39)
        c = screen_c.screen_block(2, 50001, fb, tau)
        p = _screen_py.screen_block(2, 50001, fb, tau)
        assert c == p

    def test_random_windows(self, screen_c):
        import random

        rng = random.Random(42)
        for _ in range(8):
            lo = rng.randint(2, 200000)
            hi = lo + rng.randint(1, 5000)
            fb = _screen.frac_bits_for(hi)
            tau = rng.randint(0, 1 << (fb - 32))
            assert screen_c.screen_block(lo, hi, fb, tau) == _screen_py.screen_block(
                lo, hi, fb, tau
            )

    @settings(max_examples=80, deadline=None)
    @given(
        lo=st.integers(1, 60000),
        length=st.integers(0, 400),
        fb=st.integers(40, 126),
        data=st.data(),
    )
    @example(lo=1, length=400, fb=126, data=None)
    def test_windows_property(self, screen_c, lo, length, fb, data):
        # the example is the top of the range: fb = 126 and tau = 2^(fb - 32)
        cap = 1 << (fb - 32)
        tau = cap if data is None else data.draw(st.integers(0, cap))
        assert screen_c.screen_block(lo, lo + length, fb, tau) == _screen_py.screen_block(
            lo, lo + length, fb, tau
        )

    def test_low_resolution_windows(self, screen_c):
        # at low frac_bits most crossings are ambiguous (acc < 2^fb <= acc + cnt);
        # in a one-n window m_run is that n's upper bound, so a changed bound shows
        for n in (2, 10, 11, 107, 1000, 27134):
            for fb in (0, 8, 16, 24, 32):
                for hi in (n + 1, n + 64):
                    assert screen_c.screen_block(n, hi, fb, 0) == _screen_py.screen_block(n, hi, fb, 0)

    @pytest.mark.parametrize("n", [11, 107, 1000, 27134])
    def test_threshold_edge(self, screen_c, n):
        fb = scan.frac_bits_for(n)
        [(_, _, _, lo)] = _screen_py.screen_block(n, n + 1, fb, 0)[0]
        assert lo > 1
        edge = -(-(lo - 1) * n // (n - 10))  # tau * (n - 10) // n + 1 == lo
        for tau in (0, lo - 1, lo, edge - 1, edge, edge + 1):
            c = screen_c.screen_block(n, n + 1, fb, tau)
            assert c == _screen_py.screen_block(n, n + 1, fb, tau)
            # the division-free test is the division form it replaced
            [(_, _, kind, _)] = c[0]
            assert bool(kind & _screen.KIND_TAU) == (lo < tau * (n - 10) // n + 1)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 100, 127, 0),
            (2, (1 << 31) + 1, 126, 0),
            (2, 100, 126, 1 << 96),
            (0, 100, 126, 0),
            (-1, 100, 126, 0),
        ]
        + [(100, 200, 126, 0, window) for window in BAD_WINDOWS + [[99, 0]]],
        ids=["frac_bits=127", "n_end=2^31+1", "tau=2^96", "n_start=0", "n_start=-1"]
        + [f"window:{name}" for name in BAD_WINDOW_IDS + ["list"]],
    )
    def test_out_of_range_raises(self, screen_c, args):
        with pytest.raises((ValueError, OverflowError, TypeError)):
            screen_c.screen_block(*args)

    @pytest.mark.parametrize(
        "window",
        [(N_TOP - 1, ONE_126 - 1), (N_TOP - 1, ONE_126 - ONE_126 // N_TOP + (1 << 66)), (3 * N_TOP, ONE_126 - 2 * N_TOP - 2)],
        ids=["t=n-1,acc=one-1", "scaled_lo~2^96", "t=3n"],
    )
    @pytest.mark.parametrize("tau", [0, 1 << 90, (1 << 96) - 1])
    def test_block_ending_at_2_31(self, screen_c, window, tau):
        # synthetic windows just below the crossing: every scaled bound is
        # near n * 2^94, or near 2^96 where the connection products reach 2^127
        args = (N_TOP, 1 << 31, 126, tau, window)
        c = screen_c.screen_block(*args)
        assert c == _screen_py.screen_block(*args)
        assert c[0] and c[2] > N_TOP

    def test_selector_sends_out_of_range_blocks_to_pure(self, monkeypatch):
        # stubs stand in for both kernels, so nothing near 2^31 is screened
        calls = []

        class StubC:
            @staticmethod
            def screen_block(*args):
                calls.append(("compiled", args))
                return [], 0, 0, 0

        monkeypatch.setattr(_screen, "HAVE_COMPILED", True)
        monkeypatch.setattr(_screen, "_screen_c", StubC)
        monkeypatch.setattr(_screen, "_last_window", None)
        monkeypatch.setattr(_screen_py, "screen_block", lambda *args: calls.append(("pure", args)) or ([], 0, 0, 0))
        edge = 1 << 31
        for args in [(2, 100, 126, 0), (2, 100, 127, 0), (edge - 1, edge, 126, 0), (edge, edge + 1, 126, 0)]:
            _screen.screen_block(*args)
        assert [kind for kind, _ in calls] == ["compiled", "pure", "compiled", "pure"]

    @pytest.mark.parametrize("n_max, kernel", [((1 << 31) - 1, "compiled"), (1 << 31, "pure-python")])
    def test_kernel_field_names_the_kernel_that_ran(self, monkeypatch, n_max, kernel):
        # stub kernels flag nothing, so a scan to 2^31 takes milliseconds
        ran = []

        class StubC:
            @staticmethod
            def screen_block(*args):
                ran.append("compiled")
                return [], 0, 0, 0

        monkeypatch.setattr(_screen, "HAVE_COMPILED", True)
        monkeypatch.setattr(_screen, "_screen_c", StubC)
        monkeypatch.setattr(_screen, "_last_window", None)
        monkeypatch.setattr(_screen_py, "screen_block", lambda *args: ran.append("pure-python") or ([], 0, 0, 0))
        assert scan_records(n_max).kernel == kernel
        assert set(ran) == {kernel}
        assert _screen.kernel_name() == "compiled"


@pytest.fixture(scope="module", params=["pure-python", "compiled"])
def kernel(request):
    return _screen_py if request.param == "pure-python" else request.getfixturevalue("screen_c")


class TestCarriedWindow:
    """A block started from the window the previous block returned screens
    exactly as one that rebuilds its window."""

    @pytest.mark.parametrize("n_max", [10**5, 10**6])
    def test_scan_blocks_match_rebuilds(self, kernel, n_max):
        # at 10^6 the spans grow to lo // 8 past the fixed block size
        fb = scan.frac_bits_for(n_max)
        args = list(scan._screen_args(n_max, 2, fb, scan._tau_fp_bound(fb)))
        window = None
        for block in args:
            carried = kernel.screen_block(*block, window)
            assert carried == kernel.screen_block(*block)
            window = carried[2:]
        assert len(args) == (2 if n_max == 10**5 else 14)

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.integers(1, 50000),
        first=st.integers(0, 300),
        second=st.integers(0, 300),
        fb=st.integers(0, 126),
        tau_bits=st.integers(0, 96),
    )
    def test_split_points(self, kernel, lo, first, second, fb, tau_bits):
        mid, hi = lo + first, lo + first + second
        tau = (1 << tau_bits) - 1
        whole = kernel.screen_block(lo, hi, fb, tau)
        head = kernel.screen_block(lo, mid, fb, tau)
        tail = kernel.screen_block(mid, hi, fb, tau, head[2:])
        # (an empty block returns the window it was given, so compare windows with whole)
        assert tail[:2] == kernel.screen_block(mid, hi, fb, tau)[:2]
        assert tail[2:] == whole[2:]
        # m_run restarts with each block, so only the connection flags carry over
        def tau_flags(flags):
            return [(n, t, scaled_lo) for n, t, kind, scaled_lo in flags if kind & _screen.KIND_TAU]

        assert tau_flags(head[0] + tail[0]) == tau_flags(whole[0])

    @pytest.mark.parametrize("window", BAD_WINDOWS, ids=BAD_WINDOW_IDS)
    def test_pure_refuses_bad_windows(self, window):
        with pytest.raises(ValueError):
            _screen_py.screen_block(100, 200, 126, 0, window)

    def test_selector_carries_only_from_where_the_last_block_ended(self, monkeypatch):
        passed = []
        pure = _screen_py.screen_block

        def spy(*args):
            passed.append(args[4])
            return pure(*args)

        monkeypatch.setattr(_screen, "HAVE_COMPILED", False)
        monkeypatch.setattr(_screen, "_last_window", None)
        monkeypatch.setattr(_screen_py, "screen_block", spy)
        for block in [(2, 500, 80), (500, 900, 80), (1000, 1200, 80), (1200, 1300, 90), (1300, 1400, 90)]:
            _screen.screen_block(*block, 0)
        after_500, after_1300 = pure(2, 500, 80, 0)[2:], pure(1200, 1300, 90, 0)[2:]
        assert passed == [None, after_500, None, None, after_1300]
        assert _screen._last_window == ((1400, 90), pure(1200, 1400, 90, 0)[2:])
