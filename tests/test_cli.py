"""Command-line surface: flags, exit codes, output contracts."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from harmonicgap import construct, counting, scan
from harmonicgap._pool import ordered_map
from harmonicgap.cli import build_parser, main
from harmonicgap.harmonic import exact_sum

from conftest import int_str_limit


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# stand-ins for pool workers live at module level: a pool sends functions by name
_run_screen = scan._run_screen
_joint_one_k = construct._joint_one_k
SMALL_BLOCK = 1024  # the scan's block size in the tests that stop a scan mid-way
DYING_BLOCK = 8194  # the ninth block at SMALL_BLOCK


def _screen_dying_at_block(args):
    if args[0] == DYING_BLOCK:
        time.sleep(0.5)  # lets the other worker finish the block before this one
        os._exit(1)
    return _run_screen(args)


def _joint_dying_at_k4(args):
    if args[0] == 4:
        os._exit(1)
    return _joint_one_k(args)


def _ignores_sigint(_):
    return signal.getsignal(signal.SIGINT) == signal.SIG_IGN


# a scan whose blocks take 0.5 s each, so that a signal lands mid-scan
SLOW_SCAN = """
import signal, sys, time
from harmonicgap import cli, scan

run_screen = scan._run_screen

def slow_screen(args):
    time.sleep(0.5)
    return run_screen(args)

if __name__ == "__main__":
    # a process started with SIGINT ignored, as a background job of a
    # non-interactive shell is, passes that on to its children
    signal.signal(signal.SIGINT, signal.default_int_handler)
    scan._run_screen = slow_screen
    scan.DEFAULT_BLOCK_SIZE = int(sys.argv.pop(1))
    sys.exit(cli.main(sys.argv[1:]))
"""


class TestConvergents:
    def test_first_eight(self, capsys):
        code, out, _ = run(capsys, "convergents", "--count", "8")
        assert code == 0
        assert out.splitlines() == [
            "2/1", "3/1", "8/3", "11/4", "19/7", "87/32", "106/39", "193/71",
        ]

    def test_subsequence(self, capsys):
        code, out, _ = run(capsys, "convergents", "--subseq", "--k-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert "3/1" in lines[0] and "sign=-1" in lines[0]
        assert "19/7" in lines[1]
        assert "193/71" in lines[2]
        assert "2721/1001" in lines[3]

    def test_subsequence_walks_once(self, capsys, monkeypatch):
        # the listing walks e's expansion once, not once per entry
        from harmonicgap import contfrac

        walk, quotients = contfrac._walk, []

        def spy(quotient):
            quotients.append(quotient)
            return walk(quotient)

        monkeypatch.setattr(contfrac, "_walk", spy)
        code, out, _ = run(capsys, "convergents", "--subseq", "--k-max", "40", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 42
        assert sum(q is contfrac.e_partial_quotient for q in quotients) == 1

    def test_zero_count_exit_2(self, capsys):
        code, _, err = run(capsys, "convergents", "--count", "0")
        assert code == 2
        assert "invalid" in err.lower() or "count" in err.lower()

    def test_json_strings(self, capsys):
        code, out, _ = run(capsys, "convergents", "--count", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0] == {"i": 1, "a": 2, "p": "2", "q": "1"}


class TestConstruct:
    def test_k2(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "2")
        assert code == 0
        obj = json.loads(out)
        assert (obj["d"], obj["m"], obj["n"]) == (3, "289", "107")
        assert obj["bound_ok"] is True
        q_lo = Fraction(obj["quality"]["lo"])
        q_hi = Fraction(obj["quality"]["hi"])
        assert Fraction(8, 100) < q_lo < q_hi < Fraction(82, 1000)

    def test_k2_d1_negative(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "2", "--d", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["bound_ok"] is False
        assert Fraction(obj["overshoot"]["hi"]) < 0

    def test_odd_k_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--k", "3")
        assert code == 2

    def test_past_exact_cap_takes_ball_route(self, capsys):
        # m = 9,650,096 would be an exact sum of 6.1 million terms
        code, out, _ = run(capsys, "construct", "--k", "2", "--d", "100001")
        assert code == 0
        obj = json.loads(out)
        assert obj["m"] == "9650096" and obj["overshoot_exact"] is None
        # the largest exact pair of the k <= 60 joint search stays exact
        assert construct.pair_from(4, 7)[0] <= construct.EXACT_ROUTE_CAP

    def test_index_limit(self, capsys):
        # the offset and the overshoot come from the convergent's remainder
        # at a fixed precision, so the indices past 1904, where a pair offset
        # at about 3 log2(n) bits needs more than MAX_PREC, certify too
        for k in ("1904", "1906", "3000"):
            code, out, _ = run(capsys, "construct", "--k", k)
            assert code == 0 and json.loads(out)["bound_ok"] is True, k
            assert json.loads(out)["quality"]["prec"] == 224, k

    def test_window_mode(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "4", "--window", "3")
        assert code == 0
        obj = json.loads(out)
        ds = [p["d"] for p in obj["pairs"]]
        assert 3 in ds and 5 in ds

    def test_window_mode_k0(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "0", "--window", "3")
        assert code == 0
        obj = json.loads(out)
        assert [p["d"] for p in obj["pairs"]] == [1, 3]
        assert obj["skipped_undecidable"] == 0

    def test_joint_search_default_window(self, capsys):
        code, out, _ = run(capsys, "construct", "--k-max", "2")
        assert code == 0
        assert out == run(capsys, "construct", "--k-max", "2", "--window", "5")[1]
        assert json.loads(out)["window"] == 5

    def test_pinned_bytes(self, capsys):
        # sha256 of the stdout of `construct --k-max 60 --window 5` and of
        # `construct --k 100` as printed before the ball route's overshoot
        # moved from the (delta, n) form of the identity to scaled_overshoot
        digests = []
        for argv in (("--k-max", "60", "--window", "5"), ("--k", "100")):
            code, out, _ = run(capsys, "construct", *argv)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests == [
            "6ede01e4541bee0be57f5a5085194943f11bca1fb9c38bd412534d8c9817ab6c",
            "776f3d508e0910eb64e6eaa3a07605a7d48631186f2eb6c9a45bc346ecc65dc5",
        ]

    def test_window_mode_matches_joint_search(self, capsys):
        from harmonicgap.cli import _pair_obj
        from harmonicgap.construct import joint_search

        code, out, _ = run(capsys, "construct", "--k", "4", "--window", "3")
        assert code == 0
        pairs, _ = joint_search(4, window=3)
        assert json.loads(out)["pairs"] == [_pair_obj(p) for p in pairs if p.k == 4]


class TestScan:
    def test_csv_contract(self, capsys):
        code, out, _ = run(capsys, "scan", "--n-max", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "n,t,eps_num,eps_den,scaled_num,scaled_den,reduced_p,reduced_q,d,is_convergent"
        )
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "4"
        assert (first[2], first[3]) == ("1", "12")
        assert (first[4], first[5]) == ("1", "3")
        assert first[6:] == ["3", "1", "3", "true"]
        assert [line.split(",")[-1] for line in lines[2:]] == ["false", "false", "true"]

    def test_thread_invariance_bytes(self, capsys, monkeypatch):
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", 2048)
        code1, out1, _ = run(capsys, "scan", "--n-max", "4000", "--threads", "1")
        code8, out8, _ = run(capsys, "scan", "--n-max", "4000", "--threads", "8")
        assert code1 == code8 == 0
        assert out1 == out8

    def test_json_reproducible_without_timing(self, capsys):
        _, out1, _ = run(capsys, "scan", "--n-max", "500", "--format", "json")
        _, out2, _ = run(capsys, "scan", "--n-max", "500", "--format", "json")
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["wall_time_s"] is None
        assert obj["horizon"] == 500

    def test_json_timing(self, capsys):
        code, out, _ = run(capsys, "scan", "--n-max", "500", "--format", "json", "--timing")
        assert code == 0
        timed = json.loads(out)
        wall = timed.pop("wall_time_s")
        assert type(wall) is float and wall >= 0
        _, out, _ = run(capsys, "scan", "--n-max", "500", "--format", "json")
        plain = json.loads(out)
        assert plain.pop("wall_time_s") is None
        assert timed == plain

    def test_n_max_1_exit_2(self, capsys):
        code, _, _ = run(capsys, "scan", "--n-max", "1")
        assert code == 2

    def test_bad_checkpoint_exit_4(self, capsys, tmp_path):
        ck = tmp_path / "bad.ckpt"
        ck.write_text("garbage")
        code, _, err = run(capsys, "scan", "--n-max", "2000", "--checkpoint", str(ck))
        assert code == 4
        assert "checkpoint" in err.lower()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: {**p, "next_start": "x"},
            lambda p: {**p, "next_start": 0},
            lambda p: [p],
            lambda p: {**p, "records": [[1]]},
            lambda p: {**p, "records": [[2, 10**9]]},
            lambda p: {**p, "below_threshold": [[100, 270]]},
            lambda p: {**p, "below_threshold": [[100, 270]], "records": p["records"][1:]},
            lambda p: {**p, "records": [[n, t + 1 if n == 29 else t] for n, t in p["records"]]},
            lambda p: {**p, "records": [p["records"][1], p["records"][0], *p["records"][2:]]},
            lambda p: {**p, "exact_hits": [[2, 4]]},
            lambda p: {**p, "extra": 0},
        ],
        ids=[
            "next_start=x",
            "next_start=0",
            "list-payload",
            "records=[[1]]",
            "records-t-too-far",
            "below_threshold=[[100,270]]",
            "below_threshold=[[100,270]]-first-record-dropped",
            "records-wrong-t",
            "records-swapped",
            "exact_hits=[[2,4]]",
            "extra-key",
        ],
    )
    def test_malformed_checkpoint_exit_4(self, capsys, tmp_path, monkeypatch, edit):
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", SMALL_BLOCK)
        ck = tmp_path / "scan.ckpt"
        argv = ("scan", "--n-max", "5000", "--checkpoint", str(ck))
        assert run(capsys, *argv)[0] == 0
        payload = json.loads(ck.read_text())["payload"]
        scan._save_checkpoint(str(ck), edit(payload))  # re-hashed: passes the integrity check
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "checkpoint" in err.lower()

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "records.csv"
        code, out, _ = run(capsys, "scan", "--n-max", "200", "--output", str(dest))
        assert code == 0
        assert out == ""
        text = dest.read_text()
        assert text.startswith("n,t,")
        assert "\r" not in text

    def test_profile_delta(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--n-max", "150", "--format", "json", "--profile-delta", "0.1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["profile_delta"] == "1/10"
        assert len(obj["profile"]) == len(obj["records"])
        assert Fraction(obj["profile"][0]["lo"]) > 0


class TestWorkerFailures:
    """Worker death exits 5 and Ctrl-C exits 130; both keep the last complete checkpoint."""

    N_MAX = 12000
    SCAN = ("scan", "--n-max", str(N_MAX), "--threads", "2")

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(scan, "DEFAULT_BLOCK_SIZE", SMALL_BLOCK)

    def assert_resume_matches_uninterrupted(self, capfd, tmp_path, ck):
        direct_ck = tmp_path / "direct.ckpt"
        code, direct_out, _ = run(capfd, *self.SCAN, "--checkpoint", str(direct_ck))
        assert code == 0
        assert run(capfd, *self.SCAN, "--checkpoint", str(ck))[:2] == (0, direct_out)
        assert ck.read_bytes() == direct_ck.read_bytes()

    def test_scan_worker_death_exit_5(self, capfd, tmp_path, monkeypatch):
        ck = tmp_path / "scan.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(scan, "_run_screen", _screen_dying_at_block)
            code, out, err = run(capfd, *self.SCAN, "--checkpoint", str(ck))
        assert (code, out) == (5, "")
        assert "worker process died" in err and "Traceback" not in err
        assert scan._load_checkpoint(str(ck), self.N_MAX)["next_start"] == DYING_BLOCK
        self.assert_resume_matches_uninterrupted(capfd, tmp_path, ck)

    def test_construct_worker_death_exit_5(self, capfd, monkeypatch):
        monkeypatch.setattr(construct, "_joint_one_k", _joint_dying_at_k4)
        code, out, err = run(capfd, "construct", "--k-max", "6", "--threads", "2")
        assert (code, out) == (5, "")
        assert "worker process died" in err and "Traceback" not in err

    def test_pool_workers_ignore_sigint(self):
        # Ctrl-C signals the whole process group; only the parent may act on it.
        # The workers would inherit an ignored SIGINT from this process, so it
        # takes the default handler first: then only the pool's initializer
        # can make them ignore it
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with ordered_map(_ignores_sigint, [0, 1], 2) as results:
                assert list(results) == [True, True]
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_interrupt_exit_130(self, capfd, tmp_path):
        ck, script = tmp_path / "scan.ckpt", tmp_path / "slow_scan.py"
        script.write_text(SLOW_SCAN)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(SMALL_BLOCK), *self.SCAN, "--checkpoint", str(ck)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60
        while not ck.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does: the scan and its workers
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (130, "")
        assert "interrupted" in err and "Traceback" not in err
        assert scan._load_checkpoint(str(ck), self.N_MAX)["next_start"] <= self.N_MAX
        self.assert_resume_matches_uninterrupted(capfd, tmp_path, ck)


class TestCount:
    def test_example(self, capsys):
        code, out, _ = run(
            capsys, "count", "--p", "1", "--q", "2", "--delta", "0.3", "--n-max", "10"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 5
        assert obj["delta"] == "3/10"

    def test_delta_domain_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "count", "--p", "1", "--q", "2", "--delta", "0.5", "--n-max", "10"
        )
        assert code == 2

    def test_verify_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--p", "3", "--q", "101", "--delta", "1/9", "--n-max", "500",
            "--verify",
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_verify_disagreement_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "_count_by_fractions", lambda *args: (0, 0))
        code, out, err = run(
            capsys,
            "count", "--p", "3", "--q", "101", "--delta", "1/9", "--n-max", "500",
            "--verify",
        )
        assert code == 1
        assert err == "enumeration paths disagree: implementation bug\n"
        assert json.loads(out)["verified"] is False


class TestApprox:
    def test_includes_23_3(self, capsys):
        code, out, _ = run(
            capsys,
            "approx", "--alpha", "3-over-sinh1", "--exponent", "2.25",
            "--n-max", "100", "--n-mod", "1,2", "--m-mod", "3,4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verified_at_doubled_precision"] is True
        assert ("23", "3") in {(h["m"], h["n"]) for h in obj["hits"]}

    def test_rational_alpha(self, capsys):
        code, out, _ = run(
            capsys, "approx", "--alpha", "4", "--exponent", "2", "--n-max", "20"
        )
        assert code == 0
        obj = json.loads(out)
        assert ("16", "2") in {(h["m"], h["n"]) for h in obj["hits"]}

    def test_half_integer_targets_skipped(self, capsys):
        # alpha n^2 = n^2/2 is a half-integer at odd n, where no nearest m exists
        code, out, _ = run(capsys, "approx", "--alpha", "1/2", "--exponent", "2", "--n-max", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["skipped_undecidable"] == 4
        assert [(h["m"], h["n"]) for h in obj["hits"]] == [
            (str(n * n // 2), str(n)) for n in (2, 4, 6, 8, 10)
        ]

    def test_failed_recheck_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "verify_hit", lambda *args: False)
        code, out, err = run(
            capsys, "approx", "--alpha", "4", "--exponent", "2", "--n-max", "20"
        )
        assert code == 1
        assert err == "a hit failed its re-check: implementation bug\n"
        obj = json.loads(out)
        assert obj["verified_at_doubled_precision"] is False
        assert ("16", "2") in {(h["m"], h["n"]) for h in obj["hits"]}


class TestEt:
    def test_ten_trials(self, capsys):
        code, out, _ = run(capsys, "et", "--seed", "7", "--trials", "10")
        assert code == 0
        assert out.strip() == "10/10 hold"

    def test_reproducible(self, capsys):
        _, out1, _ = run(capsys, "et", "--seed", "3", "--trials", "5")
        _, out2, _ = run(capsys, "et", "--seed", "3", "--trials", "5")
        assert out1 == out2

    def test_smallest_bits(self, capsys, monkeypatch):
        # 8 bits is the smallest start whose cap, 4 x 8, reaches the 32-bit minimum
        monkeypatch.setattr(counting, "WEYL_BITS", 8)
        code, out, _ = run(capsys, "et", "--seed", "1", "--trials", "2")
        assert code == 0
        assert out.strip() == "2/2 hold"

    def test_failed_inequality_exit_1(self, capsys, monkeypatch):
        check = counting.erdos_turan_check
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(None)
            return dataclasses.replace(check(*args, **kwargs), holds=len(calls) != 2)

        monkeypatch.setattr(counting, "erdos_turan_check", second_fails)
        code, out, err = run(capsys, "et", "--seed", "7", "--trials", "3")
        assert code == 1
        assert err == "the inequality failed in 1 of 3 trials: implementation bug\n"
        assert out == "2/3 hold\n"


class TestUsageErrors:
    COUNT = ("count", "--p", "1", "--q", "2", "--delta", "0.3")

    @pytest.mark.parametrize(
        "argv",
        [
            ("approx", "--alpha", "x", "--exponent", "2", "--n-max", "10"),
            (*COUNT, "--n-max", "0"),
            (*COUNT, "--n-max", "-5"),
            ("et", "--seed", "1", "--trials", "-1"),
            ("construct", "--k", "2", "--window", "-1"),
            ("construct", "--k-max", "4", "--window", "-1"),
            ("construct", "--k-max", "4", "--threads", "0"),
            ("construct", "--k", "4", "--window", "3", "--d", "7"),
            ("construct", "--k-max", "4", "--d", "7"),
            ("construct", "--k", "4", "--k-max", "4"),
            ("convergents", "--subseq", "--k-max", "3", "--precision", "5"),
            ("convergents", "--subseq", "--k-max", "3", "--precision", "-5"),
            ("construct", "--k", "4", "--threads", "0"),
            ("construct", "--k", "4", "--threads", "2"),
            ("construct", "--k", "4", "--window", "3", "--threads", "2"),
            ("convergents", "--count", "3", "--subseq", "--k-max", "1"),
            ("convergents", "--count", "3", "--k-max", "5"),
            ("convergents", "--count", "3", "--precision", "5"),
            ("scan", "--n-max", "100", "--timing"),
            ("scan", "--n-max", "100", "--profile-delta", "1/10"),
            (*COUNT, "--n-max", "10", "--eta", "0"),
            (*COUNT, "--n-max", "10", "--eta", "-1"),
            (*COUNT, "--n-max", "10", "--multiplier", "-1"),
            (*COUNT, "--n-max", "10", "--multiplier", "0"),
        ],
        ids=" ".join,
    )
    def test_bad_value_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("invalid arguments: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("approx", "--alpha", "2", "--exponent", "1/1000", "--n-max", "10"),
            ("count", "--p", "1", "--q", "7", "--delta", "1/4", "--n-max", "10", "--eta", "1/100000"),
            ("scan", "--n-max", "1000", "--format", "json", "--profile-delta", "1/100000"),
        ],
        ids=" ".join,
    )
    def test_root_degree_above_cap_exit_2(self, capsys, argv):
        # a b-th root at b in the thousands takes seconds per call: refused at once
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("invalid arguments: ") and "denominator" in err
        assert time.monotonic() - started < 5


class TestRemovedSurface:
    def test_block_size_exit_2(self):
        # blocks span max(DEFAULT_BLOCK_SIZE, lo // 8); no caller chose another size
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--n-max", "1000", "--block-size", "1024"])
        assert exc.value.code == 2

    def test_bench_exit_2(self):
        # the screen is measured by the benchmark suite, not by a subcommand
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2

    def test_et_bits_exit_2(self):
        # the Weyl sums start at counting.WEYL_BITS; no caller chose another width
        with pytest.raises(SystemExit) as exc:
            main(["et", "--seed", "1", "--trials", "2", "--bits", "8"])
        assert exc.value.code == 2

    def test_center_shifted_exit_2(self):
        # the joint search centres its windows on the ideal multiplier only
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--k-max", "2", "--center-shifted"])
        assert exc.value.code == 2

    def test_precision_only_where_read(self):
        for argv in (["scan", "--n-max", "1000"], ["et", "--seed", "1", "--trials", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--precision", "7"])
            assert exc.value.code == 2

    def test_precision_environment_ignored(self):
        cmd = [sys.executable, "-m", "harmonicgap.cli", "convergents", "--count", "3"]
        plain = subprocess.run(cmd, capture_output=True, text=True)
        env = dict(os.environ, HARMONICGAP_PREC="abc")
        bad = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert (bad.returncode, bad.stdout) == (plain.returncode, plain.stdout) == (0, "2/1\n3/1\n8/3\n")


class TestReadme:
    def test_names_every_option(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        unnamed = [
            (command, opt)
            for command, parser in sub.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings
            if not re.search(re.escape(opt) + r"(?![\w-])", readme)
        ]
        assert unnamed == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonicgap.cli", "convergents", "--count", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["2/1", "3/1"]

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonicgap.cli", "scan"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestDefaultIntStrLimit:
    """Every big integer prints at the interpreter's default int-string limit
    of 4300 digits, which the package leaves alone: one str() of a big int
    missed on the way to the output would exit 2 with "Exceeds the limit"."""

    def cli(self, tmp_path, *argv) -> str:
        out = tmp_path / "out.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "harmonicgap.cli", *argv, "--output", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"),
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        assert max(map(len, re.findall(r"\d+", text))) > 4300
        return text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_row_reads_back(self, tmp_path, fmt):
        text = self.cli(tmp_path, "scan", "--n-max", "30000", "--format", fmt)
        if fmt == "csv":
            row = next(line.split(",") for line in text.splitlines() if line.startswith("27134,"))
            t, fields = int(row[1]), row[2:6]
        else:
            row = next(r for r in json.loads(text)["records"] if r["n"] == 27134)
            t, fields = row["t"], [row[key] for key in ("eps_num", "eps_den", "scaled_num", "scaled_den")]
        eps = exact_sum(27134, 73756) - 1
        with int_str_limit(0):
            parsed = tuple(map(int, fields))
        scaled = 27134**2 * eps
        assert (t, parsed) == (73756, (eps.numerator, eps.denominator, scaled.numerator, scaled.denominator))

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("construct", "--k", "4", "--d", "7"), id="largest-exact-pair"),
            pytest.param(("construct", "--k", "2000"), id="construct-2000"),
            # q of convergent 3927 is the first with more than 4300 digits
            *(
                pytest.param(("convergents", "--count", "3940", "--format", fmt), id=f"convergents-{fmt}")
                for fmt in ("table", "csv", "json")
            ),
            # intervals with integer parts past 4300 digits
            pytest.param(
                ("scan", "--n-max", "1000", "--format", "json", "--profile-delta", "20000"), id="profile-interval"
            ),
            pytest.param(
                ("count", "--p", "1", "--q", "3", "--delta", "1/5", "--n-max", "200", "--eta", "5000"),
                id="count-interval",
            ),
        ],
    )
    def test_exit_0(self, tmp_path, argv):
        self.cli(tmp_path, *argv)
