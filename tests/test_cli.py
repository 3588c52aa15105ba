"""Command-line surface: flags, exit codes, output contracts."""

import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from harmonicgap import construct, scan
from harmonicgap._pool import ordered_map
from harmonicgap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# stand-ins for pool workers live at module level: a pool sends functions by name
_run_screen = scan._run_screen
_joint_one_k = construct._joint_one_k
DYING_BLOCK = 8194  # the ninth block at --block-size 1024


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
import sys, time
from harmonicgap import cli, scan

run_screen = scan._run_screen

def slow_screen(args):
    time.sleep(0.5)
    return run_screen(args)

if __name__ == "__main__":
    scan._run_screen = slow_screen
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

    def test_thread_invariance_bytes(self, capsys):
        code1, out1, _ = run(capsys, "scan", "--n-max", "4000", "--threads", "1", "--block-size", "2048")
        code8, out8, _ = run(capsys, "scan", "--n-max", "4000", "--threads", "8", "--block-size", "2048")
        assert code1 == code8 == 0
        assert out1 == out8

    def test_json_reproducible_without_timing(self, capsys):
        _, out1, _ = run(capsys, "scan", "--n-max", "500", "--format", "json")
        _, out2, _ = run(capsys, "scan", "--n-max", "500", "--format", "json")
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["wall_time_s"] is None
        assert obj["horizon"] == 500

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
    def test_malformed_checkpoint_exit_4(self, capsys, tmp_path, edit):
        ck = tmp_path / "scan.ckpt"
        argv = ("scan", "--n-max", "5000", "--block-size", "1024", "--checkpoint", str(ck))
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
    SCAN = ("scan", "--n-max", str(N_MAX), "--block-size", "1024", "--threads", "2")

    def assert_resume_matches_uninterrupted(self, capfd, tmp_path, ck):
        direct_ck = tmp_path / "direct.ckpt"
        code, direct_out, _ = run(capfd, *self.SCAN, "--checkpoint", str(direct_ck))
        assert code == 0
        assert run(capfd, *self.SCAN, "--checkpoint", str(ck))[:2] == (0, direct_out)
        assert ck.read_bytes() == direct_ck.read_bytes()

    def test_scan_worker_death_exit_5(self, capfd, tmp_path, monkeypatch):
        ck = tmp_path / "scan.ckpt"
        monkeypatch.setattr(scan, "_run_screen", _screen_dying_at_block)
        code, out, err = run(capfd, *self.SCAN, "--checkpoint", str(ck))
        monkeypatch.undo()
        assert (code, out) == (5, "")
        assert "worker process died" in err and "Traceback" not in err
        assert scan._load_checkpoint(str(ck), self.N_MAX, 1024)["next_start"] == DYING_BLOCK
        self.assert_resume_matches_uninterrupted(capfd, tmp_path, ck)

    def test_construct_worker_death_exit_5(self, capfd, monkeypatch):
        monkeypatch.setattr(construct, "_joint_one_k", _joint_dying_at_k4)
        code, out, err = run(capfd, "construct", "--k-max", "6", "--threads", "2")
        assert (code, out) == (5, "")
        assert "worker process died" in err and "Traceback" not in err

    def test_pool_workers_ignore_sigint(self):
        # Ctrl-C signals the whole process group; only the parent may act on it
        with ordered_map(_ignores_sigint, [0, 1], 2) as results:
            assert list(results) == [True, True]

    def test_interrupt_exit_130(self, capfd, tmp_path):
        ck, script = tmp_path / "scan.ckpt", tmp_path / "slow_scan.py"
        script.write_text(SLOW_SCAN)
        proc = subprocess.Popen(
            [sys.executable, str(script), *self.SCAN, "--checkpoint", str(ck)],
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
        assert scan._load_checkpoint(str(ck), self.N_MAX, 1024)["next_start"] <= self.N_MAX
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


class TestEt:
    def test_ten_trials(self, capsys):
        code, out, _ = run(capsys, "et", "--seed", "7", "--trials", "10")
        assert code == 0
        assert out.strip() == "10/10 hold"

    def test_reproducible(self, capsys):
        _, out1, _ = run(capsys, "et", "--seed", "3", "--trials", "5")
        _, out2, _ = run(capsys, "et", "--seed", "3", "--trials", "5")
        assert out1 == out2

    @pytest.mark.parametrize("bits", ["-5", "0"])
    def test_bits_without_attempt_exit_2(self, capsys, bits):
        # below 8 bits the precision cap 4*bits leaves no 32-bit attempt
        code, _, err = run(capsys, "et", "--seed", "1", "--trials", "2", "--bits", bits)
        assert code == 2
        assert "bits must be >= 8" in err

    def test_smallest_bits(self, capsys):
        code, out, _ = run(capsys, "et", "--seed", "1", "--trials", "2", "--bits", "8")
        assert code == 0
        assert out.strip() == "2/2 hold"


class TestRemovedSurface:
    def test_bench_exit_2(self):
        # the screen is measured by the benchmark suite, not by a subcommand
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
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
