"""The output checks accept real program output and reject corrupted output.

    python3 -m pytest perfbench -q

Outputs come from small instances of each workload, run in-process.
"""

from __future__ import annotations

import copy
import hashlib
import json
from fractions import Fraction

import pytest

import worker  # noqa: F401  (puts the checkout's src/ on sys.path)
import checks
import workloads
from harmonicgap import cli, construct

SCAN_N_MAX = 30_000  # records at n = 2, 8, 29, 107, 27134
SPOT = [5_000, 27_134, 29_999]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _double(ball: list) -> list:
    """The same encoded ball scaled by 2: it no longer holds the true value."""
    return [hex(2 * int(ball[0], 16)), ball[1], hex(2 * int(ball[2], 16)), ball[3]]


def _with_payload(ckpt: str, edit) -> str:
    wrapper = json.loads(ckpt)
    edit(wrapper["payload"])
    body = json.dumps(wrapper["payload"], sort_keys=True, separators=(",", ":"))
    wrapper["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    return json.dumps(wrapper, sort_keys=True)


def _edit_field(csv: str, row: int, col: int, fn) -> str:
    lines = csv.splitlines()
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _bump(v: str) -> str:
    return str(int(v) + 2)


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan_output(tmp_path_factory):
    d = tmp_path_factory.mktemp("scan")
    argv = ["scan", "--n-max", str(SCAN_N_MAX), "--threads", "1",
            "--checkpoint", str(d / "scan.ckpt"), "--output", str(d / "scan.csv")]
    rc = cli.main(argv)
    return rc, (d / "scan.csv").read_text(), (d / "scan.ckpt").read_text()


def _scan_verdict(rc, csv, ckpt):
    return checks.run_check(checks.check_scan, rc, csv, ckpt, SCAN_N_MAX, SPOT)


def test_scan_accepts_real_output(scan_output):
    assert _scan_verdict(*scan_output) is None


@pytest.mark.parametrize(
    "row, col, fn, reason",
    [
        (5, 1, _bump, "overshoot differs"),       # t
        (5, 2, _bump, "overshoot"),               # eps_num
        (3, 4, _bump, "scaled != n^2 eps"),       # scaled_num
        (4, 6, _bump, "wrong reduction"),         # reduced_p
        (4, 8, _bump, "wrong reduction"),         # d
        (2, 9, lambda v: "true" if v == "false" else "false", "is_convergent"),
        (0, 0, lambda v: "m", "header"),
    ],
)
def test_scan_rejects_corrupted_row(scan_output, row, col, fn, reason):
    rc, csv, ckpt = scan_output
    verdict = _scan_verdict(rc, _edit_field(csv, row, col, fn), ckpt)
    assert verdict is not None and reason in verdict


def test_scan_rejects_non_minimal_crossing(scan_output):
    # a consistent row for n = 107 one term past the crossing: exact, positive, reduced
    rc, csv, ckpt = scan_output
    n, t = 107, 290
    num, den = checks.segment_sum(n, t)
    eps = Fraction(num - den, den)
    scaled = n * n * eps
    lines = csv.splitlines()
    lines[4] = f"{n},{t},{eps.numerator},{eps.denominator},{scaled.numerator},{scaled.denominator},193,71,3,true"
    verdict = _scan_verdict(rc, "\n".join(lines) + "\n", ckpt)
    assert verdict is not None and "not minimal" in verdict


def test_scan_rejects_records_out_of_order(scan_output):
    rc, csv, ckpt = scan_output
    lines = csv.splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    assert _scan_verdict(rc, "\n".join(lines) + "\n", ckpt) is not None


def test_scan_rejects_missing_record(scan_output):
    # drop n = 27134 from table and checkpoint alike: only the spot check can see it
    rc, csv, ckpt = scan_output
    lines = [line for line in csv.splitlines() if not line.startswith("27134,")]

    def drop(payload):
        payload["records"] = [r for r in payload["records"] if r[0] != 27134]

    verdict = _scan_verdict(rc, "\n".join(lines) + "\n", _with_payload(ckpt, drop))
    assert verdict is not None and "spot check" in verdict


def test_scan_rejects_bad_checkpoint(scan_output):
    rc, csv, ckpt = scan_output
    assert "hash" in _scan_verdict(rc, csv, ckpt.replace('"next_start": 30001', '"next_start": 30000'))

    def stop_early(payload):
        payload["next_start"] = SCAN_N_MAX

    assert "not final" in _scan_verdict(rc, csv, _with_payload(ckpt, stop_early))

    def forget(payload):
        payload["records"] = payload["records"][:-1]

    assert "differ" in _scan_verdict(rc, csv, _with_payload(ckpt, forget))


def test_scan_rejects_failed_exit(scan_output):
    _rc, csv, ckpt = scan_output
    assert "exit code" in _scan_verdict(4, csv, ckpt)


# ----------------------------------------------------------------------
# certify-ladder and joint-60
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ladder_pair():
    return worker.encode_pair(construct.certify(20))


def test_ladder_accepts_real_pair(ladder_pair):
    assert checks.run_check(checks.check_ladder_pair, ladder_pair, 20) is None


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda p: p.update(m=hex(int(p["m"], 16) + 1)), "not d times"),
        (lambda p: p.update(quality=_double(p["quality"])), "quality ball"),
        (lambda p: p.update(overshoot=_double(p["overshoot"])), "overshoot ball"),
        (lambda p: p.update(bound_ok=False), "not certified"),
        (lambda p: p.update(canonical=False), "canonical"),
        (lambda p: p.update(k=22), "expected k=20"),
    ],
)
def test_ladder_rejects_corrupted_pair(ladder_pair, edit, reason):
    pair = copy.deepcopy(ladder_pair)
    edit(pair)
    verdict = checks.run_check(checks.check_ladder_pair, pair, 20)
    assert verdict is not None and reason in verdict


def test_ladder_rejects_other_multiplier():
    # a certified pair, but not with the canonical multiplier
    pair = worker.encode_pair(construct.certify(20, d=construct.pick_multiplier(20) + 2))
    pair["canonical"] = True
    verdict = checks.run_check(checks.check_ladder_pair, pair, 20)
    assert verdict is not None and "canonical multiplier" in verdict


@pytest.fixture(scope="module")
def joint_output():
    pairs, skipped = construct.joint_search(2, window=workloads.JOINT_WINDOW, workers=1)
    return {"skipped": skipped, "pairs": [worker.encode_pair(p) for p in pairs]}


def _joint_verdict(out):
    return checks.run_check(checks.check_joint, out, 2, workloads.JOINT_WINDOW)


def test_joint_accepts_real_output(joint_output):
    assert any(p["overshoot_exact"] for p in joint_output["pairs"])  # k = 2 takes the exact route
    assert _joint_verdict(joint_output) is None


def _swap_first(out):
    out["pairs"][0], out["pairs"][1] = out["pairs"][1], out["pairs"][0]


def _drop_largest_d(out):
    worst = max(out["pairs"], key=lambda p: p["d"])
    out["pairs"].remove(worst)


def _drop_middle_d(out):
    ds = sorted(p["d"] for p in out["pairs"])
    out["pairs"] = [p for p in out["pairs"] if p["d"] != ds[len(ds) // 2]]


def _move_canonical(out):
    for p in out["pairs"]:
        p["canonical"] = not p["canonical"] and p is out["pairs"][0]


def _bad_exact(out):
    p = next(p for p in out["pairs"] if p["overshoot_exact"])
    num, den = p["overshoot_exact"]
    p["overshoot_exact"] = [hex(int(num, 16) + 1), den]


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda out: out.update(skipped=1), "skipped"),
        (_swap_first, "not sorted"),
        (_drop_largest_d, "window misses"),
        (_drop_middle_d, "consecutive"),
        (_move_canonical, "canonical"),
        (_bad_exact, "exact overshoot"),
    ],
)
def test_joint_rejects_corrupted_output(joint_output, edit, reason):
    out = copy.deepcopy(joint_output)
    edit(out)
    verdict = _joint_verdict(out)
    assert verdict is not None and reason in verdict


# ----------------------------------------------------------------------
# et-weyl
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def et_output(tmp_path_factory):
    from harmonicgap import counting

    weyl = counting.weyl_sum_abs
    try:
        ops, encode = worker.prepare("et-weyl", 7, tmp_path_factory.mktemp("et"))
        return encode(ops[0]())
    finally:
        counting.weyl_sum_abs = weyl


def _et_verdict(out):
    return checks.run_check(checks.check_et, out, workloads.et_instances(7)[0])


def test_et_accepts_real_output(et_output):
    assert _et_verdict(et_output) is None


def _shift_weyl(out):
    m, bits, ball = out["weyl"][3]
    out["weyl"][3] = [m, bits, _double(ball)]


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda out: out.update(count=out["count"] + 1), "direct count"),
        (lambda out: out.update(lhs=[hex(1), hex(1)]), "lhs"),
        (_shift_weyl, "ball misses"),
        (lambda out: out.update(weyl=out["weyl"][1:]), "never evaluated"),
        (lambda out: out.update(rhs=_double(out["rhs"])), "rhs ball"),
        (lambda out: out.update(holds=False), "does not hold"),
    ],
)
def test_et_rejects_corrupted_output(et_output, edit, reason):
    out = copy.deepcopy(et_output)
    edit(out)
    verdict = _et_verdict(out)
    assert verdict is not None and reason in verdict


# ----------------------------------------------------------------------
# references and dispatch
# ----------------------------------------------------------------------

def test_e_convergents_from_sympy():
    assert [checks.e_convergent(i) for i in range(1, 8)] == [(2, 1), (3, 1), (8, 3), (11, 4), (19, 7), (87, 32), (106, 39)]
    assert checks.e_partial_quotients(12) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def test_raised_operation_fails_its_round():
    verdicts = checks.check_round("certify-ladder", 0, [{"error": "PrecisionError: undecided"}], {})
    assert verdicts == ["raised PrecisionError: undecided"]
