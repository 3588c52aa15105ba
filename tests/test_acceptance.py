"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 6 is implemented exactly as stated and is expected to fail; the
offset y(n, t(n)) grows like n * U with U in [0, 1), while the second-order
prediction's remainder carries an exact y/(2e n^3) term, so no constant
below 10 can bound n^3 times the discrepancy on [100, 2000].  The test is
marked strict-xfail: it fails honestly, and would flag an error if it ever
started passing.  See the decisions ledger for the full analysis.
"""

import json
import time
from fractions import Fraction

import pytest

from harmonicgap.construct import certify, joint_search, pick_multiplier
from harmonicgap.contfrac import (
    convergents,
    e_partial_quotient,
    odd_convergent,
)
from harmonicgap.counting import (
    _count_by_fractions,
    count_quadratic,
    erdos_turan_check,
    random_et_instance,
    square_denominator_search,
    verify_hit,
)
from harmonicgap.exactnum import Ball, constants
from harmonicgap.harmonic import iter_crossings, pair_offset, predicted_overshoot
from harmonicgap.scan import scan_records

from conftest import gap_bracket, ratio_from_walk, remainder_from_e


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")


def test_criterion_01_convergent_reproduction():
    started = time.monotonic()
    cs = [(c.p, c.q) for c in convergents(e_partial_quotient, 8)]
    expected = [(2, 1), (3, 1), (8, 3), (11, 4), (19, 7), (87, 32), (106, 39), (193, 71)]
    sub = [(odd_convergent(k).p, odd_convergent(k).q) for k in range(4)]
    sub_expected = [(3, 1), (19, 7), (193, 71), (2721, 1001)]
    elapsed = time.monotonic() - started
    ok = cs == expected and sub == sub_expected and elapsed < 1.0
    _report(1, "convergent-reproduction", ok, f"{elapsed:.3f}s")
    assert cs == expected
    assert sub == sub_expected
    assert elapsed < 1.0


def test_criterion_02_subsequence_lemma_suite():
    started = time.monotonic()
    failures = []
    for k in range(301):
        s = odd_convergent(k)
        if not (s.p % 2 == 1 and s.q % 2 == 1):
            failures.append((k, "parity"))
        if s.sign != (-1) ** (k + 1):
            failures.append((k, "sign"))
        lo, hi = Fraction(1, 2 * k + 4), Fraction(1, 2 * k + 2)
        if not (s.remainder.lo.cmp_fraction(lo) >= 0 and s.remainder.hi.cmp_fraction(hi) <= 0):
            failures.append((k, "bounds"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    _report(2, "subsequence-lemma-suite", ok, f"k<=300, {elapsed:.1f}s, {len(failures)} failures")
    assert failures == []
    assert elapsed < 30.0


def test_criterion_03_remainder_refinement():
    started = time.monotonic()
    worst = Fraction(0)
    for k in range(1, 301):
        s = odd_convergent(k, prec=96)
        inv = Ball.from_fraction(1, 256) / s.remainder
        dev = abs(inv - Ball.from_fraction(2 * k + 3, 256))
        assert dev.hi.cmp_fraction(Fraction(2, k)) <= 0, k
        worst = max(worst, k * dev.hi.as_fraction())
        # r from the identity 1/r = c_k + w_k against the slow twin |e - p/q| q^2
        assert s.remainder.overlaps(remainder_from_e(k, 96)), k
    for k in range(100):
        ck = ratio_from_walk(k)
        assert ratio_from_walk(k + 1) == Fraction(1, 2) + Fraction(1, 2 * (4 * k + 5 + 2 * ck))
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _report(
        3,
        "remainder-refinement",
        ok,
        f"max k*|1/r-(2k+3)| = {float(worst):.4f} (envelope 2), {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_04_construction_certified():
    started = time.monotonic()
    # spot value first, with the independent naive-summation oracle
    pair = certify(2, 3)
    assert (pair.m, pair.n) == (289, 107)
    naive = sum(Fraction(1, k) for k in range(107, 290)) - 1
    assert pair.overshoot_exact == naive
    assert Fraction(68, 10**7) <= naive <= Fraction(74, 10**7)
    for k in range(2, 101, 2):
        p = certify(k)
        assert p.bound_ok is True, k
        assert p.overshoot.sign() == 1, k
        lhs, gap, rhs = gap_bracket(k)
        assert lhs.decide_le(gap) is True, k
        assert gap.decide_le(rhs) is True, k
    elapsed = time.monotonic() - started
    ok = elapsed < 300.0
    _report(4, "construction-certified", ok, f"even k in [2,100], {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_05_scan_and_connection():
    started = time.monotonic()
    table1 = scan_records(100000, threads=1)
    elapsed = time.monotonic() - started
    table4 = scan_records(100000, threads=4)
    csv1 = "\n".join(table1.csv_lines())
    csv4 = "\n".join(table4.csv_lines())
    json1 = json.dumps(table1.json_obj(), sort_keys=True)
    json4 = json.dumps(table4.json_obj(), sort_keys=True)
    first = table1.records[0]
    connection_ok = all(r.is_convergent for r in table1.below_threshold)
    ok = (
        elapsed < 300.0
        and (first.n, first.scaled) == (2, Fraction(1, 3))
        and csv1 == csv4
        and json1 == json4
        and connection_ok
    )
    _report(
        5,
        "scan-and-connection",
        ok,
        f"{elapsed:.1f}s, {len(table1.records)} records, "
        f"{len(table1.below_threshold)} below tau (all convergent: {connection_ok}), "
        "thread-invariant bytes",
    )
    assert elapsed < 300.0
    assert (first.n, first.scaled) == (2, Fraction(1, 3))
    assert csv1 == csv4 and json1 == json4
    assert connection_ok


@pytest.fixture(scope="module")
def prediction_errors() -> list[tuple[int, Ball, Fraction]]:
    """(n, y, n^3 |prediction - overshoot|) at every crossing 100 <= n <= 10^4:
    the data of both criterion-6 tests, computed once."""
    out = []
    for rec in iter_crossings(100, 10000):
        y = pair_offset(rec.n, rec.t, prec=64)
        pred = predicted_overshoot(rec.n, y, prec=96)
        diff = abs(pred - Ball.from_fraction(rec.overshoot, 128))
        out.append((rec.n, y, diff.hi.as_fraction() * rec.n**3))
    return out


@pytest.mark.xfail(
    strict=True,
    reason="criterion as stated is unattainable: the prediction's remainder "
    "has an exact y/(2e n^3) term and y(n, t(n)) ~ n*U; measured fit constant "
    "is ~230, not < 10 (see decisions ledger)",
)
def test_criterion_06_asymptotics_crosscheck(prediction_errors):
    fit_c = max(scaled for n, _, scaled in prediction_errors if n <= 2000)
    worst_holdout = max(scaled for n, _, scaled in prediction_errors if n > 2000)
    holdout_ok = worst_holdout <= fit_c
    ok = fit_c < 10 and holdout_ok
    _report(
        6,
        "asymptotics-crosscheck",
        ok,
        f"fitted C = {float(fit_c):.1f} (required < 10), "
        f"holdout max = {float(worst_holdout):.1f}",
    )
    assert fit_c < 10
    assert holdout_ok


def test_criterion_06_supplementary_asymptotics_in_validity_domain(prediction_errors):
    """Not a stated criterion: the second-order prediction restricted to
    bounded offsets (|y| <= 10, the compact-interval regime the expansion is
    valid for) meets C/n^3 with C < 10, evidencing that the formula and its
    implementation are right and criterion 6's defect lies in applying it to
    unbounded offsets."""
    inside = [scaled for _, y, scaled in prediction_errors if abs(y).hi.cmp_fraction(Fraction(10)) <= 0]
    worst, used = max(inside, default=Fraction(0)), len(inside)
    ok = worst < 10 and used > 20
    _report(
        6,
        "asymptotics-in-validity-domain (supplementary)",
        ok,
        f"max n^3|err| = {float(worst):.4f} over {used} offsets with |y| <= 10",
    )
    assert used > 20
    assert worst < 10


def test_criterion_07_discrepancy_property_suite():
    import random

    started = time.monotonic()
    rng = random.Random(20240607)
    held = 0
    for _ in range(100):
        ps, a, b, order = random_et_instance(rng)
        rep = erdos_turan_check(ps, a, b, order)
        if rep.holds:
            held += 1
    elapsed = time.monotonic() - started
    ok = held == 100 and elapsed < 60.0
    _report(7, "discrepancy-property-suite", ok, f"{held}/100 hold, {elapsed:.1f}s")
    assert held == 100
    assert elapsed < 60.0


def test_criterion_08_counting_lemma_extensional():
    rep = count_quadratic(1, 2, Fraction(0), Fraction(3, 10), 10)
    assert rep.count == 5
    big = count_quadratic(3, 10007, Fraction(0), Fraction(1, 20), 2000)
    assert big.within_bound is True
    paths_agree = True
    for r in (rep, big):
        c2, t2 = _count_by_fractions(
            r.p, r.q, r.shift, r.delta, r.n_max, r.residue, r.modulus
        )
        if (r.count, r.boundary_ties) != (c2, t2):
            paths_agree = False
    ok = rep.count == 5 and big.within_bound is True and paths_agree
    _report(
        8,
        "counting-lemma-extensional",
        ok,
        f"count(1,2)=5; count(3,10007)={big.count} vs main 200 within 10x error; "
        f"dual paths agree: {paths_agree}",
    )
    assert paths_agree


def test_criterion_09_square_denominator_search():
    c = lambda prec: constants(prec).three_over_sinh1
    hits, skipped = square_denominator_search(
        c, Fraction(9, 4), 5000, n_mod=(1, 2), m_mod=(3, 4), prec=96
    )
    pairs = [(h.m, h.n) for h in hits]
    reverified = all(verify_hit(c, Fraction(9, 4), h, 192) for h in hits)
    ok = bool(hits) and (23, 3) in pairs and reverified
    _report(
        9,
        "square-denominator-search",
        ok,
        f"{len(hits)} hits (skipped {skipped}), includes (23,3): {(23, 3) in pairs}, "
        f"all re-verified at doubled precision: {reverified}",
    )
    assert hits
    assert (23, 3) in pairs
    assert reverified


def test_criterion_10_joint_search_beats_baseline():
    pairs, skipped = joint_search(60, window=5)
    best_by_k: dict[int, object] = {}
    for p in pairs:
        cur = best_by_k.get(p.k)
        if cur is None or abs(p.quality).hi.as_fraction() < abs(cur.quality).hi.as_fraction():
            best_by_k[p.k] = p
    improved = []
    for k in range(2, 61, 2):
        baseline = certify(k)
        best = best_by_k[k]
        if abs(best.quality).decide_lt(abs(baseline.quality)) is True:
            improved.append(k)
    profile = [
        (p.k, p.d, p.scaled_quality().interval_str(10)) for p in pairs[:5]
    ]
    ok = len(improved) >= 1
    _report(
        10,
        "joint-search-beats-baseline",
        ok,
        f"{len(improved)}/30 indices improved on the canonical choice "
        f"(skipped {skipped}); best scaled-quality profile head: {profile[:3]}",
    )
    for k, d, (lo, hi) in profile:
        print(f"    scaled quality k={k} d={d}: [{lo}, {hi}]")
    assert len(improved) >= 1
