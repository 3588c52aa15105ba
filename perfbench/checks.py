"""Independent checks of the workloads' outputs.

Nothing here imports harmonicgap.  Exact segment sums are recomputed by
binary splitting on plain integers, irrational values come from mpmath, and
the convergents of e from sympy.  Each check returns None when the output
passes and otherwise the reason it fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction

import mpmath
import sympy
from sympy.ntheory.continued_fraction import continued_fraction, continued_fraction_convergents

import workloads

CSV_HEADER = "n,t,eps_num,eps_den,scaled_num,scaled_den,reduced_p,reduced_q,d,is_convergent"
QUALITY_BOUND = 1001  # the paper's certified bound on n^2 * overshoot * sqrt(k)
TOL = Fraction(1, 10**90)  # slack around mpmath values of n^2 * overshoot (error < 10^-97)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_check(fn, *args) -> str | None:
    try:
        fn(*args)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


# ----------------------------------------------------------------------
# decoding what the worker wrote
# ----------------------------------------------------------------------

def dec_int(text: str) -> int:
    return int(text, 16)


def dec_fraction(v) -> Fraction:
    return Fraction(dec_int(v[0]), dec_int(v[1]))


def _dyadic(man_hex: str, exp: int) -> Fraction:
    man = dec_int(man_hex)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def dec_ball(v) -> tuple[Fraction, Fraction]:
    lo, hi = _dyadic(v[0], v[1]), _dyadic(v[2], v[3])
    require(lo <= hi, "ball with lo > hi")
    return lo, hi


def mpf_fraction(v) -> Fraction:
    sign, man, exp, _bc = v._mpf_
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def _contains(ball: tuple[Fraction, Fraction], v: Fraction, tol: Fraction) -> bool:
    return ball[0] - tol <= v <= ball[1] + tol


# ----------------------------------------------------------------------
# reference values
# ----------------------------------------------------------------------

def segment_sum(first: int, last: int) -> tuple[int, int]:
    """(num, den), unreduced, with num/den = 1/first + ... + 1/last."""
    if last - first < 32:
        num, den = 0, 1
        for k in range(first, last + 1):
            num, den = num * k + den, den * k
        return num, den
    mid = (first + last) // 2
    a, b = segment_sum(first, mid)
    c, d = segment_sum(mid + 1, last)
    return a * d + c * b, b * d


def e_partial_quotients(count: int) -> list[int]:
    """First `count` partial quotients of e: the common prefix of the continued
    fractions of two rationals that bracket sympy's value of e."""
    digits = 64
    while True:
        x = sympy.Rational(str(sympy.N(sympy.E, digits + 20)))  # within 10^-(digits+15) of e
        scale = 10**digits
        lo = int(sympy.floor(x * scale)) - 1
        a = continued_fraction(sympy.Rational(lo, scale))
        b = continued_fraction(sympy.Rational(lo + 3, scale))
        common = 0
        while common < min(len(a), len(b)) and a[common] == b[common]:
            common += 1
        if common - 1 >= count:  # the last common term may still be cut short
            return [int(v) for v in a[:count]]
        digits *= 2


_CONVERGENTS: list[tuple[int, int]] = []


def e_convergent(i: int) -> tuple[int, int]:
    """(p_i, q_i), the i-th convergent of e, 1-based (p_1/q_1 = 2/1)."""
    if i > len(_CONVERGENTS):
        quotients = e_partial_quotients(max(2 * i, 64))
        _CONVERGENTS[:] = [
            (int(sympy.numer(c)), int(sympy.denom(c))) for c in continued_fraction_convergents(quotients)
        ]
    return _CONVERGENTS[i - 1]


def is_e_convergent(p: int, q: int) -> bool:
    i = 1
    while True:
        cp, cq = e_convergent(i)
        if cq > q:
            return False
        if (cp, cq) == (p, q):
            return True
        i += 1


def _digits(v: int) -> int:
    return v.bit_length() * 30103 // 100000 + 1


def scaled_overshoot(n: int, m: int) -> Fraction:
    """n^2 (H_m - H_{n-1} - 1) from mpmath's digamma, with absolute error below 10^-97."""
    with mpmath.workdps(2 * _digits(n) + 110):
        v = (mpmath.psi(0, m + 1) - mpmath.psi(0, n) - 1) * n * n
        return mpf_fraction(v)


def _nearest_odd(x) -> int:
    o = 2 * int(mpmath.floor((x - 1) / 2)) + 1
    return o + 2 if x - o > 1 else o


def multiplier_reference(k: int) -> tuple[Fraction, int]:
    """(ideal multiplier, canonical odd multiplier) for subsequence index k.

    The ideal multiplier nulls the scaled gap r d^2 n/(2n-1) - sinh(1)/6, with n
    taken from the crude choice (2n-1)/n ~ 2; the canonical one is the odd
    integer closest to ideal + 2.
    """
    p, q = e_convergent(3 * k + 2)
    with mpmath.workdps(2 * _digits(q) + 60):
        r = abs(mpmath.e - mpmath.mpf(p) / q) * q * q
        target = mpmath.sinh(1) / 6
        d0 = _nearest_odd(mpmath.sqrt(2 * target / r) + 2)
        n0 = (d0 * q + 1) // 2
        ideal = mpmath.sqrt(mpmath.mpf(2 * n0 - 1) / n0 * target / r)
        return mpf_fraction(ideal), _nearest_odd(ideal + 2)


# ----------------------------------------------------------------------
# scan-1e6
# ----------------------------------------------------------------------

def _parse_scan_rows(csv_text: str) -> list[dict]:
    sys.set_int_max_str_digits(0)  # record overshoots run to tens of thousands of digits
    lines = csv_text.splitlines()
    require(bool(lines) and lines[0] == CSV_HEADER, "CSV header differs from the schema")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        require(len(f) == 10, f"CSV row with {len(f)} fields")
        require(f[9] in ("true", "false"), f"is_convergent is {f[9]!r}")
        rows.append(
            {
                "n": int(f[0]),
                "t": int(f[1]),
                "eps": (int(f[2]), int(f[3])),
                "scaled": (int(f[4]), int(f[5])),
                "p": int(f[6]),
                "q": int(f[7]),
                "d": int(f[8]),
                "is_convergent": f[9] == "true",
            }
        )
    require(bool(rows) and rows[0]["n"] == 2, "the record table must start at n = 2")
    return rows


def _check_crossing(n: int, t: int, eps_num: int, eps_den: int) -> None:
    """eps_num/eps_den is S(n, t) - 1 exactly, positive, and below 1/t (t minimal)."""
    require(eps_den > 0 and math.gcd(eps_num, eps_den) == 1, f"n={n}: overshoot not in lowest terms")
    num, den = segment_sum(n, t)
    require(eps_num * den == (num - den) * eps_den, f"n={n}: overshoot differs from the exact sum to t={t}")
    require(eps_num > 0, f"n={n}: overshoot not positive")
    require(eps_num * t < eps_den, f"n={n}: t={t} is not minimal")


def _connection_threshold(n: int):
    # tau (1 - 10/n), tau = (3/e + e^-2 - 1)/24
    return (3 / mpmath.e + mpmath.exp(-2) - 1) / 24 * (1 - mpmath.mpf(10) / n)


def check_scan(rc: int, csv_text: str, ckpt_text: str, n_max: int, spot_ns: list[int]) -> None:
    require(rc == 0, f"exit code {rc}")
    rows = _parse_scan_rows(csv_text)
    prev_n, prev_scaled = 1, None
    for row in rows:
        n, t = row["n"], row["t"]
        require(prev_n < n <= n_max, f"n={n} out of order or beyond the horizon")
        eps = Fraction(*row["eps"])
        _check_crossing(n, t, *row["eps"])
        scaled = Fraction(*row["scaled"])
        require(row["scaled"][1] > 0 and scaled == n * n * eps, f"n={n}: scaled != n^2 eps")
        require(prev_scaled is None or scaled < prev_scaled, f"n={n}: n^2 eps does not decrease")
        a, b = 2 * t + 1, 2 * n - 1
        g = math.gcd(a, b)
        require((row["d"], row["p"], row["q"]) == (g, a // g, b // g), f"n={n}: wrong reduction of {a}/{b}")
        require(row["is_convergent"] == is_e_convergent(row["p"], row["q"]), f"n={n}: wrong is_convergent")
        prev_n, prev_scaled = n, scaled

    wrapper = json.loads(ckpt_text)
    payload = wrapper["payload"]
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    require(hashlib.sha256(body.encode()).hexdigest() == wrapper["sha256"], "checkpoint hash mismatch")
    require(payload["horizon"] == n_max and payload["next_start"] == n_max + 1, "checkpoint is not final")
    require(payload["records"] == [[r["n"], r["t"]] for r in rows], "checkpoint records differ from the table")
    for n, t in payload["exact_hits"]:
        num, den = segment_sum(n, t)
        require(num == den, f"checkpoint exact hit n={n} has a nonzero overshoot")
    with mpmath.workdps(40):
        for n, t in payload["below_threshold"]:
            num, den = segment_sum(n, t)
            eps = Fraction(num - den, den)
            require(0 < eps < Fraction(1, t), f"checkpoint entry n={n}: t={t} is not the crossing")
            scaled = n * n * eps
            require(mpmath.mpf(scaled.numerator) / scaled.denominator < _connection_threshold(n),
                    f"checkpoint entry n={n} is not below the threshold")

    # seeded spot checks: no sampled n beats the record in force at n
    records = {r["n"]: Fraction(*r["scaled"]) for r in rows}
    with mpmath.workdps(40):
        e = mpmath.e
        for n in spot_ns:
            if n in records:
                continue
            t = int(mpmath.floor(e * n - (1 + e) / 2))
            s = mpmath.psi(0, t + 1) - mpmath.psi(0, n)
            while s < 1:
                t += 1
                s += mpmath.mpf(1) / t
            while s - mpmath.mpf(1) / t >= 1:
                s -= mpmath.mpf(1) / t
                t -= 1
            best = min(v for rn, v in records.items() if rn < n)
            scaled = n * n * (s - 1)
            require(scaled > mpmath.mpf(best.numerator) / best.denominator - mpmath.mpf(10) ** -20,
                    f"spot check: n={n} has n^2 eps below the record before it")


# ----------------------------------------------------------------------
# certify-ladder and joint-60
# ----------------------------------------------------------------------

def check_pair(pair: dict) -> Fraction:
    """Checks one constructed pair; returns its mpmath n^2 * overshoot."""
    k, d = pair["k"], pair["d"]
    m, n = dec_int(pair["m"]), dec_int(pair["n"])
    require(d >= 1 and d % 2 == 1, f"k={k}: multiplier {d} is not a positive odd integer")
    p, q = e_convergent(3 * k + 2)
    require(2 * m + 1 == d * p and 2 * n - 1 == d * q, f"k={k}, d={d}: (m, n) is not d times p/q_(3k+2)")
    v = scaled_overshoot(n, m)
    quality = dec_ball(pair["quality"])
    require(_contains(quality, v, TOL), f"k={k}, d={d}: quality ball misses n^2 eps = {float(v):.6g}")
    o_lo, o_hi = dec_ball(pair["overshoot"])
    require(_contains((n * n * o_lo, n * n * o_hi), v, TOL), f"k={k}, d={d}: overshoot ball misses eps")
    if pair["overshoot_exact"] is not None:
        exact = n * n * dec_fraction(pair["overshoot_exact"])
        require(quality[0] <= exact <= quality[1] and abs(exact - v) <= TOL,
                f"k={k}, d={d}: exact overshoot disagrees")
    if pair["canonical"]:
        require(pair["bound_ok"] is True and v > 0, f"k={k}: canonical pair not certified")
        require(v * v * k <= QUALITY_BOUND**2, f"k={k}: quality * sqrt(k) exceeds {QUALITY_BOUND}")
    return v


def check_ladder_pair(pair: dict, k: int) -> None:
    require(pair["k"] == k, f"expected k={k}, got k={pair['k']}")
    require(pair["canonical"] is True, f"k={k}: not the canonical multiplier")
    require(pair["d"] == multiplier_reference(k)[1], f"k={k}: d={pair['d']} is not the canonical multiplier")
    check_pair(pair)


def _abs_hi(ball: tuple[Fraction, Fraction]) -> Fraction:
    lo, hi = ball
    return max(abs(lo), abs(hi))


def check_joint(out: dict, k_max: int, window: int) -> None:
    require(out["skipped"] == 0, f"{out['skipped']} undecidable pairs skipped")
    pairs = out["pairs"]
    keys = [(_abs_hi(dec_ball(p["quality"])), p["k"], p["d"]) for p in pairs]
    require(keys == sorted(keys), "pairs are not sorted by |quality|")
    by_k: dict[int, list[dict]] = {}
    for pair in pairs:
        by_k.setdefault(pair["k"], []).append(pair)
    require(sorted(by_k) == list(range(2, k_max + 1, 2)), "some even k in [2, k_max] has no pair")
    for k, group in sorted(by_k.items()):
        ds = sorted(p["d"] for p in group)
        require(all(b - a == 2 for a, b in zip(ds, ds[1:])), f"k={k}: multipliers {ds} are not consecutive odds")
        ideal, canonical = multiplier_reference(k)
        wanted = [d for d in range(1, int(ideal) + window + 2, 2) if ideal - window <= d <= ideal + window]
        require(set(wanted) <= set(ds), f"k={k}: window misses some of {wanted}")
        require([p["d"] for p in group if p["canonical"]] == [canonical], f"k={k}: canonical flag misplaced")
        for pair in group:
            check_pair(pair)


# ----------------------------------------------------------------------
# et-weyl
# ----------------------------------------------------------------------

def weyl_reference(points: list[Fraction], order: int) -> list:
    """|S_m| for m = 1..order, S_m = sum over x of e(m x), at 30 digits."""
    with mpmath.workdps(30):
        sums = [mpmath.mpc(0)] * order
        for x in points:
            z = mpmath.expjpi(2 * mpmath.mpf(x.numerator) / x.denominator)
            w = mpmath.mpc(1)
            for m in range(order):
                w *= z
                sums[m] += w
        return [abs(s) for s in sums]


def check_et(out: dict, instance: tuple) -> None:
    points, a, b, order = instance
    n, delta = len(points), b - a
    require(out["n_points"] == n and out["order"] == order, "instance shape differs")
    require(dec_fraction(out["delta"]) == delta, "interval length differs")
    count = sum(1 for x in points if (x - a) % 1 <= delta)
    require(out["count"] == count, f"count {out['count']} != direct count {count}")
    lhs = abs(count - n * delta)
    require(dec_fraction(out["lhs"]) == lhs, "lhs != |count - N delta|")

    sums = weyl_reference(points, order)
    seen = set()
    for m, _bits, ball in out["weyl"]:
        ref = mpf_fraction(sums[m - 1])
        require(_contains(dec_ball(ball), ref, Fraction(1, 10**20)), f"|S_{m}| ball misses {float(ref):.6g}")
        seen.add(m)
    require(seen == set(range(1, order + 1)), "some |S_m| was never evaluated")
    rhs = Fraction(n, order + 1) + 2 * (Fraction(1, order + 1) + delta) * sum(mpf_fraction(s) for s in sums)
    require(_contains(dec_ball(out["rhs"]), rhs, Fraction(1, 10**15)), "rhs ball misses N/(L+1) + E")
    require(out["holds"] is True and lhs <= rhs, "the inequality does not hold")


# ----------------------------------------------------------------------
# per-round dispatch
# ----------------------------------------------------------------------

def check_round(workload: str, seed: int, ops: list, files: dict[str, str]) -> list[str | None]:
    """One verdict per operation of a round; files holds the scan's CSV and checkpoint text."""
    verdicts: list[str | None] = []
    if workload == "et-weyl":
        instances = workloads.et_instances(seed)
    for i, op in enumerate(ops):
        if "error" in op:
            verdicts.append(f"raised {op['error']}")
        elif workload == "scan-1e6":
            verdicts.append(run_check(
                check_scan, op["rc"], files.get("scan.csv", ""), files.get("scan.ckpt", ""),
                workloads.SCAN_N_MAX, workloads.scan_spot_ns(seed),
            ))
        elif workload == "certify-ladder":
            verdicts.append(run_check(check_ladder_pair, op, workloads.LADDER[i]))
        elif workload == "joint-60":
            verdicts.append(run_check(check_joint, op, workloads.JOINT_K_MAX, workloads.JOINT_WINDOW))
        else:
            verdicts.append(run_check(check_et, op, instances[i]))
    return verdicts
