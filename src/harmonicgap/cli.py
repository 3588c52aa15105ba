"""Command-line surface.

Subcommands expose the library's operations with reproducible,
machine-readable output: given identical flags (and seed), output is
byte-identical across runs.  All numbers are exact rational strings or
certified lo/hi decimal intervals; no bare floating point appears in
machine formats.

Exit codes: 0 success, 1 a self-check failed (`count --verify` found the
twin count different, an `approx` hit failed its re-check at doubled
precision, or an `et` inequality failed), 2 usage or domain violation, 3
undecidable at the precision cap, 4 I/O or checkpoint failure, 5 a worker
process died, 130 interrupted.  A scan stopped by 5 or 130 keeps its last
complete checkpoint.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__
from ._intops import decimal_str
from .errors import CheckpointError, PrecisionError
from .exactnum import Ball, DEFAULT_PREC, MAX_ROOT_DEGREE, constants
from . import contfrac, construct, counting, scan

INTERVAL_DIGITS = 24


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _mod_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a,b: {text!r}") from exc


def _frac_str(fr: Fraction) -> str:
    return f"{decimal_str(fr.numerator)}/{decimal_str(fr.denominator)}"


def _ball_obj(b: Ball) -> dict:
    lo, hi = b.interval_str(INTERVAL_DIGITS)
    return {"lo": lo, "hi": hi, "prec": b.prec}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# convergents
# ----------------------------------------------------------------------

def cmd_convergents(args) -> int:
    if args.subseq:
        if args.count is not None:
            raise ValueError("--count lists convergents, so it takes no --subseq")
        if args.k_max is None or args.k_max < 0:
            raise ValueError("--subseq requires --k-max >= 0")
        prec = DEFAULT_PREC if args.precision is None else args.precision
        if prec < 32:
            raise ValueError("--precision must be >= 32")
        entries = contfrac.odd_convergents(args.k_max, prec)
        if args.format == "json":
            obj = [
                {
                    "k": s.k,
                    "p": decimal_str(s.p),
                    "q": decimal_str(s.q),
                    "sign": s.sign,
                    "remainder": _ball_obj(s.remainder),
                    "remainder_bounds": [_frac_str(x) for x in s.remainder_bounds()],
                    "odd": True,
                }
                for s in entries
            ]
            _emit(_dump(obj), args.output)
        elif args.format == "csv":
            lines = ["k,p,q,sign,r_lo,r_hi"]
            for s in entries:
                lo, hi = s.remainder.interval_str(INTERVAL_DIGITS)
                lines.append(f"{s.k},{decimal_str(s.p)},{decimal_str(s.q)},{s.sign},{lo},{hi}")
            _emit("\n".join(lines), args.output)
        else:
            lines = []
            for s in entries:
                lo, hi = s.remainder.interval_str(12)
                lines.append(
                    f"k={s.k}: {decimal_str(s.p)}/{decimal_str(s.q)}  r in [{lo}, {hi}]  "
                    f"sign={s.sign:+d}  parity=odd/odd"
                )
            _emit("\n".join(lines), args.output)
        return 0

    if args.k_max is not None or args.precision is not None:
        raise ValueError("--k-max and --precision take --subseq")
    if args.count is None or args.count < 1:
        raise ValueError("--count must be >= 1")
    cs = contfrac.convergents(contfrac.e_partial_quotient, args.count)
    if args.format == "json":
        obj = [{"i": c.i, "a": c.a, "p": decimal_str(c.p), "q": decimal_str(c.q)} for c in cs]
        _emit(_dump(obj), args.output)
    elif args.format == "csv":
        lines = ["i,a,p,q"] + [f"{c.i},{c.a},{decimal_str(c.p)},{decimal_str(c.q)}" for c in cs]
        _emit("\n".join(lines), args.output)
    else:
        _emit("\n".join(f"{decimal_str(c.p)}/{decimal_str(c.q)}" for c in cs), args.output)
    return 0


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def _pair_obj(p: construct.CandidatePair) -> dict:
    return {
        "k": p.k,
        "d": p.d,
        "m": decimal_str(p.m),
        "n": decimal_str(p.n),
        "offset": _ball_obj(p.offset),
        "overshoot": _ball_obj(p.overshoot),
        "overshoot_exact": _frac_str(p.overshoot_exact) if p.overshoot_exact is not None else None,
        "quality": _ball_obj(p.quality),
        "canonical": p.canonical,
        "bound_ok": p.bound_ok,
    }


def cmd_construct(args) -> int:
    if args.k is not None and args.k_max is not None:
        raise ValueError("--k and --k-max exclude each other")
    if args.d is not None and (args.k_max is not None or args.window is not None):
        raise ValueError("--d picks one pair, so it takes no --window or --k-max")
    if args.threads is not None and args.k_max is None:
        raise ValueError("--threads spreads the --k-max search, so it takes --k-max")
    if args.k_max is not None:
        if args.k_max < 2 or args.k_max % 2:
            raise ValueError("--k-max must be even and >= 2")
        if args.window is None:
            args.window = construct.DEFAULT_WINDOW
        pairs, skipped = construct.joint_search(
            args.k_max,
            window=args.window,
            workers=1 if args.threads is None else args.threads,
        )
        obj = {
            "mode": "joint-search",
            "k_max": args.k_max,
            "window": args.window,
            "skipped_undecidable": skipped,
            "pairs": [
                dict(_pair_obj(p), scaled_quality=_ball_obj(p.scaled_quality()))
                for p in pairs
            ],
        }
        _emit(_dump(obj), args.output)
        return 0

    if args.k is None:
        raise ValueError("construct requires --k (or --k-max)")
    if args.k < 0 or args.k % 2:
        raise ValueError("--k must be even and >= 0")
    if args.window is not None:
        pairs, skipped = construct._joint_one_k((args.k, args.window))
        obj = {
            "mode": "window",
            "k": args.k,
            "window": args.window,
            "skipped_undecidable": skipped,
            "pairs": [_pair_obj(p) for p in pairs],
        }
        _emit(_dump(obj), args.output)
        return 0
    pair = construct.certify(args.k, args.d)
    _emit(_dump(_pair_obj(pair)), args.output)
    return 0


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def cmd_scan(args) -> int:
    if args.format != "json" and (args.timing or args.profile_delta is not None):
        raise ValueError("--timing and --profile-delta take --format json")
    if args.profile_delta is not None and args.profile_delta.denominator > MAX_ROOT_DEGREE:
        # checked before the scan, which the profile's pow_frac would refuse only after
        raise ValueError(f"--profile-delta needs a denominator of at most {MAX_ROOT_DEGREE}")
    table = scan.scan_records(args.n_max, threads=args.threads, checkpoint_path=args.checkpoint)
    if args.format == "json":
        obj = table.json_obj(timing=args.timing)
        if args.profile_delta is not None:
            obj["profile_delta"] = str(args.profile_delta)
            obj["profile"] = [
                {"n": n, "lo": lo, "hi": hi}
                for n, lo, hi in table.profile(args.profile_delta)
            ]
        _emit(_dump(obj), args.output)
    else:
        _emit("\n".join(table.csv_lines()), args.output)
    return 0


# ----------------------------------------------------------------------
# count / approx / et
# ----------------------------------------------------------------------

def cmd_count(args) -> int:
    rep = counting.count_quadratic(
        args.p,
        args.q,
        shift=args.r,
        delta=args.delta,
        n_max=args.n_max,
        residue=args.mod[0],
        modulus=args.mod[1],
        eta=args.eta,
        multiplier=args.multiplier,
    )
    obj = {
        "p": rep.p,
        "q": rep.q,
        "r": _frac_str(rep.shift),
        "delta": _frac_str(rep.delta),
        "n_max": rep.n_max,
        "residue": rep.residue,
        "modulus": rep.modulus,
        "count": rep.count,
        "boundary_ties": rep.boundary_ties,
        "main_term": _frac_str(rep.main_term),
        "eta": _frac_str(rep.eta),
        "error_bound": _ball_obj(rep.error_bound),
        "multiplier": rep.multiplier,
        "within_bound": rep.within_bound,
    }
    if args.verify:
        c2, t2 = counting._count_by_fractions(
            args.p, args.q, rep.shift, rep.delta, args.n_max, args.mod[0], args.mod[1]
        )
        obj["verified"] = (rep.count, rep.boundary_ties) == (c2, t2)
        if not obj["verified"]:
            _emit(_dump(obj), args.output)
            print("enumeration paths disagree: implementation bug", file=sys.stderr)
            return 1
    _emit(_dump(obj), args.output)
    return 0


def _alpha_source(spec: str):
    if spec == "3-over-sinh1":
        return lambda prec: constants(prec).three_over_sinh1, spec
    try:
        fr = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"alpha is neither a rational nor 3-over-sinh1: {spec!r}") from None
    if fr <= 0:
        raise ValueError("alpha must be positive")
    return (lambda prec: Ball.from_fraction(fr, prec)), _frac_str(fr)


def cmd_approx(args) -> int:
    alpha, alpha_desc = _alpha_source(args.alpha)
    hits, skipped = counting.square_denominator_search(
        alpha,
        args.exponent,
        args.n_max,
        n_mod=args.n_mod,
        m_mod=args.m_mod,
        prec=args.precision,
    )
    verified = all(
        counting.verify_hit(alpha, args.exponent, h, 2 * args.precision) for h in hits
    )
    obj = {
        "alpha": alpha_desc,
        "exponent": _frac_str(args.exponent),
        "n_max": args.n_max,
        "n_mod": list(args.n_mod),
        "m_mod": list(args.m_mod),
        "skipped_undecidable": skipped,
        "verified_at_doubled_precision": verified,
        "hits": [
            {"m": decimal_str(h.m), "n": decimal_str(h.n), "error": _ball_obj(h.error)} for h in hits
        ],
    }
    _emit(_dump(obj), args.output)
    if not verified:
        print("a hit failed its re-check: implementation bug", file=sys.stderr)
        return 1
    return 0


def cmd_et(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rng = random.Random(args.seed)
    held = 0
    for _ in range(args.trials):
        ps, a, b, order = counting.random_et_instance(rng)
        rep = counting.erdos_turan_check(ps, a, b, order)
        if rep.holds:
            held += 1
    _emit(f"{held}/{args.trials} hold", args.output)
    if held < args.trials:
        failed = f"{args.trials - held} of {args.trials}"
        print(f"the inequality failed in {failed} trials: implementation bug", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="harmonicgap",
        description="certified near-1 harmonic differences: construct, scan, verify",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("convergents", help="convergents of e and the odd subsequence")
    common(p)
    p.add_argument("--precision", type=int, help=f"working precision bits with --subseq (default {DEFAULT_PREC})")
    p.add_argument("--count", type=int, help="emit the first COUNT convergents")
    p.add_argument("--subseq", action="store_true", help="emit subsequence entries instead")
    p.add_argument("--k-max", type=int, help="largest subsequence index with --subseq")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(fn=cmd_convergents)

    p = sub.add_parser("construct", help="build and certify pairs from (k, d)")
    common(p)
    p.add_argument("--k", type=int, help="even subsequence index")
    p.add_argument("--d", type=int, help="odd multiplier (default: canonical choice)")
    p.add_argument("--window", type=int, help="search all odd d within this window of ideal")
    p.add_argument("--k-max", type=int, help="joint search over even k up to this")
    p.add_argument("--threads", type=int, help="worker processes for --k-max (default 1)")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("scan", help="exhaustive record scan up to a horizon")
    common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--checkpoint", help="checkpoint file to write/resume")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--timing", action="store_true", help="include wall time in JSON output")
    p.add_argument("--profile-delta", type=_frac, help="also emit the n^(2+delta) profile")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("count", help="count n with ||p n^2/q - r|| < delta")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=_frac, default=Fraction(0))
    p.add_argument("--delta", type=_frac, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mod", type=_mod_pair, default=(0, 1), help="residue,modulus for n")
    p.add_argument("--eta", type=_frac, default=Fraction(1, 10))
    p.add_argument("--multiplier", type=int, default=10)
    p.add_argument("--verify", action="store_true", help="cross-check with the per-n Fraction twin")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("approx", help="search |alpha - m/n^2| < n^-exponent")
    common(p)
    p.add_argument("--precision", type=int, default=DEFAULT_PREC, help="working precision bits")
    p.add_argument("--alpha", required=True, help="a rational, or 3-over-sinh1")
    p.add_argument("--exponent", type=_frac, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-mod", type=_mod_pair, default=(0, 1))
    p.add_argument("--m-mod", type=_mod_pair, default=(0, 1))
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("et", help="randomized discrepancy-inequality property run")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(fn=cmd_et)

    return ap


def _broken_pool():
    # a worker can die only after a pool has imported concurrent.futures, which
    # the CLI leaves unimported so that runs without a pool do not pay for it
    process = sys.modules.get("concurrent.futures.process")
    return process.BrokenProcessPool if process else ()


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PrecisionError as exc:
        print(f"undecidable at precision cap: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except _broken_pool() as exc:
        print(f"worker process died: {exc}", file=sys.stderr)
        return 5
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
