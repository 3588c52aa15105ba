"""Shared fixtures."""

import importlib.util
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from harmonicgap.construct import WORK_PREC, ideal_multiplier, pair_from, pick_multiplier
from harmonicgap.contfrac import e_convergent, odd_convergent
from harmonicgap.exactnum import Ball, const_e, constants, escalating
from harmonicgap.harmonic import ball_sum, pair_offset, predicted_overshoot

ROOT = Path(__file__).resolve().parents[1]


def remainder_from_e(k: int, prec: int = 0) -> Ball:
    """Slow twin of odd_convergent's remainder: r = |e - p/q| * q^2 for
    p/q = p_{3k+2}/q_{3k+2}, from e itself at about 2 log2(q) bits and
    escalating until the sign of e - p/q is decided and the width is at
    most 2^(4 - prec) (2^-32 for prec = 0)."""
    c = e_convergent(3 * k + 2)
    p, q = c.p, c.q
    sign = -1 if k % 2 == 0 else 1

    def attempt(w: int) -> Ball | None:
        diff = const_e(w) - Ball.from_fraction(Fraction(p, q), w)
        if diff.sign() != sign:
            return None
        r = abs(diff) * Ball.from_fraction(q * q, w)
        return r if r.width_leq(4 - prec if prec else -32) else None

    start = max(prec, 2 * q.bit_length() + max(k, 1).bit_length() + 32, 64)
    return escalating(attempt, start=start, what=f"e-based remainder {k}")


def ratio_from_walk(k: int) -> Fraction:
    """c_k = q_{3k+1}/q_{3k+2} exactly, from two walked denominators."""
    return Fraction(e_convergent(3 * k + 1).q, e_convergent(3 * k + 2).q)


def convergent_by_euclid(p: int, q: int) -> bool:
    """Slow twin of is_e_convergent: Euclid's continued fraction of p/q, q > 0,
    against e = [2; 1, 2, 1, 1, 4, 1, ...] written out here, in either form
    of the last quotient ([..., a] or [..., a - 1, 1])."""
    cf = []
    while q:
        a, r = divmod(p, q)
        cf.append(a)
        p, q = q, r
    e = [2] + [a for j in range(1, len(cf) // 3 + 2) for a in (1, 2 * j, 1)]
    return cf == e[: len(cf)] or cf[:-1] + [cf[-1] - 1, 1] == e[: len(cf) + 1]


def multiplier_from_mpmath(k: int) -> tuple[Fraction, int]:
    """Slow twin of construct's multiplier choice, from mpmath's e and sinh(1)
    at 2 log2(q) + 400 bits, so r = |e - p/q| q^2 for p/q = p_{3k+2}/q_{3k+2}
    is good to about 400 bits.  With g = sinh(1)/6: the crude d0 is the
    closest odd integer to sqrt(2g/r) + 2, n0 = (d0 q + 1)/2, and the ideal
    is sqrt(g (2n0 - 1)/(n0 r)).  Returns (ideal, closest odd integer to
    ideal + 2), the ideal as the exact value of the mpmath result."""

    def odd_nearest(x) -> int:
        o = 2 * int(mpmath.floor((x - 1) / 2)) + 1
        return o if x < o + 1 else o + 2

    c = e_convergent(3 * k + 2)
    p, q = c.p, c.q
    with mpmath.workprec(2 * q.bit_length() + 400):
        g = mpmath.sinh(1) / 6
        r = abs(mpmath.e * q - p) * q
        n0 = (odd_nearest(mpmath.sqrt(2 * g / r) + 2) * q + 1) // 2
        ideal = mpmath.sqrt(g * (2 * n0 - 1) / (n0 * r))
        man, exp = ideal.man_exp
        return Fraction(man) * Fraction(2) ** exp, odd_nearest(ideal + 2)


def overshoot_by_ball_sum(n: int, m: int) -> Ball:
    """Slow twin of harmonic.scaled_overshoot at h = 1/n, unscaled: the
    segment sum minus 1 by ball_sum, whose ln(m/(n-1)) runs at about
    2 log2(n) bits, to a width of a quarter of the second-order prediction
    from pair_offset plus twice the Euler-Maclaurin floor."""
    pred = predicted_overshoot(n, pair_offset(n, m), prec=64)
    mag = max(abs(pred.lo.as_fraction()), abs(pred.hi.as_fraction()))
    floor = Fraction(1, 15 * (n - 1) ** 4)
    return ball_sum(n, m, mag / 4 + 2 * floor) - 1


def gap_bracket(k: int) -> tuple[Ball, Ball, Ball]:
    """(lhs, gap, rhs) of construct's multiplier-choice bracket for the
    canonical d, from the remainder at WORK_PREC:

        (1/2) ideal * r  <=  r d^2 n/(2n-1) - sinh(1)/6  <=  7 ideal * r
    """
    d = pick_multiplier(k)
    _, n = pair_from(k, d)
    r, ideal = odd_convergent(k, WORK_PREC).remainder, ideal_multiplier(k)
    gap = r * Ball.from_fraction(Fraction(d * d * n, 2 * n - 1), WORK_PREC) - constants(WORK_PREC).gap_target
    return Ball.from_fraction(Fraction(1, 2), WORK_PREC) * ideal * r, gap, 7 * ideal * r


def harmonic_pair_lcm_split(lo: int, hi: int) -> tuple[int, int]:
    """Slow twin of _intops.harmonic_pair: balanced splitting whose nodes add
    their halves over lcm(d1, d2), by a gcd and two exact divisions each, then
    one gcd reduction of the whole sum.  (num, den) in lowest terms."""

    def split(a: int, b: int) -> tuple[int, int]:
        if b - a < 48:
            num, den = 0, 1
            for k in range(a, b + 1):
                num = num * k + den
                den *= k
            return num, den
        mid = (a + b) >> 1
        n1, d1 = split(a, mid)
        n2, d2 = split(mid + 1, b)
        g = math.gcd(d1, d2)
        c1, c2 = d1 // g, d2 // g
        return n1 * c2 + n2 * c1, c1 * d2

    num, den = split(lo, hi)
    g = math.gcd(num, den)
    return num // g, den // g


@contextmanager
def int_str_limit(digits: int):
    """The interpreter's int-string digit limit set to `digits` (0: none)
    inside the block only; the package itself never changes it.  Pythons
    without the limit (before 3.10.7 and 3.11) have nothing to change."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """A loader for the C kernels, all freshly built from src/ into one temp
    directory by one `setup.py build_ext`: `compiled("_screen_c")`.

    Skips only when there is no C compiler.  With a compiler, a missing
    module is a failure: `optional=True` in setup.py turns build errors into
    warnings, so a broken kernel would otherwise pass unnoticed.
    """
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) found: the compiled kernels cannot be built")
    out = tmp_path_factory.mktemp("compiled")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )

    def load(name: str):
        built = out / "harmonicgap" / (name + sysconfig.get_config_var("EXT_SUFFIX"))
        if not built.is_file():
            pytest.fail(f"{cc} exists but setup.py built no {name}:\n{proc.stdout}\n{proc.stderr}")
        spec = importlib.util.spec_from_file_location(f"harmonicgap.{name}", built)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def screen_c(compiled):
    """The C screening kernel (`_screen_c.c`), built by `compiled`."""
    return compiled("_screen_c")


@pytest.fixture(scope="session")
def weyl_c(compiled):
    """The C Weyl-sum kernel (`_weyl_c.c`), built by `compiled`."""
    return compiled("_weyl_c")


@pytest.fixture(scope="session")
def sum_c(compiled):
    """The C prime-split kernel (`_sum_c.c`), built by `compiled`."""
    return compiled("_sum_c")
