"""Integer helper paths: exact segment sums, Fraction construction, integer
roots, decimal output."""

import math
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicgap import _intops

from conftest import harmonic_pair_lcm_split, int_str_limit

SRC = Path(__file__).resolve().parents[1] / "src"


def pair_by(kernel, lo: int, hi: int) -> tuple[int, int]:
    """harmonic_pair with its prime split pinned: the C kernel module
    `kernel`, or the pure _prime_split for None."""
    with patch.object(_intops, "_sum_c", kernel):
        return _intops.harmonic_pair(lo, hi)


def test_harmonic_pair_paths_agree():
    expected = sum(Fraction(1, k) for k in range(100, 1501))
    num, den = _intops.harmonic_pair(100, 1500)
    assert type(num) is int and type(den) is int
    assert (num, den) == (expected.numerator, expected.denominator)


def test_fraction_from_matches_constructor():
    # fraction_from takes a pair already in lowest terms with den > 0
    rng = random.Random(8)
    for _ in range(200):
        f = Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        g = _intops.fraction_from(f.numerator, f.denominator)
        assert g == f
        assert (g.numerator, g.denominator) == (f.numerator, f.denominator)


def test_iroot():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 9)
        x = rng.randint(0, 10**30)
        r = _intops.iroot(x, n)
        assert r**n <= x < (r + 1) ** n
    assert _intops.iroot(0, 5) == 0
    assert _intops.iroot(31, 5) == 1
    assert _intops.iroot(32, 5) == 2


@settings(max_examples=150, deadline=None)
@given(lo=st.integers(1, 10**5), terms=st.integers(1, 1024))
@example(lo=2, terms=3)  # short ranges near 1 go through the prime split too
@example(lo=107, terms=183)
@example(lo=1, terms=512)
@example(lo=1, terms=513)
@example(lo=99_999, terms=1025)
def test_harmonic_pair_matches_fraction_fold(lo, terms):
    hi = lo + terms - 1
    expected = Fraction(0)
    for k in range(lo, hi + 1):
        expected += Fraction(1, k)
    assert pair_by(None, lo, hi) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("lo, hi", [(0, 5), (-2, 5), (5, 4)])
def test_harmonic_pair_rejects_bad_ranges(lo, hi):
    # unchecked, lo <= 0 never returned from the pure split (its prime-power
    # loop ran forever, its memory growing) and lo > hi returned (0, 1); a
    # child with a timeout turns a hang into a failure
    script = (
        "from harmonicgap import _intops\n"
        "_intops._sum_c = None\n"
        "try:\n"
        f"    _intops.harmonic_pair({lo}, {hi})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("harmonic_pair needs 1 <= lo <= hi")


# the four k = 4 pairs of the k <= 60 joint search, (n, m) for d = 1, 3, 5, 7;
# d = 3 is also the scan's record range n = 27134, t = 73756
K4_PAIRS = [(9045, 24585), (27134, 73756), (45223, 122927), (63312, 172098)]


@pytest.mark.parametrize("lo, hi", K4_PAIRS)
def test_harmonic_pair_matches_lcm_split_on_pairs(lo, hi):
    assert pair_by(None, lo, hi) == harmonic_pair_lcm_split(lo, hi)


@pytest.mark.parametrize("lo, hi", K4_PAIRS)
def test_kernel_matches_twins_on_pairs(sum_c, lo, hi):
    assert pair_by(sum_c, lo, hi) == _intops._prime_split(lo, hi) == harmonic_pair_lcm_split(lo, hi)


# (lo, terms) spans: anywhere; from 1; across a prime square, where the sieve's
# bound isqrt(hi) moves and a small prime's power grows; and on both sides of
# the switch at hi = _FAR * terms, above which the sieve is skipped
SPANS = st.one_of(
    st.tuples(st.integers(1, 20_000), st.integers(1, 3000)),
    st.tuples(st.just(1), st.integers(1, 6000)),
    st.builds(
        lambda p, back, past: (p * p - back, back + 1 + past),
        st.sampled_from([29, 31, 97, 101, 211]), st.integers(0, 800), st.integers(512, 1000),
    ),
    st.builds(
        lambda terms, shift: (_intops._FAR * terms - terms + 1 + shift, terms),
        st.integers(513, 1024), st.integers(-1, 1),
    ),
)

SPAN_EDGES = [
    (1, 1),
    (1, 513),
    (97 * 97 - 600, 600),  # hi = 97^2 - 1: 97 is a big prime
    (97 * 97 - 599, 600),  # hi = 97^2: 97 is small, with p^2 in range
    (_intops._FAR * 600 - 599, 600),  # the last span through the sieve
    (_intops._FAR * 600 - 598, 600),  # the first span skipping it
]


def span_edges(test):
    """The test, with every SPAN_EDGES span as an explicit example."""
    for span in SPAN_EDGES:
        test = example(span=span)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(span=SPANS)
@span_edges
def test_harmonic_pair_matches_lcm_split(span):
    lo, terms = span
    hi = lo + terms - 1
    assert pair_by(None, lo, hi) == harmonic_pair_lcm_split(lo, hi)


@settings(max_examples=150, deadline=None)
@given(span=SPANS)
@span_edges
def test_kernel_matches_twins(sum_c, span):
    # past the _FAR switch harmonic_pair does not call the kernel, so the
    # kernel's own split is compared there too
    lo, terms = span
    hi = lo + terms - 1
    expected = harmonic_pair_lcm_split(lo, hi)
    assert pair_by(sum_c, lo, hi) == _intops._prime_split(lo, hi) == expected
    assert _intops._lowest(*(int.from_bytes(b, "little") for b in sum_c.prime_split(lo, hi))) == expected


def test_harmonic_pair_denominator_is_the_reduced_lcm_divisor():
    # the prime split builds the sum over lcm(lo..hi) and reduces it by small
    # primes only: den divides the lcm and is the lowest-terms denominator
    lo, hi = 27134, 73756
    num, den = _intops.harmonic_pair(lo, hi)
    # lcm of the chunks' lcms: the same number as math.lcm(*range(lo, hi + 1)), 8x faster
    lcm = math.lcm(*(math.lcm(*range(a, min(a + 1000, hi + 1))) for a in range(lo, hi + 1, 1000)))
    assert lcm % den == 0
    assert math.gcd(num, den) == 1
    assert (num, den) == harmonic_pair_lcm_split(lo, hi)


def test_harmonic_pair_streams_its_primes():
    # the big primes and their leaves stream through the product tree; a list
    # of them at m = 172,098 would add about 4.4 MB of allocations.  A fresh
    # interpreter keeps earlier tests' caches out of the count.  tracemalloc
    # sees no C allocation, so this pins the pure split.
    script = (
        "import tracemalloc\n"
        "from harmonicgap import _intops\n"
        "_intops._sum_c = None\n"
        "tracemalloc.start()\n"
        "_intops.harmonic_pair(63312, 172098)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2 << 20


def _load_kernel_lines(sum_c) -> str:
    """Script lines that load the built kernel `sum_c` as _intops' kernel."""
    return (
        "import importlib.util\n"
        "from harmonicgap import _intops\n"
        f"spec = importlib.util.spec_from_file_location('harmonicgap._sum_c', {sum_c.__file__!r})\n"
        "_intops._sum_c = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(_intops._sum_c)\n"
    )


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_kernel_streams_its_primes(sum_c):
    # the peak resident memory of a fresh interpreter, before and after the
    # sum: about 0.3 MB here (the sieve and the smooth flags); holding every
    # leaf before the tree would add about 3.5 MB
    script = _load_kernel_lines(sum_c) + (
        "import re\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', fh.read()).group(1))\n"
        "before = hwm()\n"
        "_intops.harmonic_pair(63312, 172098)\n"
        "print(hwm() - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2048  # kB


def test_kernel_rejects_bad_ranges(sum_c):
    for lo, hi in [(0, 5), (-2, 5), (5, 4)]:
        with pytest.raises(ValueError):
            sum_c.prime_split(lo, hi)
    with pytest.raises(OverflowError):
        sum_c.prime_split(1, 1 << 63)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmSize from /proc")
def test_kernel_raises_memory_error(sum_c):
    # an address-space limit 64 MB above the child's size: the sieve to 2^28
    # cannot be allocated, and the kernel must say so rather than crash
    script = _load_kernel_lines(sum_c) + (
        "import re, resource\n"
        "with open('/proc/self/status') as fh:\n"
        "    size = int(re.search(r'VmSize:\\s+(\\d+) kB', fh.read()).group(1)) * 1024\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20),) * 2)\n"
        "try:\n"
        "    _intops.harmonic_pair(1, 1 << 28)\n"
        "except MemoryError:\n"
        "    print('MemoryError')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stdout) == (0, "MemoryError\n"), proc.stderr


def _le(x: int) -> bytes:
    return x.to_bytes((x.bit_length() + 7) // 8, "little")


def test_kernel_products_match_python(sum_c):
    # limb counts at and around the Karatsuba cutoff c and its second level,
    # balanced and lopsided (cut into pieces of the shorter operand), with
    # random, all-ones (every carry set) and mixed operands
    c = sum_c.KARATSUBA_CUTOFF
    sizes = [(n, n) for n in (1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1, 4 * c + 3, 9 * c)]
    sizes += [(c, 1), (c + 1, c - 1), (2 * c + 1, c), (3 * c + 5, c), (10 * c + 3, 2 * c + 1), (5, 0)]
    for seed, (an, bn) in enumerate(sizes):
        ones_a, ones_b = (1 << 64 * an) - 1, (1 << 64 * bn) - 1
        rand_a, rand_b = _of_width(64 * an, 2 * seed), _of_width(64 * bn, 2 * seed + 1)
        for a, b in [(rand_a, rand_b), (ones_a, ones_b), (ones_a, rand_b), (rand_a, ones_b)]:
            for x, y in [(a, b), (b, a)]:
                # bytes, not ints, so that a failure prints past the int-string limit
                assert sum_c.mul(_le(x), _le(y)) == (x * y).to_bytes(8 * (an + bn), "little"), (an, bn)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_kernel_stops_on_sigint(sum_c):
    # the sum to 2^24 runs for 20 to 30 s uninterrupted on a 2-core machine;
    # a kernel that never checked for signals would raise KeyboardInterrupt
    # only once it returned
    script = (
        "import signal\n"
        # a test run started as a background job passes an ignored SIGINT on
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    ) + _load_kernel_lines(sum_c) + (
        "print('ready', flush=True)\n"
        "_intops.harmonic_pair(1, 1 << 24)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=120)
        stopped = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0 and "KeyboardInterrupt" in err
    assert stopped < 3


def _of_width(width: int, seed: int) -> int:
    """A pseudo-random integer of exactly `width` bits (0 for width 0)."""
    return random.Random(seed).getrandbits(width) | 1 << (width - 1) if width else 0


LEAF = _intops._DECIMAL_LEAF
# magnitudes: at each split width +-1; random up to about 300 kbit; 2^k, 10^k
# and 10^k - 1 (all nines, where a lost carry would show)
SPLIT_WIDTHS = [w + s for w in (LEAF, 2 * LEAF, 4 * LEAF) for s in (-1, 0, 1)]
MAGNITUDES = st.one_of(
    st.builds(_of_width, st.sampled_from(SPLIT_WIDTHS), st.integers(0, 2**32)),
    st.builds(_of_width, st.integers(0, 300_000), st.integers(0, 2**32)),
    st.integers(0, 300_000).map(lambda k: 1 << k),
    st.builds(lambda k, nines: 10**k - nines, st.integers(0, 90_000), st.integers(0, 1)),
)


@settings(max_examples=100, deadline=None)
@given(x=MAGNITUDES, negative=st.booleans())
@example(x=0, negative=False)
@example(x=1, negative=True)
@example(x=_of_width(LEAF - 1, 1), negative=False)
@example(x=_of_width(LEAF, 2), negative=True)
@example(x=_of_width(LEAF + 1, 3), negative=False)
@example(x=_of_width(2 * LEAF - 1, 4), negative=False)
@example(x=_of_width(2 * LEAF + 1, 5), negative=True)
@example(x=_of_width(4 * LEAF - 1, 6), negative=False)
@example(x=_of_width(4 * LEAF + 1, 7), negative=False)
@example(x=1 << 4 * LEAF, negative=False)
@example(x=10**5000, negative=False)
@example(x=10**5000 - 1, negative=True)
@example(x=_of_width(300_000, 8), negative=False)
def test_decimal_str_matches_str(x, negative):
    # slow twin: CPython's quadratic str, allowed past the default 4300
    # digits only around the comparison; decimal_str runs outside it
    x = -x if negative else x
    got = _intops.decimal_str(x)
    with int_str_limit(0):
        assert got == str(x)


def test_decimal_str_threads_share_the_powers():
    # threads that build the cached powers at once must still agree with str()
    xs = [_of_width(64 * LEAF, seed) for seed in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _intops._pow2.cache_clear()
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(_intops.decimal_str, xs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    with int_str_limit(0):
        assert got == [str(x) for x in xs]
