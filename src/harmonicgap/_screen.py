"""Selects the record-scan screening kernel for each block.

The compiled kernel (`_screen_c`, the hand-written C file `_screen_c.c`,
built whenever a C compiler is present) is used when it is importable and
the block fits its 128-bit accumulator: `frac_bits` <= 126 and `n_end` <=
2^31.  Otherwise the pure-Python twin (`_screen_py`) screens the block; both
produce bit-identical candidate lists.
"""

from __future__ import annotations

from . import _screen_py

KIND_RECORD = _screen_py.KIND_RECORD
KIND_TAU = _screen_py.KIND_TAU

try:
    from . import _screen_c  # type: ignore[attr-defined]

    HAVE_COMPILED = True
except ImportError:  # pragma: no cover
    _screen_c = None
    HAVE_COMPILED = False

# the compiled accumulator is u128: frac_bits <= 126 keeps acc < 2^127
_COMPILED_FRAC_LIMIT = 126


def frac_bits_for(n_max: int) -> int:
    return 64 + 2 * max(1, n_max.bit_length())


def screen_block(n_start: int, n_end: int, frac_bits: int, tau_hi_fp: int):
    if HAVE_COMPILED and frac_bits <= _COMPILED_FRAC_LIMIT and n_end <= 1 << 31:
        return _screen_c.screen_block(n_start, n_end, frac_bits, tau_hi_fp)
    return _screen_py.screen_block(n_start, n_end, frac_bits, tau_hi_fp)


def kernel_name() -> str:
    return "compiled" if HAVE_COMPILED else "pure-python"
