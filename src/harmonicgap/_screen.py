"""Selects the record-scan screening kernel for each block.

The compiled kernel (`_screen_c`, the hand-written C file `_screen_c.c`,
built whenever a C compiler is present) is used when it is importable and
the block fits its 128-bit accumulator: `frac_bits` <= 126 and `n_end` <=
2^31.  Otherwise the pure-Python twin (`_screen_py`) screens the block; both
produce bit-identical candidate lists.

The window a block ends with depends only on its end and `frac_bits`, so
this process keeps the last one, and a block that starts where the previous
one ended goes on from it instead of rebuilding it (about 1.72 n_start
divisions); either way the flags are the same.
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


def kernel_name(frac_bits: int = 0, n_end: int = 0) -> str:
    """The kernel that screens a block with these bounds (with none: whether C is importable)."""
    fits = HAVE_COMPILED and frac_bits <= _COMPILED_FRAC_LIMIT and n_end <= 1 << 31
    return "compiled" if fits else "pure-python"


# ((n, frac_bits), (t, acc)): the window for n that the last block ended with.
# Per process, so each pool worker keeps its own; key and window are stored
# and read as one tuple, so a window is never seen under another key.
_last_window: tuple[tuple[int, int], tuple[int, int]] | None = None


def screen_block(n_start: int, n_end: int, frac_bits: int, tau_hi_fp: int):
    """(flags, m_run) for n in [n_start, n_end): see `_screen_py.screen_block`."""
    global _last_window
    kernel = _screen_c if kernel_name(frac_bits, n_end) == "compiled" else _screen_py
    last = _last_window
    window = last[1] if last is not None and last[0] == (n_start, frac_bits) else None
    flags, m_run, t, acc = kernel.screen_block(n_start, n_end, frac_bits, tau_hi_fp, window)
    _last_window = ((max(n_start, n_end), frac_bits), (t, acc))
    return flags, m_run
