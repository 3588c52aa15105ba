"""Pure-Python screening kernel for the record scan.

The twin of the hand-written C kernel `_screen_c`, operation for operation:
both return the same result for the same arguments, and the test suite builds
the C kernel and compares the two.  It runs wherever the C kernel is not
built.  `_screen` says what the arguments mean.
"""

from __future__ import annotations

_MASK = (1 << 128) - 1


def screen_block(n_start: int, n_end: int, frac: int, step: int, cut: int) -> tuple[list[int], int]:
    """(flags, F for max(n_start, n_end)): every n in [n_start, n_end) whose F
    is at least cut, where F is frac for n_start and grows by step per n,
    modulo 2^128."""
    if n_start < 1 or not all(0 <= v <= _MASK for v in (frac, step, cut)):
        raise ValueError("screen_block needs n_start >= 1 and frac, step, cut in [0, 2^128)")
    flags = []
    for n in range(n_start, n_end):
        if frac >= cut:
            flags.append(n)
        frac = (frac + step) & _MASK
    return flags, frac
