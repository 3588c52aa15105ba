"""Pure-Python screening kernel for the record scan.

Mirrors the hand-written C kernel `_screen_c` operation for operation: both
kernels must produce bit-identical candidate lists for the same arguments.
This one is the reference: the test suite builds the C kernel with the C
compiler and cross-validates it against this one.  It is also the only
kernel past the C kernel's range (horizons of 2^31 and more).

The screen maintains, for the sliding window [n, t],

    acc = sum of floor(2^F / k) for n <= k <= t,      cnt = t - n + 1,

so the true partial sum S(n, t) satisfies acc <= S*2^F < acc + cnt.  The
window is extended until the upper estimate crosses 1.  If the lower estimate
has also crossed, the crossing index t and the overshoot bracket are certain;
otherwise the crossing is ambiguous and n is flagged for every kind.

Record screening compares against a running upper bound M on the minimum
scaled overshoot seen so far; every true record is flagged (possibly along
with a few false positives).  All scaled comparisons drop 32 low bits first
so the C kernel fits in 128 bits.

Each flag is (n, t, kind, scaled_lo) with the certified lower bound

    scaled_lo / 2^(F - 32) <= n^2 * (S(n, t(n)) - 1).

When the crossing is certain, t = t(n): t only ever grows past a window
whose upper estimate is below 1, so S(n, t - 1) < 1 <= acc / 2^F <= S(n, t).
When it is ambiguous, scaled_lo = 0, since the overshoot at the true
crossing is never negative.  The merger decides each flag from this bound.

The window for n depends only on n and F: it is [n, T(n - 1)], where T(m) is
the first t with acc + cnt >= 2^F for the window [m, t] (T(n) > T(n - 1)).
A block may therefore start from the window (t, acc) that the block ending
at n_start returned, instead of rebuilding it from the empty window
(n_start - 1, 0) at a cost of about 1.72 n_start divisions; the flags are
the same.  A passed window must lie below the crossing, acc + cnt < 2^F
(every window a kernel returns does), so that t still only grows past
windows whose upper estimate is below 1.
"""

from __future__ import annotations

KIND_RECORD = 1
KIND_TAU = 2

_M_INIT = 1 << 126


def screen_block(
    n_start: int,
    n_end: int,
    frac_bits: int,
    tau_hi_fp: int,
    window: tuple[int, int] | None = None,
) -> tuple[list[tuple[int, int, int, int]], int, int, int]:
    """Screen n in [n_start, n_end); returns (flags, final M, t, acc).

    flags entries are (n, t_screen, kind, scaled_lo).  tau_hi_fp is an upper
    fixed-point bound on the connection threshold, scaled by 2^(frac_bits - 32).
    window is the (t, acc) to start from, by default the empty window
    (n_start - 1, 0); the returned (t, acc) is the window for max(n_start, n_end).
    """
    one = 1 << frac_bits
    n = n_start
    t, acc = (n_start - 1, 0) if window is None else window
    cnt = t - n_start + 1
    if cnt < 0 or acc < 0 or acc + cnt >= one:
        raise ValueError("window needs t >= n_start - 1, acc >= 0 and acc + cnt < 2^frac_bits")
    m_run = _M_INIT
    flags: list[tuple[int, int, int, int]] = []

    while n < n_end:
        while acc + cnt < one:
            t += 1
            acc += one // t
            cnt += 1
        kind = 0
        scaled_lo = 0
        if acc >= one:
            # crossing certain: bracket the scaled overshoot
            es_lo = (acc - one) >> 32
            es_hi = ((acc + cnt - one) >> 32) + 1
            scaled_lo = n * n * es_lo
            if scaled_lo < m_run:
                kind |= KIND_RECORD
            # scaled_lo <= floor(tau (n - 10) / n), with no division
            if n > 10 and scaled_lo <= tau_hi_fp and scaled_lo * n <= tau_hi_fp * (n - 10):
                kind |= KIND_TAU
        else:
            # upper estimate crossed but lower did not: ambiguous
            kind = KIND_RECORD | KIND_TAU
            es_hi = ((one // t) >> 32) + 1  # overshoot < 1/t always
        scaled_hi = n * n * es_hi
        if scaled_hi < m_run:
            m_run = scaled_hi
        if kind:
            flags.append((n, t, kind, scaled_lo))
        acc -= one // n
        cnt -= 1
        n += 1

    return flags, m_run, t, acc
