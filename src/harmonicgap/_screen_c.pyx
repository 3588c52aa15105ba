# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled screening kernel for the record scan.

Same algorithm as `_screen_py.screen_block`, with the fixed-point accumulator
held in unsigned 128-bit integers.  Valid for frac_bits <= 126, i.e. scan
horizons up to 2^31; the selector in `_screen` falls back to the pure kernel
beyond that.  Outputs are bit-identical to the pure kernel.

Every variable in the hot loop is u128: Cython resolves mixed-width
arithmetic through the declared (narrower) typedef, which would truncate the
accumulator, so mixed expressions are avoided throughout.
"""

cdef extern from *:
    """
    typedef unsigned __int128 u128;
    """
    ctypedef unsigned long long u128

KIND_RECORD = 1
KIND_TAU = 2


def screen_block(n_start, n_end, frac_bits, tau_hi_fp):
    """Screen n in [n_start, n_end); returns (flags, final M)."""
    if frac_bits > 126:
        raise OverflowError("frac_bits > 126 requires the pure-Python kernel")
    if n_end > (1 << 31):
        raise OverflowError("horizon > 2^31 requires the pure-Python kernel")
    cdef u128 n = n_start
    cdef u128 nend = n_end
    cdef int fbits = frac_bits
    cdef u128 one = (<u128> 1) << fbits
    cdef u128 tau = tau_hi_fp
    cdef u128 m_run = (<u128> 1) << 126
    cdef u128 acc, es_lo, es_hi, scaled_lo, scaled_hi, t, cnt
    cdef int kind

    flags = []

    t = n
    acc = one / t
    cnt = 1
    while n < nend:
        while acc + cnt < one:
            t += 1
            acc += one / t
            cnt += 1
        kind = 0
        scaled_lo = 0
        if acc >= one:
            es_lo = (acc - one) >> 32
            es_hi = ((acc + cnt - one) >> 32) + 1
            scaled_lo = n * n * es_lo
            scaled_hi = n * n * es_hi
            if scaled_lo < m_run:
                kind |= 1
            if n > 10 and scaled_lo < tau * (n - 10) / n + 1:
                kind |= 2
            if scaled_hi < m_run:
                m_run = scaled_hi
        else:
            kind = 1 | 2
            es_hi = ((one / t) >> 32) + 1
            scaled_hi = n * n * es_hi
            if scaled_hi < m_run:
                m_run = scaled_hi
        if kind != 0:
            flags.append((int(n), int(t), kind, int(scaled_lo)))
        acc -= one / n
        cnt -= 1
        n += 1

    return flags, int(m_run)
