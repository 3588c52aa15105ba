"""Continued-fraction engine for e and e^(1/k).

Partial quotients; convergents from one three-term recurrence, walked from
the start on every call; the odd-numerator/odd-denominator subsequence at
indices 3k+2 with certified normalized remainders; exact convergent
membership; and the remainder identity 1/r = c + w behind the
r^(-1) = 2k + 3 + O(1/k) refinement.

Indexing is 1-based with a_1 = 2, so the subsequence index k = 0 lands on
the convergent 3/1.  Entry k's remainder comes from that identity and the
partial quotients alone: c = q_{3k+1}/q_{3k+2} = [0; a_{3k+2}, ..., a_2] and
w = [2k+2; 1, 1, 2k+4, ...] are enclosed by their own convergents, with no
e, no division of q-sized integers and no precision that grows with q.  So
entry k costs the walk to index 3k+2, which holds two convergents at a time,
and a listing of entries 0..K shares one walk to index 3K+2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from math import gcd

from .exactnum import Ball

__all__ = [
    "Convergent",
    "OddConvergent",
    "e_partial_quotient",
    "exp_recip_partial_quotient",
    "convergents",
    "e_convergent",
    "odd_convergent",
    "odd_convergents",
    "is_e_convergent",
    "tail_enclosure",
]


def e_partial_quotient(i: int) -> int:
    """i-th partial quotient of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...] (1-based)."""
    if i < 1:
        raise IndexError("partial quotient index starts at 1")
    if i == 1:
        return 2
    return 2 * (i // 3) if i % 3 == 0 else 1


def exp_recip_partial_quotient(kdenom: int, i: int) -> int:
    """i-th partial quotient of e^(1/kdenom) for kdenom >= 2.

    The expansion is the periodic triple (1, (k-1) + 2km, 1) with m running
    from 0 upward, laid out consecutively from index 1.
    """
    if kdenom < 2:
        raise ValueError("exp_recip_partial_quotient requires kdenom >= 2")
    if i < 1:
        raise IndexError("partial quotient index starts at 1")
    pos = (i - 1) % 3
    m = (i - 1) // 3
    return (kdenom - 1) + 2 * kdenom * m if pos == 1 else 1


@dataclass(frozen=True)
class Convergent:
    i: int
    a: int
    p: int
    q: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


def _walk(quotient):
    """Yield consecutive convergents p_{i-1}, q_{i-1}, p_i, q_i for i = 1, 2,
    ... by the three-term recurrence from p_0/q_0 = 1/0 and p_{-1}/q_{-1} = 0/1."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    i = 0
    while True:
        i += 1
        a = quotient(i)
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p_prev, q_prev, p, q


def convergents(quotient, count: int) -> list[Convergent]:
    """First `count` convergents of the continued fraction given by `quotient`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    walk = islice(_walk(quotient), count)
    return [Convergent(i, quotient(i), p, q) for i, (_, _, p, q) in enumerate(walk, 1)]


def e_convergent(i: int) -> Convergent:
    """Convergent i of e, walked from the start."""
    if i < 1:
        raise IndexError("convergent index starts at 1")
    _, _, p, q = next(islice(_walk(e_partial_quotient), i - 1, None))
    return Convergent(i, e_partial_quotient(i), p, q)


@dataclass(frozen=True)
class OddConvergent:
    """Entry k of the subsequence p_{3k+2}/q_{3k+2}, both odd, with the
    certified normalized remainder r = |e - p/q| * q^2 and the sign of
    e - p/q, which is (-1)^(k+1)."""

    k: int
    p: int
    q: int
    remainder: Ball
    sign: int

    def remainder_bounds(self) -> tuple[Fraction, Fraction]:
        return Fraction(1, 2 * self.k + 4), Fraction(1, 2 * self.k + 2)


@lru_cache(maxsize=64)
def odd_convergent(k: int, prec: int = 36) -> OddConvergent:
    """Certified subsequence entry; all invariants decided before returning.

    The remainder is r = 1/(w_k + c_k) at a fixed working precision: its
    width is at most 2^(4 - prec) at any k.  Cached, so construct computes
    one remainder per index.
    """
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    return _odd_entry(k, prec, next(islice(_walk(e_partial_quotient), 3 * k + 1, None)))


def odd_convergents(k_max: int, prec: int = 36) -> list[OddConvergent]:
    """Entries 0..k_max of the subsequence, as odd_convergent gives them, from
    one walk that hands every third convergent to the entry's checks."""
    if k_max < 0:
        raise IndexError("subsequence index starts at 0")
    walk = islice(_walk(e_partial_quotient), 1, 3 * k_max + 2, 3)
    return [_odd_entry(k, prec, walked) for k, walked in enumerate(walk)]


def _odd_entry(k: int, prec: int, walked: tuple[int, int, int, int]) -> OddConvergent:
    """Entry k from the walked (p_{3k+1}, q_{3k+1}, p_{3k+2}, q_{3k+2})."""
    p_prev, q_prev, p, q = walked
    if not (p & 1 and q & 1):
        raise AssertionError(f"parity violated at subsequence index {k}")
    # e - p/q = sign / (q^2 (w_k + c_k)), sign = p_prev q - p q_prev = (-1)^(k+1)
    sign = -1 if k % 2 == 0 else 1
    if p_prev * q - p * q_prev != sign:
        raise AssertionError(f"determinant identity violated at subsequence index {k}")
    # c_k is walked 64 bits past w, then rounded back onto the grid that w_k's
    # ends and the sum lie on, where it rounds as the exact c_k would.
    # x = w_k + c_k exceeds 2^(b-2) for b = bits(2k+4) and is enclosed under
    # 2^(b+3-w) wide, so 1/x is under 2^(5-w) wide
    w = max(prec, 36) + 8
    ratio = _enclose(lambda j: e_partial_quotient(3 * k + 4 - j) if j > 1 else 0, w + 64, 3 * k + 2)
    r = 1 / (tail_enclosure(k, w) + ratio.at(max(w, 64)))
    if not r.width_leq(4 - prec):
        raise AssertionError(f"remainder width missed at subsequence index {k}")
    s = OddConvergent(k, p, q, r, sign)
    lo_bound, hi_bound = s.remainder_bounds()
    if r.lo.cmp_fraction(lo_bound) < 0 or r.hi.cmp_fraction(hi_bound) > 0:
        raise AssertionError(f"remainder bounds violated at subsequence index {k}")
    return s


def is_e_convergent(p: int, q: int) -> bool:
    """True iff p/q equals a convergent p_i/q_i of e."""
    if gcd(p, q) != 1:
        raise ValueError("is_e_convergent expects p/q in lowest terms")
    for _, _, p_i, q_i in _walk(e_partial_quotient):
        if q_i > q:
            return False
        if q_i == q and p_i == p:
            return True


def _tail_quotient(k: int, j: int) -> int:
    # tail after index 3k+2: [2k+2; 1, 1, 2k+4, 1, 1, 2k+6, ...], 1-based j
    m, pos = divmod(j - 1, 3)
    return 2 * (k + 1 + m) if pos == 0 else 1


def _enclose(quotient, prec: int, length: int = 0) -> Ball:
    """Enclosure of a simple continued fraction, with `length` quotients or
    endless for 0.  Consecutive convergents x_{j-1}, x_j bracket its value
    1/(q_{j-1} q_j) apart; the walk stops at the first j with
    q_{j-1} q_j >= 2^(prec+2), or at the value itself where a finite one ends.
    """
    for j, (p_prev, q_prev, p, q) in enumerate(_walk(quotient), 1):
        if j == length:
            p_prev, q_prev = p, q
        elif q * q_prev < 1 << (prec + 2):
            continue
        lo, hi = sorted((Fraction(p_prev, q_prev), Fraction(p, q)))
        return Ball.from_endpoints(lo, hi, max(prec, 64))


def tail_enclosure(k: int, prec: int = 64) -> Ball:
    """Enclosure of the continued-fraction tail w_k = [2k+2; 1, 1, 2k+4, ...]."""
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    return _enclose(partial(_tail_quotient, k), prec)
