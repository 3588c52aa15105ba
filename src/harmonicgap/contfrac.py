"""Continued-fraction engine for e and e^(1/k).

Partial quotients; convergents from one three-term recurrence, walked from
the start on every call; the odd-numerator/odd-denominator subsequence at
indices 3k+2 with certified normalized remainders; exact convergent
membership; and the remainder identity 1/r = c + w behind the
r^(-1) = 2k + 3 + O(1/k) refinement.

Indexing is 1-based with a_1 = 2, so the subsequence index k = 0 lands on
the convergent 3/1.  The remainder of entry k comes from that identity: c
is a ratio of two consecutive denominators and w the tail
[2k+2; 1, 1, 2k+4, ...], enclosed by its own convergents.  Neither needs e
or a precision that grows with q, so entry k costs the walk to index 3k+2,
which holds two convergents at a time.
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
    "is_e_convergent",
    "denominator_ratio",
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
    """Yield (convergent i, q_{i-1}) for i = 1, 2, ... by the three-term
    recurrence, starting from p_0/q_0 = 1/0 and p_{-1}/q_{-1} = 0/1."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    i = 0
    while True:
        i += 1
        a = quotient(i)
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield Convergent(i, a, p, q), q_prev


@lru_cache(maxsize=64)
def _e_entry(i: int) -> tuple[Convergent, int]:
    """Convergent i of e with q_{i-1}, walked from the start; the cache only
    spares repeated calls at the same index."""
    if i < 1:
        raise IndexError("convergent index starts at 1")
    return next(islice(_walk(e_partial_quotient), i - 1, None))


def convergents(quotient, count: int) -> list[Convergent]:
    """First `count` convergents of the continued fraction given by `quotient`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [c for c, _ in islice(_walk(quotient), count)]


def e_convergent(i: int) -> Convergent:
    return _e_entry(i)[0]


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
def odd_convergent(k: int, prec: int = 0) -> OddConvergent:
    """Certified subsequence entry; all invariants decided before returning.

    The remainder is r = 1/(w_k + c_k) at a fixed working precision: its
    width is at most 2^(4 - prec), or 2^-32 for prec = 0, at any k.  Cached,
    so construct computes one remainder per index.
    """
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    c, q_prev = _e_entry(3 * k + 2)
    p, q = c.p, c.q
    if not (p & 1 and q & 1):
        raise AssertionError(f"parity violated at subsequence index {k}")
    # e - p/q = (p_prev q - p q_prev) / (q^2 (w_k + c_k)), and the numerator
    # is -(-1)^(3k+2) by the determinant identity, so p q_prev = -sign mod q
    sign = -1 if k % 2 == 0 else 1
    if (p * q_prev + sign) % q:
        raise AssertionError(f"determinant sign violated at subsequence index {k}")
    # x = w_k + c_k exceeds 2^(b-2) for b = bits(2k+4), and its enclosure at
    # w significant bits is under 2^(b+3-w) wide, so 1/x is under 2^(5-w) wide
    w = max(prec, 36) + 8
    r = 1 / (tail_enclosure(k, w) + denominator_ratio(k))
    if not r.width_leq(4 - prec if prec else -32):
        raise AssertionError(f"remainder width missed at subsequence index {k}")
    lo_bound, hi_bound = Fraction(1, 2 * k + 4), Fraction(1, 2 * k + 2)
    if r.lo.cmp_fraction(lo_bound) < 0 or r.hi.cmp_fraction(hi_bound) > 0:
        raise AssertionError(f"remainder bounds violated at subsequence index {k}")
    return OddConvergent(k, p, q, r, sign)


def is_e_convergent(p: int, q: int) -> bool:
    """True iff p/q equals a convergent p_i/q_i of e."""
    if gcd(p, q) != 1:
        raise ValueError("is_e_convergent expects p/q in lowest terms")
    for c, _ in _walk(e_partial_quotient):
        if c.q > q:
            return False
        if c.q == q and c.p == p:
            return True


def denominator_ratio(k: int) -> Fraction:
    """c_k = q_{3k+1}/q_{3k+2}, exactly."""
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    c, q_prev = _e_entry(3 * k + 2)
    return Fraction(q_prev, c.q)


def _tail_quotient(k: int, j: int) -> int:
    # tail after index 3k+2: [2k+2; 1, 1, 2k+4, 1, 1, 2k+6, ...], 1-based j
    m, pos = divmod(j - 1, 3)
    return 2 * (k + 1 + m) if pos == 0 else 1


def tail_enclosure(k: int, prec: int = 64) -> Ball:
    """Enclosure of the continued-fraction tail w_k = [2k+2; 1, 1, 2k+4, ...].

    Consecutive convergents x_{j-1}, x_j of a simple continued fraction
    bracket its value and lie 1/(q_{j-1} q_j) apart; the walk stops at the
    first j with q_{j-1} q_j >= 2^(prec+2).
    """
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    prev = None
    for c, q_prev in _walk(partial(_tail_quotient, k)):
        if c.q * q_prev >= 1 << (prec + 2):
            lo, hi = sorted((prev.as_fraction(), c.as_fraction()))
            return Ball.from_endpoints(lo, hi, max(prec, 64))
        prev = c
