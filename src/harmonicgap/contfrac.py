"""Continued-fraction engine for e and e^(1/k).

Partial quotients, convergents through the standard recurrence, the
odd-numerator/odd-denominator subsequence at indices 3k+2 with certified
normalized remainders, exact convergent membership, and the sharper
remainder decomposition 1/r = c + w used for the
r^(-1) = 2k + 3 + O(1/k) refinement.

Indexing is 1-based with a_1 = 2, so the subsequence index k = 0 lands on
the convergent 3/1.  Convergents are materialized with memoization; the
denominators grow super-exponentially, which makes subsequence indices up
to a few thousand the practical range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactnum import Ball, const_e, escalating
from .errors import PrecisionError

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

# is_e_convergent compares against convergents up to this index; q_600 has
# 1,649 bits, far beyond any denominator 2n - 1 a scan reaches
CONVERGENT_INDEX_CAP = 600


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


class _ConvergentTable:
    """Memoized p, q sequences for a partial-quotient source."""

    def __init__(self, quotient):
        self._a = quotient
        self._p = [0, 1]  # p_{-1}, p_0
        self._q = [1, 0]  # q_{-1}, q_0

    def _ensure(self, i: int) -> None:
        while len(self._p) - 2 < i:
            j = len(self._p) - 1  # next 1-based index
            a = self._a(j)
            self._p.append(a * self._p[-1] + self._p[-2])
            self._q.append(a * self._q[-1] + self._q[-2])

    def p(self, i: int) -> int:
        self._ensure(i)
        return self._p[i + 1]

    def q(self, i: int) -> int:
        self._ensure(i)
        return self._q[i + 1]

    def convergent(self, i: int) -> Convergent:
        if i < 1:
            raise IndexError("convergent index starts at 1")
        self._ensure(i)
        return Convergent(i, self._a(i), self._p[i + 1], self._q[i + 1])


_E_TABLE = _ConvergentTable(e_partial_quotient)


def convergents(quotient, count: int) -> list[Convergent]:
    """First `count` convergents of the continued fraction given by `quotient`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    table = _E_TABLE if quotient is e_partial_quotient else _ConvergentTable(quotient)
    return [table.convergent(i) for i in range(1, count + 1)]


def e_convergent(i: int) -> Convergent:
    return _E_TABLE.convergent(i)


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


def odd_convergent(k: int, prec: int = 0) -> OddConvergent:
    """Certified subsequence entry; all invariants decided before returning."""
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    c = e_convergent(3 * k + 2)
    p, q = c.p, c.q
    if not (p & 1 and q & 1):
        raise AssertionError(f"parity violated at subsequence index {k}")
    sign = -1 if k % 2 == 0 else 1
    lo_bound, hi_bound = Fraction(1, 2 * k + 4), Fraction(1, 2 * k + 2)
    start = max(prec, 2 * q.bit_length() + max(k, 1).bit_length() + 32, 64)

    def attempt(w: int) -> OddConvergent | None:
        e = const_e(w)
        diff = e - Ball.from_fraction(Fraction(p, q), w)
        if diff.sign() != sign:
            return None  # undecided (or wrong, caught by the bound check)
        r = abs(diff) * Ball.from_fraction(q * q, w)
        if not r.width_leq(4 - prec if prec else -32):
            return None
        if r.lo.cmp_fraction(lo_bound) < 0 or r.hi.cmp_fraction(hi_bound) > 0:
            return None
        return OddConvergent(k, p, q, r, sign)

    return escalating(attempt, start=start, what=f"subsequence entry {k}")


def is_e_convergent(p: int, q: int) -> bool:
    """True iff p/q equals a convergent p_i/q_i of e with i <= CONVERGENT_INDEX_CAP."""
    if gcd(p, q) != 1:
        raise ValueError("is_e_convergent expects p/q in lowest terms")
    for i in range(1, CONVERGENT_INDEX_CAP + 1):
        c = e_convergent(i)
        if c.q > q:
            return False
        if c.q == q and c.p == p:
            return True
    return False


def denominator_ratio(k: int) -> Fraction:
    """c_k = q_{3k+1}/q_{3k+2}, exactly."""
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    return Fraction(_E_TABLE.q(3 * k + 1), _E_TABLE.q(3 * k + 2))


def _tail_quotient(k: int, j: int) -> int:
    # tail after index 3k+2: [2k+2; 1, 1, 2k+4, 1, 1, 2k+6, ...], 0-based j
    m, pos = divmod(j, 3)
    return 2 * (k + 1 + m) if pos == 0 else 1


def _tail_truncation(k: int, depth: int) -> Fraction:
    v = Fraction(_tail_quotient(k, depth - 1))
    for j in range(depth - 2, -1, -1):
        v = _tail_quotient(k, j) + 1 / v
    return v


def tail_enclosure(k: int, prec: int = 64) -> Ball:
    """Enclosure of the continued-fraction tail w_k = [2k+2; 1, 1, 2k+4, ...].

    Even- and odd-length truncations of a simple continued fraction bracket
    its value; the depth doubles until the bracket meets the target width.
    """
    if k < 0:
        raise IndexError("subsequence index starts at 0")
    depth = 8
    while True:
        lo, hi = _tail_truncation(k, depth), _tail_truncation(k, depth + 1)
        if lo > hi:
            lo, hi = hi, lo
        if (hi - lo) * (1 << (prec + 2)) <= 1:
            return Ball.from_endpoints(lo, hi, max(prec, 64))
        depth *= 2
        if depth > 1 << 20:  # pragma: no cover
            raise PrecisionError(f"tail enclosure for k={k} did not converge")
