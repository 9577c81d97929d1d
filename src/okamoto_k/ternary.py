"""Exact base-3 digit machinery.

Digit sequences are eventually periodic ternary expansions under the
canonical convention: when a number has two expansions we keep the one
ending in all 0's, except x = 1 which keeps the all-2's tail.  Digit
indices are 1-based throughout, so ``digit_at(x, 1)`` is the first digit
after the radix point.

``_long_division`` gives every base-3 digit of an exact rational r/q.  With
q = 3**s * q', 3 not dividing q', the first s digits are the preperiod, and
the period closes when the remainder returns, as tripling permutes Z/q'.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import DomainError, ResourceLimitError

_PERIOD_CAP = 10**6  # digits of a period that expand_rational computes
_DIGITS = frozenset((0, 1, 2))


def _long_division(r: int, q: int) -> Iterator[tuple[int, int]]:
    """The base-3 digits of r/q, 0 <= r < q, each with the remainder after it."""
    while True:
        d, r = divmod(3 * r, q)  # r < q keeps d in {0,1,2}
        yield d, r


def _split_threes(q: int) -> tuple[int, int]:
    """(s, q') with q = 3**s * q' and 3 not dividing q'."""
    s = 0
    while q % 3 == 0:
        q //= 3
        s += 1
    return s, q


def _ternary_order(x: Fraction) -> int:
    """m such that 3**m * x is an integer; error if no such m exists."""
    m, rest = _split_threes(x.denominator)
    if rest != 1:
        raise DomainError(f"{x} is not a ternary rational")
    return m


def _digits_value(digits: tuple[int, ...], lo: int, hi: int) -> int:
    """The integer with base-3 digits digits[lo:hi], most significant first.

    Halving the range keeps the cost near that of one multiplication of
    the full-size integers, where digit-by-digit accumulation is quadratic.
    """
    if hi - lo <= 64:
        value = 0
        for d in digits[lo:hi]:
            value = 3 * value + d
        return value
    mid = (lo + hi) // 2
    high = _digits_value(digits, lo, mid)
    return high * 3 ** (hi - mid) + _digits_value(digits, mid, hi)


def _reconstruct(preperiod: tuple[int, ...], period: tuple[int, ...]) -> Fraction:
    pre = _digits_value(preperiod, 0, len(preperiod))
    if not period:
        return Fraction(pre, 3 ** len(preperiod))
    cycle = 3 ** len(period) - 1
    block = _digits_value(period, 0, len(period))
    return Fraction(pre * cycle + block, 3 ** len(preperiod) * cycle)


@dataclass(frozen=True)
class DigitSeq:
    """Eventually periodic ternary expansion of a rational in [0, 1].

    ``preperiod + period`` are the digits; the period repeats forever.
    Terminating expansions carry the explicit period ``(0,)`` so every
    digit position is defined.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    value: Fraction

    def __post_init__(self):
        digits = self.preperiod + self.period
        try:  # one set test in C; the digit is looked up only on failure
            valid = _DIGITS.issuperset(digits)
        except TypeError:  # an unhashable digit
            valid = False
        if not valid:
            bad = next(d for d in digits if d not in (0, 1, 2))
            raise DomainError(f"digit {bad} outside {{0,1,2}}")
        if not self.period and self.value != 0:
            raise DomainError("empty period is only allowed for x = 0")
        if _reconstruct(self.preperiod, self.period) != self.value:
            raise DomainError("digits do not reconstruct the stored value")

    def to_json(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}


def expand_rational(x: Fraction | int | str) -> DigitSeq:
    """Canonical eventually periodic ternary expansion of x in [0, 1].

    Terminating values end in the explicit period (0,); x = 1 is stored
    with the all-2's period.  The period is minimal and the preperiod has
    no removable suffix.

    With x = r/q in lowest terms and q = 3**s * q', 3 not dividing q', the
    preperiod is the first s digits.  The remainder after them is 3**s times
    a residue mod q', which each digit triples; tripling permutes the
    residues, so the remainder's first return closes the period.  A period
    over ``_PERIOD_CAP`` digits raises ResourceLimitError.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"{x} outside [0, 1]")
    if x == 1:
        return DigitSeq((), (2,), x)
    s, _ = _split_threes(x.denominator)
    start = x.numerator * 3**s % x.denominator  # the remainder after the preperiod
    digits = []
    for d, r in islice(_long_division(x.numerator, x.denominator), s + _PERIOD_CAP):
        digits.append(d)
        if r == start and len(digits) > s:
            return DigitSeq(tuple(digits[:s]), tuple(digits[s:]), x)
    raise ResourceLimitError(f"period of {x} exceeds cap of {_PERIOD_CAP} digits")


def digit_at(x: DigitSeq, k: int) -> int:
    """Digit at 1-based position k of the canonical expansion."""
    if k < 1:
        raise DomainError("digit positions are 1-based")
    if k <= len(x.preperiod):
        return x.preperiod[k - 1]
    if not x.period:
        return 0
    return x.period[(k - len(x.preperiod) - 1) % len(x.period)]


def walk_value(x: DigitSeq, n: int) -> int:
    """W(n) = n - 3 * (number of 1's among the first n digits); W(0) = 0."""
    if n < 0:
        raise DomainError("n must be >= 0")
    cycles, partial = divmod(max(n - len(x.preperiod), 0), len(x.period) or 1)
    ones = x.preperiod[:n].count(1) + x.period[:partial].count(1)
    if cycles:  # the whole period is read only when n covers it
        ones += cycles * x.period.count(1)
    return n - 3 * ones
