"""Exact base-3 digit machinery.

Digit sequences are eventually periodic ternary expansions under the
canonical convention: when a number has two expansions we keep the one
ending in all 0's, except x = 1 which keeps the all-2's tail.  Digit
indices are 1-based throughout, so ``digit_at(x, 1)`` is the first digit
after the radix point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


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
        for d in self.preperiod + self.period:
            if d not in (0, 1, 2):
                raise DomainError(f"digit {d} outside {{0,1,2}}")
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

    The long division runs on integers: with x = r/q in lowest terms, the
    state after each digit is the remainder r in [0, q), and the first
    repeated remainder closes the period.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"{x} outside [0, 1]")
    if x == 1:
        return DigitSeq((), (2,), x)
    q = x.denominator
    r = x.numerator
    digits: list[int] = []
    seen: dict[int, int] = {}  # remainder r -> index of the digit it yields
    while r not in seen:
        seen[r] = len(digits)
        d, r = divmod(3 * r, q)  # r < q keeps d in {0,1,2}
        digits.append(d)
    start = seen[r]
    return DigitSeq(tuple(digits[:start]), tuple(digits[start:]), x)


def digit_at(x: DigitSeq, k: int) -> int:
    """Digit at 1-based position k of the canonical expansion."""
    if k < 1:
        raise DomainError("digit positions are 1-based")
    if k <= len(x.preperiod):
        return x.preperiod[k - 1]
    if not x.period:
        return 0
    return x.period[(k - len(x.preperiod) - 1) % len(x.period)]


def _prefix_count(x: DigitSeq, i: int, n: int) -> int:
    """Number of positions j <= n with digit i, using period cycle counts."""
    if n <= 0:
        return 0
    total = 0
    npre = len(x.preperiod)
    head = min(n, npre)
    total += sum(1 for d in x.preperiod[:head] if d == i)
    rest = n - npre
    if rest <= 0 or not x.period:
        return total
    length = len(x.period)
    per_cycle = sum(1 for d in x.period if d == i)
    cycles, partial = divmod(rest, length)
    total += cycles * per_cycle
    total += sum(1 for d in x.period[:partial] if d == i)
    return total


def walk_value(x: DigitSeq, n: int) -> int:
    """W(n) = n - 3 * (number of 1's among the first n digits); W(0) = 0."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return n - 3 * _prefix_count(x, 1, n)
