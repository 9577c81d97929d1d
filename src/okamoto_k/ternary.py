"""Exact base-3 digit machinery.

Digit sequences are eventually periodic ternary expansions under the
canonical convention: when a number has two expansions we keep the one
ending in all 0's, except x = 1 which keeps the all-2's tail.  Every
expansion, x = 0 included, has a nonempty period, so a fold over its
preperiod and one period covers all of its digits.

``_digits`` gives the base-3 digits of an exact rational r/q eight at a
time: one integer division ``divmod(r * 3**8, q)`` yields a number below
3**8, whose eight digits are read from a table built at import.  With
q = 3**s * q', 3 not dividing q', the first s digits are the preperiod and
the period length is the order of 3 modulo q', which ``_period_length``
finds from the prime powers that divide q' before any digit is made.

Digits are held as ``bytes``, one byte per digit, from ``_digits`` through
``DigitSeq`` to the walk and the json writer, so that checking, counting
and converting them each run in C over the whole string.  ``DigitSeq``
checks them against its value by long division's remainders, in linear time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm

from .errors import DomainError, ResourceLimitError

_PERIOD_CAP = 10**6  # digits of a period that expand_rational computes
_TRIAL = 2**15  # trial divisors of q' stop below this; 1000000007 < _TRIAL**2
_DIGITS = b"\0\1\2"
_GROUP = 8  # digits per integer division
# joining 81 four-digit halves builds the table 3 times faster than 6561 bytes()
_HALVES = [bytes(h) for h in product(_DIGITS, repeat=_GROUP // 2)]
_GROUP_DIGITS = tuple(map(b"".join, product(_HALVES, repeat=2)))  # g -> its digits
_LEAF = 512  # digits per int(text, 3); int_max_str_digits is never below 640
_DIGIT_TEXT = bytes.maketrans(_DIGITS, b"012")  # digit -> numeral


def _named(x, name: str, template: str) -> str:
    """``template`` filled with x; an int or Fraction too long for an error message,
    over 100 bits in numerator or denominator, is ``name`` and the longer's size."""
    if isinstance(x, (int, Fraction)):
        num, den = x.numerator.bit_length(), x.denominator.bit_length()
        if max(num, den) > 100:
            part, bits = ("numerator", num) if num > den else ("denominator", den)
            return f"{name} with a {bits}-bit {part}"
    return template.format(x)


def _check_point(x) -> None:
    """Raise DomainError unless the point x lies in [0, 1], a Fraction on integers."""
    if not (0 <= x.numerator <= x.denominator if type(x) is Fraction else 0 <= x <= 1):
        raise DomainError(f"{_named(x, 'x', '{}')} outside [0, 1]")


def _digits(r: int, q: int, n: int) -> bytes:
    """The first n base-3 digits of r/q, 0 <= r < q, one byte per digit."""
    groups, scale = [], 3**_GROUP
    for _ in range(-(-n // _GROUP)):
        g, r = divmod(r * scale, q)  # r < q keeps g below scale
        groups.append(_GROUP_DIGITS[g])
    return b"".join(groups)[:n]


def _leading_digits(x, n: int) -> bytes:
    """The first n canonical base-3 digits of the exact value of x in [0, 1],
    a float, int or Fraction, divided out of ``x.as_integer_ratio()``; x = 1
    gives n 2's."""
    _check_point(x)
    r, q = x.as_integer_ratio()
    return b"\2" * n if r == q else _digits(r, q, n)


def _factors(n: int) -> Iterator[int]:
    """The prime factors of n >= 1 in increasing order, each as often as it
    divides n, by trial division below ``_TRIAL``; only a last factor of at
    least ``_TRIAL**2`` can be composite."""
    pairs = zip(range(5, _TRIAL, 6), range(7, _TRIAL, 6))  # each 6k -+ 1
    for p in chain((2, 3), chain.from_iterable(pairs)):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            yield p
    if n > 1:
        yield n


def _prime_order(p: int) -> int:
    """The order of 3 modulo a prime p other than 3, below ``_TRIAL**2``:
    p - 1 divided by each prime factor f of p - 1 while 3 reaches 1 there."""
    order = p - 1
    for f in set(_factors(p - 1)):
        while order % f == 0 and pow(3, order // f, p) == 1:
            order //= f
    return order


def _order_search(q: int) -> int | None:
    """The order of 3 modulo q, 3 not dividing q, by search; None over the cap.
    3**(8k) = 3**-t (mod q), t in 1..8, exactly when the order divides
    8k + t, so the first k with a match, at its smallest t, gives the order."""
    first = {pow(3, -t, q): t for t in range(_GROUP, 0, -1)}  # smallest t kept
    step, power = pow(3, _GROUP, q), 1 % q
    for base in range(0, _PERIOD_CAP, _GROUP):
        t = first.get(power)
        if t is not None:
            return base + t if base + t <= _PERIOD_CAP else None
        power = power * step % q
    return None


def _period_length(q: int) -> int | None:
    """The order of 3 modulo q, 3 not dividing q: the least L >= 1 with
    3**L = 1 (mod q); None when it exceeds ``_PERIOD_CAP``.

    It is the lcm of the orders modulo the prime powers p**e dividing q,
    which ``_factors`` gives one power of p at a time.  The order modulo p
    comes from the factors of p - 1; modulo p**(k+1) it is the order modulo
    p**k or p times it (3**5 = 1 modulo both 11 and 121).  Each divides the
    order modulo q, so the first lcm over the cap refuses.  A cofactor with
    no prime factor below ``_TRIAL`` goes to ``_order_search``.
    """
    length, last = 1, None
    for p in _factors(q):
        if p == last:
            power *= p
            if pow(3, order, power) != 1:
                order *= p
        elif p < _TRIAL**2:
            last, power, order = p, p, _prime_order(p)
        else:
            order = _order_search(p)
            if order is None:
                return None
        length = lcm(length, order)
        if length > _PERIOD_CAP:
            return None
    return length


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
        raise DomainError(f"{_named(x, 'x', '{}')} is not a ternary rational")
    return m


def _expands(text: bytes, s: int, x: Fraction) -> bool:
    """Whether x is the value of the expansion whose base-3 numeral is text,
    of which the first s digits are the preperiod and the rest the period.

    With x = r/q, reading c digits of value D takes r to 3**c * r - q * D,
    and the tail after them is r/q.  The remainder after the preperiod P
    comes back after the period B of L digits exactly when x = P/3**s +
    B/(3**s * (3**L - 1)).  Every tail lies in [0, 1], so a remainder outside
    [0, q] rejects at once.  A step reads ``_LEAF`` digits, linear in q's size.
    """
    r, q = x.numerator, x.denominator
    tails = []
    for lo, hi in ((0, s), (s, len(text))):
        for a in range(lo, hi, _LEAF):
            b = min(a + _LEAF, hi)
            r = 3 ** (b - a) * r - q * int(text[a:b], 3)
            if not 0 <= r <= q:
                return False
        tails.append(r)
    return tails[0] == tails[1]


@dataclass(frozen=True)
class DigitSeq:
    """Eventually periodic ternary expansion of a rational in [0, 1].

    ``preperiod + period`` are the digits, given and held as ``bytes`` with
    one byte per digit; the period is nonempty and repeats forever.
    Terminating expansions, x = 0 among them, carry the explicit one-digit
    period 0.  Anything else, a tuple or bytearray of digits or an empty
    period, raises DomainError, as do a byte above 2 and digits whose value
    is not ``value``, which ``_expands`` decides on integers.
    """

    preperiod: bytes
    period: bytes
    value: Fraction

    def __post_init__(self):
        pre, period = self.preperiod, self.period
        if type(pre) is not bytes or type(period) is not bytes:
            raise DomainError("preperiod and period must be bytes")
        if not period:
            raise DomainError("the period must have at least one digit")
        digits = pre + period
        bad = digits.translate(None, _DIGITS)  # one pass in C
        if bad:
            raise DomainError(f"digit {bad[0]} outside {{0,1,2}}")
        if not _expands(digits.translate(_DIGIT_TEXT), len(pre), self.value):
            raise DomainError("digits do not reconstruct the stored value")


def expand_rational(x: Fraction | int) -> DigitSeq:
    """Canonical eventually periodic ternary expansion of x in [0, 1].

    Terminating values end in the explicit period 0; x = 1 is stored
    with the all-2's period.  The period is minimal and the preperiod has
    no removable suffix.

    With x = r/q in lowest terms and q = 3**s * q', 3 not dividing q', the
    preperiod is the first s digits.  The remainder after them is 3**s times
    a residue prime to q', which each digit triples, so it first returns
    after L = ord_q'(3) digits (1 at x = 1), and ``_leading_digits`` makes
    exactly s + L digits; an L over ``_PERIOD_CAP`` raises ResourceLimitError first.
    """
    _check_point(x)
    x = Fraction(x)
    s, rest = _split_threes(x.denominator)
    length = _period_length(rest)
    if length is None:
        raise ResourceLimitError(
            f"period of {_named(x, 'x', '{}')} exceeds cap of {_PERIOD_CAP} digits"
        )
    digits = _leading_digits(x, s + length)
    return DigitSeq(digits[:s], digits[s:], x)


def walk_value(x: DigitSeq, n: int) -> int:
    """W(n) = n - 3 * (number of 1's among the first n digits); W(0) = 0."""
    if n < 0:
        raise DomainError("n must be >= 0")
    cycles, partial = divmod(max(n - len(x.preperiod), 0), len(x.period))
    ones = x.preperiod.count(1, 0, n) + x.period.count(1, 0, partial)
    if cycles:  # the whole period is read only when n covers it
        ones += cycles * x.period.count(1)
    return n - 3 * ones
