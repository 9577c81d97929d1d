"""Exact references the benchmark checks the program's outputs against.

Nothing here imports the library or shares its float arithmetic: every
value is computed with Python integers from the exact rational value of
its input (``float.as_integer_ratio`` for grid points), and rounded to a
float once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0**-52
_FIXED_BITS = 200


def _ratio(x: float) -> tuple[int, int]:
    num, den = x.as_integer_ratio()
    if not 0 <= num <= den:
        raise ValueError(f"{x} outside [0, 1]")
    return num, den


def k_sum(x: float, terms: int) -> float:
    """sum_{n<terms} 3^-n Phi(3^n x) at the exact dyadic value of x.

    Phi is the sawtooth 3f, 3(1-2f), 3(f-1) on the thirds of [0, 1) and
    has period 1, so only frac(3^n x) = r_n / den matters; r_n is exact.
    """
    num, den = _ratio(x)
    r = num % den
    total = 0
    for _ in range(terms):
        if 3 * r <= den:
            phi = 3 * r
        elif 3 * r <= 2 * den:
            phi = 3 * (den - 2 * r)
        else:
            phi = 3 * (r - den)
        total = 3 * total + phi  # scaled by 3^(terms-1-n) * den at the end
        r = 3 * r % den
    return total / (3 ** (terms - 1) * den)


def k_reference_terms(target: float = 1e-18) -> int:
    """Terms after which the K series tail sum_{n>=N} 3^-n is below target."""
    n = 1
    while 1.5 * 3.0**-n > target:
        n += 1
    return n


def okamoto_value(a: float, x: float, target: float = 1e-18) -> float:
    """F_a(x) by its digit-product series over the exact ternary digits of x.

    F_a(x) = sum_n q(d_n) prod_{j<n} p(d_j) with p = (a, 1-2a, a) and
    q = (0, a, 1-a); the terms shrink like r^n, r = max(a, |1-2a|), and
    the series stops once the rest is below ``target``.  Sums run in
    fixed point with 2^-_FIXED_BITS resolution, far below ``target``.
    """
    num, den = _ratio(x)
    if num == den:
        return 1.0
    an, ad = a.as_integer_ratio()
    shift = ad.bit_length() - 1  # a float's denominator is a power of 2
    p = (an, ad - 2 * an, an)
    q = (0, an, ad - an)
    r = max(a, abs(1 - 2 * a))
    terms = math.ceil(math.log(target * (1 - r) / max(a, 1 - a)) / math.log(r))
    total = 0
    prod = 1 << _FIXED_BITS
    for _ in range(terms):
        num *= 3
        d, num = divmod(num, den)
        total += q[d] * prod >> shift
        prod = p[d] * prod >> shift
    return total / (1 << _FIXED_BITS)


def takagi_value(x: float) -> float:
    """T(x) = sum_n 2^-n dist(2^n x, Z), exact: x = num / 2^k ends after k terms."""
    num, den = _ratio(x)
    k = den.bit_length() - 1
    total = 0
    r = num % den
    for n in range(k):
        total += min(r, den - r) << (k - n)
        r = 2 * r % den
    return total / (den << k)


def lebesgue_value(a: float, x: float) -> float:
    """L_a(x) = sum_n b_n a prod_{j<n} w(b_j), w(0) = a, w(1) = 1 - a, exact.

    The binary digits b_n of a float end after finitely many, and the
    trailing zeros add nothing.
    """
    num, den = _ratio(x)
    if num == den:
        return 1.0
    an, ad = a.as_integer_ratio()
    w = (an, ad - an)
    k = den.bit_length() - 1
    total = 0
    prod = 1
    for _ in range(k):
        num *= 2
        b, num = divmod(num, den)
        total = total * ad + b * an * prod
        prod *= w[b]
    return total / ad**k if k else 0.0


def csv_rounding(text: str) -> float:
    """Largest error of a value printed with ``{:.12g}``."""
    v = abs(float(text))
    if v == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(v)) - 11)


# ---------------------------------------------------------------------------
# ternary expansions of rationals


def expansion(x: Fraction) -> tuple[list[int], list[int]]:
    """Canonical eventually periodic ternary expansion of x in [0, 1].

    Long division on the integer remainder; terminating values end in the
    period (0,), and x = 1 keeps the all-2's period.
    """
    if x == 1:
        return [], [2]
    num, den = x.numerator, x.denominator
    digits: list[int] = []
    seen: dict[int, int] = {}
    while num not in seen:
        seen[num] = len(digits)
        num *= 3
        d, num = divmod(num, den)
        digits.append(d)
    start = seen[num]
    return digits[:start], digits[start:]


def walk(pre: list[int], period: list[int], n: int) -> int:
    """W(n) = n - 3 * (number of 1's among the first n digits)."""
    ones = pre[:n].count(1)
    rest = n - len(pre)
    if rest > 0:
        cycles, partial = divmod(rest, len(period))
        ones += cycles * period.count(1) + period[:partial].count(1)
    return n - 3 * ones


def walk_prefix(pre: list[int], period: list[int], n: int) -> list[int]:
    out, w = [], 0
    for k in range(n):
        d = pre[k] if k < len(pre) else period[(k - len(pre)) % len(period)]
        w += -2 if d == 1 else 1
        out.append(w)
    return out


def verdict(drift: int) -> str:
    if drift > 0:
        return "PLUS_INFINITY"
    if drift < 0:
        return "MINUS_INFINITY"
    return "NO_INFINITE_DERIVATIVE"


# ---------------------------------------------------------------------------
# experiments


def box_dimension(a: Fraction) -> float:
    """Graph box dimension: 1 for a <= 1/2, else 1 + log3(4a - 1)."""
    if a <= Fraction(1, 2):
        return 1.0
    return 1.0 + math.log(4 * a - 1) / math.log(3)


def construct_ordinates(a: Fraction, level: int) -> tuple[list[int], int]:
    """F_a at k / 3^level for every k, as numerators over a common scale.

    Uses the digit-product series: at a ternary rational it ends with the
    last digit (q(0) = 0), so each value is an exact finite sum.  The
    digits are walked most significant first, so prefixes share work.
    """
    an, ad = a.numerator, a.denominator
    p = (an, ad - 2 * an, an)
    q = (0, an, ad - an)
    level_states = [(0, 1)]  # (sum, product), both scaled by ad^j
    for _ in range(level):
        level_states = [
            (total * ad + q[d] * prod, prod * p[d])
            for total, prod in level_states
            for d in (0, 1, 2)
        ]
    scale = ad**level
    return [total for total, _ in level_states] + [scale], scale
