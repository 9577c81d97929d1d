"""Evaluators for the self-affine function family and its companions.

Covers the tent map phi, the signed sawtooth Phi, the Takagi series T,
the binary singular function L_a, the family F_a by two routes (exact
subdivision, and the digit series over the exact ternary digits of x), the
parameter-derivative function K at a = 1/3 (three routes: the sawtooth
series, the digit series and the exact rational sum).  Both digit series,
F_a's and K's, read the digits of the exact value of x through one window,
``ternary._leading_digits``, as ``ternary.expand_rational`` does.  The digit
series of K is summed in one place, ``_k_scaled``, on integers:
``k_series_digits`` rounds its value once, and the sigma split checks it
against the sawtooth terms of ``_k_terms``.

Every float evaluator carries an explicit truncation with a proven tail
bound; ``k_exact`` and ``okamoto_iterative`` are the exact-rational
oracles the float routes are tested against.

The ``*_array`` routes behind ``eval`` run the loop of their scalar twin
over a float64 array, one term at a time, with the same IEEE operations in
the same order (branches become ``np.where`` selects, and okamoto's exact
digits come from integer limbs), so each element is bit-identical to the
scalar call at that point.  Every operation is elementwise, so a route gives
the same values on a grid as on any split of it into blocks, and its memory
is O(len(xs)) whatever the term count.  Each function that computes with
numpy imports it when called, so importing this module does not load it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .ternary import _check_point, _leading_digits, _named, _ternary_order

TERNARY_TERMS = 40  # tail <= 1.5 * 3**-40, below double-precision noise
BINARY_TERMS = 50  # the Takagi series: tail <= 2**-50
LEBESGUE_DEPTH = 60  # binary digits unrolled by L_a: error <= max(a, 1-a)**60

_S = (0, 1, -1)  # sign weight per digit
_ITERATIVE_CAP = 3**12 + 1
# bits of okamoto_iterative's numerators, (3**n + 1) * n * bits(q) at level n:
# 2**28 (a = 1/10**1539, level 8) held 40 MB and took 0.5 s on one core
_ITERATIVE_BITS = 2**28
_SAMPLES_CAP = 10**6  # points of sample_grid
_TERMS_CAP = 1000  # of ternary_truncation: K's weight 3^-n is 0.0 from term 680 on
_LIMB_MASK = 2**60 - 1  # okamoto_series_array holds x * 2**120 in two limbs


@dataclass(frozen=True)
class SeriesTruncation:
    """Number of retained terms plus a proven bound on the dropped tail."""

    terms: int
    tail_bound: float

    def __post_init__(self):
        if self.terms < 1:
            raise DomainError("truncation needs at least one term")
        if self.tail_bound < 0:
            raise DomainError("tail bound must be nonnegative")


def ternary_truncation(terms: int = TERNARY_TERMS) -> SeriesTruncation:
    """Truncation for sum 3^-n Phi(3^n x), n = 0..N-1.

    |Phi| <= 1, so the tail is at most sum_{n>=N} 3^-n = 1.5 * 3^-N; at
    x = 3^-(N+1) it is exactly 3^-N.  A count above ``_TERMS_CAP`` raises
    ResourceLimitError, and one below 1 DomainError (``max`` keeps 3.0**-N finite).
    """
    if terms > _TERMS_CAP:
        raise ResourceLimitError(f"{terms} series terms exceed cap of {_TERMS_CAP}")
    return SeriesTruncation(terms, 1.5 * 3.0 ** -max(terms, 1))

def binary_truncation() -> SeriesTruncation:
    """Truncation for the Takagi series: phi <= 1/2, tail <= 2^-BINARY_TERMS."""
    return SeriesTruncation(BINARY_TERMS, 2.0**-BINARY_TERMS)


def contraction_ratio(a: float) -> float:
    """Vertical contraction r(a) = max(a, |1 - 2a|) of the family."""
    return max(a, abs(1 - 2 * a))


def kobayashi_truncation(a: float, terms: int = TERNARY_TERMS) -> SeriesTruncation:
    """Truncation for the digit series of F_a.

    The n-th term is bounded by r(a)^(n-1) * max(a, 1-a), so the tail
    dropped after N terms is at most r^N * max(a, 1-a) / (1 - r).  Where
    r rounds to 1, as 1 - 2a does for a below about 2.8e-17, the bound is
    infinite and no term count reaches a target: DomainError, as for an a
    outside (0, 1) or NaN.
    """
    _check_a(a)
    r = contraction_ratio(a)
    if r >= 1:
        raise DomainError(f"contraction ratio of a={a} rounds to 1")
    return SeriesTruncation(terms, r**terms * max(a, 1 - a) / (1 - r))


def kobayashi_terms_for(a: float, target: float) -> int:
    """Least N >= 1 with ``kobayashi_truncation(a, N).tail_bound <= target``.

    The target must be > 0.  The bound never rises with N and is 0.0 once
    r^N underflows, so N is bracketed by doubling and then found by ``bisect``.
    """
    if not target > 0:
        raise DomainError(f"target={target} must be > 0")

    def meets(n: int) -> bool:
        return kobayashi_truncation(a, n).tail_bound <= target

    hi = 1
    while not meets(hi):
        hi *= 2
    lo = hi // 2 + 1  # hi // 2 is 0, or a count that misses the target
    return lo + bisect_left(range(lo, hi + 1), True, key=meets)


# ---------------------------------------------------------------------------
# elementary building blocks


def _check_a(a) -> None:
    """Raise DomainError unless the parameter a lies in (0, 1)."""
    if not 0 < a < 1:
        raise DomainError(f"parameter {_named(a, 'a', 'a={}')} outside (0, 1)")


def _unit_array(xs) -> np.ndarray:
    """xs as a float64 array, checked to lie in [0, 1]."""
    import numpy as np
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0) & (xs <= 1)):
        raise DomainError("point outside [0, 1]")
    return xs


def tent_phi(x: float) -> float:
    """Distance from x to the nearest integer; 1-periodic, range [0, 1/2]."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)


def big_phi(x: float) -> float:
    """Signed sawtooth: 3x on [0,1/3], 3(1-2x) on [1/3,2/3], 3(x-1) on [2/3,1].

    Extended to all of R by period 1; range [-1, 1].
    """
    f = x - math.floor(x)
    if f <= 1 / 3:
        return 3 * f
    if f <= 2 / 3:
        return 3 * (1 - 2 * f)
    return 3 * (f - 1)


# ---------------------------------------------------------------------------
# Takagi and the binary singular function


def takagi(x: float) -> float:
    """Partial sum of sum_n 2^-n phi(2^n x) over ``BINARY_TERMS`` terms.

    The error is at most ``binary_truncation().tail_bound`` = 2^-50.
    """
    _check_point(x)
    total = 0.0
    y = x
    w = 1.0
    for _ in range(BINARY_TERMS):
        total += w * tent_phi(y)
        y = (2 * y) % 1.0
        w *= 0.5
    return total


def takagi_array(xs) -> np.ndarray:
    """``takagi`` at every point of xs, bit-identical to the scalar route.

    The doubling step takes ``z - floor(z)`` where the scalar route takes
    ``z % 1.0``, for ``z = fl(2y)`` in [0, 2].  Both are exact, so both give
    the same double: ``fmod(z, 1)`` always is, and ``z - floor(z)`` is for
    ``z < 1`` (floor 0) and by Sterbenz's lemma for ``1 <= z <= 2``; at
    ``z = 2`` and at ``z = -0.0`` both are +0.0.  ``np.floor`` costs a
    fraction of ``np.remainder``.
    """
    import numpy as np
    y = _unit_array(xs)
    total = np.zeros_like(y)
    w = 1.0
    for _ in range(BINARY_TERMS):
        f = y - np.floor(y)
        total += w * np.minimum(f, 1.0 - f)
        y = 2 * y
        y -= np.floor(y)
        w *= 0.5
    return total


def lebesgue_L(a: float, x: float) -> float:
    """Binary self-affine singular function via its two-branch recursion.

    Unrolls ``LEBESGUE_DEPTH`` binary digits, tracking the accumulated
    affine map, and closes with the identity (exact for a = 1/2, where L is
    the identity).  Error <= max(a, 1-a)**LEBESGUE_DEPTH.  Steps stay in [0, 1].
    """
    _check_a(a)
    _check_point(x)
    shift = 0.0
    scale = 1.0
    t = x
    for _ in range(LEBESGUE_DEPTH):
        if t <= 0.5:
            scale *= a
            t = 2 * t
        else:
            shift += scale * a
            scale *= 1 - a
            t = 2 * t - 1
    return shift + scale * t


def lebesgue_L_array(a: float, xs) -> np.ndarray:
    """``lebesgue_L`` at every point of xs, bit-identical to the scalar route."""
    import numpy as np
    _check_a(a)
    t = _unit_array(xs)
    shift = np.zeros_like(t)
    scale = np.ones_like(t)
    for _ in range(LEBESGUE_DEPTH):
        left = t <= 0.5
        shift = np.where(left, shift, shift + scale * a)
        scale = np.where(left, scale * a, scale * (1 - a))
        t = np.where(left, 2 * t, 2 * t - 1)
    return shift + scale * t


# ---------------------------------------------------------------------------
# the one-parameter family F_a, two routes


@dataclass(frozen=True)
class PiecewiseLinear:
    """Level-n subdivision approximant with exact rational ordinates.

    The ordinate at breakpoint k / 3**level is ``numerators[k] /
    denominator``; with a = p/q every ordinate of level n is an integer over
    ``q**n``, so the whole graph is held on integers.  ``ordinates`` gives
    the same values as reduced ``Fraction``s.
    """

    level: int
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        if len(self.numerators) != 3**self.level + 1:
            raise DomainError("ordinate count must be 3**level + 1")

    @property
    def ordinates(self) -> tuple[Fraction, ...]:
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    def __call__(self, x: float) -> float:
        """The interpolated value at the exact rational value of the float x."""
        _check_point(x)
        x = Fraction(x)
        nums = self.numerators
        scaled = x * 3**self.level
        k = min(math.floor(scaled), 3**self.level - 1)  # x = 1 ends the last piece
        return float((nums[k] + (scaled - k) * (nums[k + 1] - nums[k])) / self.denominator)


def okamoto_iterative(a: Fraction, level: int) -> PiecewiseLinear:
    """Exact subdivision construction f_level of the family member.

    Each refinement replaces a segment by three, placing the interior
    breakpoints at fractions a and 1-a of the segment's rise.  With
    a = p/q and ordinates held as integers over q**n, one refinement maps
    the numerators lo, hi of a segment to lo*q, lo*q + p*rise and
    lo*q + (q-p)*rise over q**(n+1), where rise = hi - lo.  The numerators
    of level n hold at most n * bits(q) bits each; a level whose 3**n + 1
    numerators could exceed ``_ITERATIVE_BITS`` bits in all raises
    ResourceLimitError before any is made.
    """
    _check_a(a)
    a = Fraction(a)
    if level < 0:
        raise DomainError("level must be >= 0")
    if 3**level + 1 > _ITERATIVE_CAP:
        raise ResourceLimitError(
            f"level {level} exceeds cap of {_ITERATIVE_CAP} breakpoints"
        )
    p, q = a.numerator, a.denominator
    if (3**level + 1) * level * q.bit_length() > _ITERATIVE_BITS:
        raise ResourceLimitError(
            f"level {level} with a {q.bit_length()}-bit denominator of a exceeds "
            f"cap of {_ITERATIVE_BITS} numerator bits"
        )
    nums = [0, 1]
    for _ in range(level):
        nxt: list[int] = []
        for lo, hi in zip(nums, nums[1:]):
            rise = hi - lo
            base = lo * q
            nxt += (base, base + p * rise, base + (q - p) * rise)
        nxt.append(nums[-1] * q)
        nums = nxt
    return PiecewiseLinear(level, tuple(nums), q**level)


def okamoto_series(
    a: float,
    x: float | Fraction,
    trunc: SeriesTruncation | None = None,
) -> float:
    """Digit-product series for F_a(x); error <= trunc.tail_bound.

    The digits are the canonical ones of the exact value of x, a float or
    a Fraction, read by ``_leading_digits`` as ``k_series_digits`` reads them.
    """
    _check_a(a)
    terms = trunc.terms if trunc else TERNARY_TERMS
    p = (a, 1 - 2 * a, a)
    q = (0.0, a, 1 - a)
    total = 0.0
    prod = 1.0
    for d in _leading_digits(x, terms):
        total += prod * q[d]
        prod *= p[d]
    return total


def okamoto_series_array(a: float, xs) -> np.ndarray:
    """``okamoto_series`` at every point of xs, bit-identical to the scalar route.

    Two 60-bit uint64 limbs hold y = floor(x * 2**120), 2**120 - 1 at x = 1
    (75 leading 2's); each step triples them, and the carry out of the top
    limb is the digit.  y = x * 2**120 for x >= 2**-64, and below 2**-64,
    y < 2**56 < 2**120 * 3**-40, so the 40 carries are 0, as the digits are.
    """
    import numpy as np
    _check_a(a)
    p = np.array((a, 1 - 2 * a, a))
    q = np.array((0.0, a, 1 - a))
    x = _unit_array(xs)
    frac, top = np.modf(x * 2.0**60)  # both exact
    hi = top.astype(np.uint64)
    lo = (frac * 2.0**60).astype(np.uint64)
    hi[x == 1] = lo[x == 1] = _LIMB_MASK
    total = np.zeros_like(x)
    prod = np.ones_like(x)
    for _ in range(TERNARY_TERMS):
        lo *= 3
        hi *= 3
        hi += lo >> 60
        lo &= _LIMB_MASK
        d = (hi >> 60).view(np.int64)  # the carry: 0, 1 or 2
        hi &= _LIMB_MASK
        total += prod * q.take(d)
        prod *= p.take(d)
    return total


# ---------------------------------------------------------------------------
# the parameter derivative K at a = 1/3, three routes

_K_TRUNCATION = ternary_truncation()  # K's sawtooth routes called without a trunc


def k_series_phi(x: float, trunc: SeriesTruncation = _K_TRUNCATION) -> float:
    """K via the sawtooth series sum_n 3^-n Phi(3^n x)."""
    _check_point(x)
    total = 0.0
    y = x
    w = 1.0
    for _ in range(trunc.terms):
        total += w * big_phi(y)
        y = (3 * y) % 1.0
        w /= 3.0
    return total


def k_series_phi_array(xs, trunc: SeriesTruncation = _K_TRUNCATION) -> np.ndarray:
    """``k_series_phi`` at every point of xs, bit-identical to the scalar route.

    The tripling step takes ``z - floor(z)`` where the scalar route takes
    ``z % 1.0``, for ``z = fl(3y)`` in [0, 3].  Both are exact, so both give
    the same double: ``fmod(z, 1)`` always is, and ``z - floor(z)`` is for
    ``z < 1`` (floor 0) and by Sterbenz's lemma for ``1 <= z < 3``; at
    ``z = 3``, which ``x = 1.0`` reaches, and at ``z = -0.0`` both are
    +0.0.  ``np.floor`` costs a fraction of ``np.remainder``.
    """
    import numpy as np
    y = _unit_array(xs)
    total = np.zeros_like(y)
    w = 1.0
    for _ in range(trunc.terms):
        f = y - np.floor(y)
        total += w * np.where(
            f <= 1 / 3, 3 * f, np.where(f <= 2 / 3, 3 * (1 - 2 * f), 3 * (f - 1))
        )
        y = 3 * y
        y -= np.floor(y)
        w /= 3.0
    return total


def k_series_digits(x: float | Fraction) -> float:
    """K via ``TERNARY_TERMS`` terms of the digit series, like ``k_series_phi``.

    The sum is ``_k_scaled`` of the first digits of the exact value of x, as
    ``okamoto_series`` reads them, exact on integers, divided by
    3**TERNARY_TERMS and so rounded once.
    """
    return _k_scaled(_leading_digits(x, TERNARY_TERMS)) / 3**TERNARY_TERMS


def _k_scaled(digits: bytes) -> int:
    """3**m * K(x) for the x in [0, 1) whose m base-3 digits are ``digits``.

    By the digit series, 3**m * K(x) is the sum over n < m of
    3**(m - n) * (s(d) + W(n) * d), with d = d_{n+1}, s = (0, 1, -1) and
    W(n) = n - 3 * (number of 1's among the first n digits).  It shares no
    code with ``_k_terms``, so each checks the other.
    """
    total = walk = 0
    for d in digits:
        total = 3 * total + _S[d] + walk * d
        walk += -2 if d == 1 else 1
    return 3 * total


def _k_terms(k: int, m: int) -> list[int]:
    """The terms 3**m * 3**-n * Phi(3**n * k / 3**m) for n = 0..m-1.

    Each is an integer: with s = m - n and r = k mod 3**s, the term is
    3**s * Phi(r / 3**s), where a tie at 1/3 or 2/3 takes the left branch
    of the sawtooth, as ``big_phi`` does.
    """
    terms = []
    q = 3**m
    r = k % q
    for _ in range(m):
        r3 = 3 * r
        if r3 <= q:
            terms.append(r3)
        elif r3 <= 2 * q:
            terms.append(3 * q - 2 * r3)
        else:
            terms.append(r3 - 3 * q)
        q //= 3
        r %= q
    return terms


def k_exact(x: Fraction) -> Fraction:
    """Exact rational K at a ternary rational k / 3**m.

    The sawtooth series terminates after m terms there, and each term
    scaled by 3**m is an integer, so the value is an integer sum over
    3**m; this is the oracle for every float route.
    """
    _check_point(x)
    x = x if type(x) is Fraction else Fraction(x)  # a Fraction is not copied
    m = _ternary_order(x)
    return Fraction(sum(_k_terms(x.numerator, m)), 3**m)


def hata_yamaguti_residual(grid: int, h: float) -> float:
    """Max over a grid of |central dL_a/da at a=1/2 minus 2*T(x)|, step h.

    0 < h < 1/2 keeps both a = 1/2 +- h inside (0, 1), and h above 2^-54
    keeps both off 0.5 in floats, where the residual would be max |2T|; any
    other h raises DomainError before the grid is built.
    """
    if not h > 0:
        raise DomainError(f"step h={h} must be > 0")
    if h >= 0.5:
        raise DomainError(f"step h={h} must be below 1/2")
    if 0.5 + h == 0.5 or 0.5 - h == 0.5:
        raise DomainError(f"step h={h} leaves a = 1/2 +- h equal to 1/2 in floats")
    import numpy as np
    xs = sample_grid(grid + 1)
    hi = lebesgue_L_array(0.5 + h, xs)
    lo = lebesgue_L_array(0.5 - h, xs)
    fd = (hi - lo) / (2 * h)
    return float(np.max(np.abs(fd - 2 * takagi_array(xs))))


def sample_grid(n: int) -> np.ndarray:
    """n evenly spaced points covering [0, 1] inclusive; point i is i / (n - 1)."""
    if n < 2:
        raise DomainError("need at least 2 grid points")
    if n > _SAMPLES_CAP:
        raise ResourceLimitError(f"{n} samples exceed cap of {_SAMPLES_CAP}")
    import numpy as np
    return np.arange(n) / (n - 1)
