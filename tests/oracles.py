"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's own code paths: digits
come from plain long division, the value of an expansion from one Fraction
of its numerals, the order of 3 from stepping through its powers, F_a from
a digit sum in integer fixed point, crossing probabilities from exhaustive
enumeration and from counting the digit strings that never cross, entropy
values from mpmath high-precision arithmetic, the subdivision graph from
Fraction arithmetic, walks from numpy doubles, csv/svg text from one
f-string per point, and json text from the standard library's indent
encoder.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable
from fractions import Fraction

import mpmath
import numpy as np


def naive_ternary_digits(x: Fraction, n: int) -> list[int]:
    """First n base-3 digits of x in [0, 1) by repeated multiplication."""
    digits = []
    y = Fraction(x)
    for _ in range(n):
        y *= 3
        d = int(y)
        digits.append(d)
        y -= d
    return digits


def _numeral_value(text: bytes) -> int:
    """The integer whose base-3 numeral is text, parsed in halves: ``int``
    refuses a numeral of over 4300 digits."""
    if len(text) <= 512:
        return int(text or b"0", 3)
    mid = len(text) // 2
    return _numeral_value(text[:mid]) * 3 ** (len(text) - mid) + _numeral_value(
        text[mid:]
    )


def expansion_value(preperiod: bytes, period: bytes) -> Fraction:
    """The value of the ternary expansion ``preperiod`` then ``period`` forever,
    digits one byte each: (P (3^L - 1) + B) / (3^s (3^L - 1)) for the s-digit
    preperiod P and the L-digit period B, as one Fraction."""
    to_text = bytes.maketrans(b"\0\1\2", b"012")
    pre, block = (_numeral_value(d.translate(to_text)) for d in (preperiod, period))
    cycle = 3 ** len(period) - 1
    return Fraction(pre * cycle + block, 3 ** len(preperiod) * cycle)


def order_of_three(q: int, cap: int) -> int | None:
    """The least L >= 1 with 3^L = 1 modulo q, 3 not dividing q, by stepping
    through the powers of 3; None when it exceeds cap."""
    order, power = 1, 3 % q
    while power != 1 % q:
        if order == cap:
            return None
        order, power = order + 1, power * 3 % q
    return order


OKAMOTO_TARGET = 1e-17  # bound on the terms okamoto_value leaves out
OKAMOTO_BITS = 192  # fixed-point bits of okamoto_value's sum


def okamoto_value(a: float, x) -> float:
    """F_a(x) to within ``OKAMOTO_TARGET``, by its digit-product series on integers.

    F_a(x) is the sum over n of q(d_n) * p(d_1) ... p(d_(n-1)), with
    p = (a, 1-2a, a) and q = (0, a, 1-a), over the ternary digits of x.
    a = an / 2^e and x = num / den come from ``as_integer_ratio``; each digit
    is min(2, 3 num // den) with the remainder 3 num - d den, so x = 1 keeps
    num = den and reads 2's forever.  The sum runs in fixed point with
    2^-OKAMOTO_BITS resolution, each product truncated, and stops once the
    terms left add up to at most the target: term n is at most
    max(a, 1-a) r^(n-1), r = max(a, |1-2a|).
    """
    an, ad = a.as_integer_ratio()
    shift = ad.bit_length() - 1  # a float's denominator is a power of 2
    p = (an, ad - 2 * an, an)
    q = (0, an, ad - an)
    r = max(a, abs(1 - 2 * a))
    rest = max(a, 1 - a) / (1 - r)
    num, den = x.as_integer_ratio()
    total, prod = 0, 1 << OKAMOTO_BITS
    while rest > OKAMOTO_TARGET:
        d = min(2, 3 * num // den)
        num = 3 * num - d * den
        total += q[d] * prod >> shift
        prod = p[d] * prod >> shift
        rest *= r
    return total / (1 << OKAMOTO_BITS)


def crossing_probability_enum(horizon: int) -> float:
    """Exact crossing probability by enumerating all 3^horizon digit strings.

    A digit 1 steps the walk by -2, digits 0 and 2 by +1; the walk crosses
    when it touches or passes 0.
    """
    crossed = 0
    for digits in itertools.product((0, 1, 2), repeat=horizon):
        w = 0
        lo = hi = None
        for d in digits:
            w += -2 if d == 1 else 1
            lo = w if lo is None else min(lo, w)
            hi = w if hi is None else max(hi, w)
        if lo <= 0 <= hi:
            crossed += 1
    return crossed / 3**horizon


def crossing_probabilities_exact(max_horizon: int) -> list[Fraction]:
    """Exact crossing probabilities at horizons 1..max_horizon, as Fractions.

    ``alive`` maps each value of W to the number of digit strings that reach
    it without crossing: the first step leaves W at 1 (digits 0 and 2) or
    at -2 (digit 1), and a later step keeps a string only while W keeps its
    sign, so a value of 0 or of the other sign drops it.
    """
    alive = {1: 2, -2: 1}
    probabilities = []
    for n in range(1, max_horizon + 1):
        probabilities.append(1 - Fraction(sum(alive.values()), 3**n))
        later = {}
        for w, count in alive.items():
            for step, digits in ((1, 2), (-2, 1)):
                if (w + step) * w > 0:
                    later[w + step] = later.get(w + step, 0) + count * digits
        alive = later
    return probabilities


def entropy_dimension_mp(p0, p1, p2, dps: int = 50) -> float:
    """(-sum p ln p) / ln 3 at high precision."""
    with mpmath.workdps(dps):
        ent = mpmath.mpf(0)
        for p in (p0, p1, p2):
            p = mpmath.mpf(p)
            if p > 0:
                ent -= p * mpmath.log(p)
        return float(ent / mpmath.log(3))


def takagi_quadrature_free(x: Fraction, terms: int = 200) -> Fraction:
    """Takagi partial sum in exact rational arithmetic."""
    total = Fraction(0)
    for n in range(terms):
        y = (2**n * x) % 1
        total += Fraction(1, 2**n) * min(y, 1 - y)
    return total


def big_phi_exact(y: Fraction) -> Fraction:
    """Phi(y): 3f, 3 - 6f or 3f - 3 on the thirds of the fraction part f."""
    f = y - y.numerator // y.denominator
    if f <= Fraction(1, 3):
        return 3 * f
    if f <= Fraction(2, 3):
        return 3 - 6 * f
    return 3 * f - 3


def sigma_split_fractions(x: Fraction, h: Fraction) -> dict:
    """Every field of the Sigma1..Sigma4 split of (K(x+h) - K(x)) / h.

    x and x + h < 1 are ternary rationals of order at most m, so K is the
    finite sawtooth sum over levels n < m, here in Fraction arithmetic
    level by level.  p is the least p >= 1 with 3^-p <= h, k0 the length
    of the shared digit prefix (at most p), and the sandwich is centred on
    3 W(n) of x, from digits by repeated multiplication.
    """
    y = x + h
    m = 0
    while (x * 3**m).denominator != 1 or (y * 3**m).denominator != 1:
        m += 1

    def k_value(z):
        return sum((big_phi_exact(3**n * z) / 3**n for n in range(m)), Fraction(0))

    levels = [
        (big_phi_exact(3**n * y) - big_phi_exact(3**n * x)) / (3**n * h)
        for n in range(m)
    ]
    p = 1
    while Fraction(1, 3**p) > h:
        p += 1
    dx = naive_ternary_digits(x, p)
    dy = naive_ternary_digits(y, p)
    k0 = 0
    while k0 < p and dx[k0] == dy[k0]:
        k0 += 1

    def three_walk(n):
        return 3 * (n - 3 * dx[:n].count(1))

    if k0 <= p - 3:
        case_tag, ref, low, high = "k0<=p-3", three_walk(p - 1), -27, 18
    elif k0 == p - 2:
        case_tag, ref, low, high = "k0==p-2", three_walk(p - 2), -15, 12
    else:
        case_tag, ref, low, high = "k0==p-1", three_walk(p - 1), -15, 12
    return {
        "x": x,
        "h": h,
        "p": p,
        "k0": k0,
        "case_tag": case_tag,
        "sigma1": sum(levels[:k0], Fraction(0)),
        "sigma2": levels[k0],
        "sigma3": sum(levels[k0 + 1 : p - 1], Fraction(0)),
        "sigma4": sum(levels[max(p - 1, k0 + 1) :], Fraction(0)),
        "quotient": (k_value(y) - k_value(x)) / h,
        "sandwich_low": Fraction(ref + low),
        "sandwich_high": Fraction(ref + high),
    }


def walk_paths_doubles(
    samples: int, horizon: int, seed: int, prefix: int = 256
) -> tuple[int, int, int]:
    """(crossed, late, step total) of the walk Monte Carlo, one path at a time.

    Path i draws doubles u from Generator(Philox(key=(seed << 64) + i)),
    steps -2 when u < 1/3 and +1 otherwise, and crosses when its whole
    cumulative sum touches or passes 0.  ``late`` counts the crossing paths
    whose first ``prefix`` steps do not cross.
    """
    crossed = late = total = 0
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + i))
        steps = np.where(rng.random(horizon) < 1 / 3, -2, 1)
        walk = np.cumsum(steps)
        if walk.min() <= 0 <= walk.max():
            crossed += 1
            head = walk[:prefix]
            late += not head.min() <= 0 <= head.max()
        total += int(steps.sum())
    return crossed, late, total


def subdivision_fractions(a: Fraction, level: int) -> list[Fraction]:
    """Ordinates of the level-n subdivision graph at k/3^n, in Fractions.

    Each refinement replaces a segment from lo to hi by three, with interior
    ordinates lo + a (hi - lo) and lo + (1 - a) (hi - lo).
    """
    ords = [Fraction(0), Fraction(1)]
    for _ in range(level):
        nxt = []
        for lo, hi in zip(ords, ords[1:]):
            nxt += [lo, lo + a * (hi - lo), lo + (1 - a) * (hi - lo)]
        nxt.append(ords[-1])
        ords = nxt
    return ords


def box_counts_fractions(ords: list[Fraction], level: int) -> list[int]:
    """Closed 3^-j boxes met by the piecewise-linear graph, j = 1..level.

    ords are the ordinates at k/3^level; a column of width 3^-j meets the
    boxes from floor(3^j min) to floor(3^j max) of its ordinates.
    """
    counts = []
    for j in range(1, level + 1):
        step = 3 ** (level - j)
        total = 0
        for i in range(3**j):
            col = ords[i * step : (i + 1) * step + 1]
            total += math.floor(max(col) * 3**j) - math.floor(min(col) * 3**j) + 1
        counts.append(total)
    return counts


# The per-point csv and svg writers of `eval` and `construct`, kept as the
# reference the block writers of `okamoto_k.cli` must match byte for byte.


def csv_per_point(points: Iterable[tuple[float, float]]) -> str:
    lines = ["x,value"]
    lines.extend(f"{x:.12g},{v:.12g}" for x, v in points)
    lines.append("")
    return "\n".join(lines)


def svg_per_point(points: Iterable[tuple[float, float]], ylo: float, yhi: float) -> str:
    # fixed 800x800 viewport; graph area inset by a 40px margin
    size, margin = 800, 40
    span = size - 2 * margin

    def sx(x: float) -> float:
        return margin + x * span

    def sy(y: float) -> float:
        return margin + (yhi - y) / (yhi - ylo) * span

    pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in points)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    if ylo < 0 < yhi:
        y0 = sy(0.0)
        parts.append(
            f'<line x1="{margin}" y1="{y0:.2f}" x2="{size - margin}" y2="{y0:.2f}" '
            'stroke="#ccc" stroke-width="1"/>'
        )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bytes_as_list(value):
    """A bytes value as the list of its byte values; the encoder's TypeError
    for anything else."""
    if isinstance(value, bytes):
        return list(value)
    return json.JSONEncoder().default(value)


def json_doc(payload: dict) -> str:
    """A command's json document as ``json.dumps`` lays it out with an indent.

    A bytes value, such as the digits of an expansion, is written as the
    list of its byte values.
    """
    doc = {"schema_version": 1, **payload}
    return json.dumps(doc, indent=2, default=_bytes_as_list) + "\n"
