"""Classification of K's infinite derivatives and secant-slope machinery.

The classifier decides, from the eventually periodic ternary expansion of
x, whether the difference quotients of K tend to +inf, -inf, or neither:
the walk W(n) = n - 3*I1(n) tends to +-inf exactly when its per-period
drift has that sign.  The secant and decomposition tools expose the
quantitative content behind that criterion as runtime-checkable reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ProofCheckError, ResourceLimitError
from .functions import _k_scaled, _k_terms, k_exact
from .ternary import DigitSeq, _digits
from .ternary import expand_rational, walk_value

_FUZZ_ORDER = 10  # sigma_fuzz draws pairs k / 3**m with m up to this order
_FUZZ_TRIALS_CAP = 10**6  # pairs per sigma_fuzz run
_WALK_PREFIX = 20  # steps of W that classification_report lists


class DerivativeClass(enum.Enum):
    PLUS_INFINITY = "PLUS_INFINITY"
    MINUS_INFINITY = "MINUS_INFINITY"
    NO_INFINITE_DERIVATIVE = "NO_INFINITE_DERIVATIVE"


def period_drift(x: DigitSeq) -> int:
    """Change of W over one period: L - 3 * (ones in the period)."""
    return len(x.period) - 3 * x.period.count(1)


def classify_point(x: DigitSeq) -> DerivativeClass:
    """Infinite-derivative verdict for an eventually periodic expansion.

    W(n) tends to +-inf iff the drift over one period is nonzero with
    that sign; zero drift keeps W bounded, so no infinite derivative
    (and, by nowhere-differentiability, no derivative at all).
    """
    drift = period_drift(x)
    if drift > 0:
        return DerivativeClass.PLUS_INFINITY
    if drift < 0:
        return DerivativeClass.MINUS_INFINITY
    return DerivativeClass.NO_INFINITE_DERIVATIVE


def secant_slope(x: DigitSeq, n: int) -> Fraction:
    """Exact slope of K over the level-n ternary interval containing x.

    With u = floor(3^n x)/3^n and v = u + 3^-n, returns
    (K(v) - K(u)) / (v - u), computed from the exact rational K.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if x.value == 1:
        raise DomainError("x = 1 has no level-n interval to the right")
    scale = 3**n
    k = x.value.numerator * scale // x.value.denominator  # floor(3^n x)
    return (k_exact(Fraction(k + 1, scale)) - k_exact(Fraction(k, scale))) * scale


@dataclass(frozen=True)
class DivergenceWitness:
    """Partial secant slopes certifying non-Cauchy difference quotients."""

    partial_sums: tuple[Fraction, ...]
    all_steps_valid: bool


def billingsley_divergence_witness(x: DigitSeq, n: int) -> DivergenceWitness:
    """Secant slopes at levels 1..n, and whether each of their steps is valid.

    Each step from 0 through the slopes must be 3 or -6 (the two slopes of
    the sawtooth), so the slope sequence cannot converge to a finite limit.
    """
    if n < 2:
        raise DomainError("need horizon >= 2")
    sums = tuple(secant_slope(x, k) for k in range(1, n + 1))
    valid = all(b - a in (3, -6) for a, b in zip((0,) + sums, sums))
    return DivergenceWitness(sums, valid)


# ---------------------------------------------------------------------------
# the four-part decomposition of a difference quotient of K


def sigma_decompose(
    i: int, j: int, order: int
) -> tuple[int, int, str, int, int, int, int, int, int]:
    """The split of K's difference quotient at x = i / 3**order, h = j / 3**order.

    Returns (p, k0, case_tag, s1, s2, s3, s4, sandwich_low, sandwich_high),
    where sigma_k = s_k / j and the quotient is (s1 + s2 + s3 + s4) / j.
    p is the least p with 3**-p <= h and k0 the length of the digit prefix
    that x and x + h share, read from the same digits that ``_k_scaled``
    sums and the walk counts.  sigma1 sums the shared levels, sigma2 is
    the crossing level k0, sigma3 the forced-carry levels and sigma4 the
    fine-scale tail; level n adds the integer T_n(i + j) - T_n(i), where
    T_n(k) = 3**(order - n) * Phi(3**n * k / 3**order).  Every check is
    decided on integers, its bounds multiplied through by j.
    ``_k_scaled`` at each end must equal the sum of that end's
    ``_k_terms``, and the difference of the two ends must equal the sum
    of the parts, so an offset common to both ends is caught too; sigma2
    lies in [-6, 3], |sigma4| <= 9, and the quotient in the case's
    sandwich around the digit weight f(1, n) = 3 W(n) of x.  A failed
    check raises ProofCheckError, also under ``python -O``; the sigmas and
    the quotient become Fractions only in its message.  Raises DomainError
    unless 0 <= i < i + j < 3**order.
    """
    scale = 3**order
    if not 0 <= i < i + j < scale:
        raise DomainError(f"need 0 <= i < i + j < 3**{order}")
    p, width = 1, scale // 3  # smallest p with 3**-p <= h; width = 3**(order - p)
    while width > j:
        p, width = p + 1, width // 3

    # k0 < p: sharing p digits would make j < 3**(order - p)
    dx, dy = _digits(i, scale, order), _digits(i + j, scale, order)
    k0 = 0
    while dx[k0] == dy[k0]:
        k0 += 1

    terms_x, terms_y = _k_terms(i, order), _k_terms(i + j, order)
    diffs = [b - a for a, b in zip(terms_x, terms_y)]
    tail_start = max(p - 1, k0 + 1)
    s1, s2, s3, s4 = (
        sum(diffs[:k0]),
        diffs[k0],
        sum(diffs[k0 + 1 : p - 1]),
        sum(diffs[tail_start:]),
    )
    total = s1 + s2 + s3 + s4

    kx, ky = _k_scaled(dx), _k_scaled(dy)
    if kx != sum(terms_x) or ky != sum(terms_y) or ky - kx != total:
        quotient = Fraction(ky - kx, j)
        raise ProofCheckError(f"sigma sum differs from the quotient {quotient}")

    if k0 <= p - 3:
        case_tag, n, below, above = "k0<=p-3", p - 1, 27, 18
    elif k0 == p - 2:
        case_tag, n, below, above = "k0==p-2", p - 2, 15, 12
    else:
        case_tag, n, below, above = "k0==p-1", p - 1, 15, 12
    seq = DigitSeq(dx, b"\0", Fraction(i, scale))
    ref = 3 * walk_value(seq, n)  # digit weight f(1, n)
    low, high = ref - below, ref + above

    if not -6 * j <= s2 <= 3 * j:
        raise ProofCheckError(f"sigma2 = {Fraction(s2, j)} outside [-6, 3]")
    if abs(s4) > 9 * j:
        raise ProofCheckError(f"|sigma4| = {Fraction(abs(s4), j)} exceeds 9")
    if not low * j <= total <= high * j:
        raise ProofCheckError(
            f"quotient {Fraction(total, j)} outside [{low}, {high}] in case {case_tag}"
        )
    return p, k0, case_tag, s1, s2, s3, s4, low, high


def _draw_ternary_pair(rng, max_order: int) -> tuple[int, int, int]:
    """(i, j, m) with 0 <= i < i + j < 3**m, from three draws of rng."""
    m = int(rng.integers(2, max_order + 1))
    denom = 3**m
    i = int(rng.integers(0, denom - 1))
    j = int(rng.integers(1, denom - i))
    return i, j, m


def sigma_fuzz(trials: int, seed: int) -> dict:
    """Run the decomposition on random exact pairs; report bound violations.

    The pairs (i, j, m), of order m up to ``_FUZZ_ORDER``, come from
    ``Philox(key=seed)`` with the draws of ``_draw_ternary_pair``, and each
    goes to ``sigma_decompose``, which decides every bound on integers and
    raises ProofCheckError, also under ``python -O``; only the case tags
    and the violations are counted.  Raises DomainError unless
    0 <= seed < 2**128, the range of a Philox key, and unless trials >= 1,
    and ResourceLimitError for trials above ``_FUZZ_TRIALS_CAP``, before
    anything is drawn.
    """
    import numpy as np

    if not 0 <= seed < 2**128:
        raise DomainError(f"seed {seed} outside [0, 2**128)")
    if trials < 1:
        raise DomainError("need trials >= 1")
    if trials > _FUZZ_TRIALS_CAP:
        raise ResourceLimitError(f"trials {trials} exceeds cap of {_FUZZ_TRIALS_CAP}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    violations = 0
    cases = {"k0<=p-3": 0, "k0==p-2": 0, "k0==p-1": 0}
    for _ in range(trials):
        try:
            case_tag = sigma_decompose(*_draw_ternary_pair(rng, _FUZZ_ORDER))[2]
        except ProofCheckError:
            violations += 1
            continue
        cases[case_tag] += 1
    return {
        "trials": trials,
        "seed": seed,
        "max_order": _FUZZ_ORDER,
        "violations": violations,
        "cases": cases,
    }


def classification_report(x: Fraction) -> dict:
    """Classification of a rational point, with W(1..20), for ``cli``'s writer.

    The expansion's preperiod and period are the ``DigitSeq`` bytes, one
    byte per digit, which the writer lays out as lists of digits.
    """
    seq = expand_rational(x)
    return {
        "x": f"{x.numerator}/{x.denominator}",
        "expansion": {"preperiod": seq.preperiod, "period": seq.period},
        "drift": period_drift(seq),
        "verdict": classify_point(seq).value,
        "walk_prefix": [walk_value(seq, n) for n in range(1, _WALK_PREFIX + 1)],
    }
