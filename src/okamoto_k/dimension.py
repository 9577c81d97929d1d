"""Dimension formulas and desk-scale experiments.

Closed-form and box-counted graph dimension of the family members, the
entropy formula for digit-frequency sets, the mean-zero walk Monte Carlo
behind the measure-zero result, and Cardano's formula for the
differentiability trichotomy boundary.  numpy is imported when called, by
each function that computes with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .functions import _check_a, okamoto_iterative

LN3 = math.log(3.0)
_FIT_MIN_LEVEL = 3  # box levels below this are boundary-dominated


def box_dimension_formula(a: Fraction | float) -> float:
    """Box dimension of the graph, 1 for a <= 1/2, else 1 + log3(4a-1), at exact a."""
    _check_a(a)
    if a <= 0.5:
        return 1.0
    return 1.0 + math.log(4 * float(a) - 1) / LN3


def box_dimension_estimate(a: Fraction, max_level: int) -> dict:
    """Count 3^-j boxes meeting the exact level-max_level graph, j = 1..max_level.

    Each piece y -> a*y, a + (1-2a)*y, (1-a) + a*y maps [0, 1] into [0, 1],
    so every f_m maps [0, 1] onto [0, 1], and on a level-j column with word
    w, f_n = S_w + P_w * f_(n-j) runs between the column's end ordinates;
    the closed boxes met number 3^j + sum_i |floor(3^j y_(i+1)) -
    floor(3^j y_i)| over the level-j ordinates y_i.  The dimension is the
    slope of log N against log 3^j over levels ``_FIT_MIN_LEVEL`` = 3 to
    max_level.  Returns the ``experiment box-dim`` results: scales, counts,
    fitted_dimension, the rms residual and fit_levels.  Raises DomainError
    when fewer than two levels are left to fit; ``okamoto_iterative`` caps
    max_level.
    """
    fit_levels = list(range(_FIT_MIN_LEVEL, max_level + 1))
    if len(fit_levels) < 2:
        raise DomainError(
            f"levels {_FIT_MIN_LEVEL}..{max_level} leave fewer than two to fit"
        )
    pl = okamoto_iterative(Fraction(a), max_level)
    nums, den = pl.numerators, pl.denominator
    counts = []
    for j in range(1, max_level + 1):
        scale = 3**j
        rows = [n * scale // den for n in nums[:: 3 ** (max_level - j)]]
        counts.append(scale + sum(abs(hi - lo) for lo, hi in zip(rows, rows[1:])))
    import numpy as np
    xs = np.array([j * LN3 for j in fit_levels])
    ys = np.array([math.log(counts[j - 1]) for j in fit_levels])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return {
        "scales": [3.0**-j for j in range(1, max_level + 1)],
        "counts": counts,
        "fitted_dimension": float(slope),
        "residual": resid,
        "fit_levels": fit_levels,
    }


def symmetric_triple(alpha: float) -> tuple[float, float, float]:
    """((1-alpha)/2, alpha, (1-alpha)/2)."""
    return ((1 - alpha) / 2, alpha, (1 - alpha) / 2)


def hausdorff_frequency_dim(p: tuple[float, float, float]) -> float:
    """Entropy dimension (-sum p_i ln p_i) / ln 3 of a digit-frequency set.

    The three frequencies must lie in [0, 1] and sum to 1 within 1e-12,
    else DomainError.  Uses the convention 0 * ln 0 = 0; equals 1 exactly
    at (1/3, 1/3, 1/3).
    """
    ent = 0.0
    for pi in p:
        if not 0 <= pi <= 1:
            raise DomainError(f"frequency {pi} outside [0, 1]")
        if pi > 0:
            ent -= pi * math.log(pi)
    if abs(sum(p) - 1) > 1e-12:
        raise DomainError("frequencies must sum to 1")
    return ent / LN3


@dataclass(frozen=True)
class WalkExperiment:
    """Monte Carlo summary of the ternary-digit walk W(n) = n - 3*I1(n)."""

    sample_count: int
    horizon: int
    crossing_fraction: float
    mean_step_estimate: float


# u = (raw >> 11) * 2**-53 is numpy's Philox double, so u < 1/3 exactly when
# raw < ceil((1/3) * 2**53) << 11 (the product is exact in floats)
_DOWN_RAW = math.ceil((1.0 / 3.0) * 2.0**53) << 11
_WALK_PREFIX = 256  # steps checked for a crossing before the whole path
_WALK_HORIZON_CAP = 10**7  # steps per path: about 80 MB of draws
_WALK_SAMPLES_CAP = 10**6  # paths per run


def _check_seed(seed: int) -> None:
    # a seed is the high word of each path's 128-bit Philox key
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")


def _crosses(down: np.ndarray) -> bool:
    import numpy as np
    walk = np.cumsum(np.where(down, -2, 1))
    return walk.min() <= 0 <= walk.max()


def walk_monte_carlo(samples: int, horizon: int, seed: int) -> WalkExperiment:
    """Simulate walks with steps +1 (prob 2/3) and -2 (prob 1/3).

    A path counts as crossing when W touches or passes 0, i.e. when
    min W <= 0 <= max W over the horizon (W never starts at 0, so this
    captures a genuine change of sign or a touch of 0).

    Path i draws ``horizon`` uniforms u from its own substream
    ``Philox(key=(seed << 64) + i)`` and steps down when u < 1/3.  The
    comparison is made on the raw 64-bit words, ``raw < _DOWN_RAW``, which
    is the same test on the same stream without the doubles.  The step
    total of a path is exactly ``horizon - 3 * downs``.  The crossing is
    decided on the first ``_WALK_PREFIX`` steps, and the whole path is
    summed only when they do not cross (about 5% of paths at the default
    horizon), which gives the same verdict since a prefix that crosses
    means the path crosses.  Raises DomainError unless 0 <= seed < 2**64,
    and ResourceLimitError for a horizon above ``_WALK_HORIZON_CAP`` or
    more samples than ``_WALK_SAMPLES_CAP``, before anything is drawn.
    """
    if samples < 1 or horizon < 1:
        raise DomainError("need samples >= 1 and horizon >= 1")
    _check_seed(seed)
    if horizon > _WALK_HORIZON_CAP:
        raise ResourceLimitError(
            f"horizon {horizon} exceeds cap of {_WALK_HORIZON_CAP} steps"
        )
    if samples > _WALK_SAMPLES_CAP:
        raise ResourceLimitError(
            f"samples {samples} exceeds cap of {_WALK_SAMPLES_CAP} paths"
        )
    import numpy as np
    # one bit generator, reset per path to the state of a fresh
    # Philox(key=(seed << 64) + i): zero counter, empty buffer, key words
    # (low, high) = (i, seed)
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    crossed = 0
    step_total = 0
    for i in range(samples):
        state["state"]["key"] = np.array([i, seed], dtype=np.uint64)
        bitgen.state = state
        down = bitgen.random_raw(horizon) < _DOWN_RAW
        if _crosses(down[:_WALK_PREFIX]) or _crosses(down):
            crossed += 1
        step_total += horizon - 3 * int(np.count_nonzero(down))
    return WalkExperiment(
        sample_count=samples,
        horizon=horizon,
        crossing_fraction=crossed / samples,
        mean_step_estimate=step_total / (samples * horizon),
    )


def crossing_probability_dp(horizon: int) -> float:
    """Exact probability that a walk touches or passes 0 within the horizon.

    Dynamic program over walk states, kept separate from the Monte Carlo
    path: survival means staying strictly positive (after an up first
    step) or strictly negative (after a down first step) for the whole
    horizon; the crossing probability is 1 minus both survivals.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    import numpy as np
    up, down = 2.0 / 3.0, 1.0 / 3.0
    # survive positive: state = W value >= 1
    pos = np.zeros(horizon + 3)
    pos[1] = up
    for _ in range(horizon - 1):
        nxt = np.zeros_like(pos)
        nxt[2:] += pos[1:-1] * up  # +1 step
        nxt[1:-2] += pos[3:] * down  # -2 step; landing <= 0 absorbs
        pos = nxt
    # survive negative: state = -W value >= 1 (W <= -1); +1 step moves toward 0
    neg = np.zeros(horizon * 2 + 4)
    neg[2] = down
    for _ in range(horizon - 1):
        nxt = np.zeros_like(neg)
        nxt[1:-1] += neg[2:] * up  # W +1: magnitude -1; reaching 0 absorbs
        nxt[3:] += neg[1:-2] * down  # W -2: magnitude +2
        nxt[0] = 0.0
        neg = nxt
    return 1.0 - float(pos.sum() + neg.sum())


def a0_root() -> float:
    """Root of 54 a^3 - 27 a^2 = 1 in (1/2, 1), by Cardano's formula.

    With a = (1 + c) / 6 the cubic is c^3 - 3c - 6 = 0, whose one real root
    is c = cbrt(3 + 2 sqrt 2) + cbrt(3 - 2 sqrt 2).
    """
    root2 = math.sqrt(2)
    c = (3 + 2 * root2) ** (1 / 3) + (3 - 2 * root2) ** (1 / 3)
    return (1 + c) / 6
