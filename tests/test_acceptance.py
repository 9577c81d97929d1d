"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Expected values marked as derived were computed with the
independent oracles in ``oracles.py`` (exact rational arithmetic, dynamic
programming over walk states, exhaustive enumeration) and frozen here.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from okamoto_k.derivative import (
    DerivativeClass,
    classify_point,
    period_drift,
    sigma_fuzz,
)
from okamoto_k.dimension import (
    a0_root,
    box_dimension_estimate,
    box_dimension_formula,
    crossing_probability_dp,
    hausdorff_frequency_dim,
    symmetric_triple,
    walk_monte_carlo,
)
from okamoto_k.functions import (
    hata_yamaguti_residual,
    k_exact,
    k_series_digits,
    k_series_phi,
    kobayashi_terms_for,
    kobayashi_truncation,
    okamoto_iterative,
    okamoto_series,
    takagi,
)
from okamoto_k.ternary import expand_rational, walk_value

from oracles import okamoto_value

# frozen from crossing_probability_dp(10_000); the DP is re-run below to
# guard the constant
DP_CROSSING_P = 0.9905967279678819


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_exact_values():
    start = time.perf_counter()
    assert k_exact(Fraction(1, 3)) == 1
    assert k_exact(Fraction(2, 3)) == -1
    assert k_exact(Fraction(1, 9)) == Fraction(2, 3)
    assert k_exact(Fraction(0)) == 0
    assert k_exact(Fraction(1)) == 0
    # 1/2 is not a ternary rational: pin K(1/2)=0 through the digit series
    # at machine precision instead (oddness forces the exact value)
    assert abs(k_series_phi(0.5)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"exact K values at ternary rationals ({elapsed:.3f}s)")


def test_criterion_02_evaluator_agreement():
    start = time.perf_counter()
    rnd = random.Random(20240817)
    worst_se = 0.0
    for _ in range(10_000):
        a = 0.1 + 0.8 * rnd.random()
        x = rnd.random()
        terms = kobayashi_terms_for(a, 5e-10)
        series = okamoto_series(a, x, kobayashi_truncation(a, terms))
        worst_se = max(worst_se, abs(series - okamoto_value(a, x)))
    assert worst_se <= 1e-9

    # exact subdivision route: compare at its own (coarser) tail bound
    worst_it = 0.0
    for num in range(4, 37):
        a_frac = Fraction(num, 40)
        pl = okamoto_iterative(a_frac, 6)
        a = float(a_frac)
        bound = max(a, 1 - a) ** 6 + 1e-9
        for _ in range(320):
            x = rnd.random()
            series = okamoto_series(a, x, kobayashi_truncation(a, kobayashi_terms_for(a, 5e-10)))
            gap = abs(pl(x) - series)
            assert gap <= bound
            worst_it = max(worst_it, gap)

    worst_k = 0.0
    for _ in range(10_000):
        x = Fraction(rnd.randrange(0, 10_000), 10_000)
        gap = abs(k_series_phi(float(x)) - k_series_digits(x))
        worst_k = max(worst_k, gap)
    assert worst_k <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        2,
        f"evaluator agreement: series-vs-exact-digits {worst_se:.2e}, "
        f"K digit-vs-sawtooth {worst_k:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_03_identity_and_symmetry():
    n = 10_000
    worst_id = max(
        abs(okamoto_series(1 / 3, i / n) - i / n) for i in range(n + 1)
    )
    assert worst_id <= 1e-9
    worst_odd = max(
        abs(k_series_phi(i / n) + k_series_phi(1 - i / n)) for i in range(n + 1)
    )
    assert worst_odd <= 1e-9
    worst_even = max(
        abs(takagi(i / n) - takagi(1 - i / n)) for i in range(n + 1)
    )
    assert worst_even <= 1e-10
    report(
        3,
        f"identity |F-x| {worst_id:.2e}, odd K {worst_odd:.2e}, "
        f"even T {worst_even:.2e}",
    )


def test_criterion_04_hata_yamaguti():
    start = time.perf_counter()
    worst = hata_yamaguti_residual(grid=100, h=1e-6)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed < 10.0
    report(4, f"parameter-derivative of L at 1/2 vs 2T: max residual {worst:.2e}")


def test_criterion_05_slope_identity_exhaustive():
    start = time.perf_counter()
    m = 8
    denom = 3**m
    k_table = [k_exact(Fraction(k, denom)) for k in range(denom + 1)]
    for k in range(denom):
        x = Fraction(k, denom)
        seq = expand_rational(x)
        prev = 0
        for n in range(1, m + 1):
            block = 3 ** (m - n)
            u = (k // block) * block
            slope = (k_table[u + block] - k_table[u]) * 3**n
            assert slope == 3 * walk_value(seq, n)
            assert slope - prev in (3, -6)
            prev = slope
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"secant slopes equal 3*W(n) over all {denom} points ({elapsed:.1f}s)")


def test_criterion_06_classifier():
    assert classify_point(expand_rational(Fraction(0))) == DerivativeClass.PLUS_INFINITY
    assert classify_point(expand_rational(Fraction(1))) == DerivativeClass.PLUS_INFINITY
    assert classify_point(expand_rational(Fraction(1, 2))) == DerivativeClass.MINUS_INFINITY
    assert classify_point(expand_rational(Fraction(1, 4))) == DerivativeClass.PLUS_INFINITY
    rnd = random.Random(7)
    checked = 0
    for _ in range(1000):
        q = rnd.randrange(2, 41)
        p = rnd.randrange(0, q + 1)
        seq = expand_rational(Fraction(p, q))
        drift = period_drift(seq)
        if drift == 0:
            continue
        w = walk_value(seq, 10_000)
        assert (w > 0) == (drift > 0)
        checked += 1
    assert checked > 500
    report(6, f"drift verdicts match sign of W(10^4) on {checked} rationals")


def test_criterion_07_sigma_fuzz():
    start = time.perf_counter()
    result = sigma_fuzz(10_000, seed=1)
    elapsed = time.perf_counter() - start
    assert result["violations"] == 0
    assert sum(result["cases"].values()) == 10_000
    assert elapsed < 60.0
    report(
        7,
        f"sigma decomposition: 0 bound violations in 10^4 pairs, "
        f"cases {result['cases']} ({elapsed:.1f}s)",
    )


def test_criterion_08_box_dimension():
    start = time.perf_counter()
    est = box_dimension_estimate(Fraction(2, 3), 8)
    want = box_dimension_formula(2 / 3)
    assert abs(est["fitted_dimension"] - want) < 0.05
    est_flat = box_dimension_estimate(Fraction(1, 3), 8)
    assert abs(est_flat["fitted_dimension"] - 1.0) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        8,
        f"box dimension a=2/3: {est['fitted_dimension']:.4f} vs {want:.4f}; "
        f"a=1/3: {est_flat['fitted_dimension']:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_09_hausdorff_formula():
    assert abs(hausdorff_frequency_dim(symmetric_triple(1 / 3)) - 1.0) <= 1e-12
    # n = 2 would give a negative frequency; the increasing sequence starts
    # at n = 3 where the triple first lies in the simplex
    dims = [
        hausdorff_frequency_dim(symmetric_triple(1 / 3 - 1 / n)) for n in range(3, 101)
    ]
    assert all(b > a for a, b in zip(dims, dims[1:]))
    assert all(d < 1 for d in dims)
    assert 1 - dims[-1] < 1e-3
    report(9, f"entropy dimension: 1 at uniform, increasing to {dims[-1]:.6f}")


def test_criterion_10_walk_monte_carlo():
    start = time.perf_counter()
    exp = walk_monte_carlo(10_000, 10_000, seed=7)
    rerun = walk_monte_carlo(10_000, 10_000, seed=7)
    assert exp == rerun
    assert abs(exp.mean_step_estimate) <= 3 / math.sqrt(10_000 * 10_000)
    p = crossing_probability_dp(10_000)
    assert abs(p - DP_CROSSING_P) < 1e-9
    threshold = DP_CROSSING_P - 5 * math.sqrt(DP_CROSSING_P * (1 - DP_CROSSING_P) / 10_000)
    assert exp.crossing_fraction >= threshold
    assert exp.crossing_fraction >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        10,
        f"walk MC: crossing {exp.crossing_fraction:.4f} >= DP threshold "
        f"{threshold:.4f}, mean step {exp.mean_step_estimate:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_11_a0_root():
    a0 = a0_root()
    assert abs(a0 - 0.5592) < 1e-4
    assert abs(54 * a0**3 - 27 * a0**2 - 1) < 1e-10
    report(11, f"trichotomy boundary root a0 = {a0:.10f}")
