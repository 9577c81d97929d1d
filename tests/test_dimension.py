import math
from fractions import Fraction

import numpy as np
import pytest

from okamoto_k import dimension
from okamoto_k.dimension import (
    a0_root,
    box_dimension_estimate,
    box_dimension_formula,
    crossing_probability_dp,
    hausdorff_frequency_dim,
    symmetric_triple,
    walk_monte_carlo,
)
from okamoto_k.errors import DomainError, ResourceLimitError

from oracles import (
    box_counts_fractions,
    crossing_probability_enum,
    entropy_dimension_mp,
    subdivision_fractions,
    walk_paths_doubles,
)


class TestBoxDimensionFormula:
    def test_flat_branch(self):
        assert box_dimension_formula(0.5) == 1.0
        assert box_dimension_formula(0.2) == 1.0

    def test_steep_branch(self):
        assert box_dimension_formula(2 / 3) == pytest.approx(1.46497, abs=1e-5)
        assert box_dimension_formula(5 / 6) == pytest.approx(1.77124, abs=1e-5)

    def test_continuous_at_half(self):
        assert box_dimension_formula(0.5 + 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            box_dimension_formula(0.0)
        with pytest.raises(DomainError):
            box_dimension_formula(Fraction(1))
        # an int too long to print is named by its size
        with pytest.raises(DomainError, match="^parameter a with a 13288-bit numerator "):
            box_dimension_formula(10**4000)

    def test_exact_parameter_beyond_float_range(self):
        # 1e-4000 is 0.0 as a float, and 1 - 1e-4000 is 1.0: both lie in (0, 1)
        tiny = Fraction(1, 10**4000)
        assert box_dimension_formula(tiny) == 1.0
        assert box_dimension_formula(Fraction(1, 2) + tiny) == 1.0
        assert box_dimension_formula(1 - tiny) == 2.0
        assert box_dimension_formula(Fraction(2, 3)) == box_dimension_formula(2 / 3)


class TestBoxDimensionEstimate:
    def test_diagonal_graph(self):
        result = box_dimension_estimate(Fraction(1, 3), 6)
        assert result["fitted_dimension"] == pytest.approx(1.0, abs=0.01)

    def test_staircase_parameter(self):
        result = box_dimension_estimate(Fraction(1, 2), 6)
        assert result["fitted_dimension"] == pytest.approx(1.0, abs=0.05)

    def test_fractal_parameter(self):
        result = box_dimension_estimate(Fraction(2, 3), 7)
        want = box_dimension_formula(2 / 3)
        assert abs(result["fitted_dimension"] - want) < 0.06

    def test_counts_nondecreasing_with_refinement(self):
        result = box_dimension_estimate(Fraction(2, 3), 6)
        assert result["counts"] == sorted(result["counts"])

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            box_dimension_estimate(Fraction(2, 3), 13)

    @pytest.mark.parametrize(
        "a,levels",
        [("2/3", 8), ("1/3", 6), ("1/2", 6), ("2/5", 6), ("5/6", 7), ("7/9", 5),
         ("1/100", 6), ("99/100", 6), ("13/25", 7)],
    )
    def test_counts_match_fraction_count(self, a, levels):
        a = Fraction(a)
        want = box_counts_fractions(subdivision_fractions(a, levels), levels)
        assert box_dimension_estimate(a, levels)["counts"] == want

    @pytest.mark.parametrize("a,levels,ratio", [("2/3", 12, 5), ("5/6", 10, 7)])
    def test_counts_closed_form(self, a, levels, ratio):
        # N_j = 3^j + (12a - 3)^j here, at levels too fine for the Fraction oracle
        counts = box_dimension_estimate(Fraction(a), levels)["counts"]
        assert counts == [3**j + ratio**j for j in range(1, levels + 1)]


class TestHausdorffFrequencyDim:
    def test_uniform_is_one(self):
        assert hausdorff_frequency_dim(symmetric_triple(1 / 3)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_degenerate_is_zero(self):
        assert hausdorff_frequency_dim((1, 0, 0)) == 0.0

    def test_point_three_matches_high_precision(self):
        val = hausdorff_frequency_dim(symmetric_triple(0.3))
        assert val == pytest.approx(entropy_dimension_mp(0.35, 0.3, 0.35), abs=1e-14)

    def test_maximized_at_uniform(self):
        peak = hausdorff_frequency_dim(symmetric_triple(1 / 3))
        for alpha in (0.0, 0.1, 0.25, 0.32, 0.35, 0.5, 0.9):
            if abs(alpha - 1 / 3) > 1e-12:
                assert hausdorff_frequency_dim(symmetric_triple(alpha)) < peak

    def test_increasing_toward_uniform(self):
        dims = [hausdorff_frequency_dim(symmetric_triple(1 / 3 - 1 / n)) for n in range(3, 101)]
        assert all(b > a for a, b in zip(dims, dims[1:]))
        assert dims[-1] < 1.0

    def test_triple_validation(self):
        with pytest.raises(DomainError):
            hausdorff_frequency_dim((0.5, 0.6, 0.2))
        with pytest.raises(DomainError):
            hausdorff_frequency_dim((-0.1, 0.6, 0.5))


class TestWalkMonteCarlo:
    def test_horizon_one_never_crosses(self):
        exp = walk_monte_carlo(500, 1, seed=3)
        assert exp.crossing_fraction == 0.0

    def test_bit_identical_reruns(self):
        a = walk_monte_carlo(300, 200, seed=42)
        b = walk_monte_carlo(300, 200, seed=42)
        assert a == b

    def test_seed_changes_outcome(self):
        a = walk_monte_carlo(300, 200, seed=1)
        b = walk_monte_carlo(300, 200, seed=2)
        assert a.mean_step_estimate != b.mean_step_estimate

    def test_mean_step_near_zero(self):
        exp = walk_monte_carlo(2000, 500, seed=9)
        assert abs(exp.mean_step_estimate) < 3 * math.sqrt(2) / math.sqrt(2000 * 500)

    @pytest.mark.parametrize(
        "samples,horizon,seed",
        [
            (500, 1, 3),
            (400, 2, 0),
            (2000, 256, 5),
            (2000, 257, 5),
            (3000, 3000, 11),
            (300, 1000, 2**64 - 1),
        ],
    )
    def test_matches_double_oracle(self, samples, horizon, seed):
        crossed, late, total = walk_paths_doubles(samples, horizon, seed)
        if (samples, horizon, seed) == (3000, 3000, 11):
            assert late == 130  # paths that cross only after the prefix
        exp = walk_monte_carlo(samples, horizon, seed)
        assert exp.crossing_fraction == crossed / samples
        assert exp.mean_step_estimate == total / (samples * horizon)

    def test_raw_threshold_at_the_boundary_words(self, monkeypatch):
        # each path draws the words next to the raw threshold, whose doubles
        # (raw >> 11) * 2**-53 fall on both sides of 1/3
        k = int(dimension._DOWN_RAW) >> 11
        words = np.array(
            [(k - 1) << 11, (k << 11) - 1, k << 11, (k + 1) << 11] * 3, dtype=np.uint64
        )

        class Words:
            def __init__(self, key=0):
                self.state = {"state": {"key": key}}

            def random_raw(self, size):
                return words[:size]

        monkeypatch.setattr(np.random, "Philox", Words)
        down = (words >> 11) * 2.0**-53 < 1 / 3
        assert down.tolist() == [True, True, False, False] * 3
        steps = np.where(down, -2, 1)
        exp = walk_monte_carlo(3, len(words), seed=0)
        assert exp.mean_step_estimate == steps.sum() / len(words)
        walk = np.cumsum(steps)
        assert exp.crossing_fraction == float(walk.min() <= 0 <= walk.max())

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_word(self, seed):
        with pytest.raises(DomainError):
            walk_monte_carlo(10, 10, seed)

    def test_horizon_cap(self):
        cap = dimension._WALK_HORIZON_CAP
        with pytest.raises(ResourceLimitError):
            walk_monte_carlo(1, cap + 1, seed=0)

    def test_samples_cap(self):
        cap = dimension._WALK_SAMPLES_CAP
        with pytest.raises(ResourceLimitError, match="samples"):
            walk_monte_carlo(cap + 1, 1, seed=0)

    def test_matches_dp_probability(self):
        horizon = 100
        p = crossing_probability_dp(horizon)
        exp = walk_monte_carlo(4000, horizon, seed=17)
        sigma = math.sqrt(p * (1 - p) / 4000)
        assert abs(exp.crossing_fraction - p) < 5 * sigma


class TestCrossingProbabilityDP:
    def test_against_enumeration(self):
        for horizon in (1, 2, 3, 5, 8):
            assert crossing_probability_dp(horizon) == pytest.approx(
                crossing_probability_enum(horizon), abs=1e-12
            )

    def test_monotone_in_horizon(self):
        vals = [crossing_probability_dp(h) for h in (10, 50, 100, 400)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestRootSolve:
    def test_value_and_residual(self):
        a0 = a0_root()
        assert abs(a0 - 0.5592) < 1e-4
        assert abs(54 * a0**3 - 27 * a0**2 - 1) < 1e-10

    def test_bracket_signs(self):
        f = lambda a: 54 * a**3 - 27 * a**2 - 1
        assert f(0.5) < 0 < f(1.0)

    def test_float_neighbours_bracket_the_root(self):
        # the cubic rises on (1/2, 1), so the exact root lies between the
        # two doubles next to a0, evaluated without rounding
        f = lambda a: 54 * Fraction(a) ** 3 - 27 * Fraction(a) ** 2 - 1
        a0 = a0_root()
        assert f(math.nextafter(a0, 0)) < 0 < f(math.nextafter(a0, 1))
