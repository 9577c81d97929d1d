import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto_k import functions
from okamoto_k.dimension import box_dimension_estimate
from okamoto_k.errors import DomainError, ResourceLimitError
from okamoto_k.functions import (
    TERNARY_TERMS,
    SeriesTruncation,
    big_phi,
    binary_truncation,
    hata_yamaguti_residual,
    k_exact,
    k_series_digits,
    k_series_phi,
    k_series_phi_array,
    kobayashi_terms_for,
    kobayashi_truncation,
    lebesgue_L,
    lebesgue_L_array,
    okamoto_iterative,
    okamoto_series,
    okamoto_series_array,
    sample_grid,
    takagi,
    takagi_array,
    tent_phi,
    ternary_truncation,
)
from okamoto_k.ternary import expand_rational

from oracles import (
    big_phi_exact,
    naive_ternary_digits,
    okamoto_value,
    subdivision_fractions,
    takagi_quadrature_free,
)

ternary_rationals = st.integers(0, 3**12).map(lambda k: Fraction(k, 3**12))

# the floats nearest k / 3^m, m <= 6, and their two neighbours in [0, 1]
NEAR_TERNARY = sorted(
    {
        v
        for k in range(3**6 + 1)
        for v in (math.nextafter(k / 3**6, 0), k / 3**6, math.nextafter(k / 3**6, 2))
        if v <= 1
    }
)


def _stated_error(a: float, value: float) -> float:
    """The 40-term series' tail bound at a plus the rounding of its float sum.

    Summing N terms whose absolute values add up to at most S rounds by at
    most about N * eps * S; twice that covers the products, and eps * |value|
    the rounding of the exact-digit reference.
    """
    eps = 2.0**-52
    total = max(a, 1 - a) / (1 - functions.contraction_ratio(a))
    tail = kobayashi_truncation(a).tail_bound
    return tail + 2 * TERNARY_TERMS * eps * total + eps * abs(value)


class TestBuildingBlocks:
    def test_tent(self):
        assert tent_phi(0.5) == 0.5
        assert tent_phi(0.25) == 0.25
        assert tent_phi(1.75) == 0.25
        assert tent_phi(-0.25) == 0.25

    def test_big_phi_branch_values(self):
        assert big_phi(1 / 3) == pytest.approx(1.0, abs=1e-15)
        assert big_phi(2 / 3) == pytest.approx(-1.0, abs=1e-15)
        assert big_phi(0.5) == pytest.approx(0.0)
        assert big_phi(1 / 3 + 1) == pytest.approx(1.0, abs=1e-15)  # period 1

    def test_big_phi_exact(self):
        assert big_phi_exact(Fraction(1, 3)) == 1
        assert big_phi_exact(Fraction(2, 3)) == -1
        assert big_phi_exact(Fraction(7, 3)) == 1

    def test_truncation_validation(self):
        with pytest.raises(DomainError):
            SeriesTruncation(0, 0.1)
        with pytest.raises(DomainError):
            SeriesTruncation(5, -1.0)

    def test_ternary_term_cap(self):
        assert ternary_truncation(1000).terms == 1000
        with pytest.raises(ResourceLimitError) as exc:
            ternary_truncation(1001)
        # the message that eval --fn K --terms 1001 prints
        assert str(exc.value) == "1001 series terms exceed cap of 1000"

    @pytest.mark.parametrize("terms", range(1, 6))
    def test_ternary_tail_bound_is_reached(self, terms):
        # at x = 3^-(N+1) every dropped term but one vanishes, and that
        # one has Phi = 1: the tail is exactly 3^-N
        x = Fraction(1, 3 ** (terms + 1))
        kept = sum(Fraction(1, 3**n) * big_phi_exact(3**n * x) for n in range(terms))
        tail = k_exact(x) - kept
        assert tail == Fraction(1, 3**terms)
        assert tail <= ternary_truncation(terms).tail_bound


class TestTakagi:
    def test_known_values(self):
        assert takagi(0.5) == pytest.approx(0.5, abs=1e-14)
        assert takagi(0.0) == 0.0
        assert takagi(0.25) == pytest.approx(0.5, abs=1e-14)

    def test_against_exact_partial_sum(self):
        for x in (Fraction(1, 3), Fraction(3, 7), Fraction(5, 8)):
            want = float(takagi_quadrature_free(x, 60))
            assert takagi(float(x)) == pytest.approx(want, abs=1e-12)

    @given(st.floats(0, 1, allow_nan=False))
    @settings(max_examples=300)
    def test_even_symmetry(self, x):
        tail = 2 * binary_truncation().tail_bound
        assert abs(takagi(x) - takagi(1 - x)) <= tail + 1e-12


class TestLebesgue:
    def test_identity_at_half(self):
        assert lebesgue_L(0.5, 0.7) == pytest.approx(0.7, abs=1e-14)

    def test_value_at_midpoint_is_a(self):
        for a in (0.2, 1 / 3, 0.8):
            assert lebesgue_L(a, 0.5) == pytest.approx(a, abs=1e-12)

    def test_fixed_points(self):
        assert lebesgue_L(0.3, 0.0) == 0.0
        assert lebesgue_L(0.3, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_nondecreasing_on_grid(self):
        a = 1 / 3
        prev = -1.0
        for i in range(10**4 + 1):
            v = lebesgue_L(a, i / 10**4)
            assert v >= prev - 1e-15
            prev = v


class TestOkamotoIterative:
    def test_level_one_ordinates(self):
        a = Fraction(2, 5)
        pl = okamoto_iterative(a, 1)
        assert pl.ordinates == (0, a, 1 - a, 1)

    def test_identity_parameter_gives_diagonal(self):
        pl = okamoto_iterative(Fraction(1, 3), 5)
        for k, y in enumerate(pl.ordinates):
            assert y == Fraction(k, 3**5)

    def test_refinement_keeps_old_breakpoints(self):
        a = Fraction(3, 4)
        coarse = okamoto_iterative(a, 3)
        fine = okamoto_iterative(a, 4)
        for k, y in enumerate(coarse.ordinates):
            assert fine.ordinates[3 * k] == y

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            okamoto_iterative(Fraction(1, 2), 15)

    def test_numerator_bit_cap(self, monkeypatch):
        # a = 2/5: the (3**n + 1) * n numerators of level n have at most 3n bits
        monkeypatch.setattr(functions, "_ITERATIVE_BITS", 82 * 4 * 3)
        assert len(okamoto_iterative(Fraction(2, 5), 4).numerators) == 82
        with pytest.raises(ResourceLimitError, match="level 5 with a 3-bit denominator"):
            okamoto_iterative(Fraction(2, 5), 5)

    def test_long_denominator_refused_before_building(self):
        # level 12 at a = 1/10**4000 would hold about 11 GB of numerators
        a = Fraction(1, 10**4000)
        for level in (8, 12):
            with pytest.raises(ResourceLimitError, match=f"level {level} with a 13288-bit"):
                okamoto_iterative(a, level)
        with pytest.raises(ResourceLimitError, match="level 10 with a 13288-bit"):
            box_dimension_estimate(a, 10)

    @pytest.mark.parametrize("a", ["1/3", "1/2", "2/5", "2/3", "3/4", "7/9"])
    def test_matches_fraction_subdivision(self, a):
        a = Fraction(a)
        for level in range(8):
            pl = okamoto_iterative(a, level)
            assert pl.denominator == a.denominator**level
            assert pl.ordinates == tuple(subdivision_fractions(a, level))

    def test_call_interpolates_at_the_float_exactly(self):
        a = Fraction(2, 5)
        level = 4
        pl = okamoto_iterative(a, level)
        ords = subdivision_fractions(a, level)
        xs = [0.0, 1.0, 1 / 3, 2 / 3, 0.1, 0.5, 1 - 2**-53, 2**-1074]
        xs += [k / 3**level for k in range(3**level + 1)]
        for x in xs:
            scaled = Fraction(x) * 3**level
            k = min(math.floor(scaled), 3**level - 1)
            want = ords[k] + (scaled - k) * (ords[k + 1] - ords[k])
            assert pl(x) == float(want)


class TestOkamotoEvaluators:
    @pytest.mark.parametrize("a", [1e-17, 2.7e-17, 5e-324])
    def test_tiny_a(self, a):
        # 1 - 2a rounds to 1.0: the series runs, its tail bound does not exist
        assert functions.contraction_ratio(a) == 1.0
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        want = [okamoto_series(a, x) for x in xs]
        assert okamoto_series_array(a, xs).tolist() == want
        assert want[0] == 0.0 and want[-1] == 1.0
        with pytest.raises(DomainError, match="rounds to 1"):
            kobayashi_truncation(a)
        with pytest.raises(DomainError, match="rounds to 1"):
            kobayashi_terms_for(a, 1e-14)

    def test_smallest_a_with_a_tail_bound(self):
        a = 3e-17  # 1 - 2a rounds to 1 - 2**-53
        assert functions.contraction_ratio(a) < 1.0
        assert kobayashi_truncation(a).terms == TERNARY_TERMS

    def test_series_at_breakpoints(self):
        # exact at the rationals 1/3 and 2/3, whose digits are 1000... and
        # 2000...; the floats nearest them lie below, where F_a is not a or 1 - a
        for a in (0.25, 0.6):
            assert okamoto_series(a, Fraction(1, 3)) == pytest.approx(a, abs=1e-12)
            assert okamoto_series(a, Fraction(2, 3)) == pytest.approx(1 - a, abs=1e-12)
            for x in (1 / 3, 2 / 3):
                want = okamoto_value(a, x)
                assert abs(okamoto_series(a, x) - want) <= _stated_error(a, want)

    def test_identity_parameter(self):
        for x in (0.0, 0.7, 1.0):
            assert okamoto_series(1 / 3, x) == pytest.approx(x, abs=1e-12)

    def test_series_endpoints(self):
        assert okamoto_series(0.4, 0.0) == 0.0
        assert okamoto_series(0.4, -0.0) == 0.0
        assert okamoto_series(0.4, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_series_cantor_staircase_value(self):
        assert okamoto_series(0.5, Fraction(1, 3)) == pytest.approx(0.5, abs=1e-12)

    def test_branch_overlap_consistent(self):
        # both defining branches agree at the shared breakpoints
        for a in (0.3, 0.7):
            f = lambda x: okamoto_series(a, x)
            assert a * f(1.0) == pytest.approx((1 - 2 * a) * f(0.0) + a)
            assert (1 - 2 * a) * f(1.0) + a == pytest.approx(a * f(0.0) + 1 - a)

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.85, 0.9])
    def test_series_within_stated_bound(self, a):
        # the floats next to k / 3^m, whose digits a float step gets wrong
        # first, and random floats, against the exact-digit sum
        rnd = random.Random(7)
        xs = NEAR_TERNARY + [rnd.random() for _ in range(1000)]
        want = [okamoto_value(a, x) for x in xs]
        tol = [_stated_error(a, w) for w in want]
        for route in (
            [okamoto_series(a, x) for x in xs],
            okamoto_series_array(a, np.array(xs)).tolist(),
        ):
            over = [x for x, v, w, t in zip(xs, route, want, tol) if abs(v - w) > t]
            assert over == []

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.5, math.nan])
    def test_terms_for_needs_a_in_the_unit_interval(self, a):
        # a NaN ratio compares neither above nor below a target
        with pytest.raises(DomainError, match=f"parameter a={a} outside"):
            kobayashi_terms_for(a, 1e-14)

    @pytest.mark.parametrize("target", [0.0, -1e-14, -math.inf, math.nan])
    def test_terms_for_needs_a_positive_target(self, target):
        # the tail bound underflows to 0.0 but no lower, and never compares
        # above NaN
        with pytest.raises(DomainError, match=f"target={target} must be > 0"):
            kobayashi_terms_for(0.7, target)

    @pytest.mark.parametrize(
        "a,target",
        # the least counts here are 284, 24, 143 and 93; stepping up from 40
        # by a quarter gave 291, 40, 150 and 96
        [(0.9, 1e-12), (0.3, 5e-10), (0.85, 5e-10), (0.7, 1e-14)]
        + [
            (a, target)
            for a in (3e-17, 1e-6, 0.1, 1 / 3, 0.4, 0.5, 0.6, 0.75, 0.9, 0.999)
            for target in (5e-324, 1e-300, 1e-14, 1e-12, 5e-10, 0.5, 1e300)
        ],
    )
    def test_terms_for_gives_the_least_count(self, a, target):
        n = kobayashi_terms_for(a, target)
        assert kobayashi_truncation(a, n).tail_bound <= target
        assert n == 1 or kobayashi_truncation(a, n - 1).tail_bound > target

    @given(
        st.floats(0.15, 0.85),
        st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_three_routes_agree(self, a, x):
        terms = kobayashi_terms_for(a, 1e-11)
        series = okamoto_series(a, x, kobayashi_truncation(a, terms))
        assert abs(series - okamoto_value(a, x)) <= 2e-11
        ar = Fraction(a).limit_denominator(50)
        pl = okamoto_iterative(ar, 6)
        same_a_series = okamoto_series(float(ar), x, kobayashi_truncation(float(ar), terms))
        tol = float(max(ar, 1 - ar)) ** 6 + 2e-11
        assert abs(pl(x) - same_a_series) <= tol


class TestKRoutes:
    def test_exact_values(self):
        assert k_exact(Fraction(1, 3)) == 1
        assert k_exact(Fraction(1, 9)) == Fraction(2, 3)
        assert k_exact(Fraction(2, 3)) == -1
        assert k_exact(Fraction(0)) == 0
        assert k_exact(Fraction(1)) == 0

    def test_exact_rejects_non_ternary(self):
        with pytest.raises(DomainError):
            k_exact(Fraction(1, 2))
        # the message gives the size of a long x, not its 4001 digits
        with pytest.raises(DomainError, match="^x with a 13288-bit denominator is not a"):
            k_exact(Fraction(1, 10**4000))

    @pytest.mark.parametrize("m", range(8))
    def test_exact_matches_fraction_sawtooth_sum(self, m):
        # the integer term loop against the Fraction sawtooth, every k / 3^m
        for k in range(3**m + 1):
            x = Fraction(k, 3**m)
            want = sum(
                (Fraction(1, 3**n) * big_phi_exact(3**n * x) for n in range(m)),
                Fraction(0),
            )
            assert k_exact(x) == want, x

    def test_series_phi_values(self):
        assert k_series_phi(1 / 3) == pytest.approx(1.0, abs=1e-12)
        assert k_series_phi(2 / 3) == pytest.approx(-1.0, abs=1e-12)
        assert k_series_phi(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_series_digits_values(self):
        assert k_series_digits(Fraction(1, 3)) == pytest.approx(1.0)
        assert k_series_digits(Fraction(1, 9)) == pytest.approx(2 / 3)
        assert k_series_digits(Fraction(0)) == 0.0
        # x = 1 reads the all-2's expansion, whose partial sums tend to K(1) = 0
        assert abs(k_series_digits(Fraction(1))) <= 1e-15

    def test_series_digits_is_the_exact_sum_rounded_once(self):
        # the digit series in Fractions, on digits by repeated multiplication
        rnd = random.Random(40)
        xs = []
        for _ in range(3000):
            q = rnd.randrange(1, 10**4)
            xs.append(Fraction(rnd.randrange(q), q))
        # a preperiod of 45 digits, past the 40 summed, one of 35 before a
        # period of 8, and periods of 16 digits and of 100002: the window
        # reads 40 digits whatever the expansion's shape
        xs += [Fraction(2, 3**45), Fraction(1, 3**35 * 41), Fraction(5, 17)]
        xs.append(Fraction(99741, 100003))
        for x in xs:
            digits = naive_ternary_digits(x, TERNARY_TERMS)
            want = sum(
                (
                    Fraction((0, 1, -1)[d] + (n - 3 * digits[:n].count(1)) * d, 3**n)
                    for n, d in enumerate(digits)
                ),
                Fraction(0),
            )
            assert k_series_digits(x) == float(want), x

    @given(ternary_rationals)
    @settings(max_examples=300, deadline=None)
    def test_float_routes_match_exact(self, x):
        want = float(k_exact(x))
        assert k_series_phi(float(x)) == pytest.approx(want, abs=1e-12)
        assert k_series_digits(x) == pytest.approx(want, abs=1e-12)

    @given(ternary_rationals)
    @settings(max_examples=300)
    def test_odd_symmetry_exact(self, x):
        assert k_exact(x) + k_exact(1 - x) == 0

    @given(st.floats(0, 1, allow_nan=False))
    @settings(max_examples=300)
    def test_functional_equation_residual(self, x):
        tail = 4 * ternary_truncation().tail_bound + 1e-12
        if x <= 1 / 3:
            inner = k_series_phi(min(1.0, 3 * x)) / 3 + 3 * x
        elif x <= 2 / 3:
            inner = k_series_phi(3 * x - 1) / 3 + 3 * (1 - 2 * x)
        else:
            inner = k_series_phi(max(0.0, 3 * x - 2)) / 3 + 3 * (x - 1)
        assert abs(k_series_phi(x) - inner) <= tail


class TestParameterDerivative:
    def test_k_is_the_a_derivative_at_one_third(self):
        # K = dF_a/da at a = 1/3: at each breakpoint k / 3^m the exact central
        # difference of the level-m ordinates is within 1000 h^2 of K
        a, h = Fraction(1, 3), Fraction(1, 10**12)
        for m in range(7):
            hi, lo = okamoto_iterative(a + h, m), okamoto_iterative(a - h, m)
            for k in range(3**m + 1):
                rise = (
                    Fraction(hi.numerators[k], hi.denominator)
                    - Fraction(lo.numerators[k], lo.denominator)
                )
                gap = abs(rise / (2 * h) - k_exact(Fraction(k, 3**m)))
                assert gap <= 1000 * h**2, (k, m)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "route",
    [
        k_exact,
        expand_rational,
        okamoto_iterative(Fraction(1, 3), 2),
        partial(okamoto_iterative, level=2),
    ],
    ids=["k_exact", "expand_rational", "PiecewiseLinear", "okamoto_iterative"],
)
def test_exact_routes_refuse_non_finite_floats(route, x):
    # the range check runs before the conversion to Fraction, which would
    # raise ValueError or OverflowError
    with pytest.raises(DomainError, match=f"{x} outside"):
        route(x)


def _twins(array_route, scalar_route, *args, **kwargs):
    return partial(array_route, *args, **kwargs), partial(scalar_route, *args, **kwargs)


# the routes and arguments behind each `eval --fn`; Kn at level n is K with
# n + 1 terms
TWINS = {
    "okamoto-0.3": _twins(okamoto_series_array, okamoto_series, 0.3),
    "okamoto-0.7": _twins(okamoto_series_array, okamoto_series, 0.7),
    "okamoto-0.9": _twins(okamoto_series_array, okamoto_series, 0.9),
    "K": _twins(k_series_phi_array, k_series_phi),
    "K-terms-5": _twins(k_series_phi_array, k_series_phi, trunc=ternary_truncation(5)),
    "Kn-0": _twins(k_series_phi_array, k_series_phi, trunc=ternary_truncation(1)),
    "Kn-3": _twins(k_series_phi_array, k_series_phi, trunc=ternary_truncation(4)),
    "Kn-10": _twins(k_series_phi_array, k_series_phi, trunc=ternary_truncation(11)),
    "takagi": _twins(takagi_array, takagi),
    "lebesgue-1/3": _twins(lebesgue_L_array, lebesgue_L, 1 / 3),
    "lebesgue-0.8": _twins(lebesgue_L_array, lebesgue_L, 0.8),
}

# the floats nearest 1/3, 2/3 and 1, where the digit branches tie
NEAR_TIES = [
    v
    for c in (1 / 3, 2 / 3, 1.0)
    for v in (math.nextafter(c, 0), c, math.nextafter(c, 2))
    if v <= 1
]


# the floats next to each k / 2**12, where lebesgue's branches tie after a few
# doublings and 2t - 1 lands near 0 and 1
NEAR_DYADICS = [
    v
    for k in range(2**12 + 1)
    for v in (math.nextafter(k / 2**12, 0), math.nextafter(k / 2**12, 2))
    if v <= 1
]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _uniform_bit_patterns(n: int, seed: int) -> np.ndarray:
    """n doubles in [0, 1] with bit patterns drawn uniformly from 0 .. bits(1.0).

    Most are tiny: each binade below 1 gets the same share, so every
    exponent the term loops can meet is tried.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    one = int(np.array(1.0).view(np.int64))
    return rng.integers(0, one, size=n, endpoint=True).view(np.float64)


# bit-pattern draws plus the largest double below 1, the least subnormal,
# -0.0 and 0.5 with its two neighbours, where the steps z - floor(z) and
# z % 1.0 of the array and scalar routes meet their edge cases, and 2**-64
# with its lower neighbour, the least double whose x * 2**120 okamoto's limbs
# hold exactly and the greatest whose limbs hold its floor
BIT_PATTERNS = np.concatenate(
    [
        _uniform_bit_patterns(10**4, seed=31),
        [1 - 2**-53, 5e-324, -0.0, 2**-64, math.nextafter(2**-64, 0)],
        [math.nextafter(0.5, 0), 0.5, math.nextafter(0.5, 1)],
    ]
)


class TestArrayRoutes:
    @pytest.mark.parametrize("n", [2, 3, 1001, 3**7 + 1])
    def test_sample_grid_is_exact_division(self, n):
        assert _bits(sample_grid(n)) == _bits([i / (n - 1) for i in range(n)])

    @pytest.mark.parametrize(
        "xs",
        [sample_grid(n) for n in (2, 3, 1001, 3**7 + 1)]
        + [np.array(NEAR_TIES), np.array(NEAR_DYADICS), BIT_PATTERNS]
        + [np.array(NEAR_TERNARY)],
        ids=["n2", "n3", "n1001", "n2188", "near-ties", "near-dyadics", "bit-patterns"]
        + ["near-ternary"],
    )
    @pytest.mark.parametrize("name", sorted(TWINS))
    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
    def test_grid_bit_identical_to_scalar(self, name, xs, block):
        # eval calls a route once per block of grid points, so every split
        # of the points into blocks must give the scalar route's bits
        array_route, scalar_route = TWINS[name]
        step = block or len(xs)
        values = [array_route(xs[i : i + step]) for i in range(0, len(xs), step)]
        want = [scalar_route(x) for x in xs.tolist()]
        assert _bits(np.concatenate(values)) == _bits(want)

    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_domain(self, name):
        array_route, _ = TWINS[name]
        with pytest.raises(DomainError):
            array_route(np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            array_route(np.array([np.nan]))

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            okamoto_series_array(1.0, np.array([0.5]))
        with pytest.raises(DomainError):
            lebesgue_L_array(0.0, np.array([0.5]))

    def test_hata_yamaguti_matches_scalar_loop(self):
        grid, h = 100, 1e-6
        worst = 0.0
        for i in range(grid + 1):
            x = i / grid
            fd = (lebesgue_L(0.5 + h, x) - lebesgue_L(0.5 - h, x)) / (2 * h)
            worst = max(worst, abs(fd - 2 * takagi(x)))
        assert hata_yamaguti_residual(grid, h) == worst
        with pytest.raises(DomainError):
            hata_yamaguti_residual(0, h)

    @pytest.mark.parametrize("h", [0.0, -0.0, -1e-6, math.nan])
    def test_hata_yamaguti_needs_a_positive_step(self, h):
        with pytest.raises(DomainError, match=f"step h={h} must be > 0"):
            hata_yamaguti_residual(100, h)
