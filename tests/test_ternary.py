from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto_k.errors import DomainError, RangeError
from okamoto_k.ternary import (
    DigitSeq,
    count_digit,
    digit_at,
    digit_frequency,
    expand_rational,
    f_weight,
    walk_value,
)

from oracles import naive_ternary_digits

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**4)


def _assert_matches_oracle(x):
    """Full preperiod and two periods agree with plain long division, and
    the expansion is in its shortest form (minimal period, no preperiod
    suffix that could be folded into the period)."""
    seq = expand_rational(x)
    pre, per = seq.preperiod, seq.period
    n = len(pre) + 2 * len(per)
    assert list(pre + per + per) == naive_ternary_digits(x, n)
    length = len(per)
    for p in range(1, length):
        if length % p == 0:
            assert per[p:] + per[:p] != per, f"period of {x} repeats every {p}"
    if pre:
        assert pre[-1] != per[-1], f"preperiod of {x} has a removable suffix"


class TestExpandRational:
    def test_one_third_terminates_with_zero_period(self):
        seq = expand_rational(Fraction(1, 3))
        assert seq.preperiod == (1,)
        assert seq.period == (0,)

    def test_one_uses_all_twos(self):
        seq = expand_rational(Fraction(1))
        assert seq.preperiod == ()
        assert seq.period == (2,)

    def test_one_quarter(self):
        seq = expand_rational(Fraction(1, 4))
        assert seq.preperiod == ()
        assert seq.period == (0, 2)

    def test_zero(self):
        seq = expand_rational(Fraction(0))
        assert seq.period == (0,)

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            expand_rational(Fraction(5, 4))
        with pytest.raises(DomainError):
            expand_rational(Fraction(-1, 10))

    @given(unit_fractions)
    @settings(max_examples=300)
    def test_round_trip(self, x):
        seq = expand_rational(x)
        assert seq.value == x

    @given(unit_fractions)
    @settings(max_examples=200, deadline=None)
    def test_digits_match_long_division(self, x):
        seq = expand_rational(x)
        if x == 1:
            return  # all-2's convention diverges from greedy division
        want = naive_ternary_digits(x, 30)
        assert [digit_at(seq, k) for k in range(1, 31)] == want
        _assert_matches_oracle(x)

    @given(unit_fractions)
    @settings(max_examples=300)
    def test_canonical_no_trailing_twos(self, x):
        seq = expand_rational(x)
        if x != 1:
            assert set(seq.period) != {2}

    def test_long_period_matches_oracle_in_full(self):
        x = Fraction(7, 10**4)
        assert len(expand_rational(x).period) == 500
        _assert_matches_oracle(x)
        y = x / 3
        assert expand_rational(y).preperiod == (0,)
        _assert_matches_oracle(y)


class TestDigitSeqValidation:
    def test_bad_digit_rejected(self):
        with pytest.raises(DomainError):
            DigitSeq((3,), (0,), Fraction(1))

    def test_mismatched_value_rejected(self):
        with pytest.raises(DomainError):
            DigitSeq((1,), (0,), Fraction(1, 2))

    @pytest.mark.parametrize("x", [Fraction(7, 10**4), Fraction(7, 3 * 10**4)])
    @pytest.mark.parametrize("pos", [0, 250, 499])
    def test_long_period_changed_digit_rejected(self, x, pos):
        # periods of 500 digits take the halving path of the reconstruction
        seq = expand_rational(x)
        assert DigitSeq(seq.preperiod, seq.period, seq.value) == seq
        period = list(seq.period)
        period[pos] = (period[pos] + 1) % 3
        with pytest.raises(DomainError):
            DigitSeq(seq.preperiod, tuple(period), seq.value)


class TestDigitAt:
    def test_quarter_digits(self):
        seq = expand_rational(Fraction(1, 4))
        assert digit_at(seq, 1) == 0
        assert digit_at(seq, 2) == 2

    def test_one_digit_anywhere(self):
        seq = expand_rational(Fraction(1))
        assert digit_at(seq, 7) == 2


class TestCountDigit:
    def test_half_is_all_ones(self):
        seq = expand_rational(Fraction(1, 2))
        assert count_digit(seq, 1, 1, 5) == 5

    def test_zero_has_no_ones(self):
        seq = expand_rational(Fraction(0))
        assert count_digit(seq, 1, 1, 100) == 0

    def test_five_ninths(self):
        seq = expand_rational(Fraction(5, 9))  # digits 1,2,0,0,...
        assert count_digit(seq, 1, 1, 4) == 1

    def test_bad_range(self):
        seq = expand_rational(Fraction(1, 2))
        with pytest.raises(RangeError):
            count_digit(seq, 1, 5, 4)

    @given(unit_fractions, st.integers(1, 40), st.integers(0, 40), st.integers(1, 40))
    @settings(max_examples=200)
    def test_additive_over_split(self, x, a, b_off, c_off):
        seq = expand_rational(x)
        b = a + b_off
        c = b + c_off
        for i in (0, 1, 2):
            assert count_digit(seq, i, a, c) == count_digit(seq, i, a, b) + (
                count_digit(seq, i, b + 1, c) if b < c else 0
            )


class TestWalkAndWeight:
    def test_examples(self):
        assert walk_value(expand_rational(Fraction(0)), 10) == 10
        assert walk_value(expand_rational(Fraction(1, 2)), 4) == -8
        assert walk_value(expand_rational(Fraction(5, 9)), 3) == 0

    def test_walk_starts_at_zero(self):
        assert walk_value(expand_rational(Fraction(1, 2)), 0) == 0
        with pytest.raises(RangeError):
            walk_value(expand_rational(Fraction(1, 2)), -1)

    def test_f_weight_constant_digits(self):
        zero = expand_rational(Fraction(0))
        half = expand_rational(Fraction(1, 2))
        for n in (1, 5, 17):
            assert f_weight(zero, 1, n) == 3 * n
            assert f_weight(half, 1, n) == -6 * n

    @given(unit_fractions, st.integers(1, 60))
    @settings(max_examples=300)
    def test_weight_is_three_times_walk(self, x, n):
        seq = expand_rational(x)
        assert f_weight(seq, 1, n) == 3 * walk_value(seq, n)


class TestDigitFrequency:
    def test_quarter(self):
        assert digit_frequency(expand_rational(Fraction(1, 4))) == (
            Fraction(1, 2),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_half(self):
        assert digit_frequency(expand_rational(Fraction(1, 2))) == (0, 1, 0)

    def test_zero(self):
        assert digit_frequency(expand_rational(Fraction(0))) == (1, 0, 0)

    @given(unit_fractions)
    @settings(max_examples=200)
    def test_frequencies_sum_to_one(self, x):
        assert sum(digit_frequency(expand_rational(x))) == 1
