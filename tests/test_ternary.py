import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto_k import ternary
from okamoto_k.errors import DomainError, ResourceLimitError
from okamoto_k.ternary import (
    DigitSeq,
    _digits,
    _leading_digits,
    _period_length,
    expand_rational,
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
        assert seq.preperiod == b"\1"
        assert seq.period == b"\0"

    def test_one_uses_all_twos(self):
        seq = expand_rational(Fraction(1))
        assert seq.preperiod == b""
        assert seq.period == b"\2"

    def test_one_quarter(self):
        seq = expand_rational(Fraction(1, 4))
        assert seq.preperiod == b""
        assert seq.period == b"\0\2"

    def test_zero(self):
        seq = expand_rational(Fraction(0))
        assert seq.period == b"\0"

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
        cycles = -(-30 // len(seq.period))
        assert list((seq.preperiod + seq.period * cycles)[:30]) == want
        _assert_matches_oracle(x)

    @given(unit_fractions)
    @settings(max_examples=300)
    def test_canonical_no_trailing_twos(self, x):
        seq = expand_rational(x)
        if x != 1:
            assert set(seq.period) != {2}

    @pytest.mark.parametrize("s", range(10))
    @pytest.mark.parametrize("q_rest", [1, 2, 7, 13, 101])
    def test_preperiod_is_the_power_of_three(self, s, q_rest):
        # q = 3**s * q' with 3 not dividing q': the preperiod has s digits
        q = 3**s * q_rest
        for x in {Fraction(1, q), Fraction(q - 1, q)} - {Fraction(0), Fraction(1)}:
            assert len(expand_rational(x).preperiod) == s
            _assert_matches_oracle(x)

    def test_endpoints(self):
        assert expand_rational(Fraction(0)) == DigitSeq(b"", b"\0", Fraction(0))
        _assert_matches_oracle(Fraction(0))
        assert expand_rational(Fraction(1)) == DigitSeq(b"", b"\2", Fraction(1))

    def test_period_over_cap_is_resource_error(self, monkeypatch):
        # 1/1000000007 has a period of 500000003 digits
        with pytest.raises(ResourceLimitError):
            expand_rational(Fraction(1, 1000000007))
        monkeypatch.setattr(ternary, "_PERIOD_CAP", 500)
        assert len(expand_rational(Fraction(7, 10**4)).period) == 500
        with pytest.raises(ResourceLimitError):
            expand_rational(Fraction(1, 1019))  # period 509

    def test_period_cap_message_names_a_long_x_by_its_size(self, monkeypatch):
        # 3 has order 2**(b - 2) modulo 2**b, b >= 3: over the cap from b = 11 on
        monkeypatch.setattr(ternary, "_PERIOD_CAP", 500)
        with pytest.raises(ResourceLimitError, match=f"^period of 1/{2**99} exceeds"):
            expand_rational(Fraction(1, 2**99))  # a 100-bit denominator
        with pytest.raises(ResourceLimitError) as exc:
            expand_rational(Fraction(2**100 - 1, 2**100))
        assert str(exc.value) == (
            "period of x with a 101-bit denominator exceeds cap of 500 digits"
        )

    @pytest.mark.parametrize(
        "q,length",
        # periods on either side of a multiple of the 8-digit group
        [(1093, 7), (41, 8), (757, 9), (17, 16), (1871, 17), (8951, 25)],
    )
    def test_group_edge_periods(self, monkeypatch, q, length):
        for x in (Fraction(1, q), Fraction(q - 1, q), Fraction(1, 3**7 * q)):
            assert len(expand_rational(x).period) == length
            _assert_matches_oracle(x)
        monkeypatch.setattr(ternary, "_PERIOD_CAP", length)
        assert len(expand_rational(Fraction(1, q)).period) == length
        monkeypatch.setattr(ternary, "_PERIOD_CAP", length - 1)
        with pytest.raises(ResourceLimitError, match=f"period of 1/{q} exceeds cap"):
            expand_rational(Fraction(1, q))

    def test_long_period_matches_oracle_in_full(self):
        x = Fraction(7, 10**4)
        assert len(expand_rational(x).period) == 500
        _assert_matches_oracle(x)
        y = x / 3
        assert expand_rational(y).preperiod == b"\0"
        _assert_matches_oracle(y)


class TestDigitEngine:
    def test_digits_match_oracle(self):
        rng = random.Random(5)
        pairs = [(0, 1), (1, 2), (1, 3), (2, 3), (1, 41), (6560, 6561), (6561, 6562)]
        for _ in range(200):
            q = rng.randrange(1, 10**12)
            pairs.append((rng.randrange(q), q))
        for r, q in pairs:
            for n in range(26):
                want = naive_ternary_digits(Fraction(r, q), n)
                assert list(_digits(r, q, n)) == want, (r, q)

    def test_leading_digits_are_those_of_the_exact_value(self):
        # floats at the ends of the double range, a float near 1/3, a
        # preperiod longer than the window and a period of 100002 digits
        xs = [0.0, -0.0, 5e-324, 2.0**-64, 1 / 3, 1 - 2.0**-53]
        xs += [Fraction(2, 3**45), Fraction(99741, 100003)]
        for x in xs:
            want = naive_ternary_digits(Fraction(x), 40)
            assert list(_leading_digits(x, 40)) == want, x
        for one in (1.0, Fraction(1)):
            assert _leading_digits(one, 40) == b"\2" * 40

    def test_period_length_is_the_order_of_three(self):
        for q in range(1, 3000):
            if q % 3:
                order, power = 1, 3 % q
                while power != 1 % q:
                    order, power = order + 1, power * 3 % q
                assert _period_length(q) == order, q


class TestDigitSeqValidation:
    def test_bad_digit_rejected(self):
        # 0.3000... in base 3 is 1, so only the digit check can reject it
        with pytest.raises(DomainError, match=re.escape("digit 3 outside {0,1,2}")):
            DigitSeq(b"\3", b"\0", Fraction(1))

    def test_bytes_give_the_expansion(self):
        x = Fraction(1, 297)  # a preperiod of 3 digits and a period of 5
        seq = DigitSeq(b"\0\0\0", b"\0\0\2\1\1", x)
        assert seq == expand_rational(x)
        assert hash(seq) == hash(expand_rational(x))

    @pytest.mark.parametrize(
        "convert",
        [tuple, list, bytearray, lambda b: "".join(map(str, b))],
        ids=["tuple", "list", "bytearray", "str"],
    )
    @pytest.mark.parametrize("where", ["preperiod", "period"])
    def test_non_bytes_rejected(self, convert, where):
        digits = {"preperiod": b"\0\0\0", "period": b"\0\0\2\1\1"}
        digits[where] = convert(digits[where])  # as bytes, these rebuild 1/297
        with pytest.raises(DomainError, match="preperiod and period must be bytes"):
            DigitSeq(digits["preperiod"], digits["period"], Fraction(1, 297))

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_empty_period_rejected(self, x):
        pre = expand_rational(x).preperiod
        with pytest.raises(DomainError, match="the period must have at least one digit"):
            DigitSeq(pre, b"", x)

    # 49 is the numeral b"1"; -1 to None are items that no byte can hold
    @pytest.mark.parametrize("bad", [3, 49, 255, -1, 256, 2.5, "1", None])
    @pytest.mark.parametrize("where", ["preperiod", "period"])
    def test_non_digit_rejected(self, bad, where):
        digits = {"preperiod": [0, 0, 0], "period": [0, 0, 2, 1, 1]}
        digits[where][1] = bad
        other = "period" if where == "preperiod" else "preperiod"
        digits[other] = bytes(digits[other])
        if isinstance(bad, int) and 0 <= bad < 256:
            digits[where] = bytes(digits[where])
            message = f"digit {bad} outside {{0,1,2}}"
        else:  # only a list holds it, and the type check rejects the list
            with pytest.raises((TypeError, ValueError)):
                bytes(digits[where])
            message = "preperiod and period must be bytes"
        with pytest.raises(DomainError, match=re.escape(message)):
            DigitSeq(digits["preperiod"], digits["period"], Fraction(1, 297))

    def test_non_digit_byte_rejected(self):
        with pytest.raises(DomainError, match=re.escape("digit 3 outside {0,1,2}")):
            DigitSeq(b"\0\3", b"\0", Fraction(1, 9))

    def test_mismatched_value_rejected(self):
        with pytest.raises(DomainError, match="digits do not reconstruct the stored value"):
            DigitSeq(b"\1", b"\0", Fraction(1, 2))

    @pytest.mark.parametrize("x", [Fraction(7, 10**4), Fraction(7, 3 * 10**4)])
    @pytest.mark.parametrize("pos", [0, 250, 499])
    def test_long_period_changed_digit_rejected(self, x, pos):
        # periods of 500 digits take the halving path of the reconstruction
        seq = expand_rational(x)
        assert DigitSeq(seq.preperiod, seq.period, seq.value) == seq
        period = bytearray(seq.period)
        period[pos] = (period[pos] + 1) % 3
        with pytest.raises(DomainError, match="digits do not reconstruct the stored value"):
            DigitSeq(seq.preperiod, bytes(period), seq.value)


class TestWalkAndWeight:
    def test_examples(self):
        assert walk_value(expand_rational(Fraction(0)), 10) == 10
        assert walk_value(expand_rational(Fraction(1, 2)), 4) == -8
        assert walk_value(expand_rational(Fraction(5, 9)), 3) == 0

    @pytest.mark.parametrize(
        "x,ns",
        [
            # preperiod 3 digits, period 5: inside each, at cycle ends, far out
            (Fraction(1, 297), [1, 2, 3, 4, 6, 8, 13, 14, 1003, 1005]),
            # no preperiod, period 16
            (Fraction(5, 17), [1, 9, 16, 17, 32, 160, 165]),
            # terminating: 2/9 = 0.02000...
            (Fraction(2, 9), [1, 2, 3, 50]),
            # 1's in the preperiod 0100010 and the period 2101: n inside each
            (Fraction(1234, 10935), [1, 2, 3, 6, 7, 8, 9, 12, 13]),
            # period 100002: n = 20 reads no whole cycle, n = 250000 two cycles
            (Fraction(1, 100003), [20, 100002, 250000]),
        ],
    )
    def test_matches_oracle_walk(self, x, ns):
        seq = expand_rational(x)
        digits = naive_ternary_digits(x, max(ns))
        for n in ns:
            assert walk_value(seq, n) == n - 3 * digits[:n].count(1), n

    def test_walk_starts_at_zero(self):
        assert walk_value(expand_rational(Fraction(1, 2)), 0) == 0
        with pytest.raises(DomainError):
            walk_value(expand_rational(Fraction(1, 2)), -1)
