import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import okamoto_k
from okamoto_k import derivative
from okamoto_k.derivative import (
    DerivativeClass,
    billingsley_divergence_witness,
    classification_report,
    classify_point,
    period_drift,
    random_ternary_pair,
    secant_slope,
    sigma_decompose,
    sigma_fuzz,
)
from okamoto_k.errors import DomainError, ProofCheckError
from okamoto_k.ternary import (
    DigitSeq,
    expand_rational,
    walk_value,
)

from oracles import sigma_split_fractions

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=500)


class TestClassifyPoint:
    def test_all_zeros_is_plus(self):
        assert classify_point(expand_rational(Fraction(0))) == DerivativeClass.PLUS_INFINITY

    def test_all_ones_is_minus(self):
        assert classify_point(expand_rational(Fraction(1, 2))) == DerivativeClass.MINUS_INFINITY

    def test_one_is_plus(self):
        assert classify_point(expand_rational(Fraction(1))) == DerivativeClass.PLUS_INFINITY

    def test_quarter_is_plus(self):
        seq = expand_rational(Fraction(1, 4))
        assert period_drift(seq) == 2
        assert classify_point(seq) == DerivativeClass.PLUS_INFINITY

    def test_zero_drift_period(self):
        # period (0,0,1): drift 3 - 3 = 0, walk stays bounded
        value = Fraction(1, 26)  # 0.(001) repeating in base 3
        seq = expand_rational(value)
        assert seq.period in ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert period_drift(seq) == 0
        assert classify_point(seq) == DerivativeClass.NO_INFINITE_DERIVATIVE
        walk = [walk_value(seq, n) for n in range(1, 1001)]
        assert max(abs(w) for w in walk) <= 3

    @given(unit_fractions)
    @settings(max_examples=300)
    def test_mirror_symmetry(self, x):
        # the digit swap 0 <-> 2 under x -> 1-x fixes the count of 1's
        assert classify_point(expand_rational(x)) == classify_point(
            expand_rational(1 - x)
        )


class TestSecantSlope:
    def test_at_zero(self):
        seq = expand_rational(Fraction(0))
        assert secant_slope(seq, 2) == 6

    def test_at_half_and_third(self):
        assert secant_slope(expand_rational(Fraction(1, 2)), 1) == -6
        assert secant_slope(expand_rational(Fraction(1, 3)), 1) == -6

    def test_rejects_x_equal_one(self):
        with pytest.raises(DomainError):
            secant_slope(expand_rational(Fraction(1)), 1)

    @given(unit_fractions.filter(lambda x: x < 1), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_equals_weighted_walk(self, x, n):
        seq = expand_rational(x)
        slope = secant_slope(seq, n)
        assert slope == 3 * walk_value(seq, n)


class TestDivergenceWitness:
    def test_all_zeros_climbs_by_three(self):
        rep = billingsley_divergence_witness(expand_rational(Fraction(0)), 6)
        assert set(rep.differences) == {3}
        assert rep.all_steps_valid

    def test_all_ones_drops_by_six(self):
        rep = billingsley_divergence_witness(expand_rational(Fraction(1, 2)), 6)
        assert set(rep.differences) == {-6}
        assert rep.all_steps_valid

    @given(unit_fractions.filter(lambda x: x < 1))
    @settings(max_examples=100, deadline=None)
    def test_steps_always_valid(self, x):
        rep = billingsley_divergence_witness(expand_rational(x), 10)
        assert rep.all_steps_valid
        assert set(rep.differences) <= {3, -6}


class TestSigmaDecomposition:
    def test_zero_and_one_twenty_seventh(self):
        # digits 000... vs 001(000...): shared prefix of length 2, p = 3
        dec = sigma_decompose(Fraction(0), Fraction(1, 27))
        assert dec.p == 3
        assert dec.k0 == 2
        assert dec.case_tag == "k0==p-1"
        assert dec.quotient == 9
        assert dec.sigma1 + dec.sigma2 + dec.sigma3 + dec.sigma4 == 9

    def test_carry_chain_hits_first_case(self):
        # x = 0.10222, x + h = 0.11: shared prefix 1, p = 5
        x = Fraction(107, 243)
        h = Fraction(1, 243)
        dec = sigma_decompose(x, h)
        assert dec.case_tag == "k0<=p-3"
        assert dec.k0 == 1
        assert dec.sigma1 == 3 * walk_value(expand_rational(x), dec.k0)

    def test_rejects_non_ternary(self):
        with pytest.raises(DomainError):
            sigma_decompose(Fraction(1, 2), Fraction(1, 9))

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            sigma_decompose(Fraction(8, 9), Fraction(2, 9))

    def test_fuzz_has_no_violations(self):
        report = sigma_fuzz(500, seed=11)
        assert report["violations"] == 0
        assert sum(report["cases"].values()) == 500

    def test_sandwich_violation_raises(self, monkeypatch):
        monkeypatch.setattr(derivative, "walk_value", lambda x, n: 10**6)
        with pytest.raises(ProofCheckError, match="outside"):
            sigma_decompose(Fraction(0), Fraction(1, 27))

    def test_fuzz_counts_violations_under_optimize(self):
        # python -O strips assert statements; the bound checks must survive
        script = textwrap.dedent(
            """
            import json, sys
            from okamoto_k import derivative

            derivative.walk_value = lambda x, n: 10**6  # sandwich far off
            report = derivative.sigma_fuzz(40, seed=3)
            print(json.dumps({"optimize": sys.flags.optimize, **report}))
            """
        )
        src = str(Path(okamoto_k.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["optimize"] == 1
        assert doc["violations"] == doc["trials"] == 40

    def test_matches_fraction_oracle_on_all_order_4_pairs(self):
        for i in range(81):
            for j in range(1, 81 - i):
                x, h = Fraction(i, 81), Fraction(j, 81)
                dec = dataclasses.asdict(sigma_decompose(x, h))
                assert dec == sigma_split_fractions(x, h), (x, h)

    def test_matches_fraction_oracle_on_random_pairs(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(500):
            x, h = random_ternary_pair(rng, max_order=10)
            dec = dataclasses.asdict(sigma_decompose(x, h))
            assert dec == sigma_split_fractions(x, h), (x, h)

    def test_case_one_sigma1_is_digit_weight(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        seen = 0
        while seen < 50:
            x, h = random_ternary_pair(rng, max_order=9)
            dec = sigma_decompose(x, h)
            if dec.case_tag != "k0<=p-3" or dec.k0 == 0:
                continue
            assert dec.sigma1 == 3 * walk_value(expand_rational(x), dec.k0)
            seen += 1


class TestClassificationReport:
    def test_shape(self):
        rep = classification_report(Fraction(1, 4))
        assert rep["verdict"] == "PLUS_INFINITY"
        assert rep["drift"] == 2
        assert len(rep["walk_prefix"]) == 20
        assert rep["expansion"] == {"preperiod": [], "period": [0, 2]}

    def test_walk_prefix_five_ninths(self):
        # 5/9 = 0.12000... in base 3
        walk = classification_report(Fraction(5, 9))["walk_prefix"]
        assert walk == [-2, -1, 0] + list(range(1, 18))

    def test_walk_prefix_constant_digits(self):
        assert classification_report(Fraction(0))["walk_prefix"] == list(range(1, 21))
        assert classification_report(Fraction(1, 2))["walk_prefix"] == list(
            range(-2, -41, -2)
        )
