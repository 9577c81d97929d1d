import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import okamoto_k
from okamoto_k import derivative, functions
from okamoto_k.derivative import (
    DerivativeClass,
    _draw_ternary_pair,
    _k_scaled,
    billingsley_divergence_witness,
    classification_report,
    classify_point,
    period_drift,
    secant_slope,
    sigma_decompose,
    sigma_fuzz,
)
from okamoto_k.errors import DomainError, ProofCheckError, ResourceLimitError
from okamoto_k.functions import k_exact
from okamoto_k.ternary import (
    DigitSeq,
    expand_rational,
    walk_value,
)

from oracles import naive_ternary_digits, sigma_split_fractions

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=500)


def split_fields(i: int, j: int, order: int) -> dict:
    """sigma_decompose(i, j, order) as the oracle's fields, the sigmas over j."""
    p, k0, tag, *parts, low, high = sigma_decompose(i, j, order)
    fields = {"p": p, "k0": k0, "case_tag": tag, "quotient": Fraction(sum(parts), j)}
    fields.update((f"sigma{k}", Fraction(s, j)) for k, s in enumerate(parts, 1))
    fields.update(sandwich_low=low, sandwich_high=high)
    return fields


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
        assert seq.period in (b"\0\0\1", b"\0\1\0", b"\1\0\0")
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

    def test_integer_floor_matches_fraction_floor(self):
        # every k/3^m with m <= 7 is some i/3^7; levels below, at and above m
        scale = 3**7
        for i in range(scale):
            x = Fraction(i, scale)
            seq = expand_rational(x)
            for n in range(1, 10):
                u = Fraction(math.floor(x * 3**n), 3**n)
                want = (k_exact(u + Fraction(1, 3**n)) - k_exact(u)) * 3**n
                assert secant_slope(seq, n) == want, (x, n)


def _steps(rep) -> set:
    """The steps from 0 through the witness's slopes."""
    slopes = (0,) + rep.partial_sums
    return {b - a for a, b in zip(slopes, slopes[1:])}


class TestDivergenceWitness:
    def test_all_zeros_climbs_by_three(self):
        rep = billingsley_divergence_witness(expand_rational(Fraction(0)), 6)
        assert _steps(rep) == {3}
        assert rep.all_steps_valid

    def test_all_ones_drops_by_six(self):
        rep = billingsley_divergence_witness(expand_rational(Fraction(1, 2)), 6)
        assert _steps(rep) == {-6}
        assert rep.all_steps_valid

    @given(unit_fractions.filter(lambda x: x < 1))
    @settings(max_examples=100, deadline=None)
    def test_steps_always_valid(self, x):
        rep = billingsley_divergence_witness(expand_rational(x), 10)
        assert rep.all_steps_valid
        assert _steps(rep) <= {3, -6}


class TestSigmaDecomposition:
    def test_zero_and_one_twenty_seventh(self):
        # digits 000... vs 001(000...): shared prefix of length 2, p = 3
        p, k0, tag, *parts, low, high = sigma_decompose(0, 1, 3)
        assert (p, k0, tag) == (3, 2, "k0==p-1")
        assert sum(parts) == 9  # j = 1: the quotient itself

    def test_carry_chain_hits_first_case(self):
        # x = 0.10222, x + h = 0.11: shared prefix 1, p = 5
        p, k0, tag, s1, *_ = sigma_decompose(107, 1, 5)
        assert tag == "k0<=p-3"
        assert k0 == 1
        assert s1 == 3 * walk_value(expand_rational(Fraction(107, 243)), k0)

    @pytest.mark.parametrize(
        "i,j,order",
        [
            (-1, 1, 3),
            (0, 0, 3),
            (24, 3, 3),  # i + j = 3**3
            (24, 6, 3),  # x = 8/9, h = 2/9
            (0, 1, 0),
        ],
    )
    def test_rejects_pairs_outside_the_unit_interval(self, i, j, order):
        with pytest.raises(DomainError):
            sigma_decompose(i, j, order)

    def test_fuzz_has_no_violations(self):
        report = sigma_fuzz(500, seed=11)
        assert report["violations"] == 0
        assert sum(report["cases"].values()) == 500

    def test_fuzz_calls_sigma_decompose_by_name(self, monkeypatch):
        # a wrapper installed on the module name sees every split of the run
        want = sigma_fuzz(40, seed=3)
        decompose, calls = derivative.sigma_decompose, []

        def counting(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(derivative, "sigma_decompose", counting)
        assert sigma_fuzz(40, seed=3) == want
        assert len(calls) == 40

    @pytest.mark.parametrize("trials", [0, -5])
    def test_fuzz_needs_a_trial(self, trials):
        with pytest.raises(DomainError, match="need trials >= 1"):
            sigma_fuzz(trials, seed=0)

    def test_fuzz_trials_cap(self):
        cap = derivative._FUZZ_TRIALS_CAP
        with pytest.raises(ResourceLimitError, match=f"trials {cap + 1} exceeds"):
            sigma_fuzz(cap + 1, seed=0)

    def test_sandwich_violation_raises(self, monkeypatch):
        monkeypatch.setattr(derivative, "walk_value", lambda x, n: 10**6)
        with pytest.raises(ProofCheckError, match="outside"):
            sigma_decompose(0, 1, 3)

    @pytest.mark.parametrize(
        "order,j,moved,message",
        [
            # x = 0, h = 1/27: x + h has terms [3, 3, 3], moved into sigma2
            (3, 1, [-1, 3, 7], r"sigma2 = 7 outside \[-6, 3\]"),
            # the same pair at order 5: [27, 27, 27, 0, 0], moved into sigma4
            (5, 9, [127, 27, 27, 0, -100], r"\|sigma4\| = 100/9 exceeds 9"),
        ],
        ids=["sigma2", "sigma4"],
    )
    def test_part_bound_violation_raises(self, monkeypatch, order, j, moved, message):
        # the terms of x + h keep their sum, so only the part bound can fail
        k_terms = derivative._k_terms
        monkeypatch.setattr(
            derivative, "_k_terms", lambda k, m: moved if k == j else k_terms(k, m)
        )
        with pytest.raises(ProofCheckError, match=message):
            sigma_decompose(0, j, order)

    @pytest.mark.parametrize(
        "k_wrong",
        [
            # both ends off by 3**-m: cancels in K(x + h) - K(x)
            lambda digits: _k_scaled(digits) + 1,
            # both ends off by x: the difference is off by h
            lambda digits: _k_scaled(digits) + reduce(lambda v, d: 3 * v + d, digits, 0),
        ],
        ids=["off-by-3^-m", "off-by-x"],
    )
    def test_sum_violation_raises(self, monkeypatch, k_wrong):
        monkeypatch.setattr(derivative, "_k_scaled", k_wrong)
        with pytest.raises(ProofCheckError, match="sigma sum differs"):
            sigma_decompose(0, 1, 3)
        report = sigma_fuzz(40, seed=3)
        assert report["violations"] == report["trials"] == 40

    def test_k_terms_offset_raises(self, monkeypatch):
        # one more level adds 3**m, so K is off by 1 everywhere, in k_exact
        # too; the parts and the difference of the ends keep their values
        k_terms = functions._k_terms

        def shifted(k, m):
            return k_terms(k, m) + [3**m]

        monkeypatch.setattr(functions, "_k_terms", shifted)
        monkeypatch.setattr(derivative, "_k_terms", shifted)
        with pytest.raises(ProofCheckError, match="sigma sum differs"):
            sigma_decompose(0, 1, 3)
        report = sigma_fuzz(40, seed=3)
        assert report["violations"] == report["trials"] == 40

    def test_digit_series_matches_sawtooth_sum(self):
        for m in range(8):
            for i in range(3**m):
                digits = naive_ternary_digits(Fraction(i, 3**m), m)
                assert _k_scaled(digits) == 3**m * k_exact(Fraction(i, 3**m))

    def test_fuzz_counts_violations_under_optimize(self):
        # python -O strips assert statements; the bound checks must survive
        script = textwrap.dedent(
            """
            import json, sys
            from okamoto_k import derivative

            walk_value, k_scaled = derivative.walk_value, derivative._k_scaled
            derivative.walk_value = lambda x, n: 10**6  # sandwich far off
            sandwich = derivative.sigma_fuzz(40, seed=3)
            derivative.walk_value = walk_value
            derivative._k_scaled = lambda digits: k_scaled(digits) + 1
            total = derivative.sigma_fuzz(40, seed=3)
            print(json.dumps(
                {"optimize": sys.flags.optimize, "reports": [sandwich, total]}
            ))
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
        for report in doc["reports"]:
            assert report["violations"] == report["trials"] == 40

    def test_parts_match_fraction_oracle_at_every_order_up_to_4(self):
        # every pair at every order, also where i and j share a factor of 3
        for order in range(1, 5):
            scale = 3**order
            for i in range(scale):
                for j in range(1, scale - i):
                    got = split_fields(i, j, order)
                    want = sigma_split_fractions(Fraction(i, scale), Fraction(j, scale))
                    assert got == {k: want[k] for k in got}, (i, j, order)

    def test_parts_do_not_depend_on_the_order(self):
        # two more trailing zero digits add two zero terms and scale i, j by 9
        for i in range(81):
            for j in range(1, 81 - i):
                p, k0, tag, *parts, low, high = sigma_decompose(i, j, 4)
                p6, k06, tag6, *parts6, low6, high6 = sigma_decompose(9 * i, 9 * j, 6)
                assert (p6, k06, tag6, low6, high6) == (p, k0, tag, low, high)
                assert parts6 == [9 * s for s in parts], (i, j)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fuzz_matches_fraction_oracle(self, seed):
        # the same Philox draws, replayed through the Fraction oracle
        rng = np.random.Generator(np.random.Philox(key=seed))
        cases = {"k0<=p-3": 0, "k0==p-2": 0, "k0==p-1": 0}
        violations = 0
        for _ in range(300):
            i, j, m = _draw_ternary_pair(rng, derivative._FUZZ_ORDER)
            dec = sigma_split_fractions(Fraction(i, 3**m), Fraction(j, 3**m))
            parts = [dec[f"sigma{k}"] for k in range(1, 5)]
            if (
                sum(parts) != dec["quotient"]
                or not -6 <= dec["sigma2"] <= 3
                or abs(dec["sigma4"]) > 9
                or not dec["sandwich_low"] <= dec["quotient"] <= dec["sandwich_high"]
            ):
                violations += 1
            else:
                cases[dec["case_tag"]] += 1
        report = sigma_fuzz(300, seed)
        assert (report["cases"], report["violations"]) == (cases, violations)

    def test_matches_fraction_oracle_on_random_pairs(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(500):
            i, j, m = _draw_ternary_pair(rng, max_order=10)
            got = split_fields(i, j, m)
            want = sigma_split_fractions(Fraction(i, 3**m), Fraction(j, 3**m))
            assert got == {k: want[k] for k in got}, (i, j, m)

    def test_case_one_sigma1_is_digit_weight(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        seen = 0
        while seen < 50:
            i, j, m = _draw_ternary_pair(rng, max_order=9)
            p, k0, tag, s1, *_ = sigma_decompose(i, j, m)
            if tag != "k0<=p-3" or k0 == 0:
                continue
            assert Fraction(s1, j) == 3 * walk_value(expand_rational(Fraction(i, 3**m)), k0)
            seen += 1


class TestClassificationReport:
    def test_shape(self):
        rep = classification_report(Fraction(1, 4))
        assert rep["verdict"] == "PLUS_INFINITY"
        assert rep["drift"] == 2
        assert len(rep["walk_prefix"]) == 20
        assert rep["expansion"] == {"preperiod": b"", "period": b"\0\2"}

    def test_walk_prefix_five_ninths(self):
        # 5/9 = 0.12000... in base 3
        walk = classification_report(Fraction(5, 9))["walk_prefix"]
        assert walk == [-2, -1, 0] + list(range(1, 18))

    def test_walk_prefix_constant_digits(self):
        assert classification_report(Fraction(0))["walk_prefix"] == list(range(1, 21))
        assert classification_report(Fraction(1, 2))["walk_prefix"] == list(
            range(-2, -41, -2)
        )

    @pytest.mark.parametrize("x", [Fraction(1, 7), Fraction(99741, 100003)])
    def test_counts_the_period_once(self, monkeypatch, x):
        # the drift and the verdict come from one count of the period's 1's
        want = classification_report(x)
        drift, calls = derivative.period_drift, []

        def counting(seq):
            calls.append(seq)
            return drift(seq)

        monkeypatch.setattr(derivative, "period_drift", counting)
        assert classification_report(x) == want
        assert len(calls) == 1
