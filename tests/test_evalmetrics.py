"""pass@k and preference-loss tests."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgeo.evalmetrics import (
    PreferenceTriple,
    _dpo_loss_and_gap,
    dpo_loss,
    dpo_nce_identity,
    pass_at_k,
    pass_at_k_exact,
    pass_at_k_single,
)

from oracles import dpo_mean_mp, passk_enumerate, softplus_mp

_MAX = sys.float_info.max


class TestPassAtK:
    def test_all_correct(self):
        assert pass_at_k_single(5, 5, 1) == 1.0

    def test_none_correct(self):
        assert pass_at_k_single(5, 0, 3) == 0.0

    def test_half_case(self):
        # 1 - C(3,2)/C(4,2) = 1 - 3/6
        assert pass_at_k_single(4, 1, 2) == 0.5

    def test_exhaustive_small(self):
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    assert pass_at_k_exact(n, c, k) == passk_enumerate(n, c, k)

    def test_mean_over_problems(self):
        problems = [(4, 1), (4, 4), (4, 0)]
        expected = (0.5 + 1.0 + 0.0) / 3
        assert pass_at_k(problems, 2) == pytest.approx(expected, abs=1e-15)

    def test_large_operating_point(self):
        val = pass_at_k_single(512, 7, 256)
        assert 0.0 <= val <= 1.0 and math.isfinite(val)
        val = pass_at_k_single(512, 300, 256)
        assert val == 1.0  # N - c < k forces a hit

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_at_k_single(4, 5, 1)
        with pytest.raises(ValueError):
            pass_at_k_single(4, -1, 1)
        with pytest.raises(ValueError):
            pass_at_k_single(4, 2, 5)
        with pytest.raises(ValueError):
            pass_at_k_single(4, 2, 0)
        with pytest.raises(ValueError):
            pass_at_k([], 1)

    @given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 39))
    @settings(max_examples=300, deadline=None)
    def test_monotonicity(self, n, c, k):
        c = min(c, n)
        k = min(k, n)
        base = pass_at_k_exact(n, c, k)
        if k + 1 <= n:
            assert pass_at_k_exact(n, c, k + 1) >= base
        if c + 1 <= n:
            assert pass_at_k_exact(n, c + 1, k) >= base

    @given(st.lists(st.tuples(st.integers(1, 600), st.integers(0, 600)),
                    min_size=1, max_size=20), st.integers(1, 600))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_floats_are_the_rounded_exact_values(self, records, k):
        """Bit for bit: each float is the exact Fraction rounded, and the
        mean sums those floats in problem order, repeated records too."""
        problems = [(n, min(c, n)) for n, c in records]
        problems += problems[::2]
        k = min(k, *(n for n, _ in problems))
        floats = [float(pass_at_k_exact(n, c, k)) for n, c in problems]
        assert [pass_at_k_single(n, c, k).hex() for n, c in problems] == \
            [f.hex() for f in floats]
        assert pass_at_k(problems, k).hex() == (sum(floats) / len(floats)).hex()

    def test_pass_at_n_iff_any_correct(self):
        for n in range(1, 10):
            assert pass_at_k_single(n, 0, n) == 0.0
            for c in range(1, n + 1):
                assert pass_at_k_single(n, c, n) == 1.0


class TestDpoLoss:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="need at least one preference triple"):
            dpo_loss([])

    def test_indifference(self):
        loss = dpo_loss([PreferenceTriple(1.3, 1.3)])
        assert loss == pytest.approx(math.log(2), abs=1e-15)

    def test_saturation(self):
        assert dpo_loss([PreferenceTriple(1000.0, 0.0)]) == pytest.approx(0.0, abs=1e-12)
        big = dpo_loss([PreferenceTriple(0.0, 1000.0)])
        assert big == pytest.approx(1000.0, abs=1e-9)

    def test_against_high_precision(self):
        for gap in (1.5, -2.25, 0.013, 37.0):
            loss = dpo_loss([PreferenceTriple(gap, 0.0)])
            assert loss == pytest.approx(softplus_mp(-gap), abs=1e-12)

    def test_stable_to_1e4(self):
        for gap in (1e4, -1e4):
            loss = dpo_loss([PreferenceTriple(gap, 0.0)])
            assert math.isfinite(loss)

    def test_translation_invariance(self):
        rng_vals = [(-3.0, 1.0), (0.5, 0.25), (10.0, -10.0)]
        for r_w, r_l in rng_vals:
            base = dpo_loss([PreferenceTriple(r_w, r_l)])
            shifted = dpo_loss([PreferenceTriple(r_w + 123.456, r_l + 123.456)])
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_strictly_decreasing_in_gap(self):
        gaps = [-5.0, -1.0, 0.0, 0.5, 2.0, 10.0]
        losses = [dpo_loss([PreferenceTriple(g, 0.0)]) for g in gaps]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_mean_over_triples(self):
        triples = [PreferenceTriple(1.0, 0.0), PreferenceTriple(0.0, 1.0)]
        one = dpo_loss([triples[0]])
        two = dpo_loss([triples[1]])
        assert dpo_loss(triples) == pytest.approx((one + two) / 2, abs=1e-15)

    def test_mean_of_many_pairs_is_exactly_rounded(self):
        # a running float sum of 1e5 terms is off by a few 1e-15 relative;
        # an exactly rounded sum of the terms stays within a few ulp
        rng = np.random.default_rng(21)
        r_w = rng.normal(0.5, 3.0, 100_000).tolist()
        r_l = rng.normal(0.0, 3.0, 100_000).tolist()
        exact = dpo_mean_mp(r_w, r_l)
        loss = dpo_loss([PreferenceTriple(w, l) for w, l in zip(r_w, r_l)])
        assert abs(loss - exact) <= 1e-15 * exact

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PreferenceTriple(float("inf"), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1], ids=["r_w", "r_l"])
    def test_arrays_with_nonfinite_rejected(self, bad, column):
        # the array route of dpo_loss and dpo-check applies the triple's rule
        rewards = [np.array([0.5, -1.0, 2.0]), np.array([0.0, 1.0, -2.0])]
        rewards[column][1] = bad
        with pytest.raises(ValueError, match="rewards must be finite"):
            _dpo_loss_and_gap(*rewards)

    @pytest.mark.parametrize("fn", [dpo_loss, dpo_nce_identity],
                             ids=["gap-loss", "gap-identity"])
    def test_beyond_float64_rejected(self, fn):
        # finite rewards whose gap float64 cannot hold: an error, not a
        # number, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^reward gap overflows float64$"):
                fn([PreferenceTriple(-1e308, 1e308)])

    @pytest.mark.parametrize("triples, means", [
        ([PreferenceTriple(-5e307, 5e307)] * 2, (1e308,)),
        *(([PreferenceTriple(-_MAX / 2, _MAX / 2)] * n, (_MAX, np.nextafter(_MAX, 0)))
          for n in (1, 2, 3, 1000)),
    ], ids=["sum-loss", "max-losses-1", "max-losses-2", "max-losses-3", "max-losses-1000"])
    def test_mean_beyond_a_float64_sum(self, triples, means):
        # losses each finite whose sum float64 cannot hold: the mean is a
        # number, at most one ulp from the exact one, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dpo_loss(triples) in means
            assert dpo_nce_identity(triples) == 0.0

    @given(st.lists(st.floats(-_MAX, _MAX), min_size=1, max_size=40))
    @example([0.75 * _MAX, 0.2 * _MAX])  # a finite sum of losses near float64's max
    @example([-744.0, -739.5])  # subnormal losses
    @example([2.0**1023, 2.0**970, -744.0])  # a subnormal loss that decides a rounding tie
    # a sum beyond float64 whose scaled rounding tie a subnormal loss decides
    @example([2.0**1023, 2.0**1023, 2.0**971, -744.0])
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mean_is_fsum_over_n_where_that_is_finite(self, gaps):
        # the mean is fsum / n wherever that exists, for zero and subnormal
        # losses too; a sum beyond float64 is the exact sum scaled by 2^-k,
        # 2^k > n, rounded once, then / n * 2^k
        r_l = np.array(gaps)
        losses = np.logaddexp(0.0, r_l).tolist()
        mean = _dpo_loss_and_gap(np.zeros_like(r_l), r_l)[0]
        n = len(losses)
        try:
            expected = math.fsum(losses) / n
        except OverflowError:
            k = n.bit_length()
            expected = float(sum(map(Fraction, losses)) * Fraction(1, 2**k)) / n * 2.0**k
        assert mean.hex() == expected.hex()


class TestNceIdentity:
    def test_random_triples(self):
        import random

        rnd = random.Random(5)
        triples = [
            PreferenceTriple(rnd.uniform(-5, 5), rnd.uniform(-5, 5))
            for _ in range(200)
        ]
        assert dpo_nce_identity(triples) <= 1e-12

    def test_extreme_gaps(self):
        triples = [PreferenceTriple(700.0, 0.0), PreferenceTriple(0.0, 700.0),
                   PreferenceTriple(350.0, -350.0)]
        assert dpo_nce_identity(triples) <= 1e-10

    def test_equal_rewards_give_ln2(self):
        t = PreferenceTriple(0.0, 0.0)
        assert dpo_loss([t]) == pytest.approx(math.log(2), abs=1e-15)
        assert dpo_nce_identity([t]) <= 1e-15
