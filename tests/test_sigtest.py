import math
import random
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stoplab import sigtest
from stoplab.sigtest import (
    _ranks_and_ties,
    chi_square_upper_tail,
    friedman,
    friedman_chi2_from_mean_ranks,
    wilcoxon_signed_rank,
)

import oracles


class TestChiSquareUpperTail:
    def test_zero_statistic(self):
        for df in (1, 2, 5, 11):
            assert chi_square_upper_tail(0.0, df) == 1.0

    def test_df2_closed_form(self):
        # for df=2 the survival function is exp(-x/2)
        for x in (0.5, 2.0, 6.0, 20.0):
            assert chi_square_upper_tail(x, 2) == pytest.approx(
                math.exp(-x / 2), rel=1e-12
            )

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        rng = random.Random(51)
        for _ in range(50):
            x = rng.uniform(0, 80)
            df = rng.randint(1, 30)
            expected = float(
                mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True)
            )
            assert abs(chi_square_upper_tail(x, df) - expected) <= 1e-10

    def test_large_statistic_tiny_p(self):
        assert chi_square_upper_tail(70.471, 11) < 1e-9

    def test_infinite_and_nan_statistics(self):
        assert chi_square_upper_tail(math.inf, 3) == 0.0
        with pytest.raises(ValueError, match="x must be non-negative"):
            chi_square_upper_tail(math.nan, 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chi_square_upper_tail(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_upper_tail(1.0, 0)


class TestFriedman:
    def test_consistent_ordering_toy(self):
        matrix = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.0, 0.5, 1.0]]
        result = friedman(matrix)
        assert result.chi2 == 6.0
        assert result.df == 2
        assert result.p_value == pytest.approx(math.exp(-3), abs=1e-9)
        assert result.mean_ranks == [1.0, 2.0, 3.0]

    def test_fully_tied_rows_degenerate(self):
        result = friedman([[1.0, 1.0, 1.0]] * 4)
        assert result.chi2 == 0.0
        assert result.p_value == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            friedman([[1.0, 2.0]])  # n < 2
        with pytest.raises(ValueError):
            friedman([[1.0], [2.0]])  # k < 2

    def test_mean_ranks_sum(self):
        rng = random.Random(52)
        for _ in range(20):
            n, k = rng.randint(2, 15), rng.randint(2, 8)
            m = [[rng.random() for _ in range(k)] for _ in range(n)]
            result = friedman(m)
            assert sum(result.mean_ranks) == pytest.approx(k * (k + 1) / 2)

    def test_matches_scipy_without_and_with_ties(self):
        rng = random.Random(53)
        for _ in range(20):
            n, k = rng.randint(3, 20), rng.randint(3, 6)
            m = np.array(
                [[rng.choice([0.1, 0.2, 0.3, 0.4, rng.random()]) for _ in range(k)]
                 for _ in range(n)]
            )
            if np.all([len(set(row)) == 1 for row in m]):
                continue
            expected_chi2, expected_p = scipy.stats.friedmanchisquare(*m.T)
            result = friedman(m)
            assert result.chi2 == pytest.approx(expected_chi2, rel=1e-12)
            assert result.p_value == pytest.approx(expected_p, rel=1e-9)

    def test_rank_invariance_under_monotone_transform(self):
        rng = random.Random(54)
        m = [[rng.random() for _ in range(5)] for _ in range(10)]
        transformed = [[math.exp(3 * x) for x in row] for row in m]
        a, b = friedman(m), friedman(transformed)
        assert a.chi2 == pytest.approx(b.chi2, rel=1e-12)
        assert a.mean_ranks == b.mean_ranks

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            friedman([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])

    def test_labels_carried(self):
        result = friedman([[1, 2], [2, 1], [1, 2]], labels=["A", "B"])
        assert result.labels == ["A", "B"]
        with pytest.raises(ValueError):
            friedman([[1, 2], [2, 1]], labels=["only-one"])


class TestFriedmanFromMeanRanks:
    def test_toy_exact(self):
        assert friedman_chi2_from_mean_ranks([1.0, 2.0, 3.0], n=3) == 6.0

    def test_agrees_with_full_test_when_ranks_exact(self):
        rng = random.Random(55)
        for _ in range(10):
            n, k = rng.randint(3, 12), rng.randint(2, 6)
            m = [[rng.random() for _ in range(k)] for _ in range(n)]
            full = friedman(m)
            rebuilt = friedman_chi2_from_mean_ranks(full.mean_ranks, n)
            assert rebuilt == pytest.approx(full.chi2, rel=1e-9)  # no ties w.p. 1


class TestWilcoxon:
    def test_all_positive_five(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert result.w_plus == 15.0
        assert result.w_minus == 0.0
        assert result.p_value == 0.0625
        assert (result.better, result.worse, result.tied) == (5, 0, 0)

    def test_identical_samples(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.n_used == 0
        assert result.p_value == 1.0
        assert (result.better, result.worse, result.tied) == (0, 0, 3)

    def test_rank_sum_identity(self):
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(1, 30)
            a = [rng.choice([0.0, 0.1, 0.2, rng.random()]) for _ in range(n)]
            b = [rng.choice([0.0, 0.1, 0.2, rng.random()]) for _ in range(n)]
            result = wilcoxon_signed_rank(a, b)
            assert result.w_plus + result.w_minus == pytest.approx(
                result.n_used * (result.n_used + 1) / 2
            )
            assert result.better + result.worse + result.tied == n

    def test_symmetry_under_swap(self):
        rng = random.Random(62)
        for _ in range(50):
            n = rng.randint(1, 25)
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            ab = wilcoxon_signed_rank(a, b)
            ba = wilcoxon_signed_rank(b, a)
            assert ab.p_value == ba.p_value
            assert ab.statistic == ba.statistic
            assert (ab.better, ab.worse) == (ba.worse, ba.better)

    def test_exact_matches_enumeration(self):
        rng = random.Random(63)
        for _ in range(40):
            n = rng.randint(1, 12)
            a = [rng.choice([0, 1, 2, 3, rng.random()]) for _ in range(n)]
            b = [rng.choice([0, 1, 2, 3, rng.random()]) for _ in range(n)]
            diffs = [x - y for x, y in zip(a, b)]
            expected = oracles.wilcoxon_exact_enumeration(diffs)
            result = wilcoxon_signed_rank(a, b)
            assert result.p_value == expected, diffs

    def test_exact_matches_scipy_when_tie_free(self):
        rng = random.Random(64)
        for _ in range(30):
            n = rng.randint(3, 18)
            d = rng.sample(range(1, 100), n)
            d = [x * rng.choice([-1, 1]) for x in d]
            a = [float(x) for x in d]
            b = [0.0] * n
            expected = scipy.stats.wilcoxon(a, b, mode="exact").pvalue
            result = wilcoxon_signed_rank(a, b)
            assert result.p_value == pytest.approx(expected, rel=1e-12)

    def test_normal_approximation_close_to_exact_for_small_n(self, monkeypatch):
        # Sanity band for the approximation, scoped to where the classic
        # continuity-corrected normal can deliver it: tie-free differences
        # with 7..10 nonzero pairs (worst case measured 0.025).  Below n=7
        # the worst case is 0.035-0.129 by construction of the statistic,
        # and heavy ties can lump the null distribution arbitrarily badly;
        # real comparisons in that regime use the exact path anyway.
        rng = random.Random(65)
        for _ in range(200):
            n = rng.randint(7, 10)
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            monkeypatch.setattr(sigtest, "EXACT_LIMIT", n)
            exact = wilcoxon_signed_rank(a, b).p_value
            monkeypatch.setattr(sigtest, "EXACT_LIMIT", n - 1)
            approx = wilcoxon_signed_rank(a, b).p_value
            assert abs(exact - approx) < 0.03

    def test_large_sample_uses_approximation(self):
        rng = random.Random(66)
        n = 75
        a = [rng.random() for _ in range(n)]
        b = [x + rng.gauss(0.05, 0.1) for x in a]
        result = wilcoxon_signed_rank(a, b)
        assert result.n_used > 20
        assert 0.0 <= result.p_value <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            wilcoxon_signed_rank([0.1, bad, 0.3], [0.2, 0.2, 0.2])
        with pytest.raises(ValueError, match="samples must be finite"):
            wilcoxon_signed_rank([0.2, 0.2, 0.2], [0.1, bad, 0.3])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([], [])


# values drawn mostly from a small pool, so that ties are common
TIE_HEAVY = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, -0.1, 0.25, -0.25, 0.5, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
)


class TestAgainstOutsideReferences:
    """The statistics stoplab computes with numpy and math, pinned to scipy
    and mpmath as oracles."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(TIE_HEAVY, min_size=1, max_size=60))
    @example([-0.0, 0.0, -0.0])
    def test_average_ranks_equal_scipy_rankdata(self, values):
        assert _ranks_and_ties(values)[0].tolist() == scipy.stats.rankdata(values).tolist()

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(0.0, 2000.0), st.integers(1, 200))
    @example(0.0, 1)
    @example(2000.0, 1)
    @example(2000.0, 200)
    def test_chi_square_tail_within_1e_12_of_mpmath(self, x, df):
        import mpmath

        with mpmath.workdps(40):
            expected = float(mpmath.gammainc(
                mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True))
        # below the smallest normal double no relative bound can hold
        assert chi_square_upper_tail(x, df) == pytest.approx(
            expected, rel=1e-12, abs=sys.float_info.min)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(TIE_HEAVY, min_size=21, max_size=80))
    def test_normal_approximation_matches_scipy(self, differences):
        assume(sum(d != 0 for d in differences) > 20)
        zeros = [0.0] * len(differences)
        result = wilcoxon_signed_rank(differences, zeros)
        expected = scipy.stats.wilcoxon(
            differences, zeros, method="approx", correction=True)
        assert result.statistic == expected.statistic
        assert result.p_value == pytest.approx(expected.pvalue, rel=1e-12)
