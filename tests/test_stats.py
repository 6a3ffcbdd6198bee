"""Chi-squared goodness of fit and the incomplete gamma function.

The finite-sum gamma tail is checked against direct numerical integration of
the chi-squared density (an oracle that shares no code with it) and against
``scipy.special.gammaincc`` at the large shapes a wide register produces.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from quassert.qcore import DensityMatrix, OutcomeDistribution
from quassert.simulator import derive_seed, evolve, exact_distribution, sample
from quassert.stats import (
    Chi2Result,
    chi2_gof,
    chi2_p_value,
    regularized_gamma_q,
)


def gamma_q_by_quadrature(s: float, x: float) -> float:
    """Oracle: Q(s, x) = integral of the chi-squared(2s) density above 2x."""

    def density(t: float) -> float:
        return math.exp((s - 1.0) * math.log(t) - t / 2.0 - s * math.log(2.0) - math.lgamma(s))

    value, _ = quad(density, 2.0 * x, np.inf, limit=200)
    return value


def per_bin_statistic(counts: np.ndarray, probs: np.ndarray) -> float:
    """Reference statistic: sum over admissible bins, one bin at a time."""
    shots = sum(int(c) for c in counts)
    statistic = 0.0
    for i, p in enumerate(probs):
        if p >= 1e-12:
            mean = shots * float(p)
            diff = int(counts[i]) - mean
            statistic += diff * diff / mean
    return statistic


class TestRegularizedGammaQ:
    def test_at_zero(self):
        assert regularized_gamma_q(0.5, 0.0) == 1.0
        assert regularized_gamma_q(7.0, 0.0) == 1.0

    def test_integer_s_closed_form(self):
        # Q(1, x) = e^{-x}.
        assert regularized_gamma_q(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert regularized_gamma_q(1.0, 4.2) == pytest.approx(math.exp(-4.2), abs=1e-10)

    def test_monotone_decreasing_to_zero(self):
        values = [regularized_gamma_q(0.5, x) for x in (0.1, 1.0, 5.0, 20.0, 80.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    @pytest.mark.parametrize(
        "s,x",
        [
            (0.5, 0.05),
            (0.5, 1.9205),
            (0.5, 6.0),
            (1.0, 0.7),
            (1.5, 2.5),
            (2.0, 0.3),
            (2.5, 9.0),
            (4.0, 4.0),
            (7.5, 3.0),
            (10.0, 25.0),
        ],
    )
    def test_against_quadrature_oracle(self, s, x):
        assert regularized_gamma_q(s, x) == pytest.approx(
            gamma_q_by_quadrature(s, x), abs=1e-10
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -0.5)
        with pytest.raises(ValueError, match="multiple of 1/2"):
            regularized_gamma_q(0.3, 1.0)

    def test_nan_x_rejected_like_a_negative_one(self):
        # NaN compares False with 0.0 in every order, so a bare x < 0 lets it through.
        with pytest.raises(ValueError, match="x must be non-negative, got nan"):
            regularized_gamma_q(1.5, math.nan)

    @pytest.mark.parametrize(
        "twice_s", [1, 2, 3, 4, 7, 16, 31, 80, 127, 512, 1023, 4095, 8191, 16384, 65535]
    )
    def test_matches_scipy_gammaincc(self, twice_s):
        # x near 0, across s +- 4 sqrt(s) where the chi-squared tail turns
        # over, and far beyond s.
        s = twice_s / 2.0
        width = 4.0 * math.sqrt(s)
        xs = [1e-300, 1e-9, 1e-3, *np.linspace(max(s - width, 1e-3), s + width, 17),
              10.0 * s + 50.0, 100.0 * s + 500.0]
        for x in xs:
            assert regularized_gamma_q(s, x) == pytest.approx(gammaincc(s, x), abs=1e-10), x


class TestChi2PValue:
    def test_canonical_05_quantile(self):
        # 3.841 is the 95% point of chi-squared with one degree of freedom.
        assert chi2_p_value(3.841, 1) == pytest.approx(0.0500, abs=5e-4)

    def test_infinite_statistic(self):
        assert chi2_p_value(math.inf, 3) == 0.0

    def test_monotone_in_statistic(self):
        stats = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        for dof in (1, 3, 7):
            values = [chi2_p_value(s, dof) for s in stats]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_dof_validated(self):
        with pytest.raises(ValueError):
            chi2_p_value(1.0, 0)

    @pytest.mark.parametrize("dof", [True, False, 2.5, 3.0, -1, "3", None])
    def test_dof_must_be_a_positive_integer(self, dof):
        with pytest.raises(ValueError, match=f"dof must be a positive integer, got {dof!r}"):
            chi2_p_value(5.0, dof)

    def test_numpy_integer_dof_accepted(self):
        assert chi2_p_value(5.0, np.int64(3)) == chi2_p_value(5.0, 3)

    @pytest.mark.parametrize("statistic, shown", [(-1.0, "-1.0"), (math.nan, "nan")],
                             ids=["negative", "nan"])
    def test_bad_statistic_rejected_by_name(self, statistic, shown):
        # Named as passed in, not as the half of it that reaches the gamma tail.
        with pytest.raises(ValueError, match=f"^statistic must be non-negative, got {shown}$"):
            chi2_p_value(statistic, 3)

    def test_thousands_of_degrees_of_freedom(self):
        assert chi2_p_value(8190.0, 8191) == pytest.approx(gammaincc(4095.5, 4095.0), abs=1e-10)


class TestChi2Gof:
    def test_exact_match_passes_with_one(self):
        expected = OutcomeDistribution(1, [0.5, 0.5])
        observed = np.array([500, 500])
        result = chi2_gof(observed, expected)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_mutated_bell_counts_rejected(self):
        # Half the mass on a forbidden outcome: decisive failure.
        expected = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        observed = np.array([0, 1500, 0, 1500])
        result = chi2_gof(observed, expected)
        assert math.isinf(result.statistic)
        assert result.p_value == 0.0

    def test_single_forbidden_hit_rejected(self):
        expected = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        observed = np.array([1500, 1, 0, 1499])
        assert chi2_gof(observed, expected).p_value == 0.0

    def test_point_mass_match_passes(self):
        expected = OutcomeDistribution(1, [1.0, 0.0])
        observed = np.array([50, 0])
        result = chi2_gof(observed, expected)
        assert result == Chi2Result(statistic=0.0, dof=1, p_value=1.0)

    def test_dof_counts_surviving_bins_only(self):
        expected = OutcomeDistribution(2, [0.5, 0.25, 0.25, 0.0])
        observed = np.array([50, 25, 25, 0])
        assert chi2_gof(observed, expected).dof == 2

    def test_p_value_matches_gamma_invariant(self):
        expected = OutcomeDistribution(1, [0.5, 0.5])
        observed = np.array([532, 468])
        result = chi2_gof(observed, expected)
        assert result.p_value == pytest.approx(
            regularized_gamma_q(result.dof / 2.0, result.statistic / 2.0), abs=1e-8
        )

    def test_permutation_invariance(self):
        probs = [0.1, 0.2, 0.3, 0.4]
        counts = np.array([9, 22, 31, 38])
        base = chi2_gof(counts, OutcomeDistribution(2, probs))
        perm = [2, 0, 3, 1]
        probs_p = [probs[perm[i]] for i in range(4)]
        permuted = chi2_gof(counts[perm], OutcomeDistribution(2, probs_p))
        assert permuted.statistic == pytest.approx(base.statistic, abs=1e-12)
        assert permuted.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_statistic_matches_per_bin_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            probs = rng.dirichlet(np.ones(2**n))
            probs[rng.random(2**n) < 0.3] = 0.0
            probs[0] += 1.0 - probs.sum()
            expected = OutcomeDistribution(n, probs)
            shots = int(rng.choice([10, 1000, 10**6]))
            counts = rng.multinomial(shots, expected.probs)
            result = chi2_gof(counts, expected)
            reference = per_bin_statistic(counts, expected.probs)
            assert result.statistic == pytest.approx(reference, rel=1e-12, abs=0.0)
            assert result.dof == max(int((expected.probs >= 1e-12).sum()) - 1, 1)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            chi2_gof(np.array([1, 0]), OutcomeDistribution(2, [1, 0, 0, 0]))

    @pytest.mark.parametrize(
        "counts",
        [[1, 0, 0], [[1, 0], [0, 0]], [3, -1], [0, 0], [0.5, 0.7], [2.0, 3.0], [True, False]],
        ids=["length", "shape", "negative", "zero_shots", "fractional", "float", "bool"],
    )
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            chi2_gof(np.array(counts), OutcomeDistribution(1, [0.5, 0.5]))

    def test_uniform_13_qubit_counts_get_a_p_value(self):
        expected = OutcomeDistribution(13, np.full(2**13, 2.0**-13))
        for seed in range(20):
            result = chi2_gof(sample(expected.probs, 10**5, seed), expected)
            assert result.dof == 2**13 - 1
            assert 0.0 <= result.p_value <= 1.0

    def test_null_calibration(self, bell_circuit):
        # Sampling from the expected distribution itself: the rejection rate
        # at the 0.05 level must sit near the nominal size of the test.
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        expected = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        rejections = 0
        trials = 200
        for k in range(trials):
            seed = derive_seed("null-calibration", k)
            counts = sample(exact_distribution(state).probs, 3000, seed)
            if chi2_gof(counts, expected).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.09
