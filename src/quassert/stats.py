"""Pearson's chi-squared goodness-of-fit test.

The p-value doubles as the probability-of-passing for the measurement-outcome
protocol; it compares the sampler's count vector with an OutcomeDistribution.
Expected distributions routinely contain exact zeros, which the textbook
statistic cannot absorb, so near-zero bins are pooled into a forbidden
group: a single observed hit there is decisive evidence against equality
and short-circuits to p = 0.  The chi-squared tail is exact: at the
half-integer shapes dof / 2 the upper incomplete gamma function is a finite
sum, so no iteration can fail to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quassert.qcore import OutcomeDistribution

FORBIDDEN_BIN_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    dof: int
    p_value: float


def regularized_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(s, x) for s a positive multiple of 1/2.

    The finite form from DLMF 8.4 (a = 1/2 and integer a) and the recurrence in a (8.8):
    Q(s, x) = [erfc(sqrt x) if s is not an integer] + sum_{k=1}^{floor s}
    x^(s-k) e^-x / Gamma(s-k+1), each term evaluated in log space.
    """
    s = float(s)
    x = float(x)
    if s <= 0.0 or not (2.0 * s).is_integer():
        raise ValueError(f"s must be a positive multiple of 1/2, got {s}")
    if not x >= 0.0:  # NaN too
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    whole = math.floor(s)
    log_x = math.log(x)
    q = 0.0 if s == whole else math.erfc(math.sqrt(x))
    q += sum(math.exp((s - k) * log_x - x - math.lgamma(s - k + 1.0)) for k in range(1, whole + 1))
    return min(q, 1.0)


def chi2_p_value(statistic: float, dof: int) -> float:
    """Survival probability of the chi-squared distribution at ``statistic``."""
    if isinstance(dof, bool) or not isinstance(dof, (int, np.integer)) or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    if not statistic >= 0.0:  # NaN too
        raise ValueError(f"statistic must be non-negative, got {statistic}")
    return regularized_gamma_q(dof / 2.0, statistic / 2.0)


def chi2_gof(counts: np.ndarray, expected: OutcomeDistribution) -> Chi2Result:
    """Pearson chi-squared test of a count vector against expected probabilities.

    ``counts[i]`` is the number of shots with little-endian outcome index i,
    as :func:`quassert.simulator.sample` returns it.  Bins with expected
    probability below 1e-12 form the forbidden group: any observed count
    there returns an infinite statistic and p = 0.  Degrees of freedom count
    surviving bins minus one; if only one bin survives and nothing forbidden
    was hit, the observation matches a point mass and the test passes with
    p = 1.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"chi2_gof: counts must be integers, got dtype {counts.dtype}")
    if counts.shape != expected.probs.shape:
        raise ValueError(f"chi2_gof: {counts.size} count(s) vs {expected.probs.size} outcomes")
    if (counts < 0).any():
        raise ValueError("chi2_gof: negative count")
    shots = counts.sum()
    if shots < 1:
        raise ValueError("chi2_gof needs at least one shot")

    probs = expected.probs
    surviving = probs >= FORBIDDEN_BIN_THRESHOLD
    n_surviving = int(np.count_nonzero(surviving))

    if counts[~surviving].any():
        return Chi2Result(statistic=math.inf, dof=max(n_surviving - 1, 1), p_value=0.0)

    if n_surviving == 1:
        # Point-mass expectation and every shot landed on it: perfect match.
        return Chi2Result(statistic=0.0, dof=1, p_value=1.0)

    mean = shots * probs[surviving]
    diff = counts[surviving] - mean
    statistic = float((diff * diff / mean).sum())
    dof = n_surviving - 1
    return Chi2Result(statistic=statistic, dof=dof, p_value=chi2_p_value(statistic, dof))
