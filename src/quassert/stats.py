"""Pearson's chi-squared goodness-of-fit test.

The p-value doubles as the probability-of-passing for the measurement-outcome
protocol; it compares the sampler's count vector with an OutcomeDistribution.
Expected distributions routinely contain exact zeros, which the textbook
statistic cannot absorb, so near-zero bins are pooled into a forbidden
group: a single observed hit there is decisive evidence against equality
and short-circuits to p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quassert.qcore import OutcomeDistribution
from quassert.qmath import NumericError

FORBIDDEN_BIN_THRESHOLD = 1e-12

_GAMMA_MAX_ITER = 500
_GAMMA_EPS = 1e-15


class DegenerateTestError(ValueError):
    """The expected distribution leaves nothing to test against."""


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    dof: int
    p_value: float


def regularized_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(s, x).

    Series expansion of P(s, x) for x < s + 1, Lentz continued fraction for
    Q(s, x) otherwise; absolute error below 1e-10 over the tested domain.
    """
    s = float(s)
    x = float(x)
    if s <= 0.0:
        raise ValueError(f"s must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0

    if x < s + 1.0:
        # P(s, x) = x^s e^-x / Gamma(s) * sum_k x^k / (s (s+1) ... (s+k))
        term = 1.0 / s
        total = term
        denom = s
        for _ in range(_GAMMA_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                p = total * math.exp(-x + s * math.log(x) - math.lgamma(s))
                return min(max(1.0 - p, 0.0), 1.0)
        raise NumericError(
            f"incomplete gamma series did not converge for s={s}, x={x}"
        )

    # Modified Lentz continued fraction for Q(s, x).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            q = h * math.exp(-x + s * math.log(x) - math.lgamma(s))
            return min(max(q, 0.0), 1.0)
    raise NumericError(
        f"incomplete gamma continued fraction did not converge for s={s}, x={x}"
    )


def chi2_p_value(statistic: float, dof: int) -> float:
    """Survival probability of the chi-squared distribution at ``statistic``."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if math.isinf(statistic):
        return 0.0
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
    if not n_surviving:
        raise DegenerateTestError("expected distribution has no admissible bins")

    if counts[~surviving].any():
        return Chi2Result(statistic=math.inf, dof=max(n_surviving - 1, 1), p_value=0.0)

    if n_surviving == 1:
        if surviving.all():
            raise DegenerateTestError(
                "expected distribution is a single bin with nothing to reject"
            )
        # Point-mass expectation and every shot landed on it: perfect match.
        return Chi2Result(statistic=0.0, dof=1, p_value=1.0)

    mean = shots * probs[surviving]
    diff = counts[surviving] - mean
    statistic = float((diff * diff / mean).sum())
    dof = n_surviving - 1
    return Chi2Result(statistic=statistic, dof=dof, p_value=chi2_p_value(statistic, dof))
