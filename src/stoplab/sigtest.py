"""Nonparametric significance tests for paired retrieval results.

Friedman two-way analysis of variance by ranks for k techniques measured
on the same n queries, and the Wilcoxon matched-pairs signed-rank test for
pairwise comparisons, both with the tie handling described in Siegel &
Castellan, "Nonparametric Statistics for the Behavioral Sciences" (2nd ed.,
1988).  Alongside the Wilcoxon p-value the (better, worse, tied) sign
counts are reported, since they summarize per-query wins at a glance.

How each p-value is computed, with numpy and ``math`` only:

- Friedman: the chi-square upper tail with k-1 degrees of freedom, a
  finite sum for integer df (see ``chi_square_upper_tail``) whose terms
  are computed in log space, so that none overflows or underflows early.
- Wilcoxon: exact for up to 20 nonzero differences, by enumerating all
  sign assignments of the observed ranks; beyond that a normal
  approximation with tie-corrected variance and continuity correction,
  whose normal CDF is 0.5 * erfc(-z / sqrt(2)).

Ties get average ranks, computed as scipy.stats.rankdata does, so the
ranks are exact halves.
"""

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

EXACT_LIMIT = 20


def left_sum(values: Iterable[float]) -> float:
    """Floats added left to right from 0.0, bit for bit ``sum`` before
    Python 3.12 made its float sum compensated."""
    return reduce(add, values, 0.0)


def _ranks_and_ties(values) -> tuple[np.ndarray, float]:
    """The average ranks of a one-dimensional sample, and the sum of
    t**3 - t over its tie groups of size t, from one stable sort: the start
    of each tie group, then each group's first and last rank averaged."""
    a = np.asarray(values)
    order = np.argsort(a, kind="mergesort")
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.arange(len(a))
    ordered = a[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = np.cumsum(starts)[inverse]
    count = np.r_[np.flatnonzero(starts), len(a)]
    sizes = np.diff(count).astype(float)
    return 0.5 * (count[dense] + count[dense - 1] + 1), float(np.sum(sizes**3 - sizes))


def chi_square_upper_tail(x: float, df: int) -> float:
    """Survival function of the chi-square distribution.

    The regularized upper incomplete gamma Q(df/2, x/2) in closed form for
    integer df: with y = x/2, the sum of e^-y y^a / Gamma(a+1) over
    a = 0, 1, ..., df/2 - 1 for even df, and erfc(sqrt(y)) plus that sum
    over a = 1/2, 3/2, ..., df/2 - 1 for odd df.
    """
    if not x >= 0:  # NaN too
        raise ValueError("x must be non-negative")
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    y = x / 2.0
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    total, a = (math.erfc(math.sqrt(y)), 0.5) if df % 2 else (0.0, 0.0)
    log_y = math.log(y)
    while a < df / 2.0:
        total += math.exp(a * log_y - y - math.lgamma(a + 1.0))
        a += 1.0
    return min(1.0, total)


@dataclass
class FriedmanResult:
    chi2: float
    df: int
    p_value: float
    mean_ranks: list[float]
    labels: list[str]


def friedman(matrix, labels: Sequence[str] | None = None) -> FriedmanResult:
    """Friedman test over an n-subjects by k-treatments score matrix.

    Values are ranked ascending within each row, ties receiving average
    ranks.  The statistic uses the Siegel-Castellan tie correction; with
    every row fully tied the statistic is 0 and p is 1.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.isfinite(m).all():  # ranks order values, and NaN has no order
        raise ValueError("scores must be finite")
    n, k = m.shape
    if n < 2 or k < 2:
        raise ValueError("need at least 2 subjects and 2 treatments")
    if labels is None:
        labels = [str(j) for j in range(k)]
    elif len(labels) != k:
        raise ValueError("need one label per treatment")

    rows = [_ranks_and_ties(row) for row in m]
    column_sums = np.array([ranks for ranks, _ in rows]).sum(axis=0)
    chi2 = (12.0 * float(np.sum(column_sums**2))) / (n * k * (k + 1)) - 3.0 * n * (
        k + 1
    )
    tie_mass = sum(ties for _, ties in rows)
    correction = 1.0 - tie_mass / (n * k * (k * k - 1))
    if correction <= 0.0:
        chi2 = 0.0
        p = 1.0
    else:
        chi2 = max(chi2 / correction, 0.0)
        p = chi_square_upper_tail(chi2, k - 1)
    return FriedmanResult(
        chi2=chi2,
        df=k - 1,
        p_value=p,
        mean_ranks=[float(s) / n for s in column_sums],
        labels=list(labels),
    )


def friedman_chi2_from_mean_ranks(mean_ranks: Sequence[float], n: int) -> float:
    """Reconstruct the Friedman statistic from published per-treatment mean
    ranks.

    Uses squared deviations from the grand mean rank (k+1)/2, which
    tolerates rounded mean ranks whose sum has drifted away from k(k+1)/2;
    the algebraically equal rank-sum form amplifies that rounding instead.
    """
    k = len(mean_ranks)
    if k < 2:
        raise ValueError("need at least 2 treatments")
    if n < 1:
        raise ValueError("need at least 1 subject")
    center = (k + 1) / 2.0
    deviation = left_sum((r - center) ** 2 for r in mean_ranks)
    return 12.0 * n * deviation / (k * (k + 1))


@dataclass
class WilcoxonResult:
    n_used: int          # pairs with nonzero difference
    w_plus: float
    w_minus: float
    statistic: float     # min(w_plus, w_minus)
    p_value: float       # two-sided
    better: int          # differences > 0
    worse: int           # differences < 0
    tied: int            # differences == 0 (dropped from the ranking)


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    # Ranks are multiples of 1/2 (average ranks), so doubling makes them
    # integers and the null distribution of 2*W+ can be tabulated exactly.
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    ways = [0] * (total + 1)
    ways[0] = 1
    for r in doubled:
        for s in range(total - r, -1, -1):
            if ways[s]:
                ways[s + r] += ways[s]
    w2 = int(round(2 * w_plus))
    lo = min(w2, total - w2)
    hi = total - lo
    count = sum(ways[: lo + 1]) + sum(ways[hi:])
    return min(1.0, count / (2 ** len(doubled)))


def _approx_two_sided_p(n: int, tie_mass: float, statistic: float) -> float:
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_mass / 48.0
    z = (statistic - mean + 0.5) / math.sqrt(variance)
    # twice the normal CDF at z, 2 * 0.5 * erfc(-z / sqrt(2))
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Wilcoxon matched-pairs signed-rank test, two-sided.

    Zero differences are dropped from the ranking (counted as ties);
    absolute differences receive average ranks.  The p-value is exact for
    up to ``EXACT_LIMIT`` nonzero pairs, else the normal approximation.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ValueError("need two equal-length one-dimensional samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("samples must be finite")
    d = x - y
    better = int(np.sum(d > 0))
    worse = int(np.sum(d < 0))
    tied = int(np.sum(d == 0))
    nonzero = d[d != 0]
    n_used = len(nonzero)
    if n_used == 0:
        return WilcoxonResult(0, 0.0, 0.0, 0.0, 1.0, better, worse, tied)
    ranks, tie_mass = _ranks_and_ties(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    statistic = min(w_plus, w_minus)
    if n_used <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
    else:
        p = _approx_two_sided_p(n_used, tie_mass, statistic)
    return WilcoxonResult(n_used, w_plus, w_minus, statistic, p, better, worse, tied)
