"""Exact reference values the benchmark checks Monte Carlo cells against.

The uniform-matrix channel has its exact success probability in the
library (`success_probability`).  The exact-rank channel conditions the
t x N coefficient matrix on rank t, which that product does not describe,
so its exact value is computed here independently of the library.
"""

from __future__ import annotations

import math
from fractions import Fraction


def gaussian_binomial(q: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _onto(q: int, m: int, r: int) -> int:
    """Number of linear maps GF(q)^m onto a fixed r-dimensional space."""
    out = 1
    for j in range(r):
        out *= q**m - q**j
    return out


def exact_rank_success_probability(q: int, dims, cap: int, t: int) -> Fraction:
    """P(every column block of a t x sum(dims) q-ary matrix has rank <= cap
    | the matrix has rank t), for a uniform matrix.

    Block i has column space U_i inside GF(q)^t; the matrix has rank t iff
    the U_i sum to GF(q)^t.  Counting block tuples whose column spaces lie
    in a w-dimensional W, then Moebius inversion over the subspace lattice
    (mu = (-1)^k q^(k(k-1)/2) for codimension k), leaves those that span.
    """
    n_total = sum(dims)
    if t > n_total:
        raise ValueError(f"rank {t} exceeds the {n_total} columns")
    good = 0
    for w in range(t + 1):
        k = t - w
        inside = 1
        for m in dims:
            inside *= sum(gaussian_binomial(q, w, r) * _onto(q, m, r)
                          for r in range(min(cap, w, m) + 1))
        good += (-1) ** k * q ** (k * (k - 1) // 2) * gaussian_binomial(q, t, w) * inside
    full_rank = gaussian_binomial(q, t, t) * _onto(q, n_total, t)
    return Fraction(good, full_rank)


# Chance that a correct program fails one Monte Carlo cell.
CELL_FALSE_ALARM = 1e-6


def success_window(p: Fraction, trials: int) -> tuple[float, float]:
    """Closed range of success counts a correct sampler hits with
    probability at least 1 - CELL_FALSE_ALARM.

    Bernstein's inequality for a sum of `trials` Bernoulli(p) draws:
    P(|X - np| >= a) <= 2 exp(-a^2 / (2 (np(1-p) + a/3))).  Unlike an
    empirical half-width it stays positive when no trial succeeds.
    """
    p = float(p)
    log_term = math.log(2.0 / CELL_FALSE_ALARM)
    var = trials * p * (1.0 - p)
    a = (2.0 * log_term / 3.0 + math.sqrt((2.0 * log_term / 3.0) ** 2
                                          + 8.0 * log_term * var)) / 2.0
    mean = trials * p
    return mean - a, mean + a
