"""Sampling-based evaluation estimators.

pass@k: probability that at least one of k draws (without replacement)
from N generated samples is correct, given c correct among the N, that
is (C(N, k) - C(N-c, k)) / C(N, k).  Both binomials are exact Python
integers, and their quotient is one correctly rounded integer division,
so operating points like N=512, k=256 cost nothing in precision and
cannot overflow.

DPO loss: mean of -log sigmoid(r_w - r_l) over preference pairs, with a
softplus evaluation that stays finite for every reward gap float64 can
hold; only a gap beyond float64 is refused.  The contrastive
(two-candidate softmax) form of the same loss is evaluated independently
so callers can confirm the algebraic identity numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["evalmetrics"])


@dataclass(frozen=True)
class PreferenceTriple:
    """Implicit rewards for the preferred and rejected response."""

    r_w: float
    r_l: float

    def __post_init__(self):
        _check_finite(self.r_w, self.r_l)


def _check_finite(r_w, r_l) -> None:
    if not np.isfinite((r_w, r_l)).all():  # two floats, or two arrays of them
        raise ValueError("rewards must be finite")


def _check_k(k: int) -> None:
    if k < 1:  # k's own bound; k <= N is a bound of each problem
        raise ValueError(f"k must be >= 1, got {k}")


def _validate_counts(n: int, c: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one sample, got N={n}")
    if not 0 <= c <= n:
        raise ValueError(f"correct count c={c} outside [0, N={n}]")
    _check_k(k)
    if k > n:
        raise ValueError(f"k={k} exceeds N={n}")


def _pass_counts(n: int, c: int, k: int) -> tuple[int, int]:
    """pass@k for one problem as (draws of k holding a correct sample,
    draws of k)."""
    _validate_counts(n, c, k)
    draws = math.comb(n, k)
    # comb(n - c, k) is 0 when fewer than k samples are wrong
    return draws - math.comb(n - c, k), draws


def pass_at_k_exact(n: int, c: int, k: int) -> Fraction:
    """Exact rational pass@k for one problem."""
    return Fraction(*_pass_counts(n, c, k))


def pass_at_k_single(n: int, c: int, k: int) -> float:
    """pass@k for one problem as a float in [0, 1]."""
    hits, draws = _pass_counts(n, c, k)
    return hits / draws  # int / int rounds the exact quotient correctly


def pass_at_k(problems: Iterable[tuple[int, int]], k: int) -> float:
    """Mean pass@k over (N, c) problem records sharing one k.  Each
    distinct record is computed once; the sum runs in problem order."""
    problems = [(n, c) for n, c in problems]
    if not problems:
        raise ValueError("need at least one problem")
    value = {p: pass_at_k_single(*p, k) for p in dict.fromkeys(problems)}
    return sum(value[p] for p in problems) / len(problems)


def _dpo_loss_and_gap(r_w: np.ndarray, r_l: np.ndarray) -> tuple[float, float]:
    """Mean preference loss over reward pairs, with its sum exactly rounded,
    and the max absolute gap between the loss's two per-pair forms: the
    sigmoid form log(1 + e^(r_l - r_w)) and the two-candidate softmax form
    log(e^r_w + e^r_l) - r_w.  Each rule is one pair's: finite rewards, and
    a gap r_l - r_w that float64 holds."""
    if r_w.size == 0:
        raise ValueError("need at least one preference triple")
    _check_finite(r_w, r_l)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite gap is refused
        gap = r_l - r_w
        sigmoid = np.logaddexp(0.0, gap)
        softmax = np.logaddexp(r_w, r_l) - r_w
    if not np.isfinite(gap).all():
        raise ValueError("reward gap overflows float64")
    n = sigmoid.size
    try:
        loss = math.fsum(sigmoid.tolist()) / n
    except OverflowError:  # a sum beyond float64: summed scaled by 2^-k, 2^k > n
        k = n.bit_length()
        # a loss below 2^(k-1022) would lose bits to scaling; far below half
        # an ulp of the total, it goes in unscaled, to break a rounding tie
        # as its true value does
        big = sigmoid >= 2.0 ** (k - 1022)
        parts = [*(sigmoid[big] * 2.0**-k).tolist(), *sigmoid[~big].tolist()]
        loss = math.fsum(parts) / n * 2.0**k
    return loss, float(np.abs(sigmoid - softmax).max())


def _rewards(triples: Sequence[PreferenceTriple]) -> tuple[np.ndarray, np.ndarray]:
    r_w = np.fromiter((t.r_w for t in triples), np.float64, len(triples))
    r_l = np.fromiter((t.r_l for t in triples), np.float64, len(triples))
    return r_w, r_l


def dpo_loss(triples: Sequence[PreferenceTriple]) -> float:
    """Mean preference loss over triples; the sum is exactly rounded."""
    return _dpo_loss_and_gap(*_rewards(triples))[0]


def dpo_nce_identity(triples: Sequence[PreferenceTriple]) -> float:
    """Max absolute gap between the sigmoid form and the two-candidate
    softmax form of the preference loss, evaluated per triple.

    The forms are algebraically identical; the gap measures only the
    difference between the two stable evaluation routes.  For rewards
    whose gap float64 can hold, it is at most about 4.4e-16 * (1 + the
    largest |reward|): below 1e-10 while every |reward| is below 1e5.
    """
    return _dpo_loss_and_gap(*_rewards(triples))[1]
