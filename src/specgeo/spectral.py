"""Covariance eigenspectra of activation matrices and derived metrics.

Works on a feature matrix F (M rows of d-dimensional activations).  The
empirical covariance is (1/M) F^T F; its eigenvalues drive two scalar
summaries of representation geometry:

* ``rankme``    -- exponential of the Shannon entropy of the normalized
                   eigenvalue distribution ("effective rank", in (0, d]).
* ``alpha_req`` -- exponent of the power law ``lambda_i ~ i**(-alpha)``
                   fitted by least squares in log-log space.

Eigenvector ablation projects the rows of F onto (or off) the span of
the top-k eigenvectors, keeping the ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["spectral"])

# Negative eigenvalues within this relative tolerance of the top eigenvalue
# are symmetric-solver round-off and get clamped to zero.
_EIG_CLAMP_RTOL = 1e-10

# Default fit window keeps indices with lambda_i > _ALPHA_FLOOR_RTOL * lambda_1.
_ALPHA_FLOOR_RTOL = 1e-12


@dataclass(frozen=True)
class FeatureMatrix:
    """M x d activation matrix with a column-centering flag."""

    data: np.ndarray
    centered: bool = False

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {data.shape}")
        m, d = data.shape
        if m < 2:
            raise ValueError(f"need at least 2 rows, got {m}")
        if d < 1:
            raise ValueError("need at least 1 column")
        object.__setattr__(self, "data", data)
        if self.centered:
            _check_centered(data)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _check_centered(data: np.ndarray) -> None:
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail the solve
        means = data.mean(axis=0)
        var = np.einsum("ij,ij->j", data, data) / data.shape[0] - means**2
        stds = np.sqrt(np.maximum(var, 0.0))
    # relative to column spread, with an absolute floor for constant or
    # numerically-zero columns
    tol = np.maximum(1e-10 * stds, 1e-12)
    bad = np.abs(means) > tol
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(
            f"centered flag set but column {j} has mean {means[j]:.3e} "
            f"(tolerance {tol[j]:.3e})"
        )


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues of the feature covariance, optional eigenvectors."""

    values: np.ndarray
    vectors: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be nonincreasing")
        if values[-1] < 0:
            raise ValueError("eigenvalues must be nonnegative after clamping")
        object.__setattr__(self, "values", values)
        if self.vectors is not None:
            vectors = np.asarray(self.vectors, dtype=np.float64)
            d = values.size
            if vectors.shape != (d, d):
                raise ValueError(f"eigenvector matrix must be {d}x{d}")
            if not np.allclose(vectors.T @ vectors, np.eye(d), atol=1e-8):
                raise ValueError("eigenvectors are not orthonormal")
            object.__setattr__(self, "vectors", vectors)

    @property
    def d(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectralMetrics:
    """RankMe plus the power-law decay fit of one spectrum."""

    rankme: float
    alpha_req: float
    fit_window: tuple[int, int]  # 1-based inclusive rank range used in the fit
    fit_r2: float
    m: int
    d: int

    def to_record(self) -> dict:
        return {
            "rankme": self.rankme,
            "alpha_req": self.alpha_req,
            "fit_window": list(self.fit_window),
            "fit_r2": self.fit_r2,
            "m": self.m,
            "d": self.d,
        }


def center_features(f: FeatureMatrix) -> FeatureMatrix:
    """Subtract column means. Idempotent; requires at least two rows."""
    return _center_in_place(f.data.copy(order="K"))  # f's layout: f's summation order


def _center_in_place(data: np.ndarray) -> FeatureMatrix:
    """Centre the columns of ``data``, a float64 buffer no one else holds."""
    fm = _centered(data)  # the shape checks come before the column means
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail the solve
        np.subtract(fm.data, fm.data.mean(axis=0), out=fm.data)  # fm is frozen
    return fm


def _centered(data: np.ndarray) -> FeatureMatrix:
    """A centred FeatureMatrix over ``data`` that this package has just
    centred itself.  The column means are not checked again: round-off
    leaves a column whose mean dwarfs its spread with a residual mean
    above the check's tolerance."""
    fm = FeatureMatrix(data)
    object.__setattr__(fm, "centered", True)
    return fm


def covariance_spectrum(f: FeatureMatrix, want_vectors: bool = False) -> EigenSpectrum:
    """Eigendecompose (1/M) F^T F, eigenvalues descending and clamped at zero.

    Values-only queries skip the eigenvectors: wide matrices (M < d) are
    solved through the M x M Gram matrix, which shares the nonzero
    spectrum, tall ones through the d x d covariance.  Requests for
    eigenvectors always solve the d x d covariance so that a full
    orthonormal basis is returned.  Non-finite data, or a covariance that
    overflows float64, raises ValueError.
    """
    if not f.centered:
        raise ValueError("covariance_spectrum requires centered features")
    data = f.data
    m, d = data.shape
    with np.errstate(invalid="ignore", over="ignore"):
        prod = (data @ data.T if m < d and not want_vectors else data.T @ data) / m
        # the diagonal holds sums of squares: NaN, inf and overflow reach its sum
        finite = np.isfinite(prod.trace())
    if not finite:
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError("feature matrix contains non-finite entries")
        raise ValueError("feature matrix covariance overflows float64")

    if want_vectors:
        values, vectors = np.linalg.eigh(prod)
        order = np.argsort(-values, kind="stable")
        values = values[order]
        vectors = vectors[:, order]
    else:
        values = np.zeros(d)
        values[: len(prod)] = np.linalg.eigvalsh(prod)[::-1]
        vectors = None

    values = _clamp_eigenvalues(values)
    return EigenSpectrum(values=values, vectors=vectors)


def _clamp_eigenvalues(values: np.ndarray) -> np.ndarray:
    floor = -_EIG_CLAMP_RTOL * max(values[0], 0.0)
    if np.any(values < floor):
        raise ValueError(
            f"eigenvalue {values.min():.3e} below round-off tolerance {floor:.3e}"
        )
    return np.maximum(values, 0.0)


def rankme(spec: EigenSpectrum) -> float:
    """exp of the Shannon entropy of the normalized spectrum, in (0, d].

    Zero eigenvalues contribute nothing (0 * ln 0 = 0 limit convention).
    """
    if spec.values.sum() <= 0.0:
        raise ValueError("rankme undefined for an all-zero spectrum")
    return float(_entropy_rank(spec.values))


def _entropy_rank(values: np.ndarray) -> np.ndarray:
    """exp of the Shannon entropy of nonincreasing ``values`` normalized
    along the last axis (0 ln 0 = 0); NaN where they sum to zero."""
    total = values.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = values / total
        # trailing zeros left out, so padding does not change the round-off
        p = p[..., : np.count_nonzero(p > 0, axis=-1).max(initial=0)]
        entropy = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=-1)
    return np.where(total[..., 0] > 0, np.exp(entropy), np.nan)


def alpha_req(
    spec: EigenSpectrum, window: Optional[tuple[int, int]] = None
) -> tuple[float, float]:
    """Power-law exponent of the spectrum by OLS of ln(lambda_i) on ln(i).

    ``window`` is a 1-based inclusive (i_min, i_max) rank range; by default
    every index with lambda_i > 1e-12 * lambda_1 participates.  Returns
    (alpha, r2) where alpha is the negated fitted slope.  Within the window,
    indices with nonpositive eigenvalues are dropped; at least 3 usable
    points are required.
    """
    return _fit_power_law(spec.values, window)[:2]


def _fit_power_law(values: np.ndarray, window) -> tuple:
    """``alpha_req``'s (alpha, r2) and the window used (default: to the last kept)."""
    d = values.size
    if window is None:
        lo, hi = 1, d
    else:
        lo, hi = int(window[0]), int(window[1])
        if lo < 1 or hi > d or lo > hi:
            raise ValueError(f"window {window} out of range for d={d}")
    idx = np.arange(lo, hi + 1)
    lam = values[lo - 1 : hi]
    keep = lam > _ALPHA_FLOOR_RTOL * values[0]
    idx, lam = idx[keep], lam[keep]
    if idx.size < 3:
        raise ValueError(f"power-law fit needs >= 3 usable points, got {idx.size}")
    hi = int(idx[-1]) if window is None else hi
    x = np.log(idx.astype(np.float64))
    y = np.log(lam)
    xm = x.mean()
    sxx = np.sum((x - xm) ** 2)  # > 0: the ranks are distinct
    slope = np.sum((x - xm) * (y - y.mean())) / sxx
    intercept = y.mean() - slope * xm
    resid = y - (slope * x + intercept)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if sst == 0.0 else 1.0 - float(np.sum(resid**2) / sst)
    return float(-slope), float(r2), (lo, hi)


def spectral_metrics(
    f: FeatureMatrix, window: Optional[tuple[int, int]] = None
) -> SpectralMetrics:
    """Convenience wrapper: spectrum, RankMe and power-law fit of one matrix."""
    return _metrics_of_spectrum(covariance_spectrum(f), f.m, window)


def _metrics_of_spectrum(
    spec: EigenSpectrum, m: int, window: Optional[tuple[int, int]]
) -> SpectralMetrics:
    """RankMe and power-law fit of an already solved M-row spectrum."""
    alpha, r2, fit_window = _fit_power_law(spec.values, window)
    return SpectralMetrics(
        rankme=rankme(spec),
        alpha_req=alpha,
        fit_window=fit_window,
        fit_r2=r2,
        m=m,
        d=spec.d,
    )


def _check_ablation(f: FeatureMatrix, k: int, mode: str) -> None:
    if mode not in ("retain_top", "remove_top"):
        raise ValueError(f"mode must be retain_top or remove_top, got {mode!r}")
    if not 1 <= k <= f.d:
        raise ValueError(f"k must be in [1, {f.d}], got {k}")


def ablate_spectrum(f: FeatureMatrix, k: int, mode: str) -> FeatureMatrix:
    """Project rows of F onto (retain_top) or off (remove_top) the top-k
    eigenvector span.  Output keeps the M x d shape.

    Ties at the k-th eigenvalue are broken by ascending position in the
    descending-sorted spectrum, which makes the split deterministic.
    The projection keeps exactly the retained eigenpairs, so the ablated
    spectrum is ``values[:k]`` (retain_top) or ``values[k:]`` (remove_top)
    of the input's, padded with zeros.
    """
    _check_ablation(f, k, mode)
    spec = covariance_spectrum(f, want_vectors=True)
    v_top = spec.vectors[:, :k]
    retained = (f.data @ v_top) @ v_top.T
    if mode == "retain_top":
        out = retained
    else:
        out = f.data - retained
    # a projection of centred rows is centred
    return _centered(out)
