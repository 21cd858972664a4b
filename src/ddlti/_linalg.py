"""Shared dense linear-algebra helpers: one rank semantic for the whole package."""
from __future__ import annotations

import numpy as np

from .errors import InputError

#: Default relative singular-value cutoff for every rank decision.
DEFAULT_RANK_RTOL = 1e-8


def numerical_rank(M: np.ndarray, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of singular values above ``rtol * sigma_max``."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    return rank_from_singular_values(np.linalg.svd(M, compute_uv=False), rtol)


def rank_from_singular_values(s: np.ndarray, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """The rank decision of :func:`numerical_rank` for singular values already
    in hand (sorted descending, as ``np.linalg.svd`` returns them)."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def gram_factor(M: np.ndarray) -> np.ndarray:
    """Lower-trapezoidal L = R' from M' = QR, so L L' = M M' on at most as many
    columns as M has rows: L has M's singular values, row-space relations,
    min-norm solves and residuals."""
    return np.linalg.qr(M.T, mode="r").T


def lstsq_minnorm(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``A x = b``."""
    x, *_ = np.linalg.lstsq(np.asarray(A, float), np.asarray(b, float), rcond=None)
    return x


def relative_residual(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """``||A x - b|| / ||b||`` (plain ``||A x - b||`` when b = 0)."""
    b = np.asarray(b, float)
    r = float(np.linalg.norm(A @ x - b))
    nb = float(np.linalg.norm(b))
    return r / nb if nb > 0.0 else r


def as_samples(a) -> np.ndarray:
    """Float array with one row per time step; 1-D input is a single channel."""
    a = np.asarray(a, dtype=float)
    return a.reshape(-1, 1) if a.ndim < 2 else a


def as_matrix(M, name: str) -> np.ndarray:
    """Coerce to a 2-D float array, raising with the argument name on failure."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InputError(f"{name} must be a 2-D matrix, got shape {A.shape}")
    return A
