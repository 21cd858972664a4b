"""Shared dense linear algebra: the one SVD and QR kernel behind every rank
decision and min-norm solve (no other module calls the SVD or QR), its four
rules, and the rules every public matrix or vector argument and every
certificate pass:

- Rank: :func:`decide_rank` counts the singular values above the cutoff
  ``rtol * sigma_max``, and returns them, the rank and the cutoff as a
  :class:`RankDecision`; an ``rtol`` outside [0, 1) is refused.
- Rank requirement: :func:`require_rank` accepts a rank at least the required
  one, else raises "context: name has rank r, below the required R; " followed
  by the singular values either side of the cut and the cutoff.
- Sample rank certificate: :func:`certifies_rank` tells, from a sample of a
  matrix's columns, a bound on its norm and the norm of its product with the
  sample's left null basis (:func:`rank_basis`), that the rank rule on the
  matrix would give the sample's rank, without forming or factoring it.
- Min-norm solve: drops singular values at or below ``eps * max(rows, N)``
  times sigma_max, N the column count of the data matrix the solve stands for.
- Relative residual: ``||A X - B|| / ||B||``, plain ``||A X - B||`` where B = 0.
- Argument: :func:`as_matrix` coerces to float and refuses a ragged or
  non-numeric array or a shape other than the one required, naming the
  argument, that shape and the one given, then any non-finite entry.
  Records (see :func:`as_samples`) are refused only when ragged or
  non-numeric: a missing sample is NaN, and an unstable run may overflow.
- Certificate: :func:`certify` accepts a value at most its bound: NaN refuses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DdltiError, InputError

#: Default relative singular-value cutoff for every rank decision.
DEFAULT_RANK_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class RankDecision:
    """A rank decision: a matrix's singular values (descending), its rank, the
    number of them above ``cutoff``, and the cutoff ``rtol * sigma_max``."""

    rank: int
    singular_values: np.ndarray
    cutoff: float

    def cut(self) -> str:
        """The singular values either side of the cut, where they exist, and the cutoff."""
        s, r = self.singular_values, self.rank
        sides = [f"sigma_{k + 1} {s[k]:.3e}" for k in (r - 1, r) if 0 <= k < len(s)]
        return ", ".join(sides + [f"cutoff {self.cutoff:.3e}"])


def check_rtol(rtol: float) -> float:
    """``rtol`` if it is a relative cutoff in [0, 1), else (NaN too) an InputError."""
    if not 0.0 <= rtol < 1.0:
        raise InputError(f"rtol must be in [0, 1), got {rtol}")
    return rtol


def decide_rank(s: np.ndarray, rtol: float) -> RankDecision:
    """The rank rule on singular values s (none, or all zero, give rank 0)."""
    cutoff = check_rtol(rtol) * s.max(initial=0.0)
    return RankDecision(int(np.count_nonzero(s > cutoff)), s, float(cutoff))


def rank_of(M: np.ndarray, rtol: float) -> RankDecision:
    """The rank decision on M's singular values, computed without vectors."""
    return decide_rank(np.linalg.svd(M, compute_uv=False), rtol)


def numerical_rank(M, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of singular values above ``rtol * sigma_max``; a vector is one column."""
    return rank_of(as_matrix(M, "M", samples=True), rtol).rank


def svd_rank(M: np.ndarray, rtol: float):
    """(U, s, Vt, decision): the thin SVD of M truncated to its rank r (the
    first r columns of U, entries of s, rows of Vt) and its :class:`RankDecision`."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    d = decide_rank(s, rtol)
    return U[:, :d.rank], s[:d.rank], Vt[:d.rank], d


def minnorm_cutoff(rows: int, n_cols: int) -> float:
    """The min-norm rule's relative cutoff for a rows x N data matrix."""
    return np.finfo(float).eps * max(rows, n_cols)


def minnorm(A: np.ndarray, B: np.ndarray, n_cols: int):
    """(X, relative residual) of the min-norm least-squares ``A X = B``, where
    ``n_cols`` is N of the data matrix that A stands for."""
    U, s, Vt, _ = svd_rank(A, minnorm_cutoff(A.shape[0], n_cols))
    X = (Vt.T / s) @ (U.T @ B)
    return X, float(residual_ratio(A @ X - B, B))


def residual_ratio(R: np.ndarray, B: np.ndarray, axis: int | None = None):
    """The relative-residual rule for ``R = A X - B``, per slice along ``axis``."""
    r, nb = np.linalg.norm(R, axis=axis), np.linalg.norm(B, axis=axis)
    return r / np.where(nb > 0.0, nb, 1.0)


def gram_factor(M: np.ndarray) -> np.ndarray:
    """Lower-trapezoidal L = R' from M' = QR, so L L' = M M' on at most as many
    columns as M has rows: L has M's singular values, row-space relations,
    min-norm solves and residuals."""
    return np.linalg.qr(M.T, mode="r").T


def rank_basis(M: np.ndarray, rtol: float):
    """(decision, perp): the rank decision on M, which has at least as many
    columns as rows, and its left singular vectors past its rank r, an
    orthonormal basis, up to rounding, of what the rank rule calls M's left
    null space.  At full row rank perp has no column and no vector is
    computed."""
    d = rank_of(M, rtol)
    if d.rank == len(M):
        return d, np.zeros((len(M), 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    d = decide_rank(s, rtol)
    return d, U[:, d.rank:]


def certifies_rank(decision: RankDecision, perp: np.ndarray, perp_norm: float,
                   norm_bound: float, n_cols: int, rtol: float) -> bool:
    """True only if every k x N matrix M (k = ``perp``'s rows, N = ``n_cols``)
    that holds a sample's columns, with ``||M||_F <= norm_bound`` and
    ``||perp' M||_F = perp_norm`` as a pass of k-term sums computes it, has
    rank r by the rank rule on its :func:`gram_factor`, where ``decision`` is
    the rule on the sample and ``perp`` the sample's left singular vectors
    past r (:func:`rank_basis`).

    Write B for ``norm_bound``, s for the sample's singular values and
    gamma = k N eps.  The QR and SVD behind the rule give the singular values
    of a matrix within gamma B of M, and the sample's SVD those of one within
    gamma B of the sample, as it has 2k <= N columns (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., Thm 19.4 and ch. 20).
    sigma_1(M) <= B.

    - Rank at least r: sigma_r(M) >= sigma_r(sample), a column subset, so the
      rule's s_r > rtol s_1 holds once s_r > (rtol (1 + gamma) + 2 gamma) B.
    - Rank at most r: sigma_{r+1}(M) <= ||Q' M||_2 for every orthonormal
      k x (k - r) Q (Eckart-Young: (I - QQ')M has rank r).  ``perp`` is
      orthonormal only to within eta = ||perp' perp - I||_F, plus the
      k (k - r) eps of forming that product, so its polar factor Q lies
      within eta of it: sigma_{r+1}(M) <= ||perp' M||_2 + eta B.  The pass
      forms perp' M within k eps ||perp||_F B <= gamma B of it, and its
      Frobenius norm to a factor 1 + gamma.  sigma_1(M) >= sigma_1(sample)
      >= s_1 - gamma B, so the rule's s_{r+1} <= rtol s_1 holds once
      (1 + gamma) perp_norm + (2 gamma + eta) B <= rtol (s_1 - 2 gamma B).
      At full row rank, r = k, there is nothing to bound."""
    k, r = perp.shape[0], decision.rank
    eps = np.finfo(float).eps
    gamma, s = k * n_cols * eps, decision.singular_values
    if r and not s[r - 1] > (rtol * (1.0 + gamma) + 2.0 * gamma) * norm_bound:
        return False
    if r == k:
        return True
    eta = np.linalg.norm(perp.T @ perp - np.eye(k - r)) + k * (k - r) * eps
    return bool((1.0 + gamma) * perp_norm + (2.0 * gamma + eta) * norm_bound
                <= rtol * (s[0] - 2.0 * gamma * norm_bound))


def _shape_error(name: str, shape, given) -> InputError:
    want = ", ".join("*" if k is None else str(k) for k in shape) + "," * (len(shape) == 1)
    return InputError(f"{name} must have shape ({want}), got {given}")


def as_samples(a, name: str) -> np.ndarray:
    """Float array with one row per time step; 1-D input is a single channel.
    A ragged or non-numeric record raises an InputError naming it."""
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise _shape_error(name, (None, None), "a ragged or non-numeric array") from None
    return a.reshape(-1, 1) if a.ndim < 2 else a


def as_matrix(M, name: str, shape=(None, None), square: bool = False,
              samples: bool = False) -> np.ndarray:
    """The argument rule: M as a float array of ``len(shape)`` dimensions,
    each of the given size (None: any), square if ``square``, and with finite
    entries; otherwise an InputError naming the argument.  A vector is
    flattened first; with ``samples``, so is an array of fewer than two
    dimensions, as one channel (see :func:`as_samples`)."""
    try:
        A = np.asarray(M, dtype=float)
        if len(shape) == 1 or samples and A.ndim < 2:
            A = A.reshape((-1,) + (1,) * (len(shape) - 1))
    except (TypeError, ValueError):  # ragged, or not numbers
        A = None
    if square and A is not None and A.ndim == 2:
        shape = (A.shape[0], A.shape[0])
    if A is None or A.ndim != len(shape) or any(k not in (None, j) for k, j in zip(shape, A.shape)):
        raise _shape_error(name, shape, "a ragged or non-numeric array" if A is None else A.shape)
    if not np.isfinite(A).all():
        raise InputError(f"{name} contains non-finite entries")
    return A


def certify(name: str, value: float, bound: float, error: type[DdltiError], context: str):
    """The certificate rule: ``value`` if at most ``bound``, else (NaN too) ``error``
    as "context: name value exceeds bound", carrying ``value`` and ``bound``."""
    if value <= bound:
        return value
    err = error(f"{context}: {name} {value:.3e} exceeds {bound:.3e}")
    err.value, err.bound = value, bound
    raise err


def require_rank(name: str, decision: RankDecision, required: int, error: type[DdltiError],
                 context: str) -> RankDecision:
    """The rank-requirement rule: ``decision`` if its rank is at least ``required``,
    else ``error`` worded as above, carrying ``decision`` and ``required``."""
    if decision.rank >= required:
        return decision
    err = error(f"{context}: {name} has rank {decision.rank}, below the required {required}; "
                f"{decision.cut()}")
    err.decision, err.required = decision, required
    raise err
