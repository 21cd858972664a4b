"""Trajectory dictionaries and the fundamental lemma.

For a controllable system excited richly enough, the sliding length-L windows
of recorded input/output data span *all* length-L trajectories: any
input/output pair (u, y) of length L is a system trajectory exactly when

    [ mosaic H_L of recorded inputs  ]       [ u ]
    [ mosaic H_L of recorded outputs ] g  =  [ y ]      for some g.

This module builds that stacked data matrix from one or several records,
tests the rank condition that makes the span complete, synthesizes and tests
trajectories through it, and runs simulations that never touch a state-space
model: new outputs are completed one step at a time from the data alone, by
one linear map formed on the matrix's (m+p)L-row triangular Gram factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import (DEFAULT_RANK_RTOL, as_matrix, certify, check_rtol, gram_factor, minnorm,
                      minnorm_cutoff, rank_of, residual_ratio, svd_rank)
from .errors import InconsistentPastError, InputError, InsufficientDataError, NoUsableDataError
from .hankel import _check_depth, _mosaic, _records, _stack
from .lti import LtiSystem


@dataclass(frozen=True, eq=False)
class DataDictionary:
    """Stacked input/output mosaic-Hankel matrix of depth L.

    ``matrix`` is the one (m+p)L x N array: the depth-L input mosaic in its
    first mL rows, the matching output mosaic below.  Column c is the c-th
    recorded length-L window, inputs over outputs, flattened time-major.
    ``m`` is the input channel count; ``p`` follows from the row count.
    ``input_block`` and ``output_block`` are row-slice views of ``matrix``.
    """

    depth: int
    matrix: np.ndarray
    m: int

    @property
    def p(self) -> int:
        return self.matrix.shape[0] // self.depth - self.m

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def input_block(self) -> np.ndarray:
        """The depth-L input mosaic (mL x N), a view of ``matrix``."""
        return self.matrix[:self.m * self.depth]

    @property
    def output_block(self) -> np.ndarray:
        """The depth-L output mosaic (pL x N), a view of ``matrix``."""
        return self.matrix[self.m * self.depth:]


def build_data_matrix(io_pairs, depth: int) -> DataDictionary:
    """Assemble the depth-L data dictionary from paired input/output records.

    Parameters
    ----------
    io_pairs : sequence of (input, output) pairs
        Each element is a pair of equal-length signals (arrays or
        :class:`SignalSegment`); inputs share a channel count m, outputs p.
    depth : int
        Window length L; every record must have at least L samples.

    Returns
    -------
    DataDictionary
        With ``N = sum_i (T_i - L + 1)`` columns.
    """
    W, ends, m = _stack(io_pairs, pairs=True)
    _check_depth(ends, depth)
    return _dictionary(W, ends, m, depth)


def _dictionary(W: np.ndarray, ends, m: int, depth: int) -> DataDictionary:
    """The depth-L dictionary of the stacked input/output records (W, ends),
    inputs in W's first m rows, leaving out records shorter than L; raises
    :class:`NoUsableDataError` when that leaves none."""
    M = _mosaic(W, ends, depth, m)
    if not M.shape[1]:
        raise NoUsableDataError(f"no run is long enough for windows of depth {depth}")
    return DataDictionary(depth=depth, matrix=M, m=m)


def check_rank_condition(sys: LtiSystem, state_segments, input_segments,
                         depth: int, rtol: float = DEFAULT_RANK_RTOL) -> bool:
    """Rank test that guarantees the depth-L dictionary spans all trajectories.

    Stacks the initial states x^i(0..T_i-L) of each record (block row 0 of
    the states' depth-L mosaic) over the depth-L input mosaic and checks
    numerical rank n + mL.  When it holds (it always does for controllable
    systems with collectively exciting inputs of order n + L), every length-L
    trajectory is a column combination of the recorded windows, and
    conversely.  Every record must have at least L samples.
    """
    xs, us = _records(state_segments), _records(input_segments)
    if len(xs) != len(us):
        raise InputError("state and input records must come in matching numbers")
    W, ends, n = _stack(zip(xs, us), pairs=True)
    if n != sys.n:
        raise InputError(f"state records must have {sys.n} channels, got {n}")
    if len(W) - n != sys.m:
        raise InputError(f"input records must have {sys.m} channels, got {len(W) - n}")
    _check_depth(ends, depth)
    M = _mosaic(W, ends, depth, n)
    return rank_of(np.vstack([M[:n], M[n * depth:]]), rtol).rank == n + sys.m * depth


def synthesize_trajectory(dictionary: DataDictionary, g) -> tuple[np.ndarray, np.ndarray]:
    """Form the trajectory encoded by coefficient vector g.

    Returns the flat input part (length mL) and output part (length pL) of
    ``matrix @ g``.  Whenever the dictionary's data came from a controllable
    system under sufficient excitation, the result is itself a genuine
    length-L trajectory of that system.
    """
    g = as_matrix(g, "g", (dictionary.n_columns,))
    return dictionary.input_block @ g, dictionary.output_block @ g


class Membership(NamedTuple):
    member: bool
    residual: float
    g: np.ndarray


def is_system_trajectory(dictionary: DataDictionary, u, y,
                         tol: float = 1e-8) -> Membership:
    """Test whether (u, y) lies in the dictionary's column span.

    Solves the stacked system for the minimum-norm g and accepts when the
    relative residual is at most ``tol``.  The g is returned so callers can
    reuse or inspect the certificate.
    """
    L = dictionary.depth
    u = as_matrix(u, "u", (dictionary.m * L,))
    y = as_matrix(y, "y", (dictionary.p * L,))
    b = np.concatenate([u, y])
    g, res = minnorm(dictionary.matrix, b, dictionary.n_columns)
    return Membership(member=bool(res <= tol), residual=res, g=g)


def datadriven_simulate(dictionary: DataDictionary, past_u, past_y, future_u,
                        tol: float = 1e-6) -> np.ndarray:
    """Continue a trajectory using recorded data only (no model).

    Given a genuine past of length L-1 and future inputs, each new output
    completes one length-L window, which then slides forward.  The completion
    is the minimum-norm one, a fixed linear map of the known samples (all L
    inputs plus the L-1 past outputs) that the dictionary's
    :func:`~ddlti._linalg.gram_factor` gives once, without its N columns.

    The completed output is unique exactly when the known rows determine the
    last p: on exact data, when the L-1 past samples pin the state (L-1 at
    least the lag) and the data span every length-L trajectory.  This is
    checked at rank tolerance :data:`DEFAULT_RANK_RTOL`; a non-unique
    completion raises :class:`InsufficientDataError`.

    Parameters
    ----------
    dictionary : DataDictionary
    past_u : (L-1, m) array_like
    past_y : (L-1, p) array_like
    future_u : (F, m) array_like
        Inputs for the F steps to complete.
    tol : float
        Relative residual above which the past is declared inconsistent with
        the recorded data.

    Returns
    -------
    (F, p) ndarray of completed outputs.
    """
    L, m, p = dictionary.depth, dictionary.m, dictionary.p
    wu = as_matrix(past_u, "past_u", (L - 1, m), samples=True)
    wy = as_matrix(past_y, "past_y", (L - 1, p), samples=True)
    fu = as_matrix(future_u, "future_u", (None, m), samples=True)
    return _complete(dictionary, _completion(dictionary, gram_factor(dictionary.matrix)),
                     wu[..., None], wy[..., None], fu[..., None], tol, DEFAULT_RANK_RTOL)[..., 0]


def _completion(dictionary: DataDictionary, factor: np.ndarray):
    """(theta, U, defect) of the sliding completion on the dictionary, given
    its gram_factor (all below is the same on it as on the matrix = factor Q'):
    the map theta = A_new A_known+ of the known samples to the new output
    (Markovsky & Rapisarda, IJC 2008), the kept left singular vectors U of the
    known rows A_known, and the row-space defect ||theta A_known - A_new|| /
    ||A_new||.  The known rows are all L inputs, then the L-1 past outputs."""
    k = dictionary.m * dictionary.depth + dictionary.p * (dictionary.depth - 1)
    A_known, A_new = factor[:k], factor[k:]
    U, s, Vt, _ = svd_rank(A_known, minnorm_cutoff(k, dictionary.n_columns))
    theta = (A_new @ Vt.T / s) @ U.T
    return theta, U, float(residual_ratio(theta @ A_known - A_new, A_new))


def _defect_bound(defect_norm: float, new_norm: float, theta: np.ndarray, norm_bound: float,
                  k: int, n_cols: int) -> float:
    """A bound on the row-space defect :func:`_completion` takes on the
    gram_factor of a k x N matrix M (N = ``n_cols``, ``||M||_F <= norm_bound``)
    with its own map, from another map ``theta`` of M's k' = k - p known rows
    to its p new ones: ``defect_norm`` = ||[theta, -I] M||_F and ``new_norm``
    = ||M_new||_F as a pass of k-term sums computes them.  inf where the
    bound has no positive denominator.

    Write B for ``norm_bound``, gamma = k N eps and eps_N = eps max(k', N),
    the min-norm cutoff on the known rows.

    - Numerator.  The pass forms [theta, -I] M within k eps (||theta||_F +
      sqrt(p)) B <= gamma (||theta||_F + sqrt(p)) B of it, and its norm to a
      factor 1 + gamma.  The rule works on the factor of a matrix within
      gamma B of M (Higham, "Accuracy and Stability of Numerical Algorithms",
      2nd ed., Thm 19.4 and ch. 20): theta's residual there moves by
      gamma (||theta||_F + 1) B.  There the rule's map, min-norm with the
      singular values of the known rows at most eps_N sigma_1 dropped, leaves
      ||M_new (I - V V')|| <= ||theta M_known - M_new|| + eps_N (1 + gamma) B
      ||theta||_F for every theta, V the kept right singular vectors.  It
      forms its map and residual backward stably, adding gamma (||theta||_F
      + 1) B once its map is of theta's size, as on data whose rank the order
      scan certified, where both are the min-norm map of the same relations.
    - Denominator.  The pass forms M_new = [0, I] M exactly; the rule divides
      by the norm of its own new rows, at least ||M_new||_F - 2 gamma B."""
    eps = np.finfo(float).eps
    p = len(theta)
    gamma, eps_n = k * n_cols * eps, minnorm_cutoff(k - p, n_cols)
    below = new_norm / (1.0 + gamma) - 2.0 * gamma * norm_bound
    if not below > 0.0:
        return np.inf
    theta_norm = float(np.linalg.norm(theta)) + np.sqrt(p)
    return ((1.0 + gamma) * defect_norm + (4.0 * gamma + eps_n) * theta_norm * norm_bound) / below


def _uniqueness_cutoff(dictionary: DataDictionary, rtol: float) -> float:
    """The largest row-space defect of a unique completion on ``dictionary``: A_new's
    part outside A_known's row space adds rank, by the rank rule, once above ``rtol``
    relative to A_new, plus the eps_n that the dropped singular values leave."""
    k = dictionary.m * dictionary.depth + dictionary.p * (dictionary.depth - 1)
    return check_rtol(rtol) + minnorm_cutoff(k, dictionary.n_columns)


def _complete(dictionary: DataDictionary, completion, wu, wy, fu, tol: float,
              rtol: float) -> np.ndarray:
    """The sliding completion of :func:`datadriven_simulate` for a batch of
    trajectories along the trailing axis: past (L-1, m, B) and (L-1, p, B),
    future inputs (F, m, B); returns the (F, p, B) completed outputs, given
    the dictionary's :func:`_completion`.  Refuses when the known rows do not
    determine the new output (rank tolerance ``rtol``), then, once the
    recurrence has run, a step the data explain only beyond ``tol``."""
    L, p = dictionary.depth, dictionary.p
    k = dictionary.m * L + p * (L - 1)
    theta, U, defect = completion
    certify("row-space defect", defect, _uniqueness_cutoff(dictionary, rtol),
            InsufficientDataError,
            f"the data at depth {L} do not determine the new output (a deeper window or "
            "more exciting data is needed)")

    F, _, nb = fu.shape
    us = np.concatenate([wu, fu])
    ys = np.concatenate([wy, np.empty((F, p, nb))])
    bs = np.empty((F, k, nb))  # the known samples b of every step
    for t in range(F):
        np.concatenate([us[t:t + L].reshape(-1, nb), ys[t:t + L - 1].reshape(-1, nb)], out=bs[t])
        ys[t + L - 1] = theta @ bs[t]
    if F:
        # A_known g - b = proj b - b; the worst of the first failing step is certified.
        proj = U @ U.T  # A_known A_known+
        res = residual_ratio(proj @ bs - bs, bs, axis=1).max(axis=1)
        t = int(np.argmax(~(res <= tol)))
        certify("relative residual", float(res[t]), tol, InconsistentPastError,
                f"recorded data cannot explain the given past at step {t}")
    return ys[L - 1:]
