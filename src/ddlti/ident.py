"""Identification from a single record with missing samples.

The pipeline: split the record into maximal complete runs, estimate the
system order from the rank of the stacked input/output mosaic matrix,
recover impulse-response (Markov) matrices by data-driven simulation over
the runs, and realize a state-space model with the Ho-Kalman algorithm.
Everything operates on exact (noise-free) data.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, as_samples, numerical_rank, rank_from_singular_values
from .errors import (
    ExcitationError,
    InputError,
    NoUsableDataError,
    OrderInfeasibleError,
    OrderUndeterminedError,
)
from .hankel import SignalSegment, _coerce_one, is_persistently_exciting
from .lti import LtiSystem, markov_parameters
from .willems import build_data_matrix, datadriven_simulate


@dataclass(frozen=True)
class CorruptedTrajectory:
    """A time-indexed input/output record where whole samples may be missing.

    ``u`` is (T, m) and ``y`` is (T, p), 1-D input being a single channel; a
    missing sample is a row of NaNs in both.  Missingness strikes a time step
    as a whole: rows that are only partially NaN are rejected.
    """

    u: np.ndarray
    y: np.ndarray
    start_time: int = 0

    def __post_init__(self):
        u = as_samples(self.u)
        y = as_samples(self.y)
        if u.ndim != 2 or y.ndim != 2:
            raise InputError("u and y must be 2-D (one row per time step)")
        if u.shape[0] != y.shape[0]:
            raise InputError("u and y must cover the same time steps")
        if u.shape[0] == 0:
            raise InputError("record must contain at least one time step")
        u_ok = np.all(np.isfinite(u), axis=1)
        y_ok = np.all(np.isfinite(y), axis=1)
        u_gone = np.all(~np.isfinite(u), axis=1)
        y_gone = np.all(~np.isfinite(y), axis=1)
        whole = (u_ok & y_ok) | (u_gone & y_gone)
        if not np.all(whole):
            bad = int(np.flatnonzero(~whole)[0])
            raise InputError(
                f"sample at step {self.start_time + bad} is partially missing; "
                "a missing sample must blank the whole (u, y) row"
            )
        object.__setattr__(self, "u", u.copy())
        object.__setattr__(self, "y", y.copy())

    @property
    def length(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @property
    def present(self) -> np.ndarray:
        """Boolean mask, True where the sample is present."""
        return np.all(np.isfinite(self.u), axis=1)

    @property
    def missing_times(self) -> np.ndarray:
        return self.start_time + np.flatnonzero(~self.present)


@dataclass(frozen=True)
class IdentificationResult:
    """Model, order and diagnostics produced by :func:`identify`."""

    system: LtiSystem
    order: int
    markov: np.ndarray
    segment_report: tuple[tuple[int, int], ...]
    residual: float


def segment_trajectory(ct: CorruptedTrajectory, min_len: int = 1):
    """Maximal contiguous complete runs of the record, in time order.

    Runs shorter than ``min_len`` are dropped.  Returns a list of
    (input SignalSegment, output SignalSegment) pairs whose start times
    locate them in the original record.
    """
    if min_len < 1:
        raise InputError("min_len must be at least 1")
    mask = ct.present
    pairs = []
    t = 0
    while t < ct.length:
        if not mask[t]:
            t += 1
            continue
        s = t
        while t < ct.length and mask[t]:
            t += 1
        if t - s >= min_len:
            start = ct.start_time + s
            pairs.append((
                SignalSegment(ct.u[s:t], start_time=start),
                SignalSegment(ct.y[s:t], start_time=start),
            ))
    if not pairs:
        raise NoUsableDataError(
            f"no complete run of length >= {min_len} in the record"
        )
    return pairs


def estimate_order(io_pairs, max_depth: int, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Order estimate from the rank of the stacked input/output mosaic.

    At depth L the stack has rank mL + n on exact, sufficiently exciting
    data, so the estimate is rank minus mL at the largest feasible
    L <= max_depth.  The estimate must agree at depths L and L-1; a
    disagreement means the window is still resolving dynamics (or the data
    are too poor) and raises :class:`OrderUndeterminedError`.
    """
    pairs = [(_coerce_one(u), _coerce_one(y)) for u, y in io_pairs]
    if not pairs:
        raise InputError("at least one input/output pair is required")
    depth = min(max_depth, min(u.length for u, _ in pairs))
    if depth < 2:
        raise OrderUndeterminedError(
            "order estimation needs windows of depth at least 2"
        )
    m = pairs[0][0].channels
    est = [numerical_rank(build_data_matrix(pairs, d).matrix, rtol) - m * d
           for d in (depth - 1, depth)]
    if est[0] != est[1] or est[1] < 0:
        raise OrderUndeterminedError(
            f"order estimate did not stabilize (got {est[0]} at depth "
            f"{depth - 1}, {est[1]} at depth {depth}); the data are "
            "insufficiently exciting for this window"
        )
    return est[1]


def recover_markov_parameters(io_pairs, order: int, count: int,
                              rtol: float = DEFAULT_RANK_RTOL,
                              tol: float = 1e-6) -> np.ndarray:
    """First ``count`` impulse-response matrices, from data alone.

    For each input channel, a data-driven simulation is run with ``order``
    zero past samples (pinning the zero state) and a unit impulse on that
    channel: the resulting outputs are the Markov parameters.  Requires the
    recorded inputs to be collectively exciting of order 2*order + 1.

    Returns a (count, p, m) array: entry 0 is the feedthrough, entry k the
    response k steps after the impulse.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    if order < 0:
        raise InputError("order must be nonnegative")
    pairs = [(_coerce_one(u), _coerce_one(y)) for u, y in io_pairs]
    L = order + 1
    usable = [(u, y) for u, y in pairs if u.length >= L]
    if not usable:
        raise NoUsableDataError(f"no run long enough for windows of depth {L}")
    # Collective excitation is only defined over records of length >= the
    # order checked; shorter runs stay in the dictionary (their windows are
    # genuine trajectories) but cannot contribute to the excitation test.
    need = order + L
    pe_set = [u for u, _ in usable if u.length >= need]
    if not pe_set or not is_persistently_exciting(pe_set, need, rtol):
        raise ExcitationError(
            f"recorded inputs are not collectively exciting of order {need}, "
            f"as impulse recovery at order {order} requires"
        )
    d = build_data_matrix(usable, L)
    m, p = d.m, d.p
    out = np.empty((count, p, m))
    for j in range(m):
        impulse = np.zeros((count, m))
        impulse[0, j] = 1.0
        ys = datadriven_simulate(
            d, np.zeros((order, m)), np.zeros((order, p)), impulse, tol=tol,
        )
        out[:, :, j] = ys
    return out


def ho_kalman(markov, order: int, rtol: float = DEFAULT_RANK_RTOL) -> LtiSystem:
    """Realize a state-space model of the given order from Markov parameters.

    The feedthrough is ``markov[0]``.  The remaining matrices fill a block
    Hankel matrix whose truncated SVD (balanced split of the singular
    values) factors into observability and controllability parts; the state
    matrix comes from the shifted Hankel matrix by least squares.

    Needs ``len(markov) >= 2*order + 1``.  If the Hankel matrix has
    numerical rank below ``order`` the requested order is infeasible; rank
    above ``order`` triggers a truncation warning.
    """
    mk = np.asarray(markov, dtype=float)
    if mk.ndim == 1:
        mk = mk[:, None, None]
    if mk.ndim != 3:
        raise InputError("markov must be a sequence of p x m matrices")
    K, p, m = mk.shape
    if order < 0:
        raise InputError("order must be nonnegative")
    if order == 0:
        return LtiSystem(
            A=np.zeros((0, 0)), B=np.zeros((0, m)),
            C=np.zeros((p, 0)), D=mk[0],
        )
    if K < 2 * order + 1:
        raise InputError(
            f"need at least {2 * order + 1} Markov parameters for order "
            f"{order}, got {K}"
        )
    c = (K - 1) // 2
    r = K - 1 - c
    H = np.empty((r * p, c * m))
    Hs = np.empty((r * p, c * m))
    for i in range(r):
        for j in range(c):
            H[i * p:(i + 1) * p, j * m:(j + 1) * m] = mk[i + j + 1]
            Hs[i * p:(i + 1) * p, j * m:(j + 1) * m] = mk[i + j + 2]
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    rank = rank_from_singular_values(s, rtol)
    if rank < order:
        raise OrderInfeasibleError(
            f"impulse-response Hankel matrix has rank {rank} < requested "
            f"order {order}"
        )
    if rank > order:
        warnings.warn(
            f"impulse-response Hankel matrix has rank {rank} > requested "
            f"order {order}; truncating",
            stacklevel=2,
        )
    root = np.sqrt(s[:order])
    O = U[:, :order] * root
    R = root[:, None] * Vt[:order]
    # O and R have orthogonal columns and rows, so their pseudo-inverses
    # come from the same SVD: O+ = diag(1/root) U', R+ = V diag(1/root).
    A = (U[:, :order].T @ Hs @ Vt[:order].T) / np.outer(root, root)
    B = R[:, :m]
    C = O[:p, :]
    return LtiSystem(A=A, B=B, C=C, D=mk[0])


def scan_order(segments, max_order: int | None = None,
               rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Order estimate over complete runs, choosing the window depth automatically.

    Scans the depth downward from the largest the data supports: a depth-L
    estimate needs every run used to carry at least one full window and
    enough total columns that the rank is data- rather than column-limited.
    The first depth with a stable estimate wins.
    """
    segments = [(_coerce_one(u), _coerce_one(y)) for u, y in segments]
    if not segments:
        raise InputError("at least one complete run is required")
    m = segments[0][0].channels
    p = segments[0][1].channels

    cap = max(u.length for u, _ in segments)
    if max_order is not None:
        if max_order < 0:
            raise InputError("max_order must be nonnegative")
        cap = min(cap, max_order + 1)
    order = None
    failure = None
    for depth in range(cap, 1, -1):
        pairs = [(u, y) for u, y in segments if u.length >= depth]
        n_cols = sum(u.length - depth + 1 for u, _ in pairs)
        if n_cols < (m + p) * depth:
            continue
        try:
            order = estimate_order(pairs, depth, rtol)
            break
        except OrderUndeterminedError as e:
            failure = e
    if order is None:
        raise OrderUndeterminedError(
            "no window depth produced a stable order estimate"
            + (f" (last failure: {failure})" if failure else "")
        )
    if max_order is not None and order > max_order:
        raise OrderUndeterminedError(
            f"estimated order {order} exceeds the requested cap {max_order}"
        )
    return order


def identify(ct: CorruptedTrajectory, max_order: int | None = None,
             rtol: float = DEFAULT_RANK_RTOL, tol: float = 1e-6) -> IdentificationResult:
    """Full pipeline: segmentation, order estimation, impulse recovery, realization.

    ``max_order`` caps the order search; by default the cap is what the data
    can support.  ``rtol`` is the rank tolerance shared by every rank
    decision; ``tol`` bounds the relative residual of the completion solves.
    """
    segments = segment_trajectory(ct, min_len=1)
    order = scan_order(segments, max_order=max_order, rtol=rtol)
    count = 2 * order + 1
    markov = recover_markov_parameters(segments, order, count, rtol=rtol, tol=tol)
    system = ho_kalman(markov, order, rtol)
    check = markov_parameters(system, count)
    residual = float(np.max(np.abs(check - markov))) if count else 0.0

    used = [(u.start_time, u.length) for u, _ in segments
            if u.length >= order + 1]
    return IdentificationResult(
        system=system, order=order, markov=markov,
        segment_report=tuple(used), residual=residual,
    )
