"""Identification from a single record with missing samples.

The pipeline: split the record into maximal complete runs, estimate the
system order from the rank of the stacked input/output mosaic matrix (the
window depth grows until rank minus mL stops growing: that first stall is
the order, see :func:`scan_order`), recover impulse-response (Markov)
matrices by one batched data-driven simulation over the runs, and realize a
state-space model with the Ho-Kalman algorithm.  Everything operates on
exact (noise-free) data.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, numerical_rank, rank_from_singular_values
from .errors import (
    ExcitationError,
    InputError,
    NoUsableDataError,
    OrderInfeasibleError,
    OrderUndeterminedError,
)
from .hankel import SignalSegment, is_persistently_exciting
from .lti import CorruptedTrajectory, LtiSystem, markov_parameters
from .willems import _complete, _pair_segments, build_data_matrix


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
    # Run starts and stops alternate where the mask, padded with False, flips.
    edges = np.flatnonzero(np.diff(np.concatenate([[False], ct.present, [False]]))).tolist()
    pairs = [(SignalSegment(ct.u[s:t], start_time=ct.start_time + s),
              SignalSegment(ct.y[s:t], start_time=ct.start_time + s))
             for s, t in zip(edges[::2], edges[1::2]) if t - s >= min_len]
    if not pairs:
        raise NoUsableDataError(
            f"no complete run of length >= {min_len} in the record"
        )
    return pairs


def _order_at(pairs, depth: int, rtol: float) -> int:
    """rank(H_L) - mL for the depth-L data matrix of ``pairs``: the order
    estimate once L exceeds the lag of exciting exact data."""
    d = build_data_matrix(pairs, depth)
    return numerical_rank(d.matrix, rtol) - d.m * depth


def estimate_order(io_pairs, max_depth: int, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Order estimate from the rank of the stacked input/output mosaic.

    At depth L the stack has rank mL + n on exact, sufficiently exciting
    data, so the estimate is rank minus mL at the largest feasible
    L <= max_depth.  The estimate must agree at depths L and L-1; a
    disagreement means the window is still resolving dynamics (or the data
    are too poor) and raises :class:`OrderUndeterminedError`.
    """
    pairs = _pair_segments(io_pairs)
    if not pairs:
        raise InputError("at least one input/output pair is required")
    depth = min(max_depth, min(u.length for u, _ in pairs))
    if depth < 2:
        raise OrderUndeterminedError(
            "order estimation needs windows of depth at least 2"
        )
    est = [_order_at(pairs, d, rtol) for d in (depth - 1, depth)]
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
    channel: the resulting outputs are the Markov parameters.  The m
    simulations run as one batch, so the dictionary is pseudo-inverted
    once.  Requires the recorded inputs to be collectively exciting of
    order 2*order + 1.

    Returns a (count, p, m) array: entry 0 is the feedthrough, entry k the
    response k steps after the impulse.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    if order < 0:
        raise InputError("order must be nonnegative")
    pairs = _pair_segments(io_pairs)
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
    # Impulse j sits on the batch axis: input channel j is 1 at step 0.
    impulses = np.zeros((count, m, m))
    impulses[0] = np.eye(m)
    return _complete(d, np.zeros((order, m, m)), np.zeros((order, p, m)), impulses, tol)


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

    Scans the depth upward from 1.  At depth L the data matrix stacks the
    windows of every run at least L long; the scan stops, undetermined, at
    the first depth whose column count falls below its (m+p)L rows, since
    columns only fall as L grows.  The estimate rank(H_L) - mL grows
    strictly with L up to the lag and equals the order n from there on
    (Markovsky & Dörfler, "Identifiability in the behavioral setting",
    IEEE TAC 2023), so the first depth whose estimate equals the previous
    depth's, and is nonnegative, gives the order; deeper windows add nothing.
    """
    segments = _pair_segments(segments)
    if not segments:
        raise InputError("at least one complete run is required")
    m, p = segments[0][0].channels, segments[0][1].channels
    cap = max(u.length for u, _ in segments)
    if max_order is not None:
        if max_order < 0:
            raise InputError("max_order must be nonnegative")
        cap = min(cap, max_order + 1)
    order, seen = None, []
    for depth in range(1, cap + 1):
        pairs = [(u, y) for u, y in segments if u.length >= depth]
        if sum(u.length - depth + 1 for u, _ in pairs) < (m + p) * depth:
            break
        seen.append(_order_at(pairs, depth, rtol))
        if depth > 1 and seen[-2] == seen[-1] >= 0:
            order = seen[-1]
            break
    if order is None:
        estimates = ", ".join(f"{e} at depth {d}" for d, e in enumerate(seen, 1))
        raise OrderUndeterminedError(
            "no window depth produced a stable order estimate "
            f"(estimates: {estimates or 'none, no depth had enough columns'})"
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
