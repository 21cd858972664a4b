"""Identification from a single record with missing samples.

The pipeline: split the record into maximal complete runs, estimate the
system order from the rank of the stacked input/output mosaic matrix (the
window depth grows until rank minus mL stops growing: that first stall is
the order, see :func:`scan_order`), recover impulse-response (Markov)
matrices by one batched data-driven simulation on the matrix of that stall,
certified unique, and realize a state-space model with the Ho-Kalman
algorithm.  Each depth's rank, and at the stall the completion, are decided
on a k x 2k sample of the longest run (k = (m+p)L rows) and certified on all
N columns by one O(N k) pass over the records (see :func:`_scan`); a depth
the sample cannot certify is decided on the (m+p)L-row factor its windows
fold into, block by block.  No N-column window matrix is formed.
Everything operates on exact (noise-free) data.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import (DEFAULT_RANK_RTOL, as_matrix, certifies_rank, check_rtol,
                      rank_basis, rank_of, require_rank, svd_rank)
from .errors import InputError, NoUsableDataError, OrderInfeasibleError, OrderUndeterminedError
from .hankel import SignalSegment, _stack, _Stack
from .lti import CorruptedTrajectory, LtiSystem, markov_parameters
from .willems import DataDictionary, _complete, _completion, _defect_bound, _uniqueness_cutoff


#: Depths the order scan decides one by one before it probes deeper (see
#: :func:`_scan`): a scan that stalls by then, as on exciting data of order
#: up to PROBE_AFTER - 1, does no more work than deciding each depth.
PROBE_AFTER = 8


@dataclass(frozen=True, eq=False)
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
    stack, starts = _complete_runs(ct)
    pairs = [(SignalSegment(stack.W[:ct.m, b - n:b].T, start_time=s),
              SignalSegment(stack.W[ct.m:, b - n:b].T, start_time=s))
             for b, n, s in zip(stack.ends.tolist(), stack.lengths.tolist(), starts.tolist())
             if n >= min_len]
    if not pairs:
        raise NoUsableDataError(f"no complete run of length >= {min_len} in the record")
    return pairs


def _complete_runs(ct: CorruptedTrajectory):
    """(stack, starts): the record's complete samples as a
    :class:`~ddlti.hankel._Stack`, inputs over outputs, one record per
    maximal complete run, and each run's start time."""
    present = ct.present
    # Run starts and stops alternate where the mask, padded with False, flips.
    edges = np.flatnonzero(np.diff(np.concatenate([[False], present, [False]])))
    if not edges.size:
        raise NoUsableDataError("no complete run of length >= 1 in the record")
    runs = [slice(a, b) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]
    ends = np.cumsum(edges[1::2] - edges[::2])
    W = np.empty((ct.m + ct.p, int(ends[-1])))
    for rows, side in ((W[:ct.m], ct.u), (W[ct.m:], ct.y)):
        np.concatenate([side[run].T for run in runs], axis=1, out=rows)
    return _Stack(W, ends, ct.m), edges[::2] + ct.start_time


def recover_markov_parameters(io_pairs, order: int, count: int,
                              rtol: float = DEFAULT_RANK_RTOL,
                              tol: float = 1e-6) -> np.ndarray:
    """First ``count`` impulse-response matrices, from data alone.

    Completes the m impulse responses on the depth-(order+1) dictionary of
    every run at least order+1 long, runs shorter than 2*order + 1 included.
    The completion's certificate is the one acceptance rule: each new output
    must be unique and each step's relative residual at most ``tol``, or
    :class:`InsufficientDataError` is raised, as in :func:`identify`.
    Returns a (count, p, m) array: entry 0 is the feedthrough, entry k the
    response k steps after the impulse.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    if order < 0:
        raise InputError("order must be nonnegative")
    d = DataDictionary(order + 1, _stack(io_pairs, pairs=True))
    return _impulse_response(d, _completion(d, d.factor), count, rtol, tol)


def _impulse_response(d: DataDictionary, completion, count: int, rtol: float,
                      tol: float) -> np.ndarray:
    """First ``count`` Markov parameters completed on ``d``, given its completion:
    for each input channel, a unit impulse after a zero past of depth-1
    samples, which pins the zero state once depth-1 reaches the lag.  The m
    impulses run as one batch on the one completion."""
    L, m, p = d.depth, d.m, d.p
    # Impulse j sits on the batch axis: input channel j is 1 at step 0.
    impulses = np.zeros((count, m, m))
    impulses[0] = np.eye(m)
    return _complete(d, completion, np.zeros((L - 1, m, m)), np.zeros((L - 1, p, m)),
                     impulses, tol, rtol)


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
    mk, rtol = as_matrix(markov, "markov", (None, None, None), samples=True), check_rtol(rtol)
    K, p, m = mk.shape
    if order < 0:
        raise InputError("order must be nonnegative")
    if K < 2 * order + 1:
        raise InputError(f"need at least {2 * order + 1} Markov parameters for order {order}, "
                         f"got {K}")
    if order == 0:
        return LtiSystem(A=np.zeros((0, 0)), B=np.zeros((0, m)), C=np.zeros((p, 0)), D=mk[0])
    c = (K - 1) // 2
    r = K - 1 - c
    # Block (i, j) of H is markov[i + j + 1] and of Hs markov[i + j + 2]: both
    # are r x c slices of the one block-Hankel window view of markov[1:].
    W = np.lib.stride_tricks.sliding_window_view(mk[1:], c, axis=0)  # (K-c, p, m, c)
    blocks = W.transpose(0, 1, 3, 2).reshape(K - c, p, c * m)
    H = blocks[:r].reshape(r * p, c * m)
    Hs = blocks[1:r + 1].reshape(r * p, c * m)
    U, s, Vt, decision = svd_rank(H, rtol)
    require_rank("the impulse-response Hankel matrix", decision, order, OrderInfeasibleError,
                 f"the Markov parameters do not realize order {order}")
    if decision.rank > order:
        warnings.warn(f"the impulse-response Hankel matrix has rank {decision.rank}, above the "
                      f"requested order {order}; {decision.cut()}; truncating", stacklevel=2)
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
    On runs that do not excite a depth (collectively, of order L + n) the
    estimate can fall there instead, and the scan stops, undetermined.
    Each depth's rank is decided on a sample of 2(m+p)L windows of the
    longest run and certified on all the data by one pass over the records;
    only a depth the sample cannot certify is built and factored.  Past depth
    :data:`PROBE_AFTER`, depths of full row rank, whose estimates never stall
    or fall, are passed in one decision at up to twice the depth.
    """
    return _scan(_stack(segments, pairs=True), max_order, rtol)[0]


def _scan(stack: _Stack, max_order: int | None, rtol: float):
    """(order, dictionary, completion) of :func:`scan_order` on a stack of
    input/output runs: the order, and the depth-L* dictionary of the first
    stall and its certified :func:`~ddlti.willems._completion`.

    Each depth is decided by :func:`_sampled_depth` on the stack's sample, the
    first 2k windows of the longest run (k = (m+p)L rows), a column subset of
    the depth's matrix M with ||M||_F <= sqrt(L) ||W||_F, as a sample enters
    at most L windows, or else built and factored, and decided on its factor.
    Runs whose ||W||_F overflows are refused before any depth: no rank
    decision or certificate bound is finite on them.

    Past depth :data:`PROBE_AFTER`, while the previous depth had full row
    rank, a probe (:func:`_full_rank_through`) certifies full row rank up to
    twice the depth in one decision, and the scan passes those depths: their
    estimates pL grow (p >= 1), so none stalls or falls.  A probe that does not
    certify (a depth lacks full row rank, or the margin is too small) ends the
    probing: a scan makes at most one probe it cannot use."""
    W, m, lengths = stack.W, stack.m, stack.lengths
    p = len(W) - m
    cap = int(lengths.max())
    if max_order is not None:
        if max_order < 0:
            raise InputError("max_order must be nonnegative")
        # An order n <= max_order stalls by depth max_order + 1 (its lag is at
        # most n), and a stall compares two depths, so max_order 0 scans to 2.
        cap = min(cap, max(max_order + 1, 2))
    with np.errstate(over="ignore"):  # an overflowing norm is refused, not warned of
        w_norm = float(np.linalg.norm(W))
    if not np.isfinite(w_norm):
        raise InputError("the runs' norm overflows: their samples are too large for a rank "
                         "decision")
    order, seen, probing, depth = None, [], True, 0
    while depth < cap:
        depth += 1
        # Runs shorter than the depth have no window at it.
        n_cols, k = stack.columns(depth), len(W) * depth
        if n_cols < k:
            break
        if probing and depth > PROBE_AFTER and p and seen[-1] == p * (depth - 1):
            top = _full_rank_through(stack, depth, cap, w_norm, rtol)
            probing = top is not None
            if probing:
                seen += [p * j for j in range(depth, top + 1)]
                depth = top
                continue
        previous, sample = seen[-1] if seen else None, stack.sample(depth)
        step = None if sample is None else _sampled_depth(
            stack, sample, depth, np.sqrt(depth) * w_norm, n_cols, rtol, previous)
        if step is None:
            d = DataDictionary(depth, stack)
            estimate = rank_of(d.factor, rtol).rank - m * depth
            step = estimate, d, _completion(d, d.factor) if previous == estimate >= 0 else None
        if previous is not None and step[0] < previous:
            raise OrderUndeterminedError(
                f"the order estimate fell from {previous} at depth {depth - 1} to {step[0]} at "
                f"depth {depth}; it never falls on runs exciting enough to decide the order")
        seen.append(step[0])
        if previous == step[0] >= 0:
            order = previous
            break
    if order is None:
        listed = [f"{e} at depth {L}" for L, e in enumerate(seen, 1)]
        if len(listed) > 10:  # the first and last five depths
            listed[5:-5] = [f"... {len(listed) - 10} not shown ..."]
        estimates = ", ".join(listed)
        raise OrderUndeterminedError(
            "no window depth produced a stable order estimate "
            f"(estimates: {estimates or 'none, no depth had enough columns'})")
    if max_order is not None and order > max_order:
        raise OrderUndeterminedError(
            f"estimated order {order} exceeds the requested cap {max_order}")
    return (order,) + step[1:]


def _full_rank_through(stack: _Stack, depth: int, cap: int, w_norm: float,
                       rtol: float) -> int | None:
    """The deepest depth ``top`` up to min(2 ``depth``, ``cap``) with at least
    as many windows as rows, if one decision at ``top`` certifies that the rank
    rule on each depth's factor gives full row rank from ``depth`` to ``top``;
    else None.  It is taken on the stack's sample at ``top``, else on the
    depth's factor.

    Write M_j for depth j's k_j x N_j matrix.  M_top's rows at times 0 .. j-1
    are some of M_j's columns, and deleting rows of a wide matrix or adding
    columns never lowers its least singular value (Cauchy interlacing on
    M M'): sigma_kj(M_j) >= sigma_k(M_top) >= sigma_k(S), S the sample (the
    factor has M_top's).  So :func:`~ddlti._linalg.certifies_rank` at full
    row rank (no null basis), with B = sqrt(top) ||W||_F >= ||M_j||_F and
    k N = max_j k_j N_j, certifies every depth from ``depth`` to ``top``."""
    rows, top, kn = len(stack.W), depth, 0
    for j in range(depth, min(2 * depth, cap) + 1):
        n_cols = stack.columns(j)
        if n_cols < rows * j:  # and at every deeper depth: windows fall, rows grow
            break
        top, kn = j, max(kn, rows * j * n_cols)
    k, sample = rows * top, stack.sample(top)
    decision = rank_of(DataDictionary(top, stack).factor if sample is None
                       else sample.mosaic(top), rtol)
    certified = decision.rank == k and certifies_rank(decision, np.zeros((k, 0)), 0.0,
                                                      np.sqrt(top) * w_norm, kn / k, rtol)
    return top if certified else None


def _sampled_depth(stack: _Stack, sample: _Stack, depth, norm_bound, n_cols, rtol, previous):
    """The sample route of :func:`_scan` at one depth, on the stack's
    ``sample`` (:meth:`~ddlti.hankel._Stack.sample`): (estimate, and where it
    stalls at ``previous`` the sample's dictionary and completion, else None
    and None), or None where the sample cannot decide.  The rank rule on the
    sample's mosaic S gives a rank r and a basis perp of its left null space.
    One pass over the records' windows (``stack.windows``) forms perp' M and,
    at a stall, [theta, -I] M and M_new for the sample's completion map theta;
    at full row rank it has no rows.  The sample decides where
    :func:`~ddlti._linalg.certifies_rank` certifies that the rule on M's own
    factor gives r and, at a stall, where :func:`~ddlti.willems._defect_bound`
    bounds the completion's defect on M within the cutoff that
    :func:`~ddlti.willems._complete` certifies, and its measured part within
    its rounding part: a larger defect (a mode below the rank cutoff) makes the
    completion depend on the windows sampled, so M's own factor completes it."""
    S = sample.mosaic(depth)
    decision, perp = rank_basis(S, rtol)
    estimate, (k, null), p = decision.rank - stack.m * depth, perp.shape, len(stack.W) - stack.m
    rows, dictionary, completion = [perp.T], None, None
    if previous == estimate >= 0:
        dictionary = DataDictionary(depth, sample)
        theta, U, _ = completion = _completion(dictionary, S)
        rows += [np.hstack([theta, -np.eye(p)]), np.eye(p, k, k - p)]
    X = np.vstack(rows)
    sq = np.zeros(len(X))
    if len(X):
        for B in stack.windows(depth):
            P = X @ B
            sq += np.einsum("ij,ij->i", P, P)
    if not certifies_rank(decision, perp, np.sqrt(sq[:null].sum()), norm_bound, n_cols, rtol):
        return None
    if completion is not None:
        args = np.sqrt(sq[null + p:].sum()), theta, norm_bound, k, n_cols
        defect = _defect_bound(np.sqrt(sq[null:null + p].sum()), *args)
        rounding = _defect_bound(0.0, *args)
        if not defect <= min(_uniqueness_cutoff(dictionary, rtol), 2.0 * rounding):
            return None
        completion = theta, U, defect
    return estimate, dictionary, completion


def identify(ct: CorruptedTrajectory, max_order: int | None = None,
             rtol: float = DEFAULT_RANK_RTOL, tol: float = 1e-6) -> IdentificationResult:
    """Full pipeline: segmentation, order estimation, impulse recovery, realization.

    The impulses are completed on the depth-L* matrix at which the order
    scan stalled, by the completion the scan took there: L* - 1 reaches the
    lag on exciting data, and the completion raises
    :class:`InsufficientDataError` when the data do not determine the impulse
    responses.  The segment report lists the runs at least L* long.

    ``max_order`` caps the order search; by default the cap is what the data
    can support.  ``rtol`` is the rank tolerance shared by every rank
    decision; ``tol`` bounds the relative residual of the completion solves.
    """
    stack, starts = _complete_runs(ct)
    order, d, completion = _scan(stack, max_order, rtol)
    count = 2 * order + 1
    markov = _impulse_response(d, completion, count, rtol, tol)
    system = ho_kalman(markov, order, rtol)
    residual = float(np.max(np.abs(markov_parameters(system, count) - markov)))
    used = stack.lengths >= d.depth
    return IdentificationResult(
        system=system, order=order, markov=markov, residual=residual,
        segment_report=tuple(zip(starts[used].tolist(), stack.lengths[used].tolist())),
    )
