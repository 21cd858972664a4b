"""Identification from a single record with missing samples.

The pipeline: split the record into maximal complete runs, estimate the
system order from the rank of the stacked input/output mosaic matrix (the
window depth grows until rank minus mL stops growing: that first stall is
the order, see :func:`scan_order`), recover impulse-response (Markov)
matrices by one batched data-driven simulation on the matrix of that stall,
certified unique, and realize a state-space model with the Ho-Kalman
algorithm.  Each depth's rank, and at the stall the completion, are decided
on a k x 2k sample of the longest run (k = (m+p)L rows) and certified on all
N columns by one O(N k) pass over the records (see :func:`_scan`), so no
N-column window matrix is formed; a depth the sample cannot certify is built
and its matrix factored once, by the QR behind ``gram_factor``, and decided
on that (m+p)L-row factor.
Everything operates on exact (noise-free) data.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import (DEFAULT_RANK_RTOL, as_matrix, certifies_rank, gram_factor, rank_basis,
                      rank_of, require_rank, svd_rank)
from .errors import InputError, NoUsableDataError, OrderInfeasibleError, OrderUndeterminedError
from .hankel import SignalSegment, _mosaic_product, _stack
from .lti import CorruptedTrajectory, LtiSystem, markov_parameters
from .willems import (DataDictionary, _complete, _completion, _defect_bound, _dictionary,
                      _uniqueness_cutoff)


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
    W, ends, lengths, starts = _complete_runs(ct)
    pairs = [(SignalSegment(W[:ct.m, b - n:b].T, start_time=s),
              SignalSegment(W[ct.m:, b - n:b].T, start_time=s))
             for b, n, s in zip(ends.tolist(), lengths.tolist(), starts.tolist())
             if n >= min_len]
    if not pairs:
        raise NoUsableDataError(f"no complete run of length >= {min_len} in the record")
    return pairs


def _complete_runs(ct: CorruptedTrajectory):
    """(W, ends, lengths, starts): the record's complete samples as hankel's
    stack does it, inputs over outputs, run after run; the end of each
    maximal complete run in W, its length, and its start time."""
    present = ct.present
    # Run starts and stops alternate where the mask, padded with False, flips.
    edges = np.flatnonzero(np.diff(np.concatenate([[False], present, [False]])))
    if not edges.size:
        raise NoUsableDataError("no complete run of length >= 1 in the record")
    runs = [slice(a, b) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]
    lengths = edges[1::2] - edges[::2]
    ends = np.cumsum(lengths)
    W = np.empty((ct.m + ct.p, int(ends[-1])))
    for rows, side in ((W[:ct.m], ct.u), (W[ct.m:], ct.y)):
        np.concatenate([side[run].T for run in runs], axis=1, out=rows)
    return W, ends, lengths, edges[::2] + ct.start_time


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
    d = _dictionary(*_stack(io_pairs, pairs=True), order + 1)
    return _impulse_response(d, _completion(d, gram_factor(d.matrix)), count, rtol, tol)


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
    mk = as_matrix(markov, "markov", (None, None, None), samples=True)
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
    Each depth's rank is decided on a sample of 2(m+p)L windows of the
    longest run and certified on all the data by one pass over the records;
    only a depth the sample cannot certify is built and factored.
    """
    return _scan(*_stack(segments, pairs=True), max_order, rtol)[0]


def _scan(W: np.ndarray, ends, m: int, max_order: int | None, rtol: float, lengths=None):
    """(order, dictionary, completion) of :func:`scan_order` on the stacked
    input/output runs (W, ends), inputs in W's first m rows, given their
    ``lengths`` if known: the order, and the depth-L* dictionary of the first
    stall and its certified :func:`~ddlti.willems._completion`.

    Each depth is decided by :func:`_sampled_depth` on the first 2k windows
    of the longest run (k = (m+p)L rows), a column subset of the depth's
    matrix M with ||M||_F <= sqrt(L) ||W||_F, as a sample enters at most L
    windows, or else built and factored, and decided on its factor."""
    if lengths is None:
        lengths = np.diff(ends, prepend=0)
    cap = int(lengths.max())
    if max_order is not None:
        if max_order < 0:
            raise InputError("max_order must be nonnegative")
        cap = min(cap, max_order + 1)
    longest = int(np.argmax(lengths))
    start, w_norm = int(ends[longest] - lengths[longest]), float(np.linalg.norm(W))
    order, seen = None, []
    for depth in range(1, cap + 1):
        # Runs shorter than the depth have no window at it.
        n_cols, k = int(np.maximum(lengths - depth + 1, 0).sum()), len(W) * depth
        if n_cols < k:
            break
        # 2k windows: a k x 2k sample keeps sigma_min off 0, a square one not.
        width, previous, step = 2 * k + depth - 1, seen[-1] if seen else None, None
        if lengths[longest] >= width:
            step = _sampled_depth(W, ends, m, depth, W[:, start:start + width],
                                  np.sqrt(depth) * w_norm, n_cols, rtol, previous)
        if step is None:
            d = _dictionary(W, ends, m, depth)
            factor = gram_factor(d.matrix)
            estimate = rank_of(factor, rtol).rank - m * depth
            step = estimate, d, _completion(d, factor) if previous == estimate >= 0 else None
        seen.append(step[0])
        if previous == step[0] >= 0:
            order = previous
            break
    if order is None:
        estimates = ", ".join(f"{e} at depth {L}" for L, e in enumerate(seen, 1))
        raise OrderUndeterminedError(
            "no window depth produced a stable order estimate "
            f"(estimates: {estimates or 'none, no depth had enough columns'})")
    if max_order is not None and order > max_order:
        raise OrderUndeterminedError(
            f"estimated order {order} exceeds the requested cap {max_order}")
    return (order,) + step[1:]


def _sampled_depth(W, ends, m, depth, run, norm_bound, n_cols, rtol, previous):
    """The sample route of :func:`_scan` at one depth, on the first 2k windows
    of ``run``: (estimate, the sample's dictionary, its completion where the
    estimate stalls at ``previous``, else None), or None where the sample
    cannot decide.  The rank rule on the sample gives a rank r and a basis
    perp of its left null space.  One pass over the records
    (``_mosaic_product``) forms perp' M and, at a stall, [theta, -I] M and
    M_new for the sample's completion map theta; at full row rank it has no
    rows.  The sample decides where :func:`~ddlti._linalg.certifies_rank`
    certifies that the rule on M's own factor gives r and, at a stall, where
    :func:`~ddlti.willems._defect_bound` bounds the completion's defect on M
    within the cutoff that :func:`~ddlti.willems._complete` certifies."""
    sample = _dictionary(run, np.array([run.shape[1]]), m, depth)
    decision, perp = rank_basis(sample.matrix, rtol)
    estimate, (k, null), p = decision.rank - m * depth, perp.shape, sample.p
    rows, completion = [perp.T], None
    if previous == estimate >= 0:
        theta, U, _ = completion = _completion(sample, sample.matrix)
        rows += [np.hstack([theta, -np.eye(p)]), np.eye(p, k, k - p)]
    X = np.vstack(rows)
    sq = np.zeros(len(X))
    if len(X):
        for P in _mosaic_product(X, W, ends, depth, m):
            sq += np.einsum("ij,ij->i", P, P)
    if not certifies_rank(decision, perp, np.sqrt(sq[:null].sum()), norm_bound, n_cols, rtol):
        return None
    if completion is not None:
        defect = _defect_bound(np.sqrt(sq[null:null + p].sum()), np.sqrt(sq[null + p:].sum()),
                               theta, norm_bound, k, n_cols)
        if not defect <= _uniqueness_cutoff(sample, rtol):
            return None
        completion = theta, U, defect
    return estimate, sample, completion


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
    W, ends, lengths, starts = _complete_runs(ct)
    order, d, completion = _scan(W, ends, ct.m, max_order, rtol, lengths)
    count = 2 * order + 1
    markov = _impulse_response(d, completion, count, rtol, tol)
    system = ho_kalman(markov, order, rtol)
    residual = float(np.max(np.abs(markov_parameters(system, count) - markov)))
    used = lengths >= d.depth
    return IdentificationResult(
        system=system, order=order, markov=markov, residual=residual,
        segment_report=tuple(zip(starts[used].tolist(), lengths[used].tolist())),
    )
