"""Trajectory dictionaries and the fundamental lemma.

For a controllable system excited richly enough, the sliding length-L windows
of recorded input/output data span *all* length-L trajectories: any
input/output pair (u, y) of length L is a system trajectory exactly when

    [ mosaic H_L of recorded inputs  ]       [ u ]
    [ mosaic H_L of recorded outputs ] g  =  [ y ]      for some g.

This module builds that stacked data matrix from one or several records,
tests the rank condition that makes the span complete, synthesizes and tests
trajectories through it, and runs simulations that never touch a state-space
model: new outputs are completed one step at a time from the data alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import (DEFAULT_RANK_RTOL, as_samples, lstsq_minnorm, numerical_rank,
                      relative_residual)
from .errors import InconsistentPastError, InputError, InsufficientDataError
from .hankel import (SignalSegment, _check_depth, _coerce_one, _coerce_segments, _mosaic,
                     mosaic_hankel)
from .lti import LtiSystem


@dataclass(frozen=True)
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


def _pair_segments(io_pairs) -> list[tuple[SignalSegment, SignalSegment]]:
    """(input, output) segment pairs, each of one length, whose inputs share a
    channel count and whose outputs share another."""
    pairs = []
    for i, pair in enumerate(io_pairs):
        try:
            u, y = pair
        except (TypeError, ValueError):
            raise InputError("each element must be an (input, output) pair") from None
        u, y = _coerce_one(u), _coerce_one(y)
        if u.length != y.length:
            raise InputError(f"pair {i}: input length {u.length} != output length {y.length}")
        pairs.append((u, y))
    for side in zip(*pairs):  # all inputs, then all outputs
        _coerce_segments(side)
    return pairs


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
    pairs = _pair_segments(io_pairs)
    if not pairs:
        raise InputError("at least one input/output pair is required")
    ins, outs = (list(side) for side in zip(*pairs))
    _check_depth(ins, depth)
    mL = depth * ins[0].channels
    M = np.empty((mL + depth * outs[0].channels,
                  sum(u.length - depth + 1 for u in ins)))
    _mosaic(ins, depth, out=M[:mL])
    _mosaic(outs, depth, out=M[mL:])
    return DataDictionary(depth=depth, matrix=M, m=ins[0].channels)


def check_rank_condition(sys: LtiSystem, state_segments, input_segments,
                         depth: int, rtol: float = DEFAULT_RANK_RTOL) -> bool:
    """Rank test that guarantees the depth-L dictionary spans all trajectories.

    Stacks the initial states x^i(0..T_i-L) of each record over the depth-L
    input mosaic and checks numerical rank n + mL.  When it holds (it always
    does for controllable systems with collectively exciting inputs of order
    n + L), every length-L trajectory is a column combination of the recorded
    windows, and conversely.
    """
    us = _coerce_segments(input_segments)
    if isinstance(state_segments, (SignalSegment, np.ndarray)):
        state_segments = [state_segments]
    xs = [as_samples(s.samples if isinstance(s, SignalSegment) else s)
          for s in state_segments]
    if len(xs) != len(us):
        raise InputError("state and input records must come in matching numbers")
    if us[0].channels != sys.m:
        raise InputError(f"input records must have {sys.m} channels, got {us[0].channels}")
    state_blocks = []
    for x, u in zip(xs, us):
        if x.shape[1] != sys.n:
            raise InputError(f"state records must have {sys.n} channels, got {x.shape[1]}")
        if x.shape[0] != u.length:
            raise InputError("each state record must align with its input record")
        cols = u.length - depth + 1
        if cols < 1:
            raise InputError(f"record of length {u.length} is shorter than depth {depth}")
        state_blocks.append(x[:cols].T)
    bottom = mosaic_hankel(us, depth)
    M = np.vstack([np.hstack(state_blocks), bottom]) if sys.n > 0 else bottom
    return numerical_rank(M, rtol) == sys.n + sys.m * depth


def synthesize_trajectory(dictionary: DataDictionary, g) -> tuple[np.ndarray, np.ndarray]:
    """Form the trajectory encoded by coefficient vector g.

    Returns the flat input part (length mL) and output part (length pL) of
    ``matrix @ g``.  Whenever the dictionary's data came from a controllable
    system under sufficient excitation, the result is itself a genuine
    length-L trajectory of that system.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape[0] != dictionary.n_columns:
        raise InputError(
            f"g must have length {dictionary.n_columns}, got {g.shape[0]}"
        )
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
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    mL = dictionary.m * dictionary.depth
    pL = dictionary.p * dictionary.depth
    if u.shape[0] != mL:
        raise InputError(f"u must have length {mL}, got {u.shape[0]}")
    if y.shape[0] != pL:
        raise InputError(f"y must have length {pL}, got {y.shape[0]}")
    b = np.concatenate([u, y])
    g = lstsq_minnorm(dictionary.matrix, b)
    res = relative_residual(dictionary.matrix, g, b)
    return Membership(member=bool(res <= tol), residual=res, g=g)


def datadriven_simulate(dictionary: DataDictionary, past_u, past_y, future_u,
                        tol: float = 1e-6) -> np.ndarray:
    """Continue a trajectory using recorded data only (no model).

    Given a genuine past of length L-1 and future inputs, each new output is
    obtained by completing one length-L window at a time: the rows of the
    dictionary carrying known samples (all L inputs plus the L-1 past
    outputs) are solved for g by minimum-norm least squares, the remaining p
    rows evaluate to the new output, and the window slides forward.

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
    wu, wy, fu = as_samples(past_u), as_samples(past_y), as_samples(future_u)
    for name, a, d in (("past_u", wu, m), ("past_y", wy, p), ("future_u", fu, m)):
        if a.ndim != 2 or a.shape[1] != d:
            raise InputError(f"{name} must have {d} channels")
    if wu.shape[0] != L - 1 or wy.shape[0] != L - 1:
        raise InputError(f"past must have exactly {L - 1} samples for depth {L}")
    return _complete(dictionary, wu[..., None], wy[..., None], fu[..., None], tol,
                     DEFAULT_RANK_RTOL)[..., 0]


def _complete(dictionary: DataDictionary, wu, wy, fu, tol: float, rtol: float) -> np.ndarray:
    """The sliding completion of :func:`datadriven_simulate` for a batch of
    trajectories along the trailing axis: past (L-1, m, B) and (L-1, p, B),
    future inputs (F, m, B); returns the (F, p, B) completed outputs.  Raises
    :class:`InsufficientDataError` when the known rows do not determine the
    new output, with rank tolerance ``rtol``."""
    L, p = dictionary.depth, dictionary.p
    # Known rows: all L inputs, then the L-1 past outputs; the last p rows
    # give the new output.  Every step and every trajectory solves against the
    # same A_known, so its min-norm solution operator is formed once, with
    # lstsq(rcond=None)'s cutoff.
    k = dictionary.m * L + p * (L - 1)
    A_known, A_new = dictionary.matrix[:k], dictionary.matrix[k:]
    eps = np.finfo(float).eps
    A_pinv = np.linalg.pinv(A_known, rcond=eps * max(A_known.shape))
    # The new output is unique exactly when the rows of A_new lie in the row
    # space of A_known (Markovsky & Rapisarda, IJC 2008); A_pinv @ A_known
    # projects onto it.  By the rank rule, the part of A_new left outside adds
    # rank once it exceeds rtol, here relative to A_new so that the outputs'
    # scale does not matter; the backward-stable SVD behind A_pinv leaves up
    # to max(shape) * eps of it on rows that do lie in the space.
    defect = relative_residual(A_new @ A_pinv, A_known, A_new)
    cutoff = rtol + eps * max(A_known.shape)
    if defect > cutoff:
        raise InsufficientDataError(
            f"the data at depth {L} do not determine the new output "
            f"(row-space defect {defect:.3e} > {cutoff:.1e}); a deeper window "
            "or more exciting data is needed"
        )

    F, _, nb = fu.shape
    us = np.concatenate([wu, fu])
    ys = np.concatenate([wy, np.empty((F, p, nb))])
    for t in range(F):
        b = np.concatenate([us[t:t + L].reshape(-1, nb), ys[t:t + L - 1].reshape(-1, nb)])
        g = A_pinv @ b
        # Each trajectory's relative residual, with relative_residual's rule
        # (plain ||A g - b|| where b = 0); the worst one is checked.
        r = np.linalg.norm(A_known @ g - b, axis=0)
        b_norm = np.linalg.norm(b, axis=0)
        res = float(np.divide(r, b_norm, out=r, where=b_norm > 0.0).max())
        if res > tol:
            raise InconsistentPastError(
                f"recorded data cannot explain the given past at step {t} "
                f"(relative residual {res:.3e} > {tol:.1e})"
            )
        ys[t + L - 1] = A_new @ g
    return ys[L - 1:]
