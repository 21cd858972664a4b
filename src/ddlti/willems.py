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

from ._linalg import DEFAULT_RANK_RTOL, lstsq_minnorm, numerical_rank, relative_residual
from .errors import InconsistentPastError, InputError
from .hankel import SignalSegment, _check_depth, _coerce_segments, _mosaic, mosaic_hankel
from .lti import LtiSystem


@dataclass(frozen=True)
class DataDictionary:
    """Stacked input/output mosaic-Hankel matrix of depth L.

    ``matrix`` is the one (m+p)L x N array: the depth-L input mosaic in its
    first mL rows, the matching output mosaic below.  Column c is the c-th
    recorded length-L window, inputs over outputs, flattened time-major.
    ``input_block`` and ``output_block`` are row-slice views of it.
    """

    inputs: tuple[SignalSegment, ...]
    outputs: tuple[SignalSegment, ...]
    depth: int
    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.inputs[0].channels

    @property
    def p(self) -> int:
        return self.outputs[0].channels

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
    pairs = list(io_pairs)
    if not pairs:
        raise InputError("at least one input/output pair is required")
    ins, outs = [], []
    for i, pair in enumerate(pairs):
        try:
            u, y = pair
        except (TypeError, ValueError):
            raise InputError("each element must be an (input, output) pair") from None
        useg = _coerce_segments(u)[0]
        yseg = _coerce_segments(y)[0]
        if useg.length != yseg.length:
            raise InputError(
                f"pair {i}: input length {useg.length} != output length {yseg.length}"
            )
        ins.append(useg)
        outs.append(yseg)
    ins, outs = _coerce_segments(ins), _coerce_segments(outs)  # channel counts agree
    _check_depth(ins, depth)
    mL = depth * ins[0].channels
    M = np.empty((mL + depth * outs[0].channels,
                  sum(u.length - depth + 1 for u in ins)))
    _mosaic(ins, depth, out=M[:mL])
    _mosaic(outs, depth, out=M[mL:])
    return DataDictionary(inputs=tuple(ins), outputs=tuple(outs), depth=depth, matrix=M)


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
    xs = [s.samples if isinstance(s, SignalSegment) else np.atleast_2d(np.asarray(s, float))
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

    The completed output is unique when L-1 past samples pin the underlying
    state, i.e. the past is at least as long as the (observable) system
    order.

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

    def shape2(a, d, name):
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = a[:, None] if d == 1 else a.reshape(-1, d)
        if a.ndim != 2 or a.shape[1] != d:
            raise InputError(f"{name} must have {d} channels")
        return a

    wu = shape2(past_u, m, "past_u")
    wy = shape2(past_y, p, "past_y")
    fu = shape2(future_u, m, "future_u")
    if wu.shape[0] != L - 1 or wy.shape[0] != L - 1:
        raise InputError(
            f"past must have exactly {L - 1} samples for depth {L}"
        )

    # Known rows: all L inputs, then the L-1 past outputs; the last p rows
    # give the new output.  Every step solves against the same A_known, so its
    # min-norm solution operator is formed once, with lstsq(rcond=None)'s cutoff.
    k = m * L + p * (L - 1)
    A_known, A_new = dictionary.matrix[:k], dictionary.matrix[k:]
    A_pinv = np.linalg.pinv(A_known, rcond=np.finfo(float).eps * max(A_known.shape))

    F = fu.shape[0]
    us = np.vstack([wu, fu])
    ys = np.vstack([wy, np.empty((F, p))])
    for t in range(F):
        b = np.concatenate([us[t:t + L].reshape(-1), ys[t:t + L - 1].reshape(-1)])
        g = A_pinv @ b
        res = relative_residual(A_known, g, b)
        if res > tol:
            raise InconsistentPastError(
                f"recorded data cannot explain the given past at step {t} "
                f"(relative residual {res:.3e} > {tol:.1e})"
            )
        ys[t + L - 1] = A_new @ g
    return ys[L - 1:]
