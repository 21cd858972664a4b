"""Hankel and mosaic-Hankel matrices, persistency of excitation tests.

A depth-k Hankel matrix of a T-sample, d-channel signal w is

    H_k(w) = [ w(0)    w(1)   ...  w(T-k)   ]
             [ w(1)    w(2)   ...  w(T-k+1) ]
             [  ...                         ]
             [ w(k-1)  w(k)   ...  w(T-1)   ]

with kd rows and T-k+1 columns (each w(t) entering as a length-d block).
Several signals stacked side by side give the mosaic variant; a family of
signals is collectively persistently exciting of order k exactly when that
mosaic matrix has full row rank kd.

Arguments named ``signals`` are read one way: an ndarray, a SignalSegment or
a flat list of numbers is one signal; any other list or tuple is a sequence
of signals, each read by ``as_samples``.  They are read in one place,
``_stack``, which checks a family of records once and returns one
``_Stack``, the only code that knows the records' layout.  Every pipeline
takes the stack.  Its one walker, ``windows``, cuts every window in blocks of
at most ``PASS_BLOCK``: a mosaic is its one block spanning the stack, and
every pass and factor works block by block, so none forms an N-column matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, RankDecision, as_samples, gram_factor, rank_of
from .errors import DepthTooLargeError, InputError
from .lti import _set_start_time

#: Largest factor plus one block of windows, in bytes, that :meth:`_Stack.fold`
#: folds (256 MiB).  Each fold's QR holds [factor; block'], or the one block of a
#: family that fits it, twice, so a fold peaks near three times this; a larger
#: one raises InputError (exit 1) beforehand.  A larger sample
#: (:meth:`_Stack.sample`) is not cut: its depth is folded instead.
MAX_FOLD_BYTES = 1 << 28

#: Windows per block of :meth:`_Stack.windows`: a pass or a factor over the records
#: holds one block of this many columns, however many windows were recorded
#: (a factor, all of them where they fit one fold step: see :meth:`_Stack.fold`).
PASS_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class SignalSegment:
    """A finite multi-channel signal: ``samples[t]`` is the value at step
    ``start_time + t``.

    ``samples`` is stored as a (T, d) float copy, checked like every record
    (see :func:`_stack`); 1-D input is treated as a single-channel signal.
    ``start_time``, an integer, is bookkeeping only and does not affect any
    matrix construction.
    """

    samples: np.ndarray
    start_time: int = 0

    def __post_init__(self):
        _set_start_time(self)
        object.__setattr__(self, "samples", _stack([self.samples]).W.T)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


def _records(signals) -> list:
    """The records of ``signals``, by the module's reading rule."""
    if isinstance(signals, (SignalSegment, np.ndarray)):
        return [signals]
    signals = list(signals)
    if signals and all(np.isscalar(s) for s in signals):
        return [signals]  # a bare list of numbers
    return signals


@dataclass(frozen=True, eq=False)
class _Stack:
    """Checked records (see :func:`_stack`) side by side in one (d, N) array W, one
    row per channel, record i in columns ends[i-1]:ends[i], and the first m channels
    the inputs (m = d for plain signals, whose second channel group is empty)."""

    W: np.ndarray
    ends: np.ndarray
    m: int

    @cached_property
    def lengths(self) -> np.ndarray:
        return self.ends - np.concatenate(([0], self.ends[:-1]))  # diff's prepend is slower

    def columns(self, depth: int) -> int:
        """The number of depth-``depth`` windows: records shorter than it have none."""
        return int(np.maximum(self.lengths - depth + 1, 0).sum())

    def checked(self, depth: int) -> _Stack:
        """The stack, once ``depth`` is at least 1 and no record is shorter than it."""
        if depth < 1:
            raise InputError("depth must be at least 1")
        if self.lengths.min() < depth:
            i = int(np.argmax(self.lengths < depth))
            raise DepthTooLargeError(f"depth {depth} exceeds the length {self.lengths[i]} "
                                     f"of signal {i}")
        return self

    def windows(self, depth: int, block: int | None = None):
        """The columns of :meth:`mosaic`, in blocks of at most ``block`` windows
        (default :data:`PASS_BLOCK`).  Pieces of a record's windows whose starts
        span at most ``block`` samples share a block: one strided copy of W's windows
        over the span per channel group, less the windows that cross a record boundary."""
        block, W = PASS_BLOCK if block is None else block, np.ascontiguousarray(self.W)
        groups = [(0, self.m), (self.m, len(W))]  # channel rows, by group
        # V[k, c, a] = W[c, a + k], a strided view: the windows of W at offset k.
        V = np.ndarray((depth, len(W), max(W.shape[1] - depth + 1, 0)), W.dtype, W, 0,
                       W.strides[1:] + W.strides)
        ends = self.ends.tolist()
        # (a, b): windows starting at samples a .. b-1 of W, all of one record.
        pieces = [(a, min(a + block, t - depth + 1)) for s, t in zip([0] + ends[:-1], ends)
                  for a in range(s, t - depth + 1, block)]
        i = 0
        while i < len(pieces):
            a, j = pieces[i][0], i + 1
            while j < len(pieces) and pieces[j][1] - a <= block:
                j += 1
            b = pieces[j - 1][1]
            span = np.empty((len(W) * depth, b - a))
            for lo, hi in groups:  # a group's rows hold its channels at offset 0, 1, ...
                span[lo * depth:hi * depth].reshape(depth, hi - lo, b - a)[...] = V[:, lo:hi, a:b]
            yield span if j == i + 1 else np.concatenate(
                [span[:, s - a:t - a] for s, t in pieces[i:j]], axis=1)
            i = j

    def fold(self, depth: int) -> np.ndarray:
        """The :func:`~ddlti._linalg.gram_factor` of :meth:`windows`, one QR of
        them all where their starts span at most the factor's rows plus
        :data:`PASS_BLOCK`: each fold step holds [factor; block'] of that many
        rows, and with more rows than :data:`PASS_BLOCK` the first of
        :data:`PASS_BLOCK` windows would leave a wide factor, then a stacked copy.
        Refuses a factor plus block above :data:`MAX_FOLD_BYTES` before folding."""
        span, rows, cols = self.W.shape[1], len(self.W) * depth, self.columns(depth)
        held = rows * (min(rows, cols) + min(PASS_BLOCK, cols)) * self.W.itemsize
        if held > MAX_FOLD_BYTES:
            raise InputError(f"the depth-{depth} fold needs {held} bytes to factor its {rows} x "
                             f"{cols} matrix, above the {MAX_FOLD_BYTES}-byte limit")
        return gram_factor(self.windows(depth, span if span - depth < rows + PASS_BLOCK else None))

    def sample(self, depth: int) -> _Stack | None:
        """The first 2k windows of the longest record (k = d ``depth`` rows) as a
        one-record stack, or None where it is shorter than (2d + 1) ``depth`` - 1
        samples (a k x 2k sample keeps sigma_min off 0, a square one not) or its
        mosaic's bytes exceed :data:`MAX_FOLD_BYTES`, so that the fold refuses."""
        k, longest = len(self.W) * depth, self.lengths.argmax()
        width = 2 * k + depth - 1
        if self.lengths[longest] < width or 2 * k * k * self.W.itemsize > MAX_FOLD_BYTES:
            return None
        start = int(self.ends[longest] - self.lengths[longest])
        return _Stack(self.W[:, start:start + width], np.array([width]), self.m)

    def mosaic(self, depth: int) -> np.ndarray:
        """The depth-``depth`` mosaic of the records at least ``depth`` long, the first m
        channels' over the rest's (a dictionary's row order): one :meth:`windows` block."""
        return next(self.windows(depth, self.W.shape[1]), np.empty((depth * len(self.W), 0)))


def _stack(signals, pairs: bool = False) -> _Stack:
    """The records of ``signals`` as one :class:`_Stack`, float, in order.  With
    ``pairs``, ``signals`` holds (input, output) pairs, and W has the m input
    channels over the outputs'.  Records are checked here, once over the
    stack: each has a sample and the stack a channel, paired records share a
    length, each side has one channel count, and every entry is finite.
    """
    if pairs:
        try:
            sides = tuple(zip(*[(u, y) for u, y in signals]))
        except (TypeError, ValueError):
            raise InputError("each element must be an (input, output) pair") from None
    else:
        sides = (_records(signals),)
    if not sides or not sides[0]:
        raise InputError(f"at least one {'input/output pair' if pairs else 'signal'} is required")
    ws = [[as_samples(s.samples if isinstance(s, SignalSegment) else s,
                      f"pair {i}[{j}]" if pairs else f"signal {i}") for i, s in enumerate(side)]
          for j, side in enumerate(sides)]
    lengths = np.array([[w.shape[0] for w in side] for side in ws])
    if pairs and (lengths[0] != lengths[1]).any():
        i = int(np.argmax(lengths[0] != lengths[1]))
        raise InputError(f"pair {i}: lengths {lengths[0, i]} and {lengths[1, i]} differ")
    dims = []
    for side in ws:
        shapes = {w.shape[1:] for w in side}
        if len(shapes) > 1 or len(min(shapes)) != 1:
            raise InputError("signals must be 1-D or 2-D and share one channel count, "
                             f"got sample shapes {shapes}")
        dims.append(min(shapes)[0])
    ends = np.cumsum(lengths[0])
    W = np.empty((sum(dims), int(ends[-1])))
    for side, hi, d in zip(ws, np.cumsum(dims).tolist(), dims):
        np.concatenate([w.T for w in side], axis=1, out=W[hi - d:hi])
    if not lengths.all() or not W.shape[0]:
        raise InputError("signal must contain at least one sample and one channel")
    if not np.isfinite(W).all():
        raise InputError("signal contains non-finite entries")
    return _Stack(W, ends, dims[0])


def hankel_matrix(signal, depth: int) -> np.ndarray:
    """Depth-``depth`` block Hankel matrix of one signal, shape (depth*d, T-depth+1)."""
    return mosaic_hankel([signal], depth)


def mosaic_hankel(signals, depth: int) -> np.ndarray:
    """Side-by-side depth-k Hankel blocks of several signals.

    Every signal must have at least ``depth`` samples — too-short signals
    raise rather than being dropped, since silently losing data inside a
    rank test is a debugging trap (the pipelines of :mod:`~ddlti.ident` skip
    short runs on purpose, and say so).  The result has ``depth * d`` rows and
    ``sum_i (T_i - depth + 1)`` columns, blocks in input order; so a nested
    list gives one block per inner list, and an ndarray is one signal.
    """
    return _stack(signals).checked(depth).mosaic(depth)


def pe_length_bound(depth: int, channels: int, n_signals: int = 1) -> int:
    """Least total sample count compatible with collective excitation.

    Full row rank of the depth-k mosaic of ``n_signals`` d-channel signals
    needs at least ``k*d`` columns, i.e. total length ``k*d + n_signals*(k-1)``
    — equivalently ``k*(d + n_signals) - n_signals`` samples overall, which for
    one signal reduces to the familiar ``k*(d+1) - 1``.
    """
    if depth < 1 or channels < 1 or n_signals < 1:
        raise InputError("depth, channels and n_signals must be positive")
    return depth * (channels + n_signals) - n_signals


@dataclass(frozen=True, eq=False)
class ExcitationReport(RankDecision):
    """Outcome of a persistency-of-excitation test at one depth: the rank
    decision on the depth's mosaic, exciting when it has full row rank."""

    depth: int
    required_rank: int
    n_columns: int
    exciting: bool


def excitation_report(signals, depth: int, rtol: float = DEFAULT_RANK_RTOL) -> ExcitationReport:
    """Rank diagnostics for the depth-k mosaic Hankel matrix of ``signals``."""
    return _excitation(_stack(signals).checked(depth), depth, rtol)


def _excitation(stack: _Stack, depth: int, rtol: float) -> ExcitationReport:
    """:func:`excitation_report` on a stack, leaving out records shorter than
    ``depth``: the report has no column of theirs."""
    rows, cols = depth * len(stack.W), stack.columns(depth)
    decision = rank_of(stack.fold(depth), rtol)
    return ExcitationReport(**vars(decision), depth=depth, required_rank=rows,
                            n_columns=cols, exciting=decision.rank == rows)


def is_persistently_exciting(signals, depth: int, rtol: float = DEFAULT_RANK_RTOL) -> bool:
    """True when the signals are (collectively) persistently exciting of order ``depth``.

    For a single signal this is the classical condition: the depth-k Hankel
    matrix has full row rank k*d.  For several signals the Hankel blocks are
    concatenated first, so individually weak records can excite collectively.
    """
    return excitation_report(signals, depth, rtol).exciting


def max_excitation_order(signals, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Largest k for which the signals are collectively exciting of order k (0 if none).

    The order is at most the counting bound: the deepest mosaic that no
    signal is shorter than and that has at least kd columns.  Generic
    exciting data reach it, so it is tested first; only if it fails is the
    order, monotone in k, bisected below it: O(log T) rank tests.
    """
    stack = _stack(signals)
    q, d = len(stack.ends), len(stack.W)
    top = int(min(stack.lengths.min(), (stack.ends[-1] + q) // (d + q)))
    if top and _excitation(stack, top, rtol).exciting:
        return top
    lo, hi = 0, top - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _excitation(stack, mid, rtol).exciting:
            lo = mid
        else:
            hi = mid - 1
    return lo
