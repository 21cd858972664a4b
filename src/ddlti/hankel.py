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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, as_samples, rank_from_singular_values
from .errors import DepthTooLargeError, InputError


@dataclass(frozen=True)
class SignalSegment:
    """A finite multi-channel signal: ``samples[t]`` is the value at step
    ``start_time + t``.

    ``samples`` is coerced to a (T, d) float array; 1-D input is treated as a
    single-channel signal.  ``start_time`` is bookkeeping only and does not
    affect any matrix construction.
    """

    samples: np.ndarray
    start_time: int = 0

    def __post_init__(self):
        w = as_samples(self.samples)
        if w.ndim != 2:
            raise InputError(f"signal must be 1-D or 2-D, got ndim={w.ndim}")
        if w.shape[0] == 0 or w.shape[1] == 0:
            raise InputError("signal must contain at least one sample and one channel")
        if not np.all(np.isfinite(w)):
            raise InputError("signal contains non-finite entries")
        object.__setattr__(self, "samples", w.copy())

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


def _coerce_one(signal) -> SignalSegment:
    if isinstance(signal, SignalSegment):
        return signal
    return SignalSegment(np.asarray(signal, dtype=float))


def _coerce_segments(signals) -> list[SignalSegment]:
    if isinstance(signals, (SignalSegment, np.ndarray)):
        return [_coerce_one(signals)]
    signals = list(signals)
    if signals and all(np.isscalar(s) for s in signals):
        return [_coerce_one(np.asarray(signals))]  # a bare list of numbers
    segs = [_coerce_one(s) for s in signals]
    if not segs:
        raise InputError("at least one signal is required")
    d = segs[0].channels
    for s in segs[1:]:
        if s.channels != d:
            raise InputError(
                f"all signals must share the channel count, got {d} and {s.channels}"
            )
    return segs


def _check_depth(segs, depth: int) -> None:
    if depth < 1:
        raise InputError("depth must be at least 1")
    for i, s in enumerate(segs):
        if s.length < depth:
            raise DepthTooLargeError(
                f"depth {depth} exceeds the length {s.length} of signal {i}"
            )


def _mosaic(segs, depth: int, out: np.ndarray | None = None) -> np.ndarray:
    """Depth-``depth`` mosaic of validated segments, written into ``out``.

    The blocks are overlapping strided views of the samples, so ``out`` is the
    only copy; it is allocated C-ordered because concatenating such views on
    their own would follow their row-fastest layout into Fortran order.
    """
    views = [
        np.lib.stride_tricks.sliding_window_view(s.samples, depth, axis=0)
        .transpose(2, 1, 0).reshape(depth * s.channels, -1)
        for s in segs
    ]
    if out is None:
        out = np.empty((views[0].shape[0], sum(v.shape[1] for v in views)))
    return np.concatenate(views, axis=1, out=out)


def hankel_matrix(signal, depth: int) -> np.ndarray:
    """Depth-``depth`` block Hankel matrix of one signal, shape (depth*d, T-depth+1)."""
    seg = _coerce_one(signal)
    _check_depth([seg], depth)
    return _mosaic([seg], depth)


def mosaic_hankel(signals, depth: int) -> np.ndarray:
    """Side-by-side depth-k Hankel blocks of several signals.

    Every signal must have at least ``depth`` samples — too-short signals
    raise rather than being dropped, since silently losing data inside a
    rank test is a debugging trap; pipelines that want to exclude short
    records filter explicitly.  The result has ``depth * d`` rows and
    ``sum_i (T_i - depth + 1)`` columns, blocks in input order.
    """
    segs = _coerce_segments(signals)
    _check_depth(segs, depth)
    return _mosaic(segs, depth)


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


@dataclass(frozen=True)
class ExcitationReport:
    """Outcome of a persistency-of-excitation test at one depth."""

    exciting: bool
    depth: int
    rank: int
    required_rank: int
    n_columns: int
    singular_values: np.ndarray


def excitation_report(signals, depth: int, rtol: float = DEFAULT_RANK_RTOL) -> ExcitationReport:
    """Rank diagnostics for the depth-k mosaic Hankel matrix of ``signals``."""
    H = mosaic_hankel(signals, depth)
    sv = np.linalg.svd(H, compute_uv=False)
    rank = rank_from_singular_values(sv, rtol)
    return ExcitationReport(
        exciting=rank == H.shape[0],
        depth=depth,
        rank=rank,
        required_rank=H.shape[0],
        n_columns=H.shape[1],
        singular_values=sv,
    )


def is_persistently_exciting(signals, depth: int, rtol: float = DEFAULT_RANK_RTOL) -> bool:
    """True when the signals are (collectively) persistently exciting of order ``depth``.

    For a single signal this is the classical condition: the depth-k Hankel
    matrix has full row rank k*d.  For several signals the Hankel blocks are
    concatenated first, so individually weak records can excite collectively.
    """
    return excitation_report(signals, depth, rtol).exciting


def max_excitation_order(signals, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Largest k for which the signals are collectively exciting of order k (0 if none)."""
    segs = _coerce_segments(signals)
    best = 0
    for depth in range(1, max(s.length for s in segs) + 1):
        try:
            if is_persistently_exciting(segs, depth, rtol):
                best = depth
            else:
                break
        except DepthTooLargeError:
            break
    return best
