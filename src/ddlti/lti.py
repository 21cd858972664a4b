"""Discrete-time LTI systems, the records they produce, and LQR cost weights.

Systems follow the update/output laws

    x(t+1) = A x(t) + B u(t)
    y(t)   = C x(t) + D u(t)

with state dimension ``n >= 0`` (``n = 0`` gives the static map ``y = D u``),
``m >= 1`` inputs and ``p >= 1`` outputs.  Records: :class:`StateTrajectory`
(an input/state/output run) and :class:`CorruptedTrajectory` (an
input/output record with missing samples); weights: :class:`LqrWeights`.
Every time series is read one way: one row per step, a 1-D array being one
channel.  Everything in this module is a pure function of its arguments; the
dataclasses are frozen and safe to share.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, as_matrix, as_samples, rank_of
from .errors import InputError


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """State-space quadruple of the laws above, with consistent dimensions:
    A is (n, n), B (n, m), C (p, n) and D (p, m), each array_like."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A", square=True)
        B = as_matrix(self.B, "B", (len(A), None))
        C = as_matrix(self.C, "C", (None, len(A)))
        D = as_matrix(self.D, "D", (len(C), B.shape[1]))
        if D.size == 0:
            raise InputError("input and output dimensions must be at least 1")
        for name, M in zip("ABCD", (A, B, C, D)):
            object.__setattr__(self, name, M.copy())

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def _set_start_time(record) -> None:
    """Store a record's ``start_time`` as an int (numpy integers pass), or refuse it."""
    try:
        object.__setattr__(record, "start_time", operator.index(record.start_time))
    except TypeError:
        raise InputError(f"start_time must be an integer, got {record.start_time!r}") from None


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """A finite input/state/output record of a system run.

    ``u``, ``x`` and ``y`` hold samples at times ``start_time .. start_time+T-1``
    (one row per step, 1-D input being a single channel); ``final_state`` is
    ``x(start_time + T)``, with one entry per column of ``x``.
    """

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    final_state: np.ndarray
    start_time: int = 0

    def __post_init__(self):
        _set_start_time(self)
        u, x, y = as_samples(self.u, "u"), as_samples(self.x, "x"), as_samples(self.y, "y")
        if not (u.shape[0] == x.shape[0] == y.shape[0]):
            raise InputError("u, x, y must have the same number of samples")
        final_state = as_samples(self.final_state, "final_state").reshape(-1)
        if final_state.shape[0] != x.shape[1]:
            raise InputError(f"final_state must have {x.shape[1]} entries, got {final_state.size}")
        for name, a in (("u", u), ("x", x), ("y", y), ("final_state", final_state)):
            object.__setattr__(self, name, a)

    @property
    def length(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)
class CorruptedTrajectory:
    """A time-indexed input/output record where whole samples may be missing.

    ``u`` is (T, m) and ``y`` is (T, p), 1-D input being a single channel,
    with m, p >= 1; a missing sample is a row of NaNs in both.  Missingness
    strikes a time step as a whole: rows that are only partially NaN are
    rejected.  ``u``, ``y`` and :attr:`present` are read-only copies.
    """

    u: np.ndarray
    y: np.ndarray
    start_time: int = 0
    _present: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _set_start_time(self)
        u, y = as_samples(self.u, "u"), as_samples(self.y, "y")
        if u.ndim != 2 or y.ndim != 2:
            raise InputError("u and y must be 2-D (one row per time step)")
        if not (u.shape[1] and y.shape[1]):
            raise InputError("u and y must each have at least one channel, "
                             f"got shapes {u.shape} and {y.shape}")
        if u.shape[0] != y.shape[0]:
            raise InputError("u and y must cover the same time steps")
        if u.shape[0] == 0:
            raise InputError("record must contain at least one time step")
        finite = np.isfinite(np.hstack([u, y]))
        present = finite.all(axis=1)
        whole = present | ~finite.any(axis=1)
        if not np.all(whole):
            bad = int(np.flatnonzero(~whole)[0])
            raise InputError(
                f"sample at step {self.start_time + bad} is partially missing; "
                "a missing sample must blank the whole (u, y) row"
            )
        # Read-only, so that the mask taken here cannot go stale.
        for name, a in (("u", u.copy()), ("y", y.copy()), ("_present", present)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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
        return self._present

    @property
    def missing_times(self) -> np.ndarray:
        return self.start_time + np.flatnonzero(~self._present)


@dataclass(frozen=True, eq=False)
class LqrWeights:
    """Quadratic cost weights: Q symmetric PSD on states, R symmetric PD on inputs."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q", square=True)
        R = as_matrix(self.R, "R", square=True)
        for name, M in (("Q", Q), ("R", R)):
            if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max(initial=0.0))):
                raise InputError(f"{name} must be symmetric")
        q_eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        if q_eigs.size and q_eigs[0] < -1e-10 * max(1.0, q_eigs[-1]):
            raise InputError("Q must be positive semidefinite")
        r_eigs = np.linalg.eigvalsh(0.5 * (R + R.T))
        if r_eigs.size == 0 or r_eigs[0] <= 0.0:
            raise InputError("R must be positive definite")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "R", 0.5 * (R + R.T))


def batch_reactor() -> LtiSystem:
    """The classic open-loop-unstable batch reactor, sampled at 0.5 s.

    A standard benchmark for data-driven and robust control studies; the
    discretized state matrix has an eigenvalue well outside the unit circle,
    which makes long open-loop experiments numerically hopeless and short
    ones attractive.  Full state measurement (C = I, D = 0).
    """
    A = np.array([
        [2.622, 0.320, 1.834, -1.066],
        [-0.238, 0.187, -0.136, 0.202],
        [0.161, 0.789, 0.286, 0.606],
        [-0.104, 0.764, 0.089, 0.736],
    ])
    B = np.array([
        [0.465, -1.550],
        [1.314, 0.085],
        [2.055, -0.673],
        [2.023, -0.160],
    ])
    return LtiSystem(A=A, B=B, C=np.eye(4), D=np.zeros((4, 2)))


def _simulate_runs(sys: LtiSystem, x0: np.ndarray, u: np.ndarray):
    """States x(0..T), (T+1, q, n), and outputs, (T, q, p), of q runs from
    ``x0`` (q, n) under ``u`` (T, q, m): x(t+1) = x(t) A' + u(t) B' for all
    runs at once, then y = x C' + u D' in one product after the loop."""
    x = np.concatenate([x0[None], u @ sys.B.T])
    for t in range(u.shape[0]):
        x[t + 1] += x[t] @ sys.A.T
    return x, x[:-1] @ sys.C.T + u @ sys.D.T


def simulate(sys: LtiSystem, x0, u_seq, start_time: int = 0) -> StateTrajectory:
    """Run the exact state recursion, as a batch of one run, under the given inputs.

    Parameters
    ----------
    sys : LtiSystem
    x0 : (n,) array_like
        Initial state.
    u_seq : (T, m) array_like
        Input samples, one row per step (a 1-D array is treated as a scalar
        input signal).

    Returns
    -------
    StateTrajectory
        States, inputs and outputs over T steps plus the terminal state.
    """
    u = as_matrix(u_seq, "u_seq", (None, sys.m), samples=True)
    x0 = as_matrix(x0, "x0", (sys.n,))
    x, y = _simulate_runs(sys, x0[None], u[:, None])
    return StateTrajectory(u=u, x=x[:-1, 0], y=y[:, 0], final_state=x[-1, 0], start_time=start_time)


def verify_trajectory(sys: LtiSystem, traj: StateTrajectory, tol: float = 1e-9) -> bool:
    """Check that a record satisfies the system laws within ``tol`` (absolute)."""
    x_next = np.vstack([traj.x[1:], traj.final_state]) if traj.length else traj.x
    upd = traj.x @ sys.A.T + traj.u @ sys.B.T - x_next
    out = traj.x @ sys.C.T + traj.u @ sys.D.T - traj.y
    worst = max(np.abs(upd).max(initial=0.0), np.abs(out).max(initial=0.0))
    return worst <= tol


def is_controllable(A, B, rtol: float = DEFAULT_RANK_RTOL) -> bool:
    """Kalman rank test: [B, AB, ..., A^(n-1)B] has numerical rank n."""
    A = as_matrix(A, "A", square=True)
    B = as_matrix(B, "B", (len(A), None))
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return rank_of(np.hstack(blocks), rtol).rank == n


def markov_parameters(sys: LtiSystem, count: int) -> np.ndarray:
    """First ``count`` impulse-response matrices (D, CB, CAB, ...).

    Returns a ``(count, p, m)`` array; entry k equals ``C A^(k-1) B`` for
    k >= 1 and ``D`` for k = 0.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    out = np.empty((count, sys.p, sys.m))
    out[0] = sys.D
    M = sys.B
    for k in range(1, count):
        out[k] = sys.C @ M
        M = sys.A @ M
    return out


def response_maps(sys: LtiSystem, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Extended observability matrix and impulse-response Toeplitz map.

    For any length-L run, stacked outputs satisfy
    ``y_[0,L-1] = O_L x(0) + T_L u_[0,L-1]`` where ``O_L`` stacks
    C, CA, ..., CA^(L-1) (shape pL x n) and ``T_L`` is block lower
    triangular with D on the diagonal and ``C A^(k-1) B`` on subdiagonal k
    (shape pL x mL).
    """
    if L < 1:
        raise InputError("L must be at least 1")
    n, m, p = sys.n, sys.m, sys.p
    O = np.empty((p * L, n))
    row = sys.C
    for k in range(L):
        O[k * p:(k + 1) * p] = row
        row = row @ sys.A
    mk = markov_parameters(sys, L)
    T = np.zeros((p * L, m * L))
    for i in range(L):
        for j in range(i + 1):
            T[i * p:(i + 1) * p, j * m:(j + 1) * m] = mk[i - j]
    return O, T


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = as_matrix(M, "M", square=True)
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))
