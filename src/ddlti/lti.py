"""Discrete-time LTI state-space systems: exact simulation and structural tests.

Systems follow the update/output laws

    x(t+1) = A x(t) + B u(t)
    y(t)   = C x(t) + D u(t)

with state dimension ``n >= 0`` (``n = 0`` gives the static map ``y = D u``),
``m >= 1`` inputs and ``p >= 1`` outputs.  Everything in this module is a pure
function of its arguments; the dataclasses are frozen and safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, as_matrix, as_samples, numerical_rank
from .errors import InputError


@dataclass(frozen=True)
class LtiSystem:
    """State-space quadruple (A, B, C, D) with consistent dimensions.

    Parameters
    ----------
    A : (n, n) array_like
        State transition matrix.
    B : (n, m) array_like
        Input matrix.
    C : (p, n) array_like
        Output matrix.
    D : (p, m) array_like
        Feedthrough matrix.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        D = as_matrix(self.D, "D")
        n, m, p = A.shape[0], B.shape[1], C.shape[0]
        if A.shape != (n, n):
            raise InputError(f"A must be square, got {A.shape}")
        if B.shape != (n, m):
            raise InputError(f"B must be ({n}, m), got {B.shape}")
        if C.shape != (p, n):
            raise InputError(f"C must be (p, {n}), got {C.shape}")
        if D.shape != (p, m):
            raise InputError(f"D must be ({p}, {m}), got {D.shape}")
        if m < 1 or p < 1:
            raise InputError("input and output dimensions must be at least 1")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(M)):
                raise InputError(f"{name} contains non-finite entries")
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


@dataclass(frozen=True)
class StateTrajectory:
    """A finite input/state/output record of a system run.

    ``u``, ``x`` and ``y`` hold samples at times ``start_time .. start_time+T-1``
    (one row per step, 1-D input being a single channel); ``final_state`` is
    ``x(start_time + T)``.
    """

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    final_state: np.ndarray
    start_time: int = 0

    def __post_init__(self):
        u = as_samples(self.u)
        x = np.asarray(self.x, float).reshape(u.shape[0], -1)
        y = as_samples(self.y)
        if not (u.shape[0] == x.shape[0] == y.shape[0]):
            raise InputError("u, x, y must have the same number of samples")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "final_state", np.asarray(self.final_state, float).reshape(-1))

    @property
    def length(self) -> int:
        return self.u.shape[0]


def simulate(sys: LtiSystem, x0, u_seq, start_time: int = 0) -> StateTrajectory:
    """Run the exact state recursion under the given input sequence.

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
    u = as_samples(u_seq)
    T = u.shape[0]
    if u.shape[1] != sys.m:
        raise InputError(f"input samples must have dimension {sys.m}, got {u.shape[1]}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n:
        raise InputError(f"x0 must have dimension {sys.n}, got {x0.shape[0]}")

    x = np.empty((T, sys.n))
    y = np.empty((T, sys.p))
    xc = x0
    for t in range(T):
        x[t] = xc
        y[t] = sys.C @ xc + sys.D @ u[t]
        xc = sys.A @ xc + sys.B @ u[t]
    return StateTrajectory(u=u, x=x, y=y, final_state=xc, start_time=start_time)


def verify_trajectory(sys: LtiSystem, traj: StateTrajectory, tol: float = 1e-9) -> bool:
    """Check that a record satisfies the system laws within ``tol`` (absolute)."""
    x_next = np.vstack([traj.x[1:], traj.final_state]) if traj.length else traj.x
    upd = traj.x @ sys.A.T + traj.u @ sys.B.T - x_next
    out = traj.x @ sys.C.T + traj.u @ sys.D.T - traj.y
    worst = max(np.abs(upd).max(initial=0.0), np.abs(out).max(initial=0.0))
    return worst <= tol


def is_controllable(A, B, rtol: float = DEFAULT_RANK_RTOL) -> bool:
    """Kalman rank test: [B, AB, ..., A^(n-1)B] has numerical rank n."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise InputError(f"B must have {n} rows, got {B.shape[0]}")
    if n == 0:
        return True
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return numerical_rank(np.hstack(blocks), rtol) == n


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
    M = as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise InputError(f"matrix must be square, got {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))
