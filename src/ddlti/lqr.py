"""Data-driven infinite-horizon LQR from one or many state/input experiments.

Given recorded experiments stacked into matrices

    Xm = [x(0) ... x(T-1)],   Xp = [x(1) ... x(T)],   Um = [u(0) ... u(T-1)]

(concatenated over experiments), the optimal stationary feedback can be
computed without ever being handed (A, B): when [Xm; Um] has full row rank
the dynamics are exactly determined by the data, the largest Riccati
solution P maximizes tr P subject to P >= 0 and the data-side operator

    L(P) = Xm' P Xm - Xp' P Xp - Xm' Q Xm - Um' R Um

being negative semidefinite, and the gain is read off the data through a
right inverse of Xm annihilating L(P).  This module implements that
pipeline with explicit certification at every step, plus an SDPA export so
the semidefinite program can be cross-checked by an external solver.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    DEFAULT_RANK_RTOL,
    as_matrix,
    lstsq_minnorm,
    rank_from_singular_values,
    relative_residual,
)
from .errors import (
    CertificationError,
    ExcitationError,
    InputError,
    InsufficientDataError,
    RiccatiDivergenceError,
)
from .hankel import (
    SignalSegment,
    _coerce_segments,
    is_persistently_exciting,
    pe_length_bound,
)
from .lti import LtiSystem, StateTrajectory, simulate, spectral_radius


@dataclass(frozen=True)
class ExperimentBatch:
    """Stacked state/input data matrices of one or more experiments.

    ``Xm`` and ``Um`` collect the states and inputs at steps 0..T_i-1 of each
    experiment, ``Xp`` the states shifted one step; all three share the
    column count N = sum_i T_i.  ``boundaries`` records the first column of
    each experiment within the concatenation.
    """

    Xm: np.ndarray
    Xp: np.ndarray
    Um: np.ndarray
    boundaries: tuple[int, ...]

    def __post_init__(self):
        Xm = as_matrix(self.Xm, "Xm")
        Xp = as_matrix(self.Xp, "Xp")
        Um = as_matrix(self.Um, "Um")
        if Xm.shape != Xp.shape:
            raise InputError(f"Xm {Xm.shape} and Xp {Xp.shape} must match")
        if Um.shape[1] != Xm.shape[1]:
            raise InputError("Um must have the same column count as Xm")
        object.__setattr__(self, "Xm", Xm)
        object.__setattr__(self, "Xp", Xp)
        object.__setattr__(self, "Um", Um)
        object.__setattr__(self, "boundaries", tuple(self.boundaries))

    @property
    def n(self) -> int:
        return self.Xm.shape[0]

    @property
    def m(self) -> int:
        return self.Um.shape[0]

    @property
    def n_columns(self) -> int:
        return self.Xm.shape[1]


@dataclass(frozen=True)
class LqrWeights:
    """Quadratic cost weights: Q symmetric PSD on states, R symmetric PD on inputs."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q")
        R = as_matrix(self.R, "R")
        for name, M in (("Q", Q), ("R", R)):
            if M.shape[0] != M.shape[1]:
                raise InputError(f"{name} must be square, got {M.shape}")
            if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max())):
                raise InputError(f"{name} must be symmetric")
        q_eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        if q_eigs.size and q_eigs[0] < -1e-10 * max(1.0, q_eigs[-1]):
            raise InputError("Q must be positive semidefinite")
        r_eigs = np.linalg.eigvalsh(0.5 * (R + R.T))
        if r_eigs.size == 0 or r_eigs[0] <= 0.0:
            raise InputError("R must be positive definite")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "R", 0.5 * (R + R.T))


@dataclass(frozen=True)
class LqrSolution:
    """Certified output of :func:`lqr_from_data`.

    ``P`` and ``K`` are the value matrix and feedback gain; the remaining
    fields are the certificates: largest eigenvalue of the data-side
    operator L(P) (must be <= 0 up to tolerance), the relative residual of
    the Riccati equation, the residual of the right-inverse solve that
    produced K, and the closed-loop spectral radius (< 1).
    """

    P: np.ndarray
    K: np.ndarray
    lmi_max_eig: float
    riccati_residual: float
    right_inverse_residual: float
    closed_loop_radius: float


def assemble_batch(experiments) -> ExperimentBatch:
    """Stack (states, inputs) experiments into data matrices.

    Each experiment is a pair (x, u) where x has T+1 samples (the terminal
    state included) and u has T; a :class:`~ddlti.lti.StateTrajectory` is
    also accepted.  Columns are concatenated in input order.
    """
    experiments = list(experiments)
    if not experiments:
        raise InputError("at least one experiment is required")
    xs, us = [], []
    for i, exp in enumerate(experiments):
        if isinstance(exp, StateTrajectory):
            x = np.vstack([exp.x, exp.final_state])
            u = exp.u
        else:
            x, u = exp
            x = _coerce_segments(x)[0].samples
            u = _coerce_segments(u)[0].samples
        if x.shape[0] != u.shape[0] + 1:
            raise InputError(
                f"experiment {i}: states must have one more sample than "
                f"inputs (terminal state included), got {x.shape[0]} vs {u.shape[0]}"
            )
        xs.append(x)
        us.append(u)
    n = xs[0].shape[1]
    m = us[0].shape[1]
    for i, (x, u) in enumerate(zip(xs, us)):
        if x.shape[1] != n or u.shape[1] != m:
            raise InputError(f"experiment {i}: inconsistent state/input dimensions")
    Xm = np.hstack([x[:-1].T for x in xs])
    Xp = np.hstack([x[1:].T for x in xs])
    Um = np.hstack([u.T for u in us])
    offsets = np.concatenate([[0], np.cumsum([u.shape[0] for u in us])[:-1]])
    return ExperimentBatch(Xm=Xm, Xp=Xp, Um=Um, boundaries=tuple(int(o) for o in offsets))


def _dare_residual(A, B, Q, R, P) -> float:
    S = R + B.T @ P @ B
    res = A.T @ P @ A - P - A.T @ P @ B @ np.linalg.solve(S, B.T @ P @ A) + Q
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(P)))


def dare_solve(A, B, Q, R, tol: float = 1e-12, max_iter: int = 10_000):
    """Largest symmetric solution of the discrete algebraic Riccati equation.

        P = A'PA - A'PB (R + B'PB)^{-1} B'PA + Q

    solved by the structure-preserving doubling iteration (quadratically
    convergent for stabilizable pairs).  Doubling can stop short of the
    Riccati residual tolerance (e.g. with a tiny input weight R); a doubling
    result that misses it, or a doubling breakdown, falls back to a plain
    fixed-point iteration from P = Q.  Returns (P, K) with the stationary
    gain K = -(R + B'PB)^{-1} B'PA; the closed loop A + BK is verified stable.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise InputError(f"B must have {n} rows, got {B.shape[0]}")
    W = LqrWeights(Q=Q, R=R)
    Q, R = W.Q, W.R
    if Q.shape[0] != n:
        raise InputError(f"Q must be {n}x{n}, got {Q.shape}")
    if R.shape[0] != B.shape[1]:
        raise InputError(f"R must be {B.shape[1]}x{B.shape[1]}, got {R.shape}")

    G0 = B @ np.linalg.solve(R, B.T)

    def doubling() -> np.ndarray | None:
        Ak, Gk, Hk = A.copy(), G0.copy(), Q.copy()
        eye = np.eye(n)
        for _ in range(max_iter):
            try:
                Wk = eye + Gk @ Hk
                V1 = np.linalg.solve(Wk, Ak)
                V2 = np.linalg.solve(Wk, Gk)
            except np.linalg.LinAlgError:
                return None
            Hn = Hk + Ak.T @ Hk @ V1
            Gk = Gk + Ak @ V2 @ Ak.T
            Ak = Ak @ V1
            Hn = 0.5 * (Hn + Hn.T)
            if not np.all(np.isfinite(Hn)):
                return None
            if np.linalg.norm(Hn - Hk) <= tol * max(1.0, np.linalg.norm(Hn)):
                return Hn
            Hk = Hn
        return None

    def fixed_point() -> np.ndarray | None:
        P = Q.copy()
        for _ in range(max_iter):
            S = R + B.T @ P @ B
            try:
                Pn = A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(S, B.T @ P @ A) + Q
            except np.linalg.LinAlgError:
                return None
            Pn = 0.5 * (Pn + Pn.T)
            if not np.all(np.isfinite(Pn)):
                return None
            if np.linalg.norm(Pn - P) <= tol * max(1.0, np.linalg.norm(Pn)):
                return Pn
            P = Pn
        return None

    resid_tol = max(tol, 1e-12)
    P = doubling()
    if P is None or _dare_residual(A, B, Q, R, P) > resid_tol:
        P = fixed_point()
    if P is None:
        raise RiccatiDivergenceError(
            f"Riccati iteration did not converge within {max_iter} steps"
        )
    residual = _dare_residual(A, B, Q, R, P)
    if residual > resid_tol:
        raise RiccatiDivergenceError(
            f"Riccati residual {residual:.3e} exceeds tolerance {resid_tol:.1e}"
        )
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if n and spectral_radius(A + B @ K) >= 1.0:
        raise RiccatiDivergenceError(
            "computed gain does not stabilize the pair (A, B); "
            "the pair may not be stabilizable"
        )
    return P, K


def lmi_operator(P, batch: ExperimentBatch, weights: LqrWeights) -> np.ndarray:
    """The data-side operator L(P) = Xm'PXm - Xp'PXp - Xm'QXm - Um'RUm (N x N)."""
    P = as_matrix(P, "P")
    n = batch.n
    if P.shape != (n, n):
        raise InputError(f"P must be {n}x{n}, got {P.shape}")
    if weights.Q.shape[0] != n or weights.R.shape[0] != batch.m:
        raise InputError("weights do not match the batch dimensions")
    Xm, Xp, Um = batch.Xm, batch.Xp, batch.Um
    L = (Xm.T @ P @ Xm - Xp.T @ P @ Xp
         - Xm.T @ weights.Q @ Xm - Um.T @ weights.R @ Um)
    return 0.5 * (L + L.T)


def identify_ab(batch: ExperimentBatch, rtol: float = DEFAULT_RANK_RTOL):
    """Recover (A, B) exactly from full-row-rank data: Xp = [A B] [Xm; Um]."""
    S = np.vstack([batch.Xm, batch.Um])
    U, s, Vt = np.linalg.svd(S, full_matrices=False)
    rank = rank_from_singular_values(s, rtol)
    if rank < batch.n + batch.m:
        raise InsufficientDataError(
            f"[Xm; Um] has rank {rank} < {batch.n + batch.m}; "
            "the experiments do not determine the dynamics"
        )
    AB = (batch.Xp @ Vt.T / s) @ U.T  # Xp S+, with S+ = V diag(1/s) U'
    return AB[:, :batch.n], AB[:, batch.n:]


def lqr_from_data(batch: ExperimentBatch, weights: LqrWeights,
                  rtol: float = DEFAULT_RANK_RTOL, tol_cert: float = 1e-6,
                  riccati_tol: float = 1e-12, max_iter: int = 10_000) -> LqrSolution:
    """Optimal stationary feedback from recorded data, with certificates.

    Pipeline: check that [Xm; Um] has full row rank (necessary and
    sufficient on exact data), recover (A, B), solve the Riccati equation
    for the largest P — the unique maximizer of tr P under P >= 0 and
    L(P) <= 0 — certify L(P) <= 0 directly on the data, and build the gain
    K = Um X' from a right inverse X' of Xm constrained by L(P) X' = 0.

    Raises
    ------
    InsufficientDataError
        If the data matrices are row-rank deficient.
    CertificationError
        If any data-side certificate (LMI negativity, right-inverse
        residual, closed-loop stability) fails at ``tol_cert``.
    """
    A, B = identify_ab(batch, rtol)
    P, _ = dare_solve(A, B, weights.Q, weights.R, tol=riccati_tol, max_iter=max_iter)

    L = lmi_operator(P, batch, weights)
    Xm, Xp, Um = batch.Xm, batch.Xp, batch.Um
    scale = max(
        np.linalg.norm(Xm.T @ P @ Xm),
        np.linalg.norm(Xp.T @ P @ Xp),
        np.linalg.norm(Xm.T @ weights.Q @ Xm),
        np.linalg.norm(Um.T @ weights.R @ Um),
        1.0,
    )
    lmi_max_eig = float(np.linalg.eigvalsh(L)[-1])
    if lmi_max_eig > tol_cert * scale:
        raise CertificationError(
            f"data-side operator L(P) is not negative semidefinite: "
            f"max eigenvalue {lmi_max_eig:.3e} exceeds {tol_cert:.1e} x scale {scale:.3e}"
        )

    # Right inverse of Xm annihilating L(P): one stacked least-squares solve.
    n = batch.n
    S = np.vstack([Xm, L])
    rhs = np.vstack([np.eye(n), np.zeros((batch.n_columns, n))])
    Xdag = lstsq_minnorm(S, rhs)
    ri_residual = relative_residual(S, Xdag, rhs)
    if ri_residual > tol_cert:
        raise CertificationError(
            f"no right inverse of Xm annihilates L(P) to tolerance: "
            f"residual {ri_residual:.3e} > {tol_cert:.1e}"
        )
    K = Um @ Xdag

    radius = spectral_radius(A + B @ K) if n else 0.0
    if radius >= 1.0:
        raise CertificationError(
            f"closed loop is not stable: spectral radius {radius:.6f} >= 1"
        )
    return LqrSolution(
        P=P, K=K,
        lmi_max_eig=lmi_max_eig,
        riccati_residual=_dare_residual(A, B, weights.Q, weights.R, P),
        right_inverse_residual=ri_residual,
        closed_loop_radius=radius,
    )


def export_sdp(batch: ExperimentBatch, weights: LqrWeights, destination=None) -> str:
    """Emit 'maximize tr P s.t. P >= 0, -L(P) >= 0' in SDPA sparse format.

    The scalar variables are the upper-triangle entries of P (row-major,
    n(n+1)/2 of them).  Block 1 (size n) carries P itself; block 2 (size N)
    carries -L(P), whose constant part is Xm'QXm + Um'RUm.  SDPA minimizes
    c'x, so the objective puts -1 on each diagonal variable.

    ``destination`` may be a path or a writable text stream; the formatted
    text is returned either way.
    """
    n, N = batch.n, batch.n_columns
    if n < 1:
        raise InputError("the batch must carry at least one state channel")
    if weights.Q.shape[0] != n or weights.R.shape[0] != batch.m:
        raise InputError("weights do not match the batch dimensions")
    Xm, Xp, Um = batch.Xm, batch.Xp, batch.Um

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    nvar = len(pairs)
    lines = [
        '"maximize tr(P) s.t. P >= 0 and Xp\'PXp + Xm\'QXm + Um\'RUm - Xm\'PXm >= 0"',
        f"{nvar} = mDIM",
        "2 = nBLOCK",
        f"{n} {N} = bLOCKsTRUCT",
    ]
    c = ["-1" if i == j else "0" for i, j in pairs]
    lines.append(" ".join(c))

    entries: list[str] = []

    def emit(mat_no: int, block: int, M: np.ndarray):
        rows, cols = np.nonzero(np.triu(M))
        for r, cc in zip(rows, cols):
            entries.append(f"{mat_no} {block} {r + 1} {cc + 1} {float(M[r, cc])!r}")

    # F0: nothing in block 1; block 2 constant part is -(Xm'QXm + Um'RUm).
    C0 = Xm.T @ weights.Q @ Xm + Um.T @ weights.R @ Um
    emit(0, 2, -0.5 * (C0 + C0.T))

    for k, (i, j) in enumerate(pairs, start=1):
        E = np.zeros((n, n))
        E[i, j] = 1.0
        E[j, i] = 1.0
        entries.append(f"{k} 1 {i + 1} {j + 1} 1.0")
        Fk = Xp.T @ E @ Xp - Xm.T @ E @ Xm
        emit(k, 2, 0.5 * (Fk + Fk.T))

    text = "\n".join(lines + entries) + "\n"
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(os.fspath(destination), "w") as fh:
                fh.write(text)
    return text


@dataclass(frozen=True)
class InstabilityReport:
    """State-norm growth of an open-loop run (terminal state included)."""

    norms: np.ndarray
    max_norm: float
    argmax: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"  t={t:3d}  ||x|| = {v:.6e}" for t, v in enumerate(self.norms)]
        lines.append(f"peak ||x({self.argmax})|| = {self.max_norm:.6e}")
        return "\n".join(lines)


def instability_report(sys: LtiSystem, x0, u_seq) -> InstabilityReport:
    """Simulate and report per-step state norms (why long open-loop runs of
    unstable plants make poor data: the columns blow up by orders of
    magnitude)."""
    traj = simulate(sys, x0, u_seq)
    states = np.vstack([traj.x, traj.final_state])
    norms = np.linalg.norm(states, axis=1)
    k = int(np.argmax(norms))
    return InstabilityReport(norms=norms, max_norm=float(norms[k]), argmax=k)


def generate_experiments(sys: LtiSystem, n_experiments: int, length: int,
                         pe_order: int, rng: np.random.Generator,
                         input_low: float = 0.0, input_high: float = 1.0,
                         x0_scale: float = 1.0, max_retries: int = 50):
    """Simulate experiments with uniform random inputs until collectively exciting.

    Draws inputs uniform on [input_low, input_high] and initial states from
    a scaled standard normal, re-drawing the whole batch until the inputs
    are collectively persistently exciting of ``pe_order`` (bounded
    retries).  Returns a list of :class:`~ddlti.lti.StateTrajectory`.
    """
    if n_experiments < 1 or length < 1:
        raise InputError("n_experiments and length must be positive")
    total = n_experiments * length
    needed = pe_length_bound(pe_order, sys.m, n_experiments)
    if pe_order > length or total < needed:
        raise ExcitationError(
            f"{n_experiments} experiments of length {length} cannot be "
            f"collectively exciting of order {pe_order}: "
            f"need length >= {pe_order} and at least {needed} total samples, "
            f"have {total}"
        )
    for _ in range(max_retries):
        inputs = [rng.uniform(input_low, input_high, size=(length, sys.m))
                  for _ in range(n_experiments)]
        if not is_persistently_exciting([SignalSegment(u) for u in inputs], pe_order):
            continue
        return [
            simulate(sys, x0_scale * rng.standard_normal(sys.n), u)
            for u in inputs
        ]
    raise ExcitationError(
        f"could not draw inputs collectively exciting of order {pe_order} "
        f"in {max_retries} attempts (total samples {n_experiments * length})"
    )
