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

Every data-side quantity is a Gram form of the 2n+m data rows (De Persis &
Tesi, IEEE TAC 2020): the data is factored once, [Xm; Xp; Um]' = QR, and all
of the above works on R, with L(P) = Q C Q' for an r x r core C, r <= 2n+m.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (DEFAULT_RANK_RTOL, as_matrix, certify, gram_factor, minnorm,
                      require_rank, svd_rank)
from .errors import (CertificationError, ExcitationError, InputError, InsufficientDataError,
                     RiccatiDivergenceError)
from .hankel import _excitation, _stack, _Stack, pe_length_bound
from .io import _write_text
from .lti import LqrWeights, LtiSystem, StateTrajectory, _simulate_runs, simulate, spectral_radius

#: The largest spectral radius a stable closed loop certifies: radius 1 refuses.
_STABLE_RADIUS = np.nextafter(1.0, 0.0)


@dataclass(frozen=True, eq=False)
class ExperimentBatch:
    """Stacked state/input data matrices of one or more experiments.

    ``Xm`` and ``Um`` collect the states and inputs at steps 0..T_i-1 of each
    experiment, ``Xp`` the states shifted one step; all three share the
    column count N = sum_i T_i and, as records do, hold finite entries only.
    So [Xm; Xp] is the depth-2 mosaic of the state records x(0..T_i),
    terminal state included, as :func:`assemble_batch` builds it.
    ``boundaries`` records the first column of each experiment within the
    concatenation.
    """

    Xm: np.ndarray
    Xp: np.ndarray
    Um: np.ndarray
    boundaries: tuple[int, ...]

    def __post_init__(self):
        Xm = as_matrix(self.Xm, "Xm")
        object.__setattr__(self, "Xm", Xm)
        object.__setattr__(self, "Xp", as_matrix(self.Xp, "Xp", Xm.shape))
        object.__setattr__(self, "Um", as_matrix(self.Um, "Um", (None, Xm.shape[1])))
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


@dataclass(frozen=True, eq=False)
class LqrSolution:
    """Certified output of :func:`lqr_from_data`.

    ``P`` and ``K`` are the value matrix and feedback gain; the remaining
    fields are the certificates: largest eigenvalue of the data-side
    operator L(P) (must be <= 0 up to tolerance), the relative residual of
    the Riccati equation, the residual of the right-inverse solve that
    produced K, and the closed-loop spectral radius (< 1).  Both data-side
    certificates are computed on the r x r core of L(P); ``lmi_max_eig``
    includes L(P)'s N - r zero eigenvalues, so it is >= 0 when N > r.
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
    pairs = [(np.concatenate([e.x, e.final_state[None]]), e.u)
             if isinstance(e, StateTrajectory) else e for e in experiments]
    X = _stack([x for x, _ in pairs])
    U = _stack([u for _, u in pairs])
    bad = np.flatnonzero(X.lengths != U.lengths + 1)
    if bad.size:
        i = int(bad[0])
        raise InputError(
            f"experiment {i}: states must have one more sample than inputs "
            f"(terminal state included), got {X.lengths[i]} vs {U.lengths[i]}"
        )
    XX = X.mosaic(2)  # [x(0..T-1); x(1..T)] of every experiment
    return ExperimentBatch(Xm=XX[:X.m], Xp=XX[X.m:], Um=U.W,
                           boundaries=tuple((U.ends - U.lengths).tolist()))


def dare_solve(A, B, Q, R, tol: float = 1e-12, max_iter: int = 10_000):
    """Largest symmetric solution of the discrete algebraic Riccati equation.

        P = A'PA - A'PB (R + B'PB)^{-1} B'PA + Q

    solved by the structure-preserving doubling iteration (quadratically
    convergent for stabilizable pairs; ``max_iter`` caps each run), then
    refined by Newton steps until its relative residual is within
    ``max(tol, 1e-12)`` or its own rounding (:func:`_dare`).  Returns (P, K)
    with the stationary gain K = -(R + B'PB)^{-1} B'PA; A + BK is verified stable.
    Q and R are validated as :class:`~ddlti.lti.LqrWeights` once per call;
    :func:`lqr_from_data` runs the same solve on weights validated when they
    were built, and certifies stability on its data gain instead.
    """
    A = as_matrix(A, "A", square=True)
    B = as_matrix(B, "B", (len(A), None))
    P, K, _ = _dare(A, B, LqrWeights(Q=Q, R=R), tol, max_iter)
    certify("spectral radius", spectral_radius(A + B @ K), _STABLE_RADIUS, RiccatiDivergenceError,
            "the computed gain does not stabilize (A, B), which may not be stabilizable")
    return P, K


def _doubling(Ak, G, P, tol: float, max_iter: int):
    """The fixed point H = Ak'H(I + GH)^{-1}Ak + P by doubling: the Riccati
    solution for G = BR^{-1}B' and P = Q, the Stein sum of Ak^k'P Ak^k for
    G = 0.  Refused when I + GH is singular, H overflows, or no step of the
    first ``max_iter`` moves H by at most ``tol`` relative to max(1, ||H||)."""
    eye, norm, stopped = np.eye(len(Ak)), 0.0, False
    for _ in range(max_iter):
        try:  # one LU of I + GP serves both right-hand sides
            V = np.linalg.solve(eye + G @ P, np.hstack([Ak, G]))
        except np.linalg.LinAlgError:
            norm = np.inf
            break
        V1, V2 = V[:, :len(eye)], V[:, len(eye):]
        H = P + Ak.T @ P @ V1
        G = G + Ak @ V2 @ Ak.T
        Ak = Ak @ V1
        H = 0.5 * (H + H.T)
        norm = np.linalg.norm(H)
        stopped = not np.isfinite(norm) or np.linalg.norm(H - P) <= tol * max(1.0, norm)
        P = H
        if stopped:  # overflowed, or converged
            break
    certify("iterate norm", float(norm), np.finfo(float).max, RiccatiDivergenceError,
            "the doubling iteration broke down or overflowed")
    certify("Riccati residual", 0.0 if stopped else np.inf, max(tol, 1e-12), RiccatiDivergenceError,
            f"the Riccati iteration did not converge in its {max_iter}-step budget")
    return P


def _dare(A, B, weights: LqrWeights, tol: float = 1e-12, max_iter: int = 10_000):
    """(P, K, residual) of the Riccati equation for validated weights.

    Doubling gives a first P; Newton-Kleinman steps (Hewer, IEEE TAC 1971)
    refine it.  At P, X = (R + B'PB)^{-1}B'PA, A_K = A - BX, and the step
    E = A_K'PA_K + X'RX + Q - P is F(P) - P for the Riccati map F, in a form
    stationary in X: an error in X enters E only to second order.  P is
    accepted with K = -X once the residual ||E|| / max(1, ||P||) is within
    ``max(tol, 1e-12)`` or its rounding floor; else P += D, the Stein solution
    D = A_K'DA_K + E by doubling with G = 0.  Forming E errs by up to n eps
    sum_i ||term_i|| (Higham, 2nd ed., Sec. 3.5), and P's rounding dP moves E
    by A_K'dPA_K - dP, up to eps (||A_K||^2 + 1) ||P||: the floor is their sum
    over max(1, ||P||).  Refused when a doubling run is, when R + B'PB is
    singular or E not finite, and as soon as the residual stops falling.
    """
    Q, R = _fitted(weights, *B.shape)
    P = _doubling(A.copy(), B @ np.linalg.solve(R, B.T), Q.copy(), tol, max_iter)
    norm, last = np.linalg.norm, np.inf
    while True:
        bound, residual = max(tol, 1e-12), np.inf
        try:
            X = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        except np.linalg.LinAlgError:
            break
        Ak = A - B @ X
        terms = (Ak.T @ P @ Ak, X.T @ R @ X, Q, P)
        E, scale = terms[0] + terms[1] + Q - P, max(1.0, norm(P))
        residual = float(norm(E) / scale)
        if 1e-12 < residual < np.inf:  # the rounding floor
            floor = len(A) * np.finfo(float).eps * (sum(map(norm, terms)) + norm(Ak) ** 2 * norm(P))
            bound = max(bound, floor / scale)
        if not bound < residual < last:  # accepted, stalled, or no longer finite
            break
        P, last = P + _doubling(Ak, np.zeros_like(A), E, tol, max_iter), residual
    certify("Riccati residual", residual, bound, RiccatiDivergenceError, "the Riccati refinement "
            + ("stalled" if residual < np.inf else "broke down or overflowed"))
    return P, -X, residual


def _fitted(weights: LqrWeights, n: int, m: int):
    """(Q, R) of validated weights, checked to be n x n and m x m."""
    return as_matrix(weights.Q, "Q", (n, n)), as_matrix(weights.R, "R", (m, m))


def lmi_operator(P, batch: ExperimentBatch, weights: LqrWeights) -> np.ndarray:
    """The data-side operator L(P) = Xm'PXm - Xp'PXp - Xm'QXm - Um'RUm (N x N)."""
    P = as_matrix(P, "P", (batch.n, batch.n))
    return _lmi(P, *_fitted(weights, batch.n, batch.m), batch.Xm, batch.Xp, batch.Um)[1]


def _lmi(P, Q, R, Xm, Xp, Um):
    """(terms, L): L(P)'s four terms Xm'PXm, Xp'PXp, Xm'QXm and Um'RUm on the
    data columns Xm, Xp and Um, and L(P), their difference symmetrized."""
    terms = (Xm.T @ P @ Xm, Xp.T @ P @ Xp, Xm.T @ Q @ Xm, Um.T @ R @ Um)
    L = terms[0] - terms[1] - terms[2] - terms[3]
    return terms, 0.5 * (L + L.T)


def _factor_ab(batch: ExperimentBatch, rtol: float):
    """(A, B) and the column blocks [Rx, Rp, Ru] = R of [Xm; Xp; Um]' = QR."""
    n = batch.n
    R = gram_factor([np.vstack([batch.Xm, batch.Xp, batch.Um])]).T
    Rx, Rp, Ru = R[:, :n], R[:, n:2 * n], R[:, 2 * n:]
    U, s, Vt, decision = svd_rank(np.hstack([Rx, Ru]), rtol)
    require_rank("[Xm; Um]", decision, n + batch.m, InsufficientDataError,
                 "the experiments do not determine the dynamics")
    AB = (Rp.T @ U / s) @ Vt  # Xp S+, as [Xm; Um] = Vt' diag(s) U' Q'
    return AB[:, :n], AB[:, n:], Rx, Rp, Ru


def identify_ab(batch: ExperimentBatch, rtol: float = DEFAULT_RANK_RTOL):
    """Recover (A, B) exactly from full-row-rank data: Xp = [A B] [Xm; Um]."""
    A, B, *_ = _factor_ab(batch, rtol)
    return A, B


def lqr_from_data(batch: ExperimentBatch, weights: LqrWeights,
                  rtol: float = DEFAULT_RANK_RTOL, tol_cert: float = 1e-6) -> LqrSolution:
    """Optimal stationary feedback from recorded data, with certificates.

    Pipeline: check that [Xm; Um] has full row rank (necessary and
    sufficient on exact data), recover (A, B), solve the Riccati equation
    for the largest P — the unique maximizer of tr P under P >= 0 and
    L(P) <= 0 — certify L(P) <= 0 directly on the data, build the gain
    K = Um X' from a right inverse X' of Xm constrained by L(P) X' = 0, and
    certify that K stabilizes the recovered pair.

    ``weights`` are validated when the :class:`~ddlti.lti.LqrWeights` is
    built, not again here; any other object with ``Q`` and ``R`` is passed
    through ``LqrWeights`` once.  P is :func:`dare_solve`'s at its defaults,
    and ``riccati_residual`` the relative Riccati step that accepted it.

    Raises
    ------
    InsufficientDataError
        If the data matrices are row-rank deficient.
    CertificationError
        If L(P) <= 0 or the right-inverse residual fails at ``tol_cert``,
        A + BK is not stable, or (as ``RiccatiDivergenceError``) the
        Riccati loop does not converge.
    """
    A, B, Rx, Rp, Ru = _factor_ab(batch, rtol)
    if not isinstance(weights, LqrWeights):
        weights = LqrWeights(Q=weights.Q, R=weights.R)
    P, _, riccati_residual = _dare(A, B, weights)

    # Q's columns are orthonormal: C has L(P)'s term norms and nonzero spectrum.
    # A core that overflows has no spectrum: its NaN eigenvalue refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        terms, C = _lmi(P, weights.Q, weights.R, Rx.T, Rp.T, Ru.T)
        scale = max(*(np.linalg.norm(T) for T in terms), 1.0)
    finite = np.isfinite(C).all()
    lmi_max_eig = float(np.linalg.eigvalsh(C)[-1]) if finite else np.nan
    if batch.n_columns > C.shape[0]:
        lmi_max_eig = max(lmi_max_eig, 0.0)
    certify("max eigenvalue", lmi_max_eig, tol_cert * scale, CertificationError,
            "the data-side operator L(P) is not negative semidefinite"
            + ("" if finite else " (its core is not finite)"))

    # Right inverse X = QY of Xm annihilating L(P): [Rx'; C] Y = [I; 0] has the min-norm
    # solution and residual of [Xm; L(P)] X = [I; 0], at that (n+N)-row matrix's cutoff.
    n = batch.n
    S = np.vstack([Rx.T, C])
    rhs = np.vstack([np.eye(n), np.zeros((C.shape[0], n))])
    Y, ri_residual = minnorm(S, rhs, n + batch.n_columns)
    certify("relative residual", ri_residual, tol_cert, CertificationError,
            "no right inverse of Xm annihilates L(P)")
    K = Ru.T @ Y

    radius = certify("spectral radius", spectral_radius(A + B @ K), _STABLE_RADIUS,
                     CertificationError, "the closed loop is not stable")
    return LqrSolution(
        P=P, K=K,
        lmi_max_eig=lmi_max_eig,
        riccati_residual=riccati_residual,
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
    Q, R = _fitted(weights, n, batch.m)
    Xm, Xp, Um = batch.Xm, batch.Xp, batch.Um

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    lines = [
        '"maximize tr(P) s.t. P >= 0 and Xp\'PXp + Xm\'QXm + Um\'RUm - Xm\'PXm >= 0"',
        f"{len(pairs)} = mDIM",
        "2 = nBLOCK",
        f"{n} {N} = bLOCKsTRUCT",
        " ".join("-1" if i == j else "0" for i, j in pairs),
    ]

    def emit(mat_no: int, M: np.ndarray):
        """The upper-triangle nonzeros of matrix ``mat_no``'s block 2, M."""
        rows, cols = np.nonzero(np.triu(M))
        lines.extend(f"{mat_no} 2 {r} {c} {v!r}" for r, c, v in
                     zip((rows + 1).tolist(), (cols + 1).tolist(), M[rows, cols].tolist()))

    # F0: nothing in block 1; block 2 constant part is -(Xm'QXm + Um'RUm).
    C0 = Xm.T @ Q @ Xm + Um.T @ R @ Um
    emit(0, -0.5 * (C0 + C0.T))

    for k, (i, j) in enumerate(pairs, start=1):
        E = np.zeros((n, n))
        E[i, j] = 1.0
        E[j, i] = 1.0
        lines.append(f"{k} 1 {i + 1} {j + 1} 1.0")
        Fk = Xp.T @ E @ Xp - Xm.T @ E @ Xm
        emit(k, 0.5 * (Fk + Fk.T))

    text = "\n".join(lines) + "\n"
    if destination is not None:
        _write_text(destination, text)
    return text


@dataclass(frozen=True, eq=False)
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

    Draws all inputs uniform on [input_low, input_high], re-drawn until
    collectively persistently exciting of ``pe_order`` (bounded retries), then
    one initial state per experiment from a scaled standard normal; one state
    recursion runs them all into a list of :class:`~ddlti.lti.StateTrajectory`.
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
    ends = length * np.arange(1, n_experiments + 1)
    for _ in range(max_retries):
        inputs = rng.uniform(input_low, input_high, size=(n_experiments, length, sys.m))
        runs = _Stack(inputs.transpose(2, 0, 1).reshape(sys.m, -1), ends, sys.m)
        if not _excitation(runs, pe_order, DEFAULT_RANK_RTOL).exciting:
            continue
        x, y = _simulate_runs(sys, x0_scale * rng.standard_normal((n_experiments, sys.n)),
                              inputs.transpose(1, 0, 2))
        return [StateTrajectory(u=u, x=x[:-1, i], y=y[:, i], final_state=x[-1, i])
                for i, u in enumerate(inputs)]
    raise ExcitationError(
        f"could not draw inputs collectively exciting of order {pe_order} "
        f"in {max_retries} attempts (total samples {n_experiments * length})"
    )
