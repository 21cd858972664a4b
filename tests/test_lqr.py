import io
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import random_system, unstabilized_runs

PRINTED_P = np.array([
    [3.604, 0.049, 1.762, -1.306],
    [0.049, 1.170, 0.072, 0.142],
    [1.762, 0.072, 2.202, -0.845],
    [-1.306, 0.142, -0.845, 1.823],
])


def reactor_batch(seed=0, q=5, T=6, pe_order=5):
    rng = np.random.default_rng(seed)
    sys = dd.batch_reactor()
    exps = dd.generate_experiments(sys, q, T, pe_order=pe_order, rng=rng)
    return dd.assemble_batch(exps)


def eye_weights(n=4, m=2):
    return dd.LqrWeights(Q=np.eye(n), R=np.eye(m))


# --- batch assembly -------------------------------------------------------

def test_assemble_single_experiment():
    rng = np.random.default_rng(1)
    sys = random_system(rng, 3, 2, 1)
    traj = dd.simulate(sys, rng.standard_normal(3), rng.standard_normal((20, 2)))
    batch = dd.assemble_batch([traj])
    assert batch.Xm.shape == (3, 20)
    assert batch.Um.shape == (2, 20)
    assert_allclose(batch.Xm[:, 0], traj.x[0])
    assert_allclose(batch.Xp[:, -1], traj.final_state)
    # dynamics consistency column by column
    assert_allclose(batch.Xp, sys.A @ batch.Xm + sys.B @ batch.Um, atol=1e-12)


def test_assemble_five_short_experiments():
    batch = reactor_batch()
    assert batch.n_columns == 30
    assert batch.boundaries == (0, 6, 12, 18, 24)


def test_assemble_rejects_bad_input():
    with pytest.raises(dd.InputError):
        dd.assemble_batch([])
    with pytest.raises(dd.InputError):
        dd.assemble_batch([(np.ones((5, 2)), np.ones((5, 1)))])  # no terminal state


def test_assemble_reads_nested_lists_one_row_per_step():
    x = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    u = [[1.0], [2.0]]
    batch = dd.assemble_batch([(x, u)])
    assert_allclose(batch.Xm, np.array(x[:2]).T)
    assert_allclose(batch.Xp, np.array(x[1:]).T)
    assert_allclose(batch.Um, np.array(u).T)


# --- Riccati solver -------------------------------------------------------

def test_dare_zero_dynamics():
    P, K = dd.dare_solve(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    assert_allclose(P, np.eye(2), atol=1e-12)
    assert_allclose(K, 0.0, atol=1e-12)


def test_dare_scalar_golden_ratio():
    P, K = dd.dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert_allclose(P[0, 0], (1 + np.sqrt(5.0)) / 2, atol=1e-10)
    assert_allclose(K[0, 0], -P[0, 0] / (1 + P[0, 0]), atol=1e-10)


def test_dare_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        sys = random_system(rng, n, m, 1, minimal=False, radius=1.2)
        Q = np.eye(n)
        R = np.eye(m)
        P, K = dd.dare_solve(sys.A, sys.B, Q, R)
        P_ref = scipy_linalg.solve_discrete_are(sys.A, sys.B, Q, R)
        assert_allclose(P, P_ref, rtol=1e-8, atol=1e-8)
        assert dd.spectral_radius(sys.A + sys.B @ K) < 1.0


#: A tiny input weight: doubling converges in four steps but stalls at a
#: Riccati residual of about 9e-11, above the 1e-12 tolerance.
TINY_R_PAIR = (np.array([[0.7, 1.6], [0.7, -2.6]]), np.array([[0.9], [0.4]]),
               np.eye(2), 1e-6 * np.eye(1))


def riccati_residual(A, B, Q, R, P):
    """Relative Riccati residual at P, in the solver's expression order."""
    X = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    res = A.T @ P @ A - P - A.T @ P @ B @ X + Q
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(P)))


def test_dare_fixed_point_fallback_matches_scipy():
    # Steps of the Riccati map refine doubling's result under the tolerance.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    A, B, Q, R = TINY_R_PAIR
    P, K = dd.dare_solve(A, B, Q, R)
    P_ref = scipy_linalg.solve_discrete_are(A, B, Q, R)
    assert_allclose(P, P_ref, rtol=1e-8, atol=1e-8)
    assert dd.spectral_radius(A + B @ K) < 1.0
    assert riccati_residual(A, B, Q, R, P) <= 1e-12


def test_dare_refines_from_the_doubling_result(linalg_calls):
    # R^-1 B' takes one 1 x 1 solve and each step of the Riccati loop one:
    # a few steps refine doubling's P, where a run from Q takes 18.
    dd.dare_solve(*TINY_R_PAIR)
    assert sum(a == (1, 1) for name, a, _ in linalg_calls if name == "solve") <= 6


def test_dare_reactor_residual(reactor):
    P, K = dd.dare_solve(reactor.A, reactor.B, np.eye(4), np.eye(2))
    S = np.eye(2) + reactor.B.T @ P @ reactor.B
    res = reactor.A.T @ P @ reactor.A - P + np.eye(4) \
        - reactor.A.T @ P @ reactor.B @ np.linalg.solve(S, reactor.B.T @ P @ reactor.A)
    assert np.linalg.norm(res) <= 1e-10
    assert np.max(np.abs(P - PRINTED_P)) <= 5e-3


def test_dare_rejects_semidefinite_r():
    with pytest.raises(dd.InputError):
        dd.dare_solve([[1.0]], [[1.0]], [[1.0]], [[0.0]])


def test_dare_unstabilizable_diverges():
    with pytest.raises(dd.RiccatiDivergenceError):
        with np.errstate(over="ignore", invalid="ignore"):
            dd.dare_solve([[2.0]], [[0.0]], [[1.0]], [[1.0]], max_iter=200)


def test_a_failed_doubling_is_refused_by_its_cause():
    # Doubling's k-th iterate is step 2^k of the Riccati map from 0, so no
    # restart of the map converges where doubling did not.  An overflowing
    # doubling and one that uses up its budget are refused, each by its cause.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dd.RiccatiDivergenceError, match=r"^the doubling iteration broke down "
                                                            r"or overflowed: iterate norm inf "):
            dd.dare_solve([[2.0]], [[0.0]], [[1.0]], [[1.0]])
    # P = 1 / (1 - 0.999^2), summed 2^k terms at a time: 3 steps give 8 terms.
    with pytest.raises(dd.RiccatiDivergenceError, match=r"^the Riccati iteration did not converge "
                                                        r"in its 3-step budget: Riccati residual"):
        dd.dare_solve([[0.999]], [[0.0]], [[1.0]], [[1.0]], max_iter=3)


@pytest.mark.parametrize("shape, nth, message", [
    ((2, 2), 1, r"^the doubling iteration broke down or overflowed: iterate norm inf exceeds "),
    ((1, 1), 2, r"^the Riccati refinement broke down or overflowed: Riccati residual inf "
                r"exceeds 1\.000e-12$"),
    ((1, 1), 3, r"^the Riccati refinement broke down or overflowed: Riccati residual inf "
                r"exceeds 1\.000e-12$")],
    ids=["doubling", "first-refinement", "second-refinement"])
def test_a_failed_solve_is_refused_as_a_breakdown(monkeypatch, shape, nth, message):
    # The nth solve of a shape fails: I + GP (2 x 2) in a doubling step, or
    # R + B'PB (1 x 1) in a refinement step, whose first 1 x 1 solve is R^-1 B'.
    # Either is a breakdown, not an exhausted budget, and a refinement that
    # breaks down after a step reports no earlier residual.
    real, seen = np.linalg.solve, []

    def solve(a, b):
        seen.append(np.shape(a))
        if seen.count(shape) == nth:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(dd.RiccatiDivergenceError, match=message):
        dd.dare_solve(*TINY_R_PAIR)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dare_and_lmi_reject_non_finite_matrices(bad):
    with pytest.raises(dd.InputError, match="A contains non-finite entries"):
        dd.dare_solve([[bad]], [[1.0]], [[1.0]], [[1.0]])
    batch = reactor_batch()
    P = np.eye(4)
    P[2, 1] = bad
    with pytest.raises(dd.InputError, match="P contains non-finite entries"):
        dd.lmi_operator(P, batch, eye_weights())


# --- LMI operator ---------------------------------------------------------

def test_lmi_operator_zero():
    batch = reactor_batch()
    Z = dd.lmi_operator(np.zeros((4, 4)), batch,
                        dd.LqrWeights(Q=np.zeros((4, 4)), R=np.eye(2) * 1e-12))
    assert_allclose(Z, -1e-12 * batch.Um.T @ batch.Um, atol=1e-15)


def test_lmi_negative_semidefinite_at_riccati_solution(reactor):
    batch = reactor_batch(seed=3)
    W = eye_weights()
    P, _ = dd.dare_solve(reactor.A, reactor.B, W.Q, W.R)
    L = dd.lmi_operator(P, batch, W)
    scale = np.linalg.norm(batch.Xm.T @ P @ batch.Xm)
    assert np.linalg.eigvalsh(L)[-1] <= 1e-8 * scale


def test_lmi_matches_direct_eigensolve():
    batch = reactor_batch(seed=4)
    W = eye_weights()
    rng = np.random.default_rng(5)
    S = rng.standard_normal((4, 4))
    P = S @ S.T  # arbitrary PSD, not the Riccati solution
    L = dd.lmi_operator(P, batch, W)
    direct = (batch.Xm.T @ P @ batch.Xm - batch.Xp.T @ P @ batch.Xp
              - batch.Xm.T @ batch.Xm - batch.Um.T @ batch.Um)
    assert_allclose(np.linalg.eigvalsh(L),
                    np.linalg.eigvalsh(0.5 * (direct + direct.T)), atol=1e-9)


# --- exact recovery of (A, B) ---------------------------------------------

def test_identify_ab_reactor(reactor):
    batch = reactor_batch(seed=6)
    A, B = dd.identify_ab(batch)
    assert_allclose(A, reactor.A, atol=1e-9)
    assert_allclose(B, reactor.B, atol=1e-9)


def test_identify_ab_integrator():
    n = 3
    rng = np.random.default_rng(7)
    sys = dd.LtiSystem(A=np.eye(n), B=np.eye(n), C=np.eye(n), D=np.zeros((n, n)))
    traj = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((12, n)))
    A, B = dd.identify_ab(dd.assemble_batch([traj]))
    assert_allclose(A, np.eye(n), atol=1e-10)
    assert_allclose(B, np.eye(n), atol=1e-10)


def test_identify_ab_rank_deficient():
    # zero input from the origin: all data columns are zero
    batch = dd.ExperimentBatch(Xm=np.zeros((2, 8)), Xp=np.zeros((2, 8)),
                               Um=np.zeros((1, 8)), boundaries=(0,))
    with pytest.raises(dd.InsufficientDataError):
        dd.identify_ab(batch)


# --- the full data-driven LQR ---------------------------------------------

def test_lqr_scalar_closed_form():
    rng = np.random.default_rng(8)
    sys = dd.LtiSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    traj = dd.simulate(sys, [1.0], rng.standard_normal((8, 1)))
    sol = dd.lqr_from_data(dd.assemble_batch([traj]),
                           dd.LqrWeights(Q=[[1.0]], R=[[1.0]]))
    phi = (1 + np.sqrt(5.0)) / 2
    assert_allclose(sol.P[0, 0], phi, atol=1e-9)
    assert_allclose(sol.K[0, 0], -phi / (1 + phi), atol=1e-9)


def test_lqr_gain_consistency(reactor):
    batch = reactor_batch(seed=9)
    sol = dd.lqr_from_data(batch, eye_weights())
    A, B = dd.identify_ab(batch)
    K_model = -np.linalg.solve(np.eye(2) + B.T @ sol.P @ B, B.T @ sol.P @ A)
    assert_allclose(sol.K, K_model, atol=1e-8)
    assert sol.closed_loop_radius < 1.0
    assert sol.lmi_max_eig <= 1e-6 * np.linalg.norm(batch.Xm.T @ sol.P @ batch.Xm)
    assert sol.riccati_residual <= 1e-10
    assert sol.right_inverse_residual <= 1e-8


def test_lqr_data_source_invariance(reactor):
    rng = np.random.default_rng(10)
    # several short experiments vs: one long one (same total information)
    short = dd.generate_experiments(reactor, 5, 6, pe_order=5, rng=rng)
    sol_multi = dd.lqr_from_data(dd.assemble_batch(short), eye_weights())
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, size=(8, 2))
        x0 = 1e-3 * rng.standard_normal(4)
        if dd.is_persistently_exciting(u, 5):
            break
    long_traj = dd.simulate(reactor, x0, u)
    sol_single = dd.lqr_from_data(dd.assemble_batch([long_traj]), eye_weights())
    assert_allclose(sol_multi.K, sol_single.K, atol=1e-8)
    assert_allclose(sol_multi.P, sol_single.P, atol=1e-8)


def test_lqr_weight_scaling_invariance(reactor):
    batch = reactor_batch(seed=11)
    sol1 = dd.lqr_from_data(batch, eye_weights())
    alpha = 3.7
    sol2 = dd.lqr_from_data(batch, dd.LqrWeights(Q=alpha * np.eye(4),
                                                 R=alpha * np.eye(2)))
    assert_allclose(sol2.P, alpha * sol1.P, rtol=1e-8)
    assert_allclose(sol2.K, sol1.K, atol=1e-8)


def test_lqr_insufficient_data():
    batch = dd.ExperimentBatch(Xm=np.zeros((2, 10)), Xp=np.zeros((2, 10)),
                               Um=np.zeros((1, 10)), boundaries=(0,))
    with pytest.raises(dd.InsufficientDataError):
        dd.lqr_from_data(batch, dd.LqrWeights(Q=np.eye(2), R=np.eye(1)))


def test_lqr_certifies_stability_once_on_the_data_gain():
    # The Riccati solution exists and L(P) <= 0 holds, but the mode at 2 stays
    # unstable: the closed-loop certificate of the data gain refuses it.
    sys, runs, W = unstabilized_runs()
    with pytest.raises(dd.CertificationError, match="spectral radius 2.000e") as err:
        dd.lqr_from_data(dd.assemble_batch(runs), W)
    assert not isinstance(err.value, dd.RiccatiDivergenceError)
    assert err.value.value == pytest.approx(2.0)
    with pytest.raises(dd.RiccatiDivergenceError, match="does not stabilize"):
        dd.dare_solve(sys.A, sys.B, W.Q, W.R)


def test_batch_rejects_non_finite_entries():
    batch = reactor_batch()
    for name in ("Xm", "Xp", "Um"):
        for bad in (np.nan, np.inf, -np.inf):
            blocks = {k: getattr(batch, k).copy() for k in ("Xm", "Xp", "Um")}
            blocks[name][-1, 3] = bad
            with pytest.raises(dd.InputError, match=f"{name} contains non-finite entries"):
                dd.ExperimentBatch(**blocks, boundaries=batch.boundaries)


def test_lqr_certification_failure_on_corrupted_data(reactor):
    batch = reactor_batch(seed=12)
    Xp = batch.Xp.copy()
    Xp[0, 5] += 1.0  # not explainable by any exact LTI model
    bad = dd.ExperimentBatch(Xm=batch.Xm, Xp=Xp, Um=batch.Um,
                             boundaries=batch.boundaries)
    with pytest.raises(dd.CertificationError):
        dd.lqr_from_data(bad, eye_weights())


def pooled_batch(seed, q):
    """q reactor experiments of 10 steps, N = 10 q, as the benchmark pools them."""
    exps = dd.generate_experiments(dd.batch_reactor(), q, 10, pe_order=5,
                                   rng=np.random.default_rng(seed))
    return dd.assemble_batch(exps)


def dare_gain(sys, W):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    P = scipy_linalg.solve_discrete_are(sys.A, sys.B, W.Q, W.R)
    return -np.linalg.solve(W.R + sys.B.T @ P @ sys.B, sys.B.T @ P @ sys.A)


# Exact N=800 batches that the N x N certificate refused with "no right
# inverse" (residuals 1.4e-6 to 2.7e-6) at one and at two BLAS threads.
@pytest.mark.parametrize("seed", [3, 60, 64, 78])
def test_lqr_certifies_exact_pooled_batches(reactor, seed):
    batch = pooled_batch(seed, 80)
    W = eye_weights()
    sol = dd.lqr_from_data(batch, W)
    # A right inverse with relative residual tol_cert moves K by at most
    # tol_cert sqrt(n) ||Um||_2 / sigma_min(Xm), to first order.
    smin = np.linalg.svd(batch.Xm, compute_uv=False)[-1]
    bound = 1e-6 * np.sqrt(batch.n) * np.linalg.norm(batch.Um, 2) / smin
    assert np.abs(sol.K - dare_gain(reactor, W)).max() <= bound
    assert sol.right_inverse_residual <= 1e-6


def test_lqr_refuses_corrupted_pooled_batch():
    batch = pooled_batch(3, 80)
    Xp = batch.Xp.copy()
    Xp[2, 417] += 1e-3 * np.linalg.norm(Xp[:, 417])
    bad = dd.ExperimentBatch(Xm=batch.Xm, Xp=Xp, Um=batch.Um,
                             boundaries=batch.boundaries)
    with pytest.raises(dd.CertificationError):
        dd.lqr_from_data(bad, eye_weights())


# --- one Riccati core under dare_solve and lqr_from_data -------------------

def test_lqr_from_data_validates_weights_once(monkeypatch):
    batch = reactor_batch(seed=26)
    W = eye_weights()
    checks = []
    real = dd.LqrWeights.__post_init__
    monkeypatch.setattr(dd.LqrWeights, "__post_init__",
                        lambda self: checks.append(1) or real(self))
    sol = dd.lqr_from_data(batch, W)
    assert checks == []
    # Any other object with Q and R goes through LqrWeights once, with its
    # checks and messages.
    same = dd.lqr_from_data(batch, SimpleNamespace(Q=np.eye(4).tolist(), R=np.eye(2)))
    assert checks == [1]
    assert np.array_equal(same.P, sol.P) and np.array_equal(same.K, sol.K)
    Q = np.eye(4)
    Q[0, 1] = 0.5
    with pytest.raises(dd.InputError, match="Q must be symmetric"):
        dd.lqr_from_data(batch, SimpleNamespace(Q=Q, R=np.eye(2)))
    assert checks == [1, 1]


def stabilizable_batches():
    """Pooled reactor batches, then single runs of random open-loop-unstable
    systems with random SPD weights."""
    for seed in (1, 3, 60):
        yield pooled_batch(seed, 80), eye_weights()
    rng = np.random.default_rng(27)
    for _ in range(6):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        sys = random_system(rng, n, m, 1, minimal=False, radius=1.2)
        traj = dd.simulate(sys, rng.standard_normal(n),
                           rng.standard_normal((3 * (n + m), m)))
        S = rng.standard_normal((m, m))
        yield dd.assemble_batch([traj]), dd.LqrWeights(Q=np.eye(n),
                                                       R=S @ S.T + np.eye(m))


def test_lqr_from_data_is_dare_solve_on_the_identified_pair():
    for batch, W in stabilizable_batches():
        sol = dd.lqr_from_data(batch, W)
        A, B = dd.identify_ab(batch)
        assert np.array_equal(sol.P, dd.dare_solve(A, B, W.Q, W.R)[0])
        assert sol.riccati_residual == riccati_residual(A, B, W.Q, W.R, sol.P)


def test_lqr_from_data_fixed_point_fallback(linalg_calls):
    # The tiny-R pair, identified from one run: its doubling also stalls
    # above the residual tolerance.
    A, B, Q, R = TINY_R_PAIR
    sys = dd.LtiSystem(A=A, B=B, C=np.eye(2), D=np.zeros((2, 1)))
    rng = np.random.default_rng(28)
    batch = dd.assemble_batch([dd.simulate(sys, rng.standard_normal(2),
                                           rng.standard_normal((6, 1)))])
    W = dd.LqrWeights(Q=Q, R=R)
    linalg_calls.clear()
    sol = dd.lqr_from_data(batch, W)
    # R^-1 B' takes one 1 x 1 solve and each step of the Riccati loop one:
    # doubling's P misses the tolerance, refining steps follow, and the
    # step that accepts P gives the gain.
    assert 4 < sum(a == (1, 1) for name, a, _ in linalg_calls if name == "solve") <= 6
    A_hat, B_hat = dd.identify_ab(batch)
    assert np.array_equal(sol.P, dd.dare_solve(A_hat, B_hat, W.Q, W.R)[0])
    assert sol.riccati_residual <= 1e-12
    scipy_linalg = pytest.importorskip("scipy.linalg")
    assert_allclose(sol.P, scipy_linalg.solve_discrete_are(A, B, W.Q, W.R),
                    rtol=1e-8, atol=1e-8)


def test_lqr_from_data_work_count(linalg_calls):
    # Each doubling step solves I + GH once for [A | G]; around it come
    # R^-1 B' and one step of the Riccati loop, which accepts doubling's P
    # and whose solve gives the gain.  The only symmetric eigensolve is the
    # LMI check on the r x r core, and the only general one the stability
    # check of the data gain.
    batch, W = pooled_batch(1, 80), eye_weights()
    n, m = batch.n, batch.m
    linalg_calls.clear()
    dd.lqr_from_data(batch, W)
    solves = [(a, rhs) for name, a, rhs in linalg_calls if name == "solve"]
    steps = [rhs for a, rhs in solves if a == (n, n)]
    assert steps and all(rhs == (n, 2 * n) for rhs in steps)
    assert [a for a, _ in solves if a != (n, n)] == [(m, m)] * 2
    r = 2 * n + m
    assert [call for call in linalg_calls if call[0] == "eigvalsh"] == \
        [("eigvalsh", (r, r), None)]
    assert [call for call in linalg_calls if call[0] == "eigvals"] == \
        [("eigvals", (n, n), None)]


# --- the factor route computes the N x N operator's certificates ----------

EPS = np.finfo(float).eps


def lmi_error_bound(batch, W, P):
    """Bound on how far the factor route's terms of L(P) and the N x N
    route's can lie apart, in Frobenius norm.

    G sums ||X||_F^2 ||M||_F over the four terms X'MX of L(P), a bound on
    each term's norm.  Forming a term by two products of inner dimension
    d <= max(n, m) errs by at most 2 d eps ||X||_F^2 ||M||_F, and the three
    subtractions and the symmetrization by 4 eps G more; each route forms
    its operator once.  Householder QR is backward stable: R is the exact
    factor of the data moved column-wise by c N k eps, k = 2n+m (Higham,
    Accuracy and Stability, Thm 19.4), which moves each term by twice that
    relative amount.  c = 4 stands for the small constants of the LAPACK
    bounds here and below.
    """
    n, m, N = batch.n, batch.m, batch.n_columns
    c = 4
    fro = np.linalg.norm
    G = (fro(batch.Xm) ** 2 * fro(P) + fro(batch.Xp) ** 2 * fro(P)
         + fro(batch.Xm) ** 2 * fro(W.Q) + fro(batch.Um) ** 2 * fro(W.R))
    return EPS * G * (2 * c * N * (2 * n + m) + 2 * (2 * max(n, m) + 4)), G


def nxn_route(batch, W, P):
    """lambda_max of L(P), its scale and the right-inverse residual, all
    computed on the N x N operator, with the right inverse's [Xm; L] and X."""
    Xm, Xp, Um = batch.Xm, batch.Xp, batch.Um
    L = dd.lmi_operator(P, batch, W)
    scale = max(np.linalg.norm(Xm.T @ P @ Xm), np.linalg.norm(Xp.T @ P @ Xp),
                np.linalg.norm(Xm.T @ W.Q @ Xm), np.linalg.norm(Um.T @ W.R @ Um),
                1.0)
    S = np.vstack([Xm, L])
    rhs = np.vstack([np.eye(batch.n), np.zeros((batch.n_columns, batch.n))])
    X = np.linalg.lstsq(S, rhs, rcond=None)[0]
    ri = np.linalg.norm(S @ X - rhs) / np.sqrt(batch.n)
    return float(np.linalg.eigvalsh(L)[-1]), scale, ri, S, X


def single_run_batch(seed, T=7):
    """One T-step reactor run: N = 7 lies in [n+m, 2n+m), so R is N x (2n+m)."""
    rng = np.random.default_rng(seed)
    traj = dd.simulate(dd.batch_reactor(), rng.standard_normal(4),
                       rng.uniform(0.0, 1.0, size=(T, 2)))
    return dd.assemble_batch([traj])


@pytest.mark.parametrize("make", [lambda: reactor_batch(seed=21),
                                  lambda: reactor_batch(seed=22, q=3, T=8),
                                  lambda: single_run_batch(23)],
                         ids=["N30", "N24", "N7"])
def test_lqr_certificates_match_nxn_operator(make):
    batch = make()
    W = eye_weights()
    sol = dd.lqr_from_data(batch, W)
    A, B = dd.identify_ab(batch)
    P, _ = dd.dare_solve(A, B, W.Q, W.R)
    assert np.array_equal(P, sol.P)
    lam, _, ri, S, X = nxn_route(batch, W, P)
    N, n = batch.n_columns, batch.n
    r = min(N, 2 * n + batch.m)
    dL, G = lmi_error_bound(batch, W, P)
    # Weyl: each route's lambda_max is within its forming error and its
    # eigensolver's backward error (c dim eps ||L||_2 <= c dim eps G) of the
    # exact one, and max(., 0) over the N - r added zeros is 1-Lipschitz.
    assert abs(sol.lmi_max_eig - lam) <= dL + 4 * (N + r) * EPS * G
    # The least-squares residual moves by at most ||E|| ||X|| when the matrix
    # moves by E.  E gathers L's forming error, QR's move of Xm, and both
    # solvers' backward errors (c (n+N) eps ||S||_F); evaluating a residual
    # adds (N+1) eps ||S||_F ||X||_F on each route.  Both solutions have the
    # norm of X to first order, taken twice for the larger of the two.
    nS, nX = np.linalg.norm(S), np.linalg.norm(X)
    E = dL + 4 * N * (2 * n + batch.m) * EPS * np.linalg.norm(batch.Xm) \
        + 2 * 4 * (n + N) * EPS * nS
    bound = (2 * E * nX + 2 * (N + 1) * EPS * nS * nX) / np.sqrt(n)
    assert abs(sol.right_inverse_residual - ri) <= bound
    assert sol.right_inverse_residual <= 1e-8


def test_lmi_refusal_reports_nxn_eigenvalue_and_scale():
    # Two swapped successor states: the data fit no LTI model, and L(P) has
    # a clearly positive eigenvalue.
    batch = reactor_batch(seed=24)
    Xp = batch.Xp.copy()
    Xp[:, [3, 7]] = Xp[:, [7, 3]]
    bad = dd.ExperimentBatch(Xm=batch.Xm, Xp=Xp, Um=batch.Um,
                             boundaries=batch.boundaries)
    W = eye_weights()
    with pytest.raises(dd.CertificationError, match="not negative semidefinite") as err:
        dd.lqr_from_data(bad, W)
    # The refusal carries the eigenvalue and its bound tol_cert x scale.
    lam_err, scale_err = err.value.value, err.value.bound / 1e-6
    A, B = dd.identify_ab(bad)
    P, _ = dd.dare_solve(A, B, W.Q, W.R)
    lam, scale, *_ = nxn_route(bad, W, P)
    dL, G = lmi_error_bound(bad, W, P)
    N = bad.n_columns
    assert abs(lam_err - lam) <= dL + 4 * (N + 10) * EPS * G
    assert abs(scale_err - scale) <= 4 * EPS * scale + dL


def test_lqr_never_forms_an_nxn_array():
    batch = pooled_batch(0, 160)
    N = batch.n_columns
    tracemalloc.start()
    try:
        dd.lqr_from_data(batch, eye_weights())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N


def test_lqr_static_plant():
    # n = 0: nothing to regulate; the gain is an m x 0 matrix.
    rng = np.random.default_rng(25)
    batch = dd.ExperimentBatch(Xm=np.zeros((0, 6)), Xp=np.zeros((0, 6)),
                               Um=rng.standard_normal((1, 6)), boundaries=(0,))
    sol = dd.lqr_from_data(batch, dd.LqrWeights(Q=np.zeros((0, 0)), R=np.eye(1)))
    assert sol.K.shape == (1, 0)
    assert sol.P.shape == (0, 0)


def test_weights_validation():
    with pytest.raises(dd.InputError):
        dd.LqrWeights(Q=np.eye(2), R=-np.eye(2))
    with pytest.raises(dd.InputError):
        dd.LqrWeights(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=np.eye(2))
    with pytest.raises(dd.InputError):
        dd.LqrWeights(Q=-np.eye(2), R=np.eye(2))


def test_weights_reject_non_finite_entries():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(dd.InputError, match="Q contains non-finite entries"):
            dd.LqrWeights(Q=[[bad]], R=[[1.0]])
        with pytest.raises(dd.InputError, match="R contains non-finite entries"):
            dd.LqrWeights(Q=[[1.0]], R=[[1.0, 0.0], [0.0, bad]])


# --- SDPA export ----------------------------------------------------------

def parse_sdpa(text):
    """Minimal reader for the sparse .dat-s format written by export_sdp."""
    lines = [l for l in text.splitlines()
             if l.strip() and not l.lstrip().startswith(('"', '*'))]
    nvar = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    sizes = [int(v) for v in lines[2].split()[:nblocks]]
    c = np.array([float(v) for v in lines[3].split()[:nvar]])
    mats = {(k, b): np.zeros((abs(s), abs(s)))
            for k in range(nvar + 1) for b, s in enumerate(sizes, start=1)}
    for entry in lines[4:]:
        k, b, i, j, v = entry.split()
        k, b, i, j, v = int(k), int(b), int(i) - 1, int(j) - 1, float(v)
        mats[(k, b)][i, j] = v
        mats[(k, b)][j, i] = v
    return nvar, sizes, c, mats


def test_export_sdp_coefficients_reconstruct_lmi():
    rng = np.random.default_rng(13)
    batch = reactor_batch(seed=13, q=3, T=6, pe_order=3)
    W = eye_weights()
    text = dd.export_sdp(batch, W)
    nvar, sizes, c, mats = parse_sdpa(text)
    n, N = batch.n, batch.n_columns
    assert nvar == n * (n + 1) // 2
    assert sizes == [n, N]
    # objective selects the trace (SDPA minimizes, so diagonal vars get -1)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert_allclose(c, [-1.0 if i == j else 0.0 for i, j in pairs])

    # with x = upper triangle of a random symmetric P, the blocks must
    # evaluate to P and -L(P)
    S = rng.standard_normal((n, n))
    P = S + S.T
    x = np.array([P[i, j] for i, j in pairs])
    block1 = sum(x[k] * mats[(k + 1, 1)] for k in range(nvar)) - mats[(0, 1)]
    block2 = sum(x[k] * mats[(k + 1, 2)] for k in range(nvar)) - mats[(0, 2)]
    assert_allclose(block1, P, atol=1e-12)
    assert_allclose(block2, -dd.lmi_operator(P, batch, W), atol=1e-9)


def reference_sdpa(batch, W):
    """The SDPA text written entry by entry: a header list, then an entry list
    filled one upper-triangle nonzero at a time, each value a numpy scalar."""
    n, N = batch.n, batch.n_columns
    Xm, Xp, Um = batch.Xm, batch.Xp, batch.Um
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    lines = ['"maximize tr(P) s.t. P >= 0 and Xp\'PXp + Xm\'QXm + Um\'RUm - Xm\'PXm >= 0"',
             f"{len(pairs)} = mDIM", "2 = nBLOCK", f"{n} {N} = bLOCKsTRUCT",
             " ".join("-1" if i == j else "0" for i, j in pairs)]
    entries = []

    def emit(mat_no, block, M):
        rows, cols = np.nonzero(np.triu(M))
        for r, cc in zip(rows, cols):
            entries.append(f"{mat_no} {block} {r + 1} {cc + 1} {float(M[r, cc])!r}")

    C0 = Xm.T @ W.Q @ Xm + Um.T @ W.R @ Um
    emit(0, 2, -0.5 * (C0 + C0.T))
    for k, (i, j) in enumerate(pairs, start=1):
        E = np.zeros((n, n))
        E[i, j] = 1.0
        E[j, i] = 1.0
        entries.append(f"{k} 1 {i + 1} {j + 1} 1.0")
        Fk = Xp.T @ E @ Xp - Xm.T @ E @ Xm
        emit(k, 2, 0.5 * (Fk + Fk.T))
    return "\n".join(lines + entries) + "\n"


@pytest.mark.parametrize("seed, q, T", [(15, 3, 6), (16, 5, 6), (17, 8, 10)])
def test_export_sdp_text_matches_the_entrywise_writer(seed, q, T):
    # Block 2's values reach the text through tolist(), whose floats print as
    # float() of each numpy scalar does: the text is the same byte for byte.
    batch = reactor_batch(seed=seed, q=q, T=T, pe_order=3)
    W = dd.LqrWeights(Q=np.diag([1.0, 2.0, 0.5, 3.0]), R=np.array([[1.0, 0.2], [0.2, 0.7]]))
    assert dd.export_sdp(batch, W) == reference_sdpa(batch, W)


def test_export_sdp_scalar_hand_check():
    # x(t+1) = x + u data from three steps; single variable P11
    sys = dd.LtiSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    traj = dd.simulate(sys, [1.0], np.array([[1.0], [-2.0], [0.5]]))
    batch = dd.assemble_batch([traj])
    W = dd.LqrWeights(Q=[[1.0]], R=[[1.0]])
    text = dd.export_sdp(batch, W)
    nvar, sizes, c, mats = parse_sdpa(text)
    assert nvar == 1 and sizes == [1, 3]
    assert_allclose(mats[(1, 1)], [[1.0]])
    xm, xp, um = batch.Xm[0], batch.Xp[0], batch.Um[0]
    assert_allclose(np.diag(mats[(1, 2)]), xp**2 - xm**2, atol=1e-12)
    assert_allclose(np.diag(mats[(0, 2)]), -(xm**2 + um**2), atol=1e-12)


def test_export_sdp_writes_file(tmp_path):
    batch = reactor_batch(seed=14, q=3, T=6, pe_order=3)
    out = tmp_path / "prog.dat-s"
    text = dd.export_sdp(batch, eye_weights(), destination=out)
    assert out.read_text() == text
    # A writable text stream receives the same text.
    stream = io.StringIO()
    assert dd.export_sdp(batch, eye_weights(), destination=stream) == text
    assert stream.getvalue() == text


# --- open-loop instability ------------------------------------------------

def test_instability_stable_system_bounded():
    rng = np.random.default_rng(15)
    sys = random_system(rng, 3, 1, 1, radius=0.5)
    rep = dd.instability_report(sys, rng.standard_normal(3),
                                rng.uniform(0, 1, size=(50, 1)))
    assert rep.max_norm < 1e3


def test_instability_reactor_blows_up(reactor):
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal(4)
    x0 /= np.linalg.norm(x0)
    rep = dd.instability_report(reactor, x0, rng.uniform(0, 1, size=(20, 2)))
    assert rep.max_norm >= 1e6
    assert rep.norms.shape == (21,)


def test_instability_zero_state_matrix():
    sys = dd.LtiSystem(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                       D=np.zeros((2, 2)))
    rep = dd.instability_report(sys, [7.0, -7.0], np.ones((10, 2)))
    assert rep.norms[0] > rep.norms[2]
    assert np.all(rep.norms[1:] <= np.sqrt(2.0) + 1e-12)


# --- experiment generation -------------------------------------------------

def test_generate_experiments_deterministic(reactor):
    a = dd.generate_experiments(reactor, 3, 6, pe_order=4,
                                rng=np.random.default_rng(17))
    b = dd.generate_experiments(reactor, 3, 6, pe_order=4,
                                rng=np.random.default_rng(17))
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.u, tb.u) and np.array_equal(ta.x, tb.x)


def test_generate_experiments_keeps_the_draw_order(reactor, monkeypatch):
    # All inputs first, the whole batch again after an excitation failure
    # (the first test is forced to fail), then one initial state per
    # experiment in order: seeds give the same u and x(0), bit for bit.
    real = dd.lqr._excitation
    tests = []

    def first_fails(stack, order, rtol):
        tests.append(order)
        report = real(stack, order, rtol)
        return replace(report, exciting=len(tests) > 1 and report.exciting)

    monkeypatch.setattr(dd.lqr, "_excitation", first_fails)
    for seed, q, T, order in ((20, 3, 6, 4), (21, 80, 10, 5)):
        tests.clear()
        rng = np.random.default_rng(seed)
        exps = dd.generate_experiments(reactor, q, T, pe_order=order, rng=rng,
                                       input_low=-1.0, input_high=2.0, x0_scale=3.0)
        ref = np.random.default_rng(seed)
        for _ in tests:  # one batch of inputs per excitation test; the last is kept
            us = [ref.uniform(-1.0, 2.0, size=(T, 2)) for _ in range(q)]
        x0s = [3.0 * ref.standard_normal(4) for _ in range(q)]
        assert len(tests) >= 2 and rng.random() == ref.random()
        for traj, u, x0 in zip(exps, us, x0s, strict=True):
            assert np.array_equal(traj.u, u) and np.array_equal(traj.x[0], x0)
            assert dd.verify_trajectory(reactor, traj)


def test_generate_experiments_runs_one_recursion(reactor, monkeypatch):
    # q experiments advance through one batched recursion, not q simulations.
    runs = []
    real = dd.lti._simulate_runs
    for module in (dd.lti, dd.lqr):
        monkeypatch.setattr(module, "_simulate_runs",
                            lambda sys, x0, u: runs.append(u.shape) or real(sys, x0, u))
    dd.generate_experiments(reactor, 12, 6, pe_order=4, rng=np.random.default_rng(23))
    assert runs == [(6, 12, 2)]


def test_generate_experiments_pe_guaranteed(reactor):
    exps = dd.generate_experiments(reactor, 5, 6, pe_order=5,
                                   rng=np.random.default_rng(18))
    assert dd.is_persistently_exciting([t.u for t in exps], 5)


def test_generate_experiments_impossible_order(reactor):
    with pytest.raises(dd.ExcitationError):
        dd.generate_experiments(reactor, 2, 4, pe_order=5,
                                rng=np.random.default_rng(19), max_retries=5)
