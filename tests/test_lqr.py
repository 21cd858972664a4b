import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import random_system

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


def test_dare_fixed_point_fallback_matches_scipy():
    # With this tiny input weight doubling converges in four steps but stalls
    # at a Riccati residual of about 9e-11, above the 1e-12 tolerance; only
    # the fixed-point fallback brings the residual under it.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    A = np.array([[0.7, 1.6], [0.7, -2.6]])
    B = np.array([[0.9], [0.4]])
    Q, R = np.eye(2), 1e-6 * np.eye(1)
    P, K = dd.dare_solve(A, B, Q, R)
    P_ref = scipy_linalg.solve_discrete_are(A, B, Q, R)
    assert_allclose(P, P_ref, rtol=1e-8, atol=1e-8)
    assert dd.spectral_radius(A + B @ K) < 1.0


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


def test_lqr_certification_failure_on_corrupted_data(reactor):
    batch = reactor_batch(seed=12)
    Xp = batch.Xp.copy()
    Xp[0, 5] += 1.0  # not explainable by any exact LTI model
    bad = dd.ExperimentBatch(Xm=batch.Xm, Xp=Xp, Um=batch.Um,
                             boundaries=batch.boundaries)
    with pytest.raises(dd.CertificationError):
        dd.lqr_from_data(bad, eye_weights())


def test_weights_validation():
    with pytest.raises(dd.InputError):
        dd.LqrWeights(Q=np.eye(2), R=-np.eye(2))
    with pytest.raises(dd.InputError):
        dd.LqrWeights(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=np.eye(2))
    with pytest.raises(dd.InputError):
        dd.LqrWeights(Q=-np.eye(2), R=np.eye(2))


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


def test_generate_experiments_pe_guaranteed(reactor):
    exps = dd.generate_experiments(reactor, 5, 6, pe_order=5,
                                   rng=np.random.default_rng(18))
    assert dd.is_persistently_exciting([t.u for t in exps], 5)


def test_generate_experiments_impossible_order(reactor):
    with pytest.raises(dd.ExcitationError):
        dd.generate_experiments(reactor, 2, 4, pe_order=5,
                                rng=np.random.default_rng(19), max_retries=5)
