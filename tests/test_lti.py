import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import random_system


def test_simulate_zero_dynamics(known_system):
    traj = dd.simulate(known_system, [0.0, 0.0], np.zeros((5, 1)))
    assert_allclose(traj.x, 0.0)
    assert_allclose(traj.y, 0.0)
    assert_allclose(traj.final_state, 0.0)


def test_simulate_impulse_gives_markov_sequence(known_system):
    u = np.zeros((5, 1))
    u[0, 0] = 1.0
    traj = dd.simulate(known_system, [0.0, 0.0], u)
    assert_allclose(traj.y[:, 0], [1.0, 0.0, 1.0, 2.0, 3.0])


def test_simulate_is_deterministic():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 3, 2, 2)
    x0 = rng.standard_normal(3)
    u = rng.standard_normal((40, 2))
    a = dd.simulate(sys, x0, u)
    b = dd.simulate(sys, x0, u)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


def test_simulate_rejects_bad_dimensions(known_system):
    with pytest.raises(dd.InputError):
        dd.simulate(known_system, [0.0], np.zeros((4, 1)))
    with pytest.raises(dd.InputError):
        dd.simulate(known_system, [0.0, 0.0], np.zeros((4, 2)))


def test_verify_trajectory(known_system):
    rng = np.random.default_rng(3)
    traj = dd.simulate(known_system, rng.standard_normal(2), rng.standard_normal((12, 1)))
    assert dd.verify_trajectory(known_system, traj)
    bad = dd.StateTrajectory(u=traj.u, x=traj.x + 1e-3, y=traj.y,
                             final_state=traj.final_state)
    assert not dd.verify_trajectory(known_system, bad)


def test_state_trajectory_one_dimensional_is_one_channel():
    traj = dd.StateTrajectory(u=np.arange(4.0), x=np.arange(4.0),
                              y=np.arange(4.0), final_state=[4.0])
    assert traj.length == 4
    assert traj.u.shape == traj.x.shape == traj.y.shape == (4, 1)


def test_state_trajectory_rejects_transposed_states(reactor):
    rng = np.random.default_rng(6)
    traj = dd.simulate(reactor, rng.standard_normal(4), rng.standard_normal((6, 2)))
    with pytest.raises(dd.InputError, match="same number of samples"):
        dd.StateTrajectory(u=traj.u, x=traj.x.T, y=traj.y, final_state=traj.final_state)


def test_state_trajectory_rejects_short_final_state(reactor):
    rng = np.random.default_rng(6)
    traj = dd.simulate(reactor, rng.standard_normal(4), rng.standard_normal((6, 2)))
    with pytest.raises(dd.InputError, match="final_state must have 4 entries"):
        dd.StateTrajectory(u=traj.u, x=traj.x, y=traj.y, final_state=traj.final_state[:3])


def test_static_system_n0():
    sys = dd.LtiSystem(A=np.zeros((0, 0)), B=np.zeros((0, 2)),
                       C=np.zeros((3, 0)), D=np.arange(6.0).reshape(3, 2))
    u = np.random.default_rng(0).standard_normal((4, 2))
    traj = dd.simulate(sys, [], u)
    assert_allclose(traj.y, u @ sys.D.T)


def test_batched_recursion_matches_simulate_per_run():
    # Four runs advanced together, for a dynamic and a static (n = 0) system
    # and for 0, 1 and 7 steps, are the four runs simulate gives one by one.
    rng = np.random.default_rng(22)
    static = dd.LtiSystem(A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((3, 0)),
                          D=rng.standard_normal((3, 2)))
    for sys in (random_system(rng, 3, 2, 2), static):
        for T in (0, 1, 7):
            x0, u = rng.standard_normal((4, sys.n)), rng.standard_normal((T, 4, sys.m))
            x, y = dd.lti._simulate_runs(sys, x0, u)
            assert x.shape == (T + 1, 4, sys.n) and y.shape == (T, 4, sys.p)
            for i in range(4):
                traj = dd.simulate(sys, x0[i], u[:, i])
                assert dd.verify_trajectory(sys, traj)
                assert_allclose(x[:-1, i], traj.x, rtol=1e-13, atol=1e-13)
                assert_allclose(x[-1, i], traj.final_state, rtol=1e-13, atol=1e-13)
                assert_allclose(y[:, i], traj.y, rtol=1e-13, atol=1e-13)
            if T == 1:
                assert_allclose(x[1], x0 @ sys.A.T + u[0] @ sys.B.T, rtol=1e-13, atol=1e-13)


def test_system_validation():
    with pytest.raises(dd.InputError):
        dd.LtiSystem(A=[[1, 0]], B=[[1], [0]], C=[[1, 0]], D=[[0]])
    with pytest.raises(dd.InputError):
        dd.LtiSystem(A=[[1, 0], [0, 1]], B=[[1]], C=[[1, 0]], D=[[0]])
    with pytest.raises(dd.InputError):
        dd.LtiSystem(A=[[np.nan, 0], [0, 1]], B=[[1], [0]], C=[[1, 0]], D=[[0]])


def test_controllable_identity_input():
    assert dd.is_controllable(np.zeros((3, 3)), np.eye(3))
    assert dd.is_controllable(np.zeros((0, 0)), np.zeros((0, 2)))  # no state


def test_uncontrollable_decoupled_state():
    assert not dd.is_controllable(np.eye(2), np.array([[1.0], [0.0]]))


def test_controllable_reactor(reactor):
    # independently checkable: the 4x8 controllability matrix has rank 4
    blocks = [reactor.B]
    for _ in range(3):
        blocks.append(reactor.A @ blocks[-1])
    assert dd.numerical_rank(np.hstack(blocks)) == 4
    assert dd.is_controllable(reactor.A, reactor.B)


def test_controllability_similarity_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sys = random_system(rng, 3, 1, 1)
        S = rng.standard_normal((3, 3)) + 3 * np.eye(3)  # well conditioned
        Si = np.linalg.inv(S)
        assert dd.is_controllable(S @ sys.A @ Si, S @ sys.B, rtol=1e-6)


def test_markov_parameters_known(known_system):
    mk = dd.markov_parameters(known_system, 5)
    assert mk.shape == (5, 1, 1)
    assert_allclose(mk[:, 0, 0], [1.0, 0.0, 1.0, 2.0, 3.0])


def test_markov_parameters_zero_output_map():
    sys = dd.LtiSystem(A=np.eye(2), B=np.ones((2, 1)),
                       C=np.zeros((1, 2)), D=np.zeros((1, 1)))
    assert_allclose(dd.markov_parameters(sys, 4), 0.0)


def test_markov_matches_impulse_response():
    rng = np.random.default_rng(5)
    sys = random_system(rng, 3, 2, 2)
    mk = dd.markov_parameters(sys, 6)
    for j in range(sys.m):
        u = np.zeros((6, sys.m))
        u[0, j] = 1.0
        traj = dd.simulate(sys, np.zeros(3), u)
        assert_allclose(traj.y, mk[:, :, j], atol=1e-14)


def test_response_maps_depth_one():
    rng = np.random.default_rng(9)
    sys = random_system(rng, 2, 2, 1)
    O, T = dd.response_maps(sys, 1)
    assert_allclose(O, sys.C)
    assert_allclose(T, sys.D)


def test_response_maps_toeplitz_structure(known_system):
    _, T3 = dd.response_maps(known_system, 3)
    assert_allclose(T3, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])


def test_response_maps_reproduce_simulation():
    rng = np.random.default_rng(21)
    for _ in range(5):
        sys = random_system(rng, 3, 2, 2)
        L = int(rng.integers(1, 6))
        x0 = rng.standard_normal(3)
        u = rng.standard_normal((L, 2))
        O, T = dd.response_maps(sys, L)
        y = O @ x0 + T @ u.reshape(-1)
        traj = dd.simulate(sys, x0, u)
        assert_allclose(y, traj.y.reshape(-1), atol=1e-12)


def test_stacked_window_map_relative():
    # [0 I; O_L T_L] [x0; u] reproduces [u; y] to 1e-10 relative
    rng = np.random.default_rng(33)
    sys = random_system(rng, 4, 2, 2)
    L = 5
    O, T = dd.response_maps(sys, L)
    x0 = rng.standard_normal(4)
    u = rng.standard_normal((L, 2)).reshape(-1)
    top = np.hstack([np.zeros((2 * L, 4)), np.eye(2 * L)])
    bottom = np.hstack([O, T])
    w = np.vstack([top, bottom]) @ np.concatenate([x0, u])
    traj = dd.simulate(sys, x0, u.reshape(L, 2))
    ref = np.concatenate([u, traj.y.reshape(-1)])
    assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


def test_spectral_radius_basics():
    assert dd.spectral_radius(np.zeros((3, 3))) == 0.0
    assert_allclose(dd.spectral_radius(np.diag([0.5, -2.0])), 2.0)
    with pytest.raises(dd.InputError):
        dd.spectral_radius(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_arguments_reject_non_finite_entries(bad):
    with pytest.raises(dd.InputError, match="M contains non-finite entries"):
        dd.spectral_radius([[bad]])
    with pytest.raises(dd.InputError, match="A contains non-finite entries"):
        dd.is_controllable([[bad]], [[1.0]])
    with pytest.raises(dd.InputError, match="B contains non-finite entries"):
        dd.is_controllable([[0.5]], [[bad]])
    sys = dd.batch_reactor()
    with pytest.raises(dd.InputError, match="x0 contains non-finite entries"):
        dd.simulate(sys, [bad, 0.0, 0.0, 0.0], np.zeros((3, 2)))
    with pytest.raises(dd.InputError, match="u_seq contains non-finite entries"):
        dd.simulate(sys, np.zeros(4), [[0.0, 0.0], [bad, 0.0]])
    with pytest.raises(dd.InputError, match="markov contains non-finite entries"):
        dd.ho_kalman([1.0, 0.5, bad], 1)


def test_spectral_radius_triangular():
    rng = np.random.default_rng(17)
    M = np.triu(rng.standard_normal((5, 5)))
    assert_allclose(dd.spectral_radius(M), np.abs(np.diag(M)).max(), atol=1e-12)
