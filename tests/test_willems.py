import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import lag, pe_inputs, random_system


def fixture_pairs(record):
    return dd.segment_trajectory(record)


def test_dictionary_shape_and_rank(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    # columns: (5-3+1) + (6-3+1) + (6-3+1)
    assert d.matrix.shape == (6, 11)
    assert dd.numerical_rank(d.matrix) == 5  # mL + n = 3 + 2


def test_dictionary_single_pair_full_depth():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((4, 1))
    y = rng.standard_normal((4, 1))
    d = dd.build_data_matrix([(u, y)], 4)
    assert d.n_columns == 1
    assert_allclose(d.matrix[:, 0], np.concatenate([u.reshape(-1), y.reshape(-1)]))


def test_dictionary_single_record_reduces_to_hankel_stack():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((9, 2))
    y = rng.standard_normal((9, 1))
    d = dd.build_data_matrix([(u, y)], 3)
    assert_allclose(d.input_block, dd.hankel_matrix(u, 3))
    assert_allclose(d.output_block, dd.hankel_matrix(y, 3))


def test_dictionary_rejects_misaligned_pairs():
    with pytest.raises(dd.InputError):
        dd.build_data_matrix([(np.ones((5, 1)), np.ones((4, 1)))], 2)
    with pytest.raises(dd.DepthTooLargeError):
        dd.build_data_matrix([(np.ones((3, 1)), np.ones((3, 1)))], 4)
    with pytest.raises(dd.InputError, match="channel count"):
        dd.build_data_matrix([(np.ones((5, 1)), np.ones((5, 1))),
                              (np.ones((5, 1)), np.ones((5, 2)))], 2)


def test_rank_condition_controllable_pe():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        L = int(rng.integers(1, 5))
        q = int(rng.integers(1, 4))
        sys = random_system(rng, n, m, 1, minimal=False)
        k = n + L
        shortfall = max(0, dd.pe_length_bound(k, m, q) - q * k)
        lengths = [k] * q
        for j in range(shortfall + int(rng.integers(0, 4))):
            lengths[j % q] += 1
        us = pe_inputs(rng, q, lengths, m, k)
        trajs = [dd.simulate(sys, rng.standard_normal(n), u) for u in us]
        assert dd.check_rank_condition(sys, [t.x for t in trajs], us, L)


def test_rank_condition_duplicate_columns_fail():
    rng = np.random.default_rng(4)
    sys = random_system(rng, 2, 1, 1)
    u = pe_inputs(rng, 1, 12, 1, 6)[0]
    traj = dd.simulate(sys, rng.standard_normal(2), u)
    # the same record twice adds no new columns: rank unchanged, so the
    # condition holds iff it held for one copy; a constant record fails
    const = np.ones((12, 1))
    tconst = dd.simulate(sys, np.zeros(2), const)
    assert not dd.check_rank_condition(sys, [tconst.x, tconst.x], [const, const], 3)
    assert dd.check_rank_condition(sys, [traj.x], [u], 3)


def test_rank_condition_static_system_reduces_to_pe():
    rng = np.random.default_rng(5)
    sys = dd.LtiSystem(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                       C=np.zeros((1, 0)), D=[[2.0]])
    u = pe_inputs(rng, 1, 9, 1, 3)[0]
    traj = dd.simulate(sys, [], u)
    assert dd.check_rank_condition(sys, [traj.x], [u], 3) == \
        dd.is_persistently_exciting(u, 3)


def test_rank_condition_one_dimensional_states_are_one_channel():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 1, 1, 1)
    for u in (pe_inputs(rng, 1, 30, 1, 4)[0], np.ones((30, 1))):
        traj = dd.simulate(sys, rng.standard_normal(1), u)
        assert traj.x.shape == (30, 1)
        assert dd.check_rank_condition(sys, [traj.x[:, 0]], [u], 3) == \
            dd.check_rank_condition(sys, [traj.x], [u], 3)


def test_synthesize_selects_columns(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    g = np.zeros(d.n_columns)
    g[4] = 1.0
    u, y = dd.synthesize_trajectory(d, g)
    assert_allclose(np.concatenate([u, y]), d.matrix[:, 4])
    u0, y0 = dd.synthesize_trajectory(d, np.zeros(d.n_columns))
    assert_allclose(u0, 0.0)
    assert_allclose(y0, 0.0)


def test_synthesize_passes_state_fit_oracle(record, known_system):
    # any column combination must be explainable as O_L x0 + T_L u for some x0
    rng = np.random.default_rng(6)
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    O, T = dd.response_maps(known_system, 3)
    for _ in range(25):
        g = rng.standard_normal(d.n_columns)
        u, y = dd.synthesize_trajectory(d, g)
        x0, *_ = np.linalg.lstsq(O, y - T @ u, rcond=None)
        assert np.linalg.norm(O @ x0 + T @ u - y) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_membership_of_dictionary_column(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    col = d.matrix[:, 2]
    res = dd.is_system_trajectory(d, col[:3], col[3:])
    assert res.member and res.residual <= 1e-12


def test_membership_of_fresh_trajectory(record, known_system):
    rng = np.random.default_rng(7)
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    for _ in range(10):
        traj = dd.simulate(known_system, rng.standard_normal(2),
                           rng.standard_normal((3, 1)))
        res = dd.is_system_trajectory(d, traj.u.reshape(-1), traj.y.reshape(-1))
        assert res.member, res.residual


def test_nonmember_rejected(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    # zero input with a nonzero first output: impossible from any state that
    # also keeps the remaining outputs zero for this system
    u = np.zeros(3)
    y = np.array([1.0, 0.0, 0.0])
    res = dd.is_system_trajectory(d, u, y)
    assert not res.member
    assert res.residual > 1e-3


def test_synthesis_membership_round_trip(record):
    rng = np.random.default_rng(8)
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    for _ in range(20):
        u, y = dd.synthesize_trajectory(d, rng.standard_normal(d.n_columns))
        res = dd.is_system_trajectory(d, u, y)
        assert res.member and res.residual <= 1e-10


def test_datadriven_simulate_fixture_impulse(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    future_u = np.array([[1.0], [0.0], [0.0], [0.0], [0.0]])
    ys = dd.datadriven_simulate(d, np.zeros((2, 1)), np.zeros((2, 1)), future_u)
    assert_allclose(ys[:, 0], [1.0, 0.0, 1.0, 2.0, 3.0], atol=1e-9)


def test_datadriven_simulate_zero_everything(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    ys = dd.datadriven_simulate(d, np.zeros((2, 1)), np.zeros((2, 1)),
                                np.zeros((6, 1)))
    assert_allclose(ys, 0.0, atol=1e-10)


def test_datadriven_simulate_matches_model():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        L = n + 1
        T = dd.pe_length_bound(n + L, m, 1) + 6
        u = pe_inputs(rng, 1, T, m, n + L)[0]
        data = dd.simulate(sys, rng.standard_normal(n), u)
        d = dd.build_data_matrix([(data.u, data.y)], L)

        x0 = rng.standard_normal(n)
        uu = rng.standard_normal((n + 10, m))
        ref = dd.simulate(sys, x0, uu)
        ys = dd.datadriven_simulate(d, ref.u[:n], ref.y[:n], ref.u[n:])
        assert_allclose(ys, ref.y[n:], atol=1e-8)


def test_datadriven_simulate_refuses_completions_below_the_lag():
    # A past of L-1 < l samples leaves part of the state free, so the new
    # output is one of many, even on exact, richly exciting data.
    rng = np.random.default_rng(10)
    for n, m, p in [(3, 1, 1), (4, 1, 2)]:
        sys = random_system(rng, n, m, p)
        l = lag(sys)
        data = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((400, m)))
        ref = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((l + 3, m)))
        for L in range(1, l + 3):
            d = dd.build_data_matrix([(data.u, data.y)], L)
            args = (d, ref.u[:L - 1], ref.y[:L - 1], ref.u[L - 1:L + 1])
            if L <= l:
                with pytest.raises(dd.InsufficientDataError, match=f"at depth {L} do not"):
                    dd.datadriven_simulate(*args)
            else:
                assert_allclose(dd.datadriven_simulate(*args), ref.y[L - 1:L + 1], atol=1e-8)


def test_datadriven_simulate_rejects_alien_past(record):
    # depth 4: a 3-sample past overdetermines the state, so an impossible
    # one is detectable.  Under zero input, outputs (1, 0, y2) force the
    # state, and the forced state yields y2 = -1; ask for 0 instead.
    d = dd.build_data_matrix(fixture_pairs(record), 4)
    past_u = np.zeros((3, 1))
    past_y = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(dd.InconsistentPastError):
        dd.datadriven_simulate(d, past_u, past_y, np.zeros((3, 1)))


def test_datadriven_simulate_invariant_to_segment_order(record):
    pairs = fixture_pairs(record)
    d1 = dd.build_data_matrix(pairs, 3)
    d2 = dd.build_data_matrix(pairs[::-1], 3)
    future_u = np.array([[2.0], [-1.0], [0.5], [0.0]])
    y1 = dd.datadriven_simulate(d1, np.zeros((2, 1)), np.zeros((2, 1)), future_u)
    y2 = dd.datadriven_simulate(d2, np.zeros((2, 1)), np.zeros((2, 1)), future_u)
    assert_allclose(y1, y2, atol=1e-9)


def test_datadriven_simulate_rejects_flat_multichannel_past():
    rng = np.random.default_rng(8)
    sys = random_system(rng, 1, 2, 1)
    u = pe_inputs(rng, 1, 40, 2, 4)[0]
    traj = dd.simulate(sys, rng.standard_normal(1), u)
    d = dd.build_data_matrix([(traj.u, traj.y)], 3)
    assert dd.datadriven_simulate(d, traj.u[:2], traj.y[:2], traj.u[2:5]).shape == (3, 1)
    with pytest.raises(dd.InputError, match="past_u must have 2 channels"):
        dd.datadriven_simulate(d, traj.u[:2].reshape(-1), traj.y[:2], traj.u[2:5])


def test_past_length_enforced(record):
    d = dd.build_data_matrix(fixture_pairs(record), 3)
    with pytest.raises(dd.InputError):
        dd.datadriven_simulate(d, np.zeros((1, 1)), np.zeros((1, 1)),
                               np.zeros((2, 1)))
