import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import lag, pe_inputs, random_system

EPS = np.finfo(float).eps


def make_record(sys, rng, T, missing, pe_order=None):
    """Simulate T steps and blank the given time indices."""
    if pe_order is None:
        u = rng.standard_normal((T, sys.m))
    else:
        u = pe_inputs(rng, 1, T, sys.m, pe_order)[0]
    traj = dd.simulate(sys, rng.standard_normal(sys.n), u)
    uu, yy = traj.u.copy(), traj.y.copy()
    for t in missing:
        uu[t] = np.nan
        yy[t] = np.nan
    return dd.CorruptedTrajectory(u=uu, y=yy)


def test_corrupted_trajectory_properties(record):
    assert record.length == 20
    assert record.m == 1 and record.p == 1
    assert list(record.missing_times) == [5, 12, 19]
    assert record.present.sum() == 17


def test_partially_missing_row_rejected():
    u = np.ones((3, 2))
    y = np.ones((3, 1))
    u[1, 0] = np.nan  # u half-blanked, y intact
    with pytest.raises(dd.InputError, match="partially"):
        dd.CorruptedTrajectory(u=u, y=y)


def test_one_dimensional_record_is_one_channel():
    ct = dd.CorruptedTrajectory(u=np.arange(5.0), y=np.arange(5.0))
    assert (ct.length, ct.m, ct.p) == (5, 1, 1)
    assert_allclose(ct.u[:, 0], np.arange(5.0))


def test_segmentation_of_fixture(record):
    pairs = dd.segment_trajectory(record, min_len=5)
    assert [(u.start_time, u.length) for u, _ in pairs] == [(0, 5), (6, 6), (13, 6)]
    assert_allclose(pairs[0][0].samples[:, 0], [1, 0, 2, -1, 0])
    assert_allclose(pairs[0][1].samples[:, 0], [3, 3, 7, 6, 11])


def test_segmentation_no_missing():
    ct = dd.CorruptedTrajectory(u=np.ones((7, 1)), y=np.ones((7, 1)))
    pairs = dd.segment_trajectory(ct)
    assert len(pairs) == 1
    assert pairs[0][0].length == 7


def test_segmentation_alternating():
    u = np.ones((6, 1))
    y = np.ones((6, 1))
    u[1::2] = np.nan
    y[1::2] = np.nan
    ct = dd.CorruptedTrajectory(u=u, y=y)
    with pytest.raises(dd.NoUsableDataError):
        dd.segment_trajectory(ct, min_len=2)
    assert len(dd.segment_trajectory(ct, min_len=1)) == 3


def test_recover_markov_fixture(record):
    pairs = dd.segment_trajectory(record)
    mk = dd.recover_markov_parameters(pairs, order=2, count=5)
    assert_allclose(mk[:, 0, 0], [1, 0, 1, 2, 3], atol=1e-9)


def test_recover_markov_static():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((10, 1))
    mk = dd.recover_markov_parameters([(u, 3.0 * u)], order=0, count=4)
    assert_allclose(mk[:, 0, 0], [3.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_recover_markov_random_minimal():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        need = 2 * n + 1
        T = dd.pe_length_bound(need, m, 1) + 5
        u = pe_inputs(rng, 1, T, m, need)[0]
        traj = dd.simulate(sys, rng.standard_normal(n), u)
        mk = dd.recover_markov_parameters([(traj.u, traj.y)], order=n, count=need)
        assert_allclose(mk, dd.markov_parameters(sys, need), atol=1e-8)


def test_recover_markov_insufficient_excitation():
    u = np.ones((12, 1))  # constant input: order-2 excitation already fails
    y = np.ones((12, 1))
    with pytest.raises(dd.ExcitationError, match="order 5"):
        dd.recover_markov_parameters([(u, y)], order=2, count=5)


def test_ho_kalman_reference_sequence():
    sys = dd.ho_kalman(np.array([1.0, 0.0, 1.0, 2.0, 3.0]), order=2)
    assert sys.n == 2 and sys.m == 1 and sys.p == 1
    mk = dd.markov_parameters(sys, 10)
    ref = dd.markov_parameters(
        dd.LtiSystem(A=[[1, 0], [1, 1]], B=[[1], [0]], C=[[0, 1]], D=[[1]]), 10)
    assert_allclose(mk, ref, atol=1e-8)


def test_ho_kalman_static():
    sys = dd.ho_kalman(np.array([2.5, 0.0, 0.0]), order=0)
    assert sys.n == 0
    assert_allclose(sys.D, [[2.5]])


def test_ho_kalman_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, m, p = 3, int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        mk = dd.markov_parameters(sys, 2 * n + 1)
        out = dd.ho_kalman(mk, order=n)
        assert_allclose(dd.markov_parameters(out, 2 * n + 1), mk, atol=1e-8)


def test_ho_kalman_infeasible_order():
    mk = np.zeros((7, 1, 1))
    mk[0] = 1.0  # pure feedthrough: Hankel of the rest is zero
    with pytest.raises(dd.OrderInfeasibleError):
        dd.ho_kalman(mk, order=2)


def test_ho_kalman_needs_enough_parameters():
    with pytest.raises(dd.InputError):
        dd.ho_kalman(np.ones(4), order=2)


def test_ho_kalman_truncation_warns():
    rng = np.random.default_rng(6)
    sys = random_system(rng, 3, 1, 1)
    mk = dd.markov_parameters(sys, 9)
    with pytest.warns(UserWarning, match="truncating"):
        dd.ho_kalman(mk, order=2)


def test_identify_fixture(record):
    res = dd.identify(record)
    assert res.order == 2
    assert_allclose(res.markov[:, 0, 0], [1, 0, 1, 2, 3], atol=1e-8)
    assert res.residual <= 1e-8
    assert res.segment_report == ((0, 5), (6, 6), (13, 6))


def test_identify_uncorrupted_equivalent(known_system):
    rng = np.random.default_rng(7)
    ct = make_record(known_system, rng, 20, missing=[], pe_order=6)
    res = dd.identify(ct)
    assert res.order == 2
    assert_allclose(res.markov[:, 0, 0],
                    dd.markov_parameters(known_system, 5)[:, 0, 0], atol=1e-8)


def test_identify_too_short_record():
    ct = dd.CorruptedTrajectory(u=np.full((4, 1), np.nan), y=np.full((4, 1), np.nan))
    with pytest.raises(dd.NoUsableDataError):
        dd.identify(ct)


def test_identify_round_trip_random():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        # knock out two samples, far enough apart to keep long segments
        T = 14 * max(1, m) + 6 * n
        ct = make_record(sys, rng, T, missing=[T // 3, T - 1], pe_order=2 * n + 1)
        res = dd.identify(ct)
        assert res.order == n
        assert_allclose(res.markov, dd.markov_parameters(sys, 2 * n + 1), atol=1e-7)


def test_identify_depends_only_on_surviving_segments(known_system):
    rng = np.random.default_rng(9)
    u = pe_inputs(rng, 1, 26, 1, 6)[0]
    traj = dd.simulate(known_system, rng.standard_normal(2), u)

    def record_with(missing):
        uu, yy = traj.u.copy(), traj.y.copy()
        for t in missing:
            uu[t], yy[t] = np.nan, np.nan
        return dd.CorruptedTrajectory(u=uu, y=yy)

    # same surviving segments [0..11] and [13..25]: blank t=12 via different
    # original records (the hidden sample value cannot matter)
    r1 = record_with([12])
    traj2_u = traj.u.copy()
    traj2_u[12] = 99.0  # never observed
    r2 = dd.CorruptedTrajectory(
        u=np.where(np.isnan(r1.u), np.nan, traj2_u), y=r1.y.copy())
    a = dd.identify(r1)
    b = dd.identify(r2)
    assert a.order == b.order
    assert_allclose(a.markov, b.markov, atol=1e-10)


def test_scan_order_matches_estimate(record):
    pairs = dd.segment_trajectory(record)
    assert dd.scan_order(pairs) == 2
    with pytest.raises(dd.OrderUndeterminedError):
        dd.scan_order(pairs, max_order=1)
    # static data
    u = np.random.default_rng(0).standard_normal((15, 1))
    assert dd.scan_order([(u, 2.0 * u)], max_order=3) == 0
    # a random third-order system
    rng = np.random.default_rng(1)
    sys = random_system(rng, 3, 1, 1)
    u = pe_inputs(rng, 1, 40, 1, 8)[0]
    traj = dd.simulate(sys, rng.standard_normal(3), u)
    assert dd.scan_order([(traj.u, traj.y)], max_order=3) == 3
    # second-order data examined with windows too shallow to settle
    rng = np.random.default_rng(2)
    sys = random_system(rng, 2, 1, 1)
    u = pe_inputs(rng, 1, 30, 1, 6)[0]
    traj = dd.simulate(sys, rng.standard_normal(2), u)
    with pytest.raises(dd.OrderUndeterminedError):
        dd.scan_order([(traj.u, traj.y)], max_order=1)


def test_scan_order_undetermined_lists_estimates(record):
    pairs = dd.segment_trajectory(record)
    with pytest.raises(dd.OrderUndeterminedError,
                       match=r"^no window depth produced a stable order estimate "
                             r"\(estimates: 1 at depth 1, 2 at depth 2\)$"):
        dd.scan_order(pairs, max_order=1)


def test_scan_order_stops_at_first_stall(monkeypatch):
    # rank(H_L) - mL equals rank O_L, which stops growing at the observability
    # index l; so the scan never needs a window deeper than l + 1, and
    # identify completes its impulses on that last matrix: every depth is
    # built once, the one dictionary is pseudo-inverted once, and no
    # separate excitation test runs.
    built, inverted, excitation_tests = [], [], []

    def spy(owner, name, log, note):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            log.append(note(*args))
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    spy(dd.ident, "build_data_matrix", built, lambda pairs, depth: depth)
    spy(np.linalg, "pinv", inverted, lambda A: A.shape)
    spy(dd.ident, "is_persistently_exciting", excitation_tests, lambda u, depth, rtol: depth)
    rng = np.random.default_rng(10)
    for n, m, p in [(1, 1, 1), (3, 1, 1), (4, 2, 2), (5, 1, 2), (6, 2, 3)]:
        sys = random_system(rng, n, m, p)
        ct = make_record(sys, rng, 300, missing=[100, 211])
        built.clear()
        assert dd.scan_order(dd.segment_trajectory(ct)) == n
        assert max(built) == lag(sys) + 1
        built.clear()
        inverted.clear()
        res = dd.identify(ct)
        assert res.order == n
        assert built == list(range(1, lag(sys) + 2))
        assert len(inverted) == 1
        assert excitation_tests == []
        assert_allclose(res.markov, dd.markov_parameters(sys, 2 * n + 1), atol=1e-8)


def test_recover_markov_inverts_the_dictionary_once(monkeypatch):
    calls = []
    real = np.linalg.pinv

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", spy)
    rng = np.random.default_rng(11)
    sys = random_system(rng, 3, 2, 2)
    u = pe_inputs(rng, 1, dd.pe_length_bound(7, 2, 1) + 5, 2, 7)[0]
    traj = dd.simulate(sys, rng.standard_normal(3), u)
    mk = dd.recover_markov_parameters([(traj.u, traj.y)], order=3, count=7)
    assert len(calls) == 1
    assert_allclose(mk, dd.markov_parameters(sys, 7), atol=1e-8)


def test_recover_markov_batch_matches_per_channel_simulation():
    rng = np.random.default_rng(12)
    n, m, p = 3, 2, 2
    sys = random_system(rng, n, m, p)
    L, count = n + 1, 2 * n + 1
    u = pe_inputs(rng, 1, dd.pe_length_bound(n + L, m, 1) + 8, m, n + L)[0]
    traj = dd.simulate(sys, rng.standard_normal(n), u)
    mk = dd.recover_markov_parameters([(traj.u, traj.y)], order=n, count=count)
    d = dd.build_data_matrix([(traj.u, traj.y)], L)

    # Each step of each impulse is re-run through datadriven_simulate on the
    # window the batch saw, so no error is carried between steps.  Both runs
    # apply the same min-norm operator to the same right-hand side, so they
    # differ by at most the bound test_datadriven_simulate_matches_lstsq_loop
    # derives: 2 max(shape) eps kappa(A_known) ||A_new|| ||g||.
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    s = np.linalg.svd(A_known, compute_uv=False)
    kappa = s[0] / s[s > EPS * max(A_known.shape) * s[0]][-1]
    for j in range(m):
        us = np.zeros((n + count, m))
        us[n, j] = 1.0
        ys = np.vstack([np.zeros((n, p)), mk[:, :, j]])
        for t in range(count):
            y = dd.datadriven_simulate(d, us[t:t + n], ys[t:t + n], us[t + n:t + L])[0]
            b = np.concatenate([us[t:t + L].reshape(-1), ys[t:t + n].reshape(-1)])
            g = np.linalg.lstsq(A_known, b, rcond=None)[0]
            bound = 2 * max(A_known.shape) * EPS * kappa * np.linalg.norm(A_new, 2) * np.linalg.norm(g)
            assert np.linalg.norm(y - mk[t, :, j]) <= bound
