import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import (RECORD_CSV, SHORT_RUNS_CSV, impulse_error_bound, lag, pe_inputs,
                      random_system, rounding_per_unit_g)


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


@pytest.mark.parametrize("path", [RECORD_CSV, SHORT_RUNS_CSV], ids=["record", "short_runs"])
def test_present_is_the_whole_row_mask_of_a_read_only_record(path):
    # The mask is taken once, at construction; u and y are read-only, so it
    # cannot go stale.
    ct = dd.read_trajectory_csv(path)
    mask = np.isfinite(ct.u).all(axis=1) & np.isfinite(ct.y).all(axis=1)
    assert np.array_equal(ct.present, mask) and ct.present.dtype == bool
    assert np.array_equal(ct.missing_times, ct.start_time + np.flatnonzero(~mask))
    for name in ("u", "y", "present"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ct, name)[0] = 0.0


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
    u = np.ones((12, 1))  # constant input: no recorded window has an impulse in it
    y = np.ones((12, 1))
    with pytest.raises(dd.InsufficientDataError, match="cannot explain the given past at step 0"):
        dd.recover_markov_parameters([(u, y)], order=2, count=5)


def test_recover_markov_short_runs_equals_identify(short_runs_system):
    # No run reaches the 5 samples an order-5 excitation test needs; the
    # depth-3 windows of the four runs still determine the impulse responses,
    # which identify completes on the depth-2 windows.
    ct = dd.read_trajectory_csv(SHORT_RUNS_CSV)
    pairs = dd.segment_trajectory(ct)
    mk = dd.recover_markov_parameters(pairs, order=2, count=5)
    res = dd.identify(ct)
    bound = impulse_error_bound(dd.build_data_matrix(pairs, 3), mk)
    err = np.linalg.norm(mk - res.markov, axis=(1, 2))
    assert np.all(err <= bound + impulse_error_bound(dd.build_data_matrix(pairs, 2), res.markov))
    err = np.linalg.norm(mk - dd.markov_parameters(short_runs_system, 5), axis=(1, 2))
    assert np.all(err <= bound)


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
    # no output channel: every depth has full row rank, and depth 2 stalls
    order, d = dd.ident._scan(*dd.hankel._stack([(u, np.zeros((15, 0)))], pairs=True),
                              None, dd.DEFAULT_RANK_RTOL)[:2]
    assert (order, d.depth) == (0, 2)
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


def spy(monkeypatch, owner, name, log, note):
    """Replace ``owner.name`` by a call that appends ``note(*args)`` to ``log``."""
    real = getattr(owner, name)

    def call(*args, **kwargs):
        log.append(note(*args))
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, call)


def test_scan_order_stops_at_first_stall(monkeypatch, linalg_calls):
    # rank(H_L) - mL equals rank O_L, which stops growing at the observability
    # index l; so the scan never needs a window deeper than l + 1, and
    # identify completes its impulses on that depth.  On generic records the
    # sample of 2k windows of the longest run (k = (m+p)L) decides every
    # depth's rank, certified on all the data, so the scan cuts one sample
    # per depth and builds no depth's matrix; the stall sample's known block
    # goes through one SVD, and no excitation test runs.
    cut, excitation_tests = [], []
    spy(monkeypatch, dd.ident, "_dictionary", cut, lambda W, ends, m, depth: (depth, W.shape[1]))
    spy(monkeypatch, dd.hankel, "_excitation", excitation_tests,
        lambda W, ends, depth, rtol: depth)
    rng = np.random.default_rng(10)
    for n, m, p in [(1, 1, 1), (3, 1, 1), (4, 2, 2), (5, 1, 2), (6, 2, 3)]:
        sys = random_system(rng, n, m, p)
        ct = make_record(sys, rng, 300, missing=[100, 211])
        L = lag(sys) + 1
        samples = [(depth, (2 * (m + p) + 1) * depth - 1) for depth in range(1, L + 1)]
        cut.clear()
        assert dd.scan_order(dd.segment_trajectory(ct)) == n
        assert cut == samples
        cut.clear()
        linalg_calls.clear()
        res = dd.identify(ct)
        known = (m * L + p * (L - 1), 2 * (m + p) * L)
        inverted = [shape for name, shape, _ in linalg_calls if name == "svd" and shape == known]
        assert res.order == n
        assert cut == samples
        assert len(inverted) == 1
        assert excitation_tests == []
        assert_allclose(res.markov, dd.markov_parameters(sys, 2 * n + 1), atol=1e-8)


def identify_without_certificates(ct):
    """identify with every sample certificate refused: each depth is built and
    factored, as before samples were cut."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd.ident, "certifies_rank", lambda *args: False)
        return dd.identify(ct)


def assert_same_identification(res, ref):
    assert res.order == ref.order and res.segment_report == ref.segment_report
    assert np.array_equal(res.markov, ref.markov) and res.residual == ref.residual
    assert all(np.array_equal(getattr(res.system, f), getattr(ref.system, f)) for f in "ABCD")


def test_scan_falls_back_where_the_longest_run_opens_with_zero_input(monkeypatch):
    # The certificate's sample is cut from the start of the longest run.
    # There the input is zero, so the sample's rank is not the data's at any
    # depth: every depth is built and factored, as with no certificate, and
    # identify still recovers the system, bit for bit as without it.
    rng = np.random.default_rng(14)
    sys = random_system(rng, 2, 1, 1)
    u = rng.standard_normal((200, 1))
    u[61:101] = 0.0  # the longest run, 61..199, opens with 40 zero inputs
    traj = dd.simulate(sys, rng.standard_normal(2), u)
    uu, yy = traj.u.copy(), traj.y.copy()
    uu[60], yy[60] = np.nan, np.nan
    ct = dd.CorruptedTrajectory(u=uu, y=yy)
    factored, certified = [], []
    spy(monkeypatch, dd.ident, "gram_factor", factored, lambda M: len(M) // 2)
    real_certify = dd.ident.certifies_rank

    def certify(*args):
        certified.append(real_certify(*args))
        return certified[-1]

    monkeypatch.setattr(dd.ident, "certifies_rank", certify)
    res = dd.identify(ct)
    L = lag(sys) + 1
    assert factored == list(range(1, L + 1))
    assert certified == [False] * L
    assert res.order == 2
    assert_allclose(res.markov, dd.markov_parameters(sys, 5), atol=1e-8)
    monkeypatch.setattr(dd.ident, "certifies_rank", real_certify)
    assert_same_identification(res, identify_without_certificates(ct))


def test_scan_factors_the_stall_whose_sample_cannot_complete(monkeypatch):
    # A stall whose rank the sample certifies but whose completion's defect
    # bound the sample cannot bring within the uniqueness cutoff is built and
    # factored by the scan, like a depth whose rank the sample cannot
    # certify: the stall alone is factored, and identify gives what it gives
    # with no certificate, bit for bit.
    factored = []
    spy(monkeypatch, dd.ident, "gram_factor", factored, lambda M: len(M))
    rng = np.random.default_rng(16)
    sys = random_system(rng, 3, 2, 2)
    ct = make_record(sys, rng, 300, missing=[100, 211])
    L = lag(sys) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd.ident, "_defect_bound", lambda *args: np.inf)
        res = dd.identify(ct)
    assert factored == [4 * L]
    assert res.order == 3
    assert_same_identification(res, identify_without_certificates(ct))
    # Zero input: the estimates stall at order 0, which the sample certifies,
    # but the data do not determine the impulse responses; the refusal is
    # the one taken on all the data.
    sys = random_system(rng, 2, 1, 1)
    traj = dd.simulate(sys, rng.standard_normal(2), np.zeros((300, 1)))
    ct = dd.CorruptedTrajectory(u=traj.u, y=traj.y)
    factored.clear()
    with pytest.raises(dd.InsufficientDataError) as found:
        dd.identify(ct)
    assert factored == [2 * 2]
    with pytest.raises(dd.InsufficientDataError) as reference:
        identify_without_certificates(ct)
    assert str(found.value) == str(reference.value)


def test_identify_peak_memory_is_below_half_the_stall_dictionary():
    # On one long complete record identify forms no (m+p)L x N window
    # matrix: the pass over the records works in blocks, so its peak, the
    # record's own samples included, stays below half the stall dictionary.
    rng = np.random.default_rng(15)
    sys = random_system(rng, 3, 2, 2)
    traj = dd.simulate(sys, rng.standard_normal(3), rng.standard_normal((20_000, 2)))
    ct = dd.CorruptedTrajectory(u=traj.u, y=traj.y)
    L = lag(sys) + 1
    stall_bytes = (2 + 2) * L * (20_000 - L + 1) * 8
    tracemalloc.start()
    try:
        res = dd.identify(ct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.order == 3
    assert peak < stall_bytes / 2, (peak, stall_bytes)


def test_recover_markov_inverts_the_dictionary_once(linalg_calls):
    rng = np.random.default_rng(11)
    sys = random_system(rng, 3, 2, 2)
    u = pe_inputs(rng, 1, dd.pe_length_bound(7, 2, 1) + 5, 2, 7)[0]
    traj = dd.simulate(sys, rng.standard_normal(3), u)
    mk = dd.recover_markov_parameters([(traj.u, traj.y)], order=3, count=7)
    known = (2 * 4 + 2 * 3, (2 + 2) * 4)  # mL + p(L-1) rows of the depth-4 factor
    calls = [shape for name, shape, _ in linalg_calls if name == "svd" and shape == known]
    assert len(calls) == 1
    assert_allclose(mk, dd.markov_parameters(sys, 7), atol=1e-8)


def test_each_data_matrix_is_factored_once(linalg_calls):
    # On generic data identify factors no N-column matrix: the rank of every
    # depth and the stall's completion are decided on a k x 2k sample
    # (k = (m+p)L), and certified on all N columns by one pass over the
    # records, so no linear-algebra call sees more than 2k columns.  A
    # data-driven simulation and impulse recovery each factor their one
    # dictionary once, by one QR of its transpose; nothing else works on
    # more columns than k after it, however many windows were recorded.
    rng = np.random.default_rng(13)
    for n, m, p in [(1, 1, 1), (3, 1, 1), (4, 2, 2), (5, 1, 2), (6, 2, 3)]:
        sys = random_system(rng, n, m, p)
        ct = make_record(sys, rng, 300, missing=[100, 211])
        linalg_calls.clear()
        res = dd.identify(ct)
        L = lag(sys) + 1
        assert res.order == n
        assert [name for name, *_ in linalg_calls if name == "qr"] == []
        assert all(shape[-1] <= 2 * (m + p) * L for name, shape, _ in linalg_calls)
        # Where the longest run, 101..210, opens with zero input, no sample
        # has the data's rank: each depth is built and factored once.
        u = rng.standard_normal((300, m))
        u[101:161] = 0.0
        traj = dd.simulate(sys, rng.standard_normal(n), u)
        present = ~np.isin(np.arange(300), [100, 211])[:, None]
        zeroed = dd.CorruptedTrajectory(u=np.where(present, traj.u, np.nan),
                                        y=np.where(present, traj.y, np.nan))
        linalg_calls.clear()
        assert dd.identify(zeroed).order == n
        assert [shape for name, shape, _ in linalg_calls if name == "qr"] == \
            [(298 - 3 * (depth - 1), (m + p) * depth) for depth in range(1, L + 1)]

        d = dd.build_data_matrix([(ct.u[:100], ct.y[:100])], L)
        past = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((L - 1, m)))
        linalg_calls.clear()
        dd.datadriven_simulate(d, past.u, past.y, rng.standard_normal((5, m)))
        assert [name for name, *_ in linalg_calls if name == "qr"] == ["qr"]
        assert all(shape[-1] <= (m + p) * L for name, shape, _ in linalg_calls if name != "qr")
        assert d.n_columns > (m + p) * L

        linalg_calls.clear()
        dd.recover_markov_parameters([(ct.u[:100], ct.y[:100])], n, 2 * n + 1)
        rows = (m + p) * (n + 1)  # the depth-(n+1) dictionary
        assert [shape[1] for name, shape, _ in linalg_calls if name == "qr"] == [rows]
        assert all(shape[-1] <= rows for name, shape, _ in linalg_calls if name != "qr")


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
    # differ by at most rounding_per_unit_g times ||g||.
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    per_g = rounding_per_unit_g(A_known, A_new)
    for j in range(m):
        us = np.zeros((n + count, m))
        us[n, j] = 1.0
        ys = np.vstack([np.zeros((n, p)), mk[:, :, j]])
        for t in range(count):
            y = dd.datadriven_simulate(d, us[t:t + n], ys[t:t + n], us[t + n:t + L])[0]
            b = np.concatenate([us[t:t + L].reshape(-1), ys[t:t + n].reshape(-1)])
            g = np.linalg.lstsq(A_known, b, rcond=None)[0]
            assert np.linalg.norm(y - mk[t, :, j]) <= per_g * np.linalg.norm(g)
