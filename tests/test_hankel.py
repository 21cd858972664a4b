import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import least_refused_depth, pe_inputs, traced_peak

FIXTURE_INPUTS = [
    np.array([1.0, 0.0, 2.0, -1.0, 0.0]),
    np.array([1.0, 1.0, -1.0, -5.0, 0.0, -1.0]),
    np.array([1.0, -6.0, 2.0, -2.0, 0.0, 1.0]),
]


def test_hankel_scalar():
    H = dd.hankel_matrix([1.0, 2.0, 3.0, 4.0], 2)
    assert_allclose(H, [[1, 2, 3], [2, 3, 4]])


def test_hankel_known_columns():
    H = dd.hankel_matrix(FIXTURE_INPUTS[0], 3)
    assert_allclose(H.T, [[1, 0, 2], [0, 2, -1], [2, -1, 0]])


def test_hankel_full_depth_single_column():
    samples = np.arange(12.0).reshape(4, 3)
    H = dd.hankel_matrix(samples, 4)
    assert H.shape == (12, 1)
    assert_allclose(H[:, 0], samples.reshape(-1))


def test_hankel_depth_too_large():
    with pytest.raises(dd.DepthTooLargeError):
        dd.hankel_matrix([1.0, 2.0], 3)


def test_hankel_entry_identity():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((9, 2))
    k = 4
    H = dd.hankel_matrix(w, k)
    assert H.shape == (k * 2, 9 - k + 1)
    for r in range(k):
        for s in range(2):
            for c in range(H.shape[1]):
                assert H[r * 2 + s, c] == w[r + c, s]


def test_hankel_shift_structure():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((10, 2))
    H = dd.hankel_matrix(w, 3)
    Hs = dd.hankel_matrix(w[1:], 3)
    assert_allclose(H[:, 1:], Hs[:, : H.shape[1] - 1])


def test_mosaic_single_block_equals_hankel():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((8, 2))
    assert_allclose(dd.mosaic_hankel([w], 3), dd.hankel_matrix(w, 3))


def test_mosaic_fixture_shape():
    M = dd.mosaic_hankel(FIXTURE_INPUTS, 5)
    assert M.shape == (5, 5)  # (5-5+1) + (6-5+1) + (6-5+1) columns


def test_mosaic_nested_list_is_signals_ndarray_is_one_signal():
    x = [[1, 2], [3, 4], [5, 6]]
    assert np.array_equal(dd.mosaic_hankel(x, 1), [[1, 2, 3, 4, 5, 6]])
    assert np.array_equal(dd.mosaic_hankel(np.array(x), 1), [[1, 3, 5], [2, 4, 6]])


def test_mosaic_duplicate_segment_keeps_rank():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((9, 1))
    r1 = dd.numerical_rank(dd.mosaic_hankel([w], 3))
    r2 = dd.numerical_rank(dd.mosaic_hankel([w, w], 3))
    assert r1 == r2


def test_mosaic_rejects_mixed_dims_and_short_segments():
    with pytest.raises(dd.InputError):
        dd.mosaic_hankel([np.ones((5, 1)), np.ones((5, 2))], 2)
    with pytest.raises(dd.DepthTooLargeError, match="signal 1"):
        dd.mosaic_hankel([np.ones((5, 1)), np.ones((2, 1))], 3)


def test_pe_zero_signal():
    assert not dd.is_persistently_exciting(np.zeros(10), 2)


def test_pe_fixture_first_segment_order_3():
    assert dd.is_persistently_exciting(FIXTURE_INPUTS[0], 3)


def test_pe_constant_signal():
    assert not dd.is_persistently_exciting(np.ones(4), 2)


def test_collective_pe_fixture_order_5():
    assert dd.is_persistently_exciting(FIXTURE_INPUTS, 5)


def test_collective_pe_all_zero():
    assert not dd.is_persistently_exciting([np.zeros(6), np.zeros(6)], 2)


def test_collective_pe_distinct_constants():
    segs = [np.full(5, c) for c in (1.0, 2.0, 3.0)]
    # each block has rank 1, but both rows of every block are equal
    assert not dd.is_persistently_exciting(segs, 2)


def test_pe_monotone_in_order():
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = rng.standard_normal((int(rng.integers(6, 15)), int(rng.integers(1, 3))))
        orders = [k for k in range(1, w.shape[0] + 1)
                  if dd.is_persistently_exciting(w, k)]
        if orders:
            assert orders == list(range(1, max(orders) + 1))


def test_pe_length_bound_values():
    assert dd.pe_length_bound(5, 2, 5) == 30
    assert dd.pe_length_bound(5, 2, 1) == 14
    assert dd.pe_length_bound(1, 1, 1) == 1


def test_pe_length_bound_is_necessary():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        q = int(rng.integers(1, 4))
        bound = dd.pe_length_bound(k, m, q)
        # split bound-1 samples over q segments, each at least k long if possible
        total = bound - 1
        if total < q * k:
            continue
        lengths = [k] * q
        for _ in range(total - q * k):
            lengths[int(rng.integers(0, q))] += 1
        segs = [rng.standard_normal((T, m)) for T in lengths]
        assert not dd.is_persistently_exciting(segs, k)


def test_bound_met_does_not_imply_pe():
    # enough samples, but the signals are zero
    k, m, q = 3, 1, 2
    T = dd.pe_length_bound(k, m, q)
    segs = [np.zeros((T, m)), np.zeros((T, m))]
    assert not dd.is_persistently_exciting(segs, k)


def test_collective_pe_order_invariant_under_permutation():
    rng = np.random.default_rng(14)
    segs = [rng.standard_normal((7, 2)) for _ in range(3)]
    k = 2
    base = dd.is_persistently_exciting(segs, k)
    assert dd.is_persistently_exciting(segs[::-1], k) == base


def test_excitation_report_fields():
    rep = dd.excitation_report(FIXTURE_INPUTS, 5)
    assert rep.exciting and rep.rank == 5 and rep.required_rank == 5
    assert rep.n_columns == 5
    assert rep.singular_values.shape == (5,)


def test_max_excitation_order():
    rng = np.random.default_rng(16)
    us = pe_inputs(rng, 1, 11, 1, 5)
    assert dd.max_excitation_order(us[0]) >= 5
    assert dd.max_excitation_order(np.zeros(8)) == 0


def test_max_excitation_order_tests_the_counting_bound_first(monkeypatch):
    # Generic white input reaches the counting bound min(min T, (sum T + q) // (d + q)),
    # so one excitation test, at that bound, decides the order.
    tested, real = [], dd.hankel._excitation

    def spy(stack, depth, rtol):
        tested.append(depth)
        return real(stack, depth, rtol)
    monkeypatch.setattr(dd.hankel, "_excitation", spy)
    rng = np.random.default_rng(17)
    for lengths, d, bound in [([200], 1, 100), ([300], 2, 100), ([40, 25, 60], 2, 25),
                              ([12] * 10, 1, 11)]:
        tested.clear()
        assert dd.max_excitation_order([rng.standard_normal((T, d)) for T in lengths]) == bound
        assert tested == [bound]


def test_excitation_report_peak_memory_is_below_half_the_mosaic():
    # The test folds the mosaic's blocks into its factor without forming the
    # 10 x (T - 4) mosaic, so its peak, the stacked record included, stays
    # below half of that mosaic.
    signal = np.random.default_rng(18).standard_normal((100_000, 2))
    report, peak = traced_peak(lambda: dd.excitation_report(signal, 5))
    mosaic_bytes = 5 * 2 * (100_000 - 4) * 8
    assert report.exciting and report.n_columns == 100_000 - 4
    assert peak < mosaic_bytes / 2, (peak, mosaic_bytes)


def test_a_family_that_fits_one_fold_step_is_folded_in_one_qr(monkeypatch, linalg_calls):
    # With more rows than PASS_BLOCK, a fold in blocks of PASS_BLOCK windows
    # holds a wide first factor, then a stacked copy of it and the next block,
    # above what one QR of the formed mosaic holds.  A family whose windows
    # fit one fold step, [factor; block'], is folded in one QR, and the test
    # peaks at most as it does on the formed mosaic, but for the Python
    # objects of the walker that yields the block (its suspended frame, under
    # a kilobyte) and of first calls: 4 KiB, against a 9.7 MB mosaic.
    depth = dd.hankel.PASS_BLOCK + 76
    signal = np.random.default_rng(23).standard_normal(2 * depth)  # a depth x (depth + 1) mosaic
    report, peak = traced_peak(lambda: dd.excitation_report(signal, depth))
    assert [shape for name, shape, _ in linalg_calls if name == "qr"] == [(depth + 1, depth)]
    monkeypatch.setattr(dd.hankel._Stack, "fold",
                        lambda stack, depth: dd._linalg.gram_factor([stack.mosaic(depth)]))
    formed, formed_peak = traced_peak(lambda: dd.excitation_report(signal, depth))
    assert report.exciting and report.rank == formed.rank == depth
    assert peak <= formed_peak + 4096, (peak, formed_peak)


def test_excitation_tests_above_the_memory_limit_are_refused_before_allocating():
    # The depth-side test of 2 * side samples folds a side x (side + 1) mosaic
    # into a side x side factor, one side x PASS_BLOCK block at a time: the
    # least depth whose factor plus block exceed the limit.  The record
    # itself is 2 * side floats.
    side, block = least_refused_depth(), dd.hankel.PASS_BLOCK
    signal = np.zeros(2 * side)
    size = 8 * side * (side + block)
    assert 8 * (side - 1) * (side - 1 + block) <= dd.hankel.MAX_FOLD_BYTES < size
    message = (f"^the depth-{side} fold needs {size} bytes to factor its "
               f"{side} x {side + 1} matrix, above the "
               f"{dd.hankel.MAX_FOLD_BYTES}-byte limit$")
    tracemalloc.start()
    try:
        for call in (dd.excitation_report, dd.is_persistently_exciting):
            with pytest.raises(dd.InputError, match=message):
                call(signal, side)
        with pytest.raises(dd.InputError, match=message):
            dd.max_excitation_order(signal)  # the counting bound is tested first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size // 100


def test_every_fold_refuses_above_the_limit_before_allocating(monkeypatch):
    # The byte limit is the fold's own, so the order scan's deep folds, a
    # dictionary's factor and the rank condition refuse as an excitation test
    # does.  At a 1 MiB limit each is refused with its depth, its bytes and the
    # limit before its fold allocates: the peak traced from the fold's start,
    # and the whole call's, stay below the limit.  On 800 noise samples with
    # m = p = 2 the scan probes its way to depth 78, whose 312 x 624 sample
    # (1.5 MiB) is above the limit, so the depth is folded and refused.
    limit, peaks, calls, real = 1 << 20, [], [], dd.hankel._Stack.fold

    def fold(stack, depth):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            return real(stack, depth)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    monkeypatch.setattr(dd.hankel, "MAX_FOLD_BYTES", limit)
    monkeypatch.setattr(dd.hankel._Stack, "fold", fold)
    rng = np.random.default_rng(25)
    ct = dd.CorruptedTrajectory(u=rng.standard_normal((800, 2)), y=rng.standard_normal((800, 2)))
    system = dd.LtiSystem(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                          D=np.zeros((1, 1)))
    states, inputs = rng.standard_normal((3_000, 2)), rng.standard_normal((3_000, 1))
    for call, depth, rows, cols in [
            (lambda: dd.identify(ct), 78, 312, 723),
            (lambda: dd.build_data_matrix([(ct.u, ct.y)], 40).factor, 40, 160, 761),
            (lambda: dd.check_rank_condition(system, [states], [inputs], 100), 100, 300, 2_901)]:
        held = 8 * rows * (min(rows, cols) + min(dd.hankel.PASS_BLOCK, cols))
        message = (f"^the depth-{depth} fold needs {held} bytes to factor its {rows} x {cols} "
                   f"matrix, above the {limit}-byte limit$")
        tracemalloc.start()
        try:
            with pytest.raises(dd.InputError, match=message):
                call()
            calls.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(peaks) == 3 and max(peaks) < limit, peaks
    assert max(calls) < limit, calls


def test_a_flat_list_of_numbers_is_one_signal():
    # The reading rule: a flat list of numbers is one signal, as its ndarray is.
    samples = [1.0, 0.0, 2.0, -1.0, 0.0, 3.0, 1.0]
    signal = np.array(samples)
    assert np.array_equal(dd.hankel_matrix(samples, 3), dd.hankel_matrix(signal, 3))
    assert np.array_equal(dd.mosaic_hankel(samples, 3), dd.mosaic_hankel(signal, 3))
    listed, given = dd.excitation_report(samples, 3), dd.excitation_report(signal, 3)
    for name, value in vars(given).items():
        assert np.array_equal(getattr(listed, name), value), name
