import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from conftest import pe_inputs

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
