"""Randomized properties of the matrix constructions and completion solves."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddlti as dd
from conftest import random_system

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(T=st.integers(1, 25), d=st.integers(1, 3), back=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
@example(T=6, d=2, back=0, seed=0)
def test_hankel_matches_column_loop(T, d, back, seed):
    depth = max(1, T - back)
    seg = dd.SignalSegment(np.random.default_rng(seed).standard_normal((T, d)))
    signal = seg.samples.copy()
    H = dd.hankel_matrix(seg, depth)
    ref = np.empty((depth * d, T - depth + 1))
    for j in range(T - depth + 1):
        ref[:, j] = signal[j:j + depth].reshape(-1)
    assert np.array_equal(H, ref)
    assert H.flags.c_contiguous
    H += 1.0
    assert np.array_equal(seg.samples, signal)


@PROPERTY
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       d=st.integers(1, 2), back=st.integers(0, 11), seed=st.integers(0, 2**32 - 1))
def test_excitation_rank_is_numerical_rank(lengths, d, back, seed):
    # Entries from {-1, 0, 1} make rank-deficient mosaics common.
    rng = np.random.default_rng(seed)
    signals = [rng.integers(-1, 2, size=(T, d)).astype(float) for T in lengths]
    depth = max(1, min(lengths) - back)
    rep = dd.excitation_report(signals, depth)
    assert rep.rank == dd.numerical_rank(dd.mosaic_hankel(signals, depth))


@PROPERTY
@given(n=st.integers(1, 3), m=st.integers(1, 2), p=st.integers(1, 2),
       F=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_datadriven_simulate_matches_lstsq_loop(n, m, p, F, seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m, p)
    L = n + 1
    T = 2 * (m + 1) * (n + L) + 10
    rec = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((T, m)))
    d = dd.build_data_matrix([(rec.u, rec.y)], L)
    past = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((L - 1, m)))
    future_u = rng.standard_normal((F, m))
    ys = dd.datadriven_simulate(d, past.u, past.y, future_u)

    # Reference: a fresh lstsq per step on the window the code under test saw.
    # Both solvers are backward stable, so each completed output may differ
    # from the reference by at most a dimension factor times eps times the
    # condition number of A_known (over the singular values lstsq keeps),
    # times the size of A_new @ g; twice that covers both solvers' errors.
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    s = np.linalg.svd(A_known, compute_uv=False)
    kappa = s[0] / s[s > EPS * max(A_known.shape) * s[0]][-1]
    us = np.vstack([past.u, future_u])
    yall = np.vstack([past.y, ys])
    for t in range(F):
        b = np.concatenate([us[t:t + L].reshape(-1), yall[t:t + L - 1].reshape(-1)])
        g = np.linalg.lstsq(A_known, b, rcond=None)[0]
        bound = 2 * max(A_known.shape) * EPS * kappa * np.linalg.norm(A_new, 2) * np.linalg.norm(g)
        assert np.linalg.norm(A_new @ g - ys[t]) <= bound
