"""Randomized properties of the matrix constructions and completion solves."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddlti as dd
from conftest import lag, pe_inputs, random_system

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


def rounding_per_unit_g(A_known, A_new):
    """The bound test_datadriven_simulate_matches_lstsq_loop derives on one
    completed output, per unit of ||g||: 2 max(shape) eps kappa ||A_new||."""
    s = np.linalg.svd(A_known, compute_uv=False)
    kappa = s[0] / s[s > EPS * max(A_known.shape) * s[0]][-1]
    return 2 * max(A_known.shape) * EPS * kappa * np.linalg.norm(A_new, 2)


@PROPERTY
@given(n=st.integers(1, 3), m=st.integers(1, 2), p=st.integers(1, 3),
       extra=st.integers(0, 2), F=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_datadriven_simulate_certifies_completions_past_the_lag(n, m, p, extra, F, seed):
    # With L-1 >= l and inputs exciting of order n + L, the known rows
    # determine the new output: nothing raises, and each one-step completion
    # from a true past is the model's output within the bound
    # test_datadriven_simulate_matches_lstsq_loop derives.
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m, p)
    L = lag(sys) + 1 + extra
    u = pe_inputs(rng, 1, dd.pe_length_bound(n + L, m, 1) + 10, m, n + L)[0]
    rec = dd.simulate(sys, rng.standard_normal(n), u)
    d = dd.build_data_matrix([(rec.u, rec.y)], L)
    ref = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((L - 1 + F, m)))

    A_known = d.matrix[:m * L + p * (L - 1)]
    per_g = rounding_per_unit_g(A_known, d.matrix[m * L + p * (L - 1):])
    for t in range(F):
        y = dd.datadriven_simulate(d, ref.u[t:t + L - 1], ref.y[t:t + L - 1],
                                   ref.u[t + L - 1:t + L])[0]
        b = np.concatenate([ref.u[t:t + L].reshape(-1), ref.y[t:t + L - 1].reshape(-1)])
        g = np.linalg.lstsq(A_known, b, rcond=None)[0]
        assert np.linalg.norm(y - ref.y[t + L - 1]) <= per_g * np.linalg.norm(g)


def downward_scan(segments, max_order=None, rtol=dd.DEFAULT_RANK_RTOL):
    """Reference: ``scan_order`` as it was before the upward scan, which tried
    the deepest feasible depth first, with ``estimate_order``'s check inlined."""
    m = segments[0][0].channels
    p = segments[0][1].channels
    cap = max(u.length for u, _ in segments)
    if max_order is not None:
        cap = min(cap, max_order + 1)
    order = None
    for depth in range(cap, 1, -1):
        pairs = [(u, y) for u, y in segments if u.length >= depth]
        n_cols = sum(u.length - depth + 1 for u, _ in pairs)
        if n_cols < (m + p) * depth:
            continue
        est = [dd.numerical_rank(dd.build_data_matrix(pairs, d).matrix, rtol) - m * d
               for d in (depth - 1, depth)]
        if est[0] == est[1] and est[1] >= 0:
            order = est[1]
            break
    if order is None:
        raise dd.OrderUndeterminedError("no window depth produced a stable order estimate")
    if max_order is not None and order > max_order:
        raise dd.OrderUndeterminedError(f"estimated order {order} exceeds the cap {max_order}")
    return order


def gappy_record(rng, n, m, p, T, gap, kind):
    """A random system and its response to a "gauss", "ternary" or "zero"
    input, each sample missing with probability ``gap`` (never all of them)."""
    sys = random_system(rng, n, m, p)
    u = {"gauss": lambda: rng.standard_normal((T, m)),
         "ternary": lambda: rng.integers(-1, 2, size=(T, m)).astype(float),
         "zero": lambda: np.zeros((T, m))}[kind]()
    rec = dd.simulate(sys, rng.standard_normal(n), u)
    keep = rng.random(T) >= gap
    if not keep.any():
        keep[0] = True
    blank = np.where(keep[:, None], 1.0, np.nan)
    return sys, dd.CorruptedTrajectory(u=rec.u * blank, y=rec.y * blank)


def outcome(scan, segments, max_order):
    try:
        return scan(segments, max_order=max_order)
    except dd.OrderUndeterminedError:
        return "undetermined"


@settings(PROPERTY, max_examples=300)
@given(n=st.integers(0, 6), m=st.integers(1, 3), p=st.integers(1, 3),
       T=st.integers(1, 80), gap=st.sampled_from([0.0, 0.05, 0.2]),
       kind=st.sampled_from(["gauss", "ternary", "zero"]),
       max_order=st.none() | st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_scan_order_matches_downward_scan(n, m, p, T, gap, kind, max_order, seed):
    _, ct = gappy_record(np.random.default_rng(seed), n, m, p, T, gap, kind)
    segs = dd.segment_trajectory(ct)
    assert outcome(dd.scan_order, segs, max_order) == outcome(downward_scan, segs, max_order)


@PROPERTY
@given(mask=st.lists(st.booleans(), min_size=1, max_size=30), min_len=st.integers(1, 4),
       start=st.integers(-5, 5))
def test_segment_trajectory_matches_loop(mask, min_len, start):
    present = np.array(mask)
    T = present.size
    u = np.where(present[:, None], np.arange(T, dtype=float)[:, None], np.nan)
    ct = dd.CorruptedTrajectory(u=u, y=2.0 * u, start_time=start)
    # Reference: the run-by-run loop the vectorized edges replaced.
    runs, t = [], 0
    while t < T:
        if not present[t]:
            t += 1
            continue
        s = t
        while t < T and present[t]:
            t += 1
        if t - s >= min_len:
            runs.append((start + s, t - s))
    if not runs:
        with pytest.raises(dd.NoUsableDataError):
            dd.segment_trajectory(ct, min_len=min_len)
        return
    pairs = dd.segment_trajectory(ct, min_len=min_len)
    assert [(u.start_time, u.length) for u, _ in pairs] == runs
    assert all(y.start_time == u.start_time and y.length == u.length for u, y in pairs)
    for (u_seg, y_seg), (s, _) in zip(pairs, runs):
        assert np.array_equal(u_seg.samples, ct.u[s - start:s - start + u_seg.length])
        assert np.array_equal(y_seg.samples, ct.y[s - start:s - start + y_seg.length])


def parent_identify(ct, rtol=dd.DEFAULT_RANK_RTOL, tol=1e-6):
    """Reference: ``identify``'s path before it completed on the scan's own
    dictionary.  It built a second dictionary at depth order + 1, required
    collective excitation of order 2 * order + 1 and checked no uniqueness.
    Returns (order, markov, dictionary)."""
    segs = dd.segment_trajectory(ct)
    order = dd.scan_order(segs, rtol=rtol)
    L, count = order + 1, 2 * order + 1
    usable = [(u, y) for u, y in segs if u.length >= L]
    pe_set = [u for u, _ in usable if u.length >= order + L]
    if not pe_set or not dd.is_persistently_exciting(pe_set, order + L, rtol):
        raise dd.ExcitationError(f"not collectively exciting of order {order + L}")
    d = dd.build_data_matrix(usable, L)
    m, p = d.m, d.p
    k = m * L + p * order
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    A_pinv = np.linalg.pinv(A_known, rcond=EPS * max(A_known.shape))
    us = np.zeros((order + count, m, m))
    us[order] = np.eye(m)
    ys = np.zeros((order + count, p, m))
    for t in range(count):
        b = np.concatenate([us[t:t + L].reshape(-1, m), ys[t:t + order].reshape(-1, m)])
        g = A_pinv @ b
        r = np.linalg.norm(A_known @ g - b, axis=0)
        b_norm = np.linalg.norm(b, axis=0)
        if np.divide(r, b_norm, out=r, where=b_norm > 0.0).max() > tol:
            raise dd.InconsistentPastError("the data cannot explain a zero past")
        ys[t + order] = A_new @ g
    dd.ho_kalman(ys[order:], order, rtol)
    return order, ys[order:], d


def impulse_error_bound(d, markov):
    """Forward-error bound on Markov parameters completed on dictionary d.

    Step t solves A_known g = b_t, where b_t holds the impulse and the L-1
    outputs completed before it, and returns A_new g.  Its own rounding e_t
    is at most ``rounding_per_unit_g`` times ||g||.  The errors of the
    earlier outputs in b_t pass through Z = A_new A_known^+ restricted to
    the past-output rows, so E_t = e_t + ||Z_y|| (E_{t-1} + ... + E_{t-L+1}).
    """
    L, m, p = d.depth, d.m, d.p
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    per_g = rounding_per_unit_g(A_known, A_new)
    Z_y = np.linalg.norm((A_new @ np.linalg.pinv(A_known))[:, m * L:], 2) if L > 1 else 0.0
    count = len(markov)
    us = np.zeros((L - 1 + count, m, m))
    us[L - 1] = np.eye(m)
    ys = np.concatenate([np.zeros((L - 1, p, m)), markov])
    E = np.zeros(L - 1 + count)
    for t in range(count):
        b = np.concatenate([us[t:t + L].reshape(-1, m), ys[t:t + L - 1].reshape(-1, m)])
        g = np.linalg.lstsq(A_known, b, rcond=None)[0]
        E[t + L - 1] = per_g * np.linalg.norm(g) + Z_y * E[t:t + L - 1].sum()
    return E[L - 1:]


@settings(PROPERTY, max_examples=200)
@given(n=st.integers(0, 6), m=st.integers(1, 3), p=st.integers(1, 3),
       T=st.integers(10, 160), gap=st.sampled_from([0.0, 0.05, 0.2]),
       kind=st.sampled_from(["gauss", "ternary", "zero"]), seed=st.integers(0, 2**32 - 1))
def test_identify_matches_parent_and_model(n, m, p, T, gap, kind, seed):
    # Wherever the parent identifies, the change gives the same order and
    # Markov parameters within both completions' error bounds; wherever the
    # change identifies, they are the generating model's within its bound.
    sys, ct = gappy_record(np.random.default_rng(seed), n, m, p, T, gap, kind)
    try:
        order, markov, d_parent = parent_identify(ct)
    except dd.DdltiError:
        order = None
    try:
        res = dd.identify(ct)
    except dd.DdltiError:
        assert order is None, "the parent identified this record"
        return
    _, d = dd.ident._scan(dd.segment_trajectory(ct), None, dd.DEFAULT_RANK_RTOL)
    bound = impulse_error_bound(d, res.markov)
    assert res.order == n
    err = np.linalg.norm(res.markov - dd.markov_parameters(sys, 2 * n + 1), axis=(1, 2))
    assert np.all(err <= bound)
    if order is not None:
        assert res.order == order
        err = np.linalg.norm(res.markov - markov, axis=(1, 2))
        assert np.all(err <= bound + impulse_error_bound(d_parent, markov))
