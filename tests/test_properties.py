"""Randomized properties of the matrix constructions and completion solves."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddlti as dd
from ddlti._linalg import gram_factor, minnorm, rank_of, svd_rank
from conftest import (EPS, gappy_record, impulse_error_bound, lag, pe_inputs, random_system,
                      rounding_per_unit_g)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def windows(signals, depth):
    """Reference mosaic: column j is recorded window j, flattened time-major."""
    return np.column_stack([w[j:j + depth].reshape(-1)
                            for w in signals for j in range(len(w) - depth + 1)])


@PROPERTY
@given(T=st.integers(1, 25), d=st.integers(1, 3), back=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
@example(T=6, d=2, back=0, seed=0)
def test_hankel_matches_column_loop(T, d, back, seed):
    depth = max(1, T - back)
    seg = dd.SignalSegment(np.random.default_rng(seed).standard_normal((T, d)))
    signal = seg.samples.copy()
    H = dd.hankel_matrix(seg, depth)
    assert np.array_equal(H, windows([signal], depth))
    assert H.flags.c_contiguous
    H += 1.0
    assert np.array_equal(seg.samples, signal)


@settings(PROPERTY, max_examples=60)
@given(extra=st.lists(st.integers(0, 8), min_size=1, max_size=100), depth=st.integers(1, 5),
       d=st.integers(1, 3), p=st.integers(1, 3), sliced=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(extra=[0], depth=1, d=1, p=1, sliced=False, seed=0)
@example(extra=[0, 5, 0, 2], depth=4, d=3, p=2, sliced=True, seed=1)
@example(extra=[3] * 100, depth=1, d=2, p=1, sliced=True, seed=2)
@example(extra=[i % 7 for i in range(100)], depth=3, d=2, p=3, sliced=False, seed=3)
@example(extra=[6], depth=4, d=2, p=3, sliced=True, seed=4)  # one record: one concatenation
def test_mosaic_and_data_matrix_are_their_definition(extra, depth, d, p, sliced, seed):
    # Records of depth + extra samples, so extra 0 gives one window; with
    # ``sliced`` each record is a column slice of a wider array, which is
    # not contiguous.  The data matrix stacks the input mosaic over the output.
    rng = np.random.default_rng(seed)
    us, ys = ([rng.standard_normal((depth + e, c + sliced))[:, sliced:] for e in extra]
              for c in (d, p))
    H = dd.mosaic_hankel(us, depth)
    assert np.array_equal(H, windows(us, depth)) and H.flags.c_contiguous
    M = dd.build_data_matrix(list(zip(us, ys)), depth).matrix
    assert np.array_equal(M, np.vstack([windows(us, depth), windows(ys, depth)]))
    assert M.flags.c_contiguous  # the row-major layout the dictionary's QR is fast on


@settings(PROPERTY, max_examples=100)
@given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=4), m=st.integers(1, 3),
       p=st.integers(0, 3), depth=st.integers(1, 6), rows=st.integers(0, 4),
       block=st.integers(1, 9), exponents=st.lists(st.integers(-8, 8), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(lengths=[20], m=2, p=2, depth=3, rows=3, block=4, exponents=[0] * 6, seed=0)
@example(lengths=[2, 9, 1, 5], m=1, p=0, depth=6, rows=0, block=2, exponents=[0] * 6, seed=1)
# Two short records share a block, so a record boundary lies inside it.
@example(lengths=[5, 3, 12], m=1, p=1, depth=2, rows=2, block=9, exponents=[0] * 6, seed=2)
# A record longer than two blocks, cut into four, then a record of its own.
@example(lengths=[20, 4], m=2, p=1, depth=3, rows=5, block=5, exponents=[0] * 6, seed=3)
def test_mosaic_product_is_the_product(lengths, m, p, depth, rows, block, exponents, seed):
    # The walker yields the records' dictionary-ordered mosaic in blocks of
    # at most PASS_BLOCK columns, runs shorter than the depth left out, and
    # windows that cross a record boundary too: side by side, the blocks are
    # the mosaic, byte for byte.  So the order scan's pass, X times each
    # block, is X times the mosaic.  Each entry of either side is a k-term
    # inner product, computed within gamma_k (|X| |M|) of the exact one,
    # gamma_k = k eps / (1 - k eps) (Higham, "Accuracy and Stability of
    # Numerical Algorithms", 2nd ed., eq. 3.13), so the two differ by at most
    # twice that.
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((m + p, sum(lengths))) * 10.0 ** np.array(exponents[:m + p])[:, None]
    stack = dd.hankel._Stack(W, np.cumsum(lengths), m)
    X = rng.standard_normal((rows, (m + p) * depth))
    M = stack.mosaic(depth)
    k = len(M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd.hankel, "PASS_BLOCK", block)
        blocks = list(stack.windows(depth))
    assert all(0 < B.shape[1] <= block and len(B) == k for B in blocks)
    assert np.array_equal(np.hstack(blocks) if blocks else np.zeros((k, 0)), M)
    product = np.hstack([X @ B for B in blocks]) if blocks else np.zeros((rows, 0))
    gamma = k * EPS / (1 - k * EPS)
    assert product.shape == (rows, M.shape[1])
    assert np.all(np.abs(product - X @ M) <= 2 * gamma * (np.abs(X) @ np.abs(M)))


def cycled(q):
    """Lengths of q records, 1 to 60 samples in turn, short records included."""
    return [1 + i % 60 for i in range(q)]


@settings(PROPERTY, max_examples=60)
@given(lengths=st.lists(st.integers(1, 60), min_size=1, max_size=40), m=st.integers(1, 3),
       p=st.integers(1, 3), depth=st.integers(1, 6), block=st.integers(1, 9),
       exponents=st.lists(st.integers(-8, 8), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(lengths=[60], m=2, p=2, depth=5, block=9, exponents=[0] * 6, seed=0)
@example(lengths=cycled(100), m=1, p=2, depth=4, block=7, exponents=[8, -8, 0, 0, 0, 0], seed=1)
@example(lengths=cycled(2_000), m=2, p=1, depth=6, block=9, exponents=[0] * 6, seed=2)
@example(lengths=[12] * 10_000, m=1, p=1, depth=5, block=9, exponents=[-8, 8, 0, 0, 0, 0],
         seed=3)
def test_the_fold_is_the_gram_matrix_of_the_mosaic(lengths, m, p, depth, block, exponents, seed):
    # The mosaic is its definition, byte for byte, and C-contiguous.  Its
    # factor, folded from the walker's blocks, has its Gram matrix within a
    # backward-error bound.  The fold is nb QRs, the i-th of S_i = [R_i-1;
    # B_i'] with at most a = k + PASS_BLOCK rows.  Householder QR gives the
    # exact R of S_i + E with ||E e_j|| <= gamma ||S_i e_j||, gamma = a k eps
    # (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    # Thm 19.4, with the constant the library's certificates take), and
    # ||S_i e_j|| <= (1 + gamma)^(i-1) r_j, r_j the norm of the mosaic's row j.
    # So fold i moves R'R from S_i'S_i = R_i-1'R_i-1 + B_i B_i' by at most
    # ((1 + gamma)^2 - 1) (1 + gamma)^(2i - 2) r_j r_l at entry (j, l), and all
    # nb folds by ((1 + gamma)^(2 nb) - 1) r_j r_l.  Forming L L' and M M'
    # adds gamma_k (1 + gamma)^(2 nb) and gamma_N of r_j r_l, inner products
    # of rows of norm at most (1 + gamma)^nb r_j and r_j; the computed row
    # norms are within gamma_N of r_j.
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((m + p, sum(lengths))) * 10.0 ** np.array(exponents[:m + p])[:, None]
    stack = dd.hankel._Stack(W, np.cumsum(lengths), m)
    records = np.split(W, stack.ends[:-1], axis=1)
    k = (m + p) * depth
    M = stack.mosaic(depth)
    if max(lengths) < depth:
        assert M.shape == (k, 0)
        return
    us, ys = [r[:m].T for r in records], [r[m:].T for r in records]
    assert np.array_equal(M, np.vstack([windows(us, depth), windows(ys, depth)]))
    assert M.flags.c_contiguous
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd.hankel, "PASS_BLOCK", block)
        nb = sum(1 for _ in stack.windows(depth))
        L = gram_factor(stack.windows(depth))
    N = M.shape[1]
    gamma, gamma_k, gamma_n = ((j * EPS / (1 - j * EPS)) for j in ((k + block) * k, k, N))
    r = np.linalg.norm(M, axis=1) / (1 - gamma_n)
    grown = (1 + gamma) ** (2 * nb)
    bound = (grown * (1 + gamma_k) - 1 + gamma_n) * np.outer(r, r)
    assert L.shape == (k, min(k, N))
    assert np.all(np.abs(L @ L.T - M @ M.T) <= bound)


@settings(PROPERTY, max_examples=60)
@given(runs=st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=200),
       n=st.integers(1, 3), m=st.integers(1, 2), broken=st.integers(0, 199),
       seed=st.integers(0, 2**32 - 1))
@example(runs=[(1, False)], n=1, m=1, broken=0, seed=0)
@example(runs=[(12, True), (1, False), (5, True)] * 66 + [(3, False)] * 2, n=3, m=2,
         broken=199, seed=1)
def test_assemble_batch_is_its_definition(runs, n, m, broken, seed):
    # Experiments of T steps, each given as an (x, u) pair or a StateTrajectory;
    # then one pair loses its terminal state, and the error names that experiment.
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((T + 1, n)) for T, _ in runs]
    us = [rng.standard_normal((T, m)) for T, _ in runs]
    exps = [dd.StateTrajectory(u=u, x=x[:-1], y=u[:, :1], final_state=x[-1]) if traj else (x, u)
            for x, u, (_, traj) in zip(xs, us, runs)]
    batch = dd.assemble_batch(exps)
    assert np.array_equal(batch.Xm, np.hstack([x[:-1].T for x in xs]))
    assert np.array_equal(batch.Xp, np.hstack([x[1:].T for x in xs]))
    assert np.array_equal(batch.Um, np.hstack([u.T for u in us]))
    assert batch.boundaries == tuple(np.cumsum([0] + [T for T, _ in runs[:-1]]).tolist())
    i = broken % len(exps)
    exps[i] = (xs[i][:-1], us[i])
    with pytest.raises(dd.InputError, match=f"^experiment {i}: states must have one more"):
        dd.assemble_batch(exps)


def test_rounding_bound_is_zero_when_no_singular_value_is_kept():
    # An all-zero A_known keeps no singular value: the min-norm g is exactly 0,
    # from the kernel and from lstsq alike, so the bound on its rounding is 0.
    A_known, b = np.zeros((3, 4)), np.ones(3)
    assert rounding_per_unit_g(A_known, np.ones((2, 4))) == 0.0
    assert not minnorm(A_known, b, 4)[0].any()
    assert not np.linalg.lstsq(A_known, b, rcond=None)[0].any()


@settings(PROPERTY, max_examples=80)
@given(k=st.integers(1, 12), N=st.integers(1, 12), deficit=st.integers(0, 12),
       q=st.integers(1, 3), zero_b=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(k=7, N=3, deficit=0, q=2, zero_b=False, seed=0)   # tall, full rank
@example(k=3, N=7, deficit=1, q=1, zero_b=False, seed=1)   # wide, rank 2
@example(k=6, N=5, deficit=3, q=3, zero_b=False, seed=2)   # planted rank 2
@example(k=4, N=4, deficit=4, q=2, zero_b=False, seed=3)   # M = 0
@example(k=5, N=2, deficit=0, q=1, zero_b=True, seed=4)    # B = 0
@example(k=3, N=3, deficit=3, q=2, zero_b=True, seed=5)    # M = 0 and B = 0
def test_kernel_matches_lstsq_and_numerical_rank(k, N, deficit, q, zero_b, seed):
    # A = G1 G2 has rank r in exact arithmetic.  Its computed trailing singular
    # values stayed below a third of the min-norm cutoff eps max(k, N) sigma_max
    # on 10^4 such draws up to 12 x 12, so kernel and lstsq drop the same ones.
    # One right-hand side is solved as a vector, as is_system_trajectory does.
    rng = np.random.default_rng(seed)
    r = max(0, min(k, N) - deficit)
    A = rng.standard_normal((k, r)) @ rng.standard_normal((r, N))
    B = np.zeros((k, q)) if zero_b else rng.standard_normal((k, q))
    B = B[:, 0] if q == 1 else B
    decision = svd_rank(A, dd.DEFAULT_RANK_RTOL)[3]
    assert decision.rank == dd.numerical_rank(A) == r
    # The decision's cut: sigma_r > cutoff >= sigma_{r+1}, where they exist.
    s = decision.singular_values
    assert r == 0 or s[r - 1] > decision.cutoff
    assert r == len(s) or decision.cutoff >= s[r]
    X, res = minnorm(A, B, N)
    X_ref = np.linalg.lstsq(A, B, rcond=None)[0]
    assert X.shape == X_ref.shape
    dX = (X - X_ref).reshape(N, -1)
    if r == 0:
        assert not X.any()
    else:
        bound = rounding_per_unit_g(A, np.eye(N))
        assert np.all(np.linalg.norm(dX, axis=0)
                      <= bound * np.linalg.norm(X_ref.reshape(N, -1), axis=0))
    # The residual rule on lstsq's X, within what A maps dX to plus the rounding
    # of each side's product (gamma_N), difference, norm (gamma_kq) and division.
    nb = np.linalg.norm(B)
    scale = nb if nb > 0.0 else 1.0
    ref = np.linalg.norm(A @ X_ref - B) / scale
    size = max(np.linalg.norm(X), np.linalg.norm(X_ref))
    slack = (np.linalg.norm(A, 2) * np.linalg.norm(dX)
             + 2 * (N + k * q + 2) * EPS * (np.linalg.norm(A) * size + nb))
    assert abs(res - ref) <= slack / scale


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
    # The report is the rank decision on the mosaic's factor, plus the verdict.
    decision = rank_of(gram_factor([dd.mosaic_hankel(signals, depth)]), dd.DEFAULT_RANK_RTOL)
    assert isinstance(rep, dd.RankDecision) and rep.rank == decision.rank
    assert np.array_equal(rep.singular_values, decision.singular_values)
    assert rep.cutoff == decision.cutoff


def linear_order_scan(signals, rtol=dd.DEFAULT_RANK_RTOL):
    """Reference: ``max_excitation_order`` as it was before the bisection, one
    excitation test per depth from 1 up to the first that fails."""
    best = 0
    for depth in range(1, min(len(w) for w in signals) + 1):
        if not dd.is_persistently_exciting(signals, depth, rtol):
            break
        best = depth
    return best


@settings(PROPERTY, max_examples=150)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4), d=st.integers(1, 2),
       kind=st.sampled_from(["gauss", "ternary", "held", "rank-one"]),
       seed=st.integers(0, 2**32 - 1))
def test_max_excitation_order_bisects_the_linear_scan(lengths, d, kind, seed):
    # "held" holds every sample for the same 1-3 steps; "rank-one" scales one direction
    # by a scalar signal, so it never excites more than one channel.
    rng = np.random.default_rng(seed)
    draw = {"gauss": lambda T: rng.standard_normal((T, d)),
            "ternary": lambda T: rng.integers(-1, 2, size=(T, d)).astype(float),
            "held": lambda T: np.repeat(rng.standard_normal((T, d)), rng.integers(1, 4), axis=0)[:T],
            "rank-one": lambda T: rng.standard_normal((T, 1)) * rng.standard_normal(d)}[kind]
    signals = [draw(T) for T in lengths]
    assert dd.max_excitation_order(signals) == linear_order_scan(signals)


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
    # Both solvers are backward stable, so each completed output differs from
    # the reference by at most rounding_per_unit_g times ||g||.
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    per_g = rounding_per_unit_g(A_known, A_new)
    us = np.vstack([past.u, future_u])
    yall = np.vstack([past.y, ys])
    for t in range(F):
        b = np.concatenate([us[t:t + L].reshape(-1), yall[t:t + L - 1].reshape(-1)])
        g = np.linalg.lstsq(A_known, b, rcond=None)[0]
        assert np.linalg.norm(A_new @ g - ys[t]) <= per_g * np.linalg.norm(g)


@PROPERTY
@given(n=st.integers(1, 3), m=st.integers(1, 2), p=st.integers(1, 3),
       extra=st.integers(0, 2), F=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_datadriven_simulate_certifies_completions_past_the_lag(n, m, p, extra, F, seed):
    # With L-1 >= l and inputs exciting of order n + L, the known rows
    # determine the new output: nothing raises, and each one-step completion
    # from a true past is the model's output within rounding_per_unit_g
    # times ||g||.
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


@settings(PROPERTY, max_examples=150)
@given(n=st.integers(1, 3), m=st.integers(1, 2), p=st.integers(1, 3),
       records=st.integers(1, 3), corrupt=st.booleans(), F=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_datadriven_simulate_on_fewer_columns_than_rows(n, m, p, records, corrupt, F, seed):
    # N < (m+p)L recorded windows, so the dictionary's factor is (m+p)L x N.
    # The outcome is a per-step lstsq's on the N columns: the same error, or
    # each output within rounding_per_unit_g times ||g||, on the window the
    # code under test saw.
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m, p)
    L = int(rng.integers(1, n + 2))
    N = int(rng.integers(1, (m + p) * L))
    cuts = np.sort(rng.choice(np.arange(1, N), size=min(records, N) - 1, replace=False))
    recs = [dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((c + L - 1, m)))
            for c in np.diff(np.concatenate([[0], cuts, [N]]))]
    d = dd.build_data_matrix([(r.u, r.y) for r in recs], L)
    past = dd.simulate(sys, rng.standard_normal(n), rng.standard_normal((L - 1, m)))
    past_y = past.y + corrupt * rng.standard_normal(past.y.shape)
    future_u = rng.standard_normal((F, m))
    try:
        ys, raised = dd.datadriven_simulate(d, past.u, past_y, future_u), None
    except (dd.InsufficientDataError, dd.InconsistentPastError) as e:
        ys, raised = None, type(e)

    # The reference output is unique when A_new's rows lie in A_known's row
    # space, to rtol plus lstsq's own cutoff, and a past is consistent when
    # lstsq's relative residual is at most the default tol.
    assert d.n_columns == N
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    Z = np.linalg.lstsq(A_known.T, A_new.T, rcond=None)[0]
    defect = np.linalg.norm(Z.T @ A_known - A_new) / np.linalg.norm(A_new)
    expected = None
    if defect > dd.DEFAULT_RANK_RTOL + EPS * max(k, N):
        expected = dd.InsufficientDataError
    else:
        per_g = rounding_per_unit_g(A_known, A_new)
        us = np.vstack([past.u, future_u])
        yall = np.vstack([past_y, np.empty((F, p))])
        for t in range(F):
            b = np.concatenate([us[t:t + L].reshape(-1), yall[t:t + L - 1].reshape(-1)])
            g = np.linalg.lstsq(A_known, b, rcond=None)[0]
            if np.linalg.norm(A_known @ g - b) > 1e-6 * np.linalg.norm(b):
                expected = dd.InconsistentPastError
                break
            yall[t + L - 1] = A_new @ g
            if ys is not None:
                assert np.linalg.norm(A_new @ g - ys[t]) <= per_g * np.linalg.norm(g)
                yall[t + L - 1] = ys[t]
    assert raised is expected


def downward_scan(segments, max_order=None, rtol=dd.DEFAULT_RANK_RTOL):
    """Reference: ``scan_order`` as it was before the upward scan, which tried
    the deepest feasible depth first, with ``estimate_order``'s check inlined."""
    m = segments[0][0].channels
    p = segments[0][1].channels
    cap = max(u.length for u, _ in segments)
    if max_order is not None:
        cap = min(cap, max(max_order + 1, 2))  # a stall compares two depths
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


def scan_result(stack):
    """``ident._scan``'s order and stall depth, or its refusal's message."""
    try:
        order, d = dd.ident._scan(stack, None, dd.DEFAULT_RANK_RTOL)[:2]
    except dd.OrderUndeterminedError as e:
        return str(e)
    return order, d.depth


def identify_result(ct):
    """``identify``'s result, or its refusal's class and message; a record
    with scaled channels may warn of a truncated realization."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return dd.identify(ct)
    except dd.DdltiError as e:
        return type(e), str(e)


@settings(PROPERTY, max_examples=300)
@given(n=st.integers(0, 6), m=st.integers(1, 3), p=st.integers(1, 3),
       T=st.integers(1, 200), gap=st.sampled_from([0.0, 0.05, 0.2]),
       kind=st.sampled_from(["gauss", "ternary", "zero"]), radius=st.floats(0.5, 1.3),
       exponents=st.lists(st.integers(-8, 8), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, m=2, p=2, T=200, gap=0.0, kind="gauss", radius=1.3, exponents=[0] * 6, seed=0)
@example(n=3, m=1, p=2, T=150, gap=0.05, kind="ternary", radius=0.9,
         exponents=[8, -8, 0, 0, 0, 0], seed=1)
@example(n=3, m=2, p=2, T=200, gap=0.0, kind="gauss", radius=0.9, exponents=[0] * 6, seed=2)
# A second mode 5e-10 below the first, under the rank cutoff: the sample's
# completion fits it differently from all the data's, so the stall is
# completed on the data's factor.
@example(n=2, m=1, p=1, T=157, gap=0.2, kind="gauss", radius=1.140625,
         exponents=[0, -5, 0, 0, 0, 0], seed=2**32 - 1)
def test_certified_depths_have_the_certified_rank(n, m, p, T, gap, kind, radius, exponents,
                                                  seed):
    # Every depth whose rank the order scan certifies on a sample of its
    # longest run has that rank by the rank rule on its whole matrix's
    # factor, so the scan decides as with no depth certified: the same order,
    # stall depth or refusal.  identify then gives the same order, segment
    # report and refusals, and Markov parameters within both completions'
    # error bounds: a certified stall completes on the sample's dictionary,
    # the other on all the data's.
    _, ct = gappy_record(np.random.default_rng(seed), n, m, p, T, gap, kind, radius, exponents)
    stack = dd.hankel._stack(dd.segment_trajectory(ct), pairs=True)
    certified, certify = [], dd.ident.certifies_rank

    def spy(decision, perp, *args):
        passed = certify(decision, perp, *args)
        certified.extend([(len(perp) // len(stack.W), decision.rank)] * passed)
        return passed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd.ident, "certifies_rank", spy)
        found, found_id = scan_result(stack), identify_result(ct)
        stall = None if isinstance(found, str) else dd.ident._scan(stack, None,
                                                                   dd.DEFAULT_RANK_RTOL)[1]
        mp.setattr(dd.ident, "certifies_rank", lambda *args: False)
        reference, ref_id = scan_result(stack), identify_result(ct)
    for depth, rank in set(certified):
        factor = gram_factor(stack.windows(depth))
        assert dd.numerical_rank(factor) == rank, depth
    assert found == reference
    assert type(found_id) is type(ref_id)
    if isinstance(ref_id, tuple):
        assert found_id == ref_id
        return
    assert (found_id.order, found_id.segment_report) == (ref_id.order, ref_id.segment_report)
    d = dd.DataDictionary(stall.depth, stack)
    bound = impulse_error_bound(stall, found_id.markov) + impulse_error_bound(d, ref_id.markov)
    assert np.all(np.linalg.norm(found_id.markov - ref_id.markov, axis=(1, 2)) <= bound)


@settings(PROPERTY, max_examples=150)
@given(n=st.integers(0, 6), m=st.integers(1, 3), p=st.integers(1, 3),
       T=st.integers(1, 200), gap=st.sampled_from([0.0, 0.05, 0.2]),
       kind=st.sampled_from(["gauss", "ternary", "zero"]), radius=st.floats(0.5, 1.3),
       exponents=st.lists(st.integers(-8, 8), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_no_accepted_identify_had_a_falling_estimate(n, m, p, T, gap, kind, radius, exponents,
                                                     seed):
    # Collective excitation of order L + n makes rank(H_L) - mL = rank O_L,
    # which never falls up to depth L.  The scan refuses at the first fall, so
    # wherever identify answers, the estimates up to its stall depth, each
    # decided by the rank rule on the whole depth's factor, never fall, and
    # the last two are the order.
    _, ct = gappy_record(np.random.default_rng(seed), n, m, p, T, gap, kind, radius, exponents)
    found = identify_result(ct)
    if isinstance(found, tuple):
        return
    stack = dd.ident._complete_runs(ct)[0]
    stall = dd.ident._scan(stack, None, dd.DEFAULT_RANK_RTOL)[1].depth
    estimates = [dd.numerical_rank(gram_factor(stack.windows(depth)))
                 - m * depth for depth in range(1, stall + 1)]
    assert estimates == sorted(estimates)
    assert estimates[-2:] == [found.order] * 2


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


def pinv_impulses(d, count, tol=1e-6):
    """Reference completion: the m impulses after a zero past of depth-1
    samples on dictionary d, each step one pinv solve of the known rows, its
    residual checked but no uniqueness."""
    L, m, p = d.depth, d.m, d.p
    k = m * L + p * (L - 1)
    A_known, A_new = d.matrix[:k], d.matrix[k:]
    A_pinv = np.linalg.pinv(A_known, rcond=EPS * max(A_known.shape))
    us = np.zeros((L - 1 + count, m, m))
    us[L - 1] = np.eye(m)
    ys = np.zeros((L - 1 + count, p, m))
    for t in range(count):
        b = np.concatenate([us[t:t + L].reshape(-1, m), ys[t:t + L - 1].reshape(-1, m)])
        g = A_pinv @ b
        r = np.linalg.norm(A_known @ g - b, axis=0)
        b_norm = np.linalg.norm(b, axis=0)
        if np.divide(r, b_norm, out=r, where=b_norm > 0.0).max() > tol:
            raise dd.InconsistentPastError("the data cannot explain a zero past")
        ys[t + L - 1] = A_new @ g
    return ys[L - 1:]


def gated_dictionary(segs, order, rtol=dd.DEFAULT_RANK_RTOL):
    """The depth order + 1 dictionary of the runs at least that long, once the
    runs at least 2 * order + 1 long are collectively exciting of that order:
    the excitation gate both references below kept."""
    L = order + 1
    pe_set = [u for u, _ in segs if u.length >= order + L]
    if not pe_set or not dd.is_persistently_exciting(pe_set, order + L, rtol):
        raise dd.ExcitationError(f"not collectively exciting of order {order + L}")
    return dd.build_data_matrix([(u, y) for u, y in segs if u.length >= L], L)


def parent_identify(ct, rtol=dd.DEFAULT_RANK_RTOL, tol=1e-6):
    """Reference: ``identify``'s path before it completed on the scan's own
    dictionary.  It built a second dictionary at depth order + 1, required
    collective excitation of order 2 * order + 1 and checked no uniqueness.
    Returns (order, markov, dictionary)."""
    segs = dd.segment_trajectory(ct)
    order = dd.scan_order(segs, rtol=rtol)
    d = gated_dictionary(segs, order, rtol)
    markov = pinv_impulses(d, 2 * order + 1, tol)
    dd.ho_kalman(markov, order, rtol)
    return order, markov, d


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
    _, d = dd.ident._scan(dd.hankel._stack(dd.segment_trajectory(ct), pairs=True), None,
                          dd.DEFAULT_RANK_RTOL)[:2]
    bound = impulse_error_bound(d, res.markov)
    assert res.order == n
    err = np.linalg.norm(res.markov - dd.markov_parameters(sys, 2 * n + 1), axis=(1, 2))
    assert np.all(err <= bound)
    if order is not None:
        assert res.order == order
        err = np.linalg.norm(res.markov - markov, axis=(1, 2))
        assert np.all(err <= bound + impulse_error_bound(d_parent, markov))


def gated_recover(segs, order, count):
    """Reference: ``recover_markov_parameters`` as it was with its excitation
    gate in front of the completion.  Returns (markov, dictionary)."""
    d = gated_dictionary(segs, order)
    return pinv_impulses(d, count), d


@settings(PROPERTY, max_examples=200)
@given(n=st.integers(0, 5), m=st.integers(1, 3), p=st.integers(1, 3),
       T=st.integers(5, 120), gap=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
       kind=st.sampled_from(["gauss", "ternary", "zero"]), seed=st.integers(0, 2**32 - 1))
@example(n=1, m=1, p=3, T=8, gap=0.2, kind="ternary", seed=2006671028)  # runs of 3 or fewer
@example(n=2, m=2, p=2, T=68, gap=0.3, kind="ternary", seed=1869711277)
@example(n=2, m=1, p=1, T=30, gap=0.0, kind="zero", seed=0)
def test_recover_markov_matches_gated_reference_and_model(n, m, p, T, gap, kind, seed):
    # Wherever the gated reference recovers the impulse responses, the change
    # gives the same ones within both completions' error bounds; wherever the
    # change recovers them, they are the generating model's within its bound;
    # and it refuses only what its completion certificate refuses (exit 3).
    sys, ct = gappy_record(np.random.default_rng(seed), n, m, p, T, gap, kind)
    segs = dd.segment_trajectory(ct)
    count = 2 * n + 1
    try:
        markov, d_gated = gated_recover(segs, n, count)
    except dd.DdltiError:
        markov = None
    try:
        mk = dd.recover_markov_parameters(segs, n, count)
    except dd.InsufficientDataError:
        assert markov is None, "the gated reference recovered these records"
        return
    d = dd.build_data_matrix([(u, y) for u, y in segs if u.length > n], n + 1)
    bound = impulse_error_bound(d, mk)
    err = np.linalg.norm(mk - dd.markov_parameters(sys, count), axis=(1, 2))
    assert np.all(err <= bound)
    if markov is not None:
        err = np.linalg.norm(mk - markov, axis=(1, 2))
        assert np.all(err <= bound + impulse_error_bound(d_gated, markov))
