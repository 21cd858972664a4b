"""Shared helpers: random system/test-signal generators and fixed fixtures.

BLAS runs on one thread, as in ``benchmarks/run.py``: the variables are set
before numpy is first imported, since BLAS reads them once, when it loads.  A
second thread that waits on a busy core made a test's time bound fail.
"""
from __future__ import annotations

import math
import os
import sys
import tracemalloc
from pathlib import Path

assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread count was set"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import ddlti as dd  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"
RECORD_CSV = DATA_DIR / "corrupted_record.csv"
#: Four 4-sample runs of a two-output second-order system; see
#: ``short_runs_system``.  No run is long enough for an order-5 excitation
#: test, yet the runs' depth-2 windows determine the system.
SHORT_RUNS_CSV = DATA_DIR / "short_runs_record.csv"
EPS = np.finfo(float).eps


def random_system(rng, n, m, p, *, radius=0.9, minimal=True, max_tries=200):
    """A random system with spectral radius ``radius``; minimal if requested."""
    for _ in range(max_tries):
        A = rng.standard_normal((n, n))
        if n:
            rho = dd.spectral_radius(A)
            if rho > 0:
                A *= radius / rho
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        sys = dd.LtiSystem(A=A, B=B, C=C, D=D)
        if n == 0:
            return sys
        if not dd.is_controllable(A, B):
            continue
        if minimal and not dd.is_controllable(A.T, C.T):
            continue
        return sys
    raise RuntimeError("could not draw a suitable random system")


def gappy_record(rng, n, m, p, T, gap, kind, radius=0.9, exponents=(0,) * 6):
    """A random system of spectral radius ``radius`` and its response to a
    "gauss", "ternary" or "zero" input, channel j (inputs, then outputs) scaled
    by 10 ** exponents[j], each sample missing with probability ``gap`` (never
    all of them)."""
    sys = random_system(rng, n, m, p, radius=radius)
    u = {"gauss": lambda: rng.standard_normal((T, m)),
         "ternary": lambda: rng.integers(-1, 2, size=(T, m)).astype(float),
         "zero": lambda: np.zeros((T, m))}[kind]()
    rec = dd.simulate(sys, rng.standard_normal(n), u)
    keep = rng.random(T) >= gap
    if not keep.any():
        keep[0] = True
    blank = np.where(keep[:, None], 1.0, np.nan)
    scale = 10.0 ** np.array(exponents[:m + p])
    return sys, dd.CorruptedTrajectory(u=rec.u * blank * scale[:m],
                                       y=rec.y * blank * scale[m:])


def lag(sys):
    """Observability index of an observable system with n >= 1: the least k
    whose k-step observability matrix has rank n."""
    obs = np.vstack([sys.C @ np.linalg.matrix_power(sys.A, k) for k in range(sys.n)])
    return next(k for k in range(1, sys.n + 1) if dd.numerical_rank(obs[:k * sys.p]) == sys.n)


def pe_inputs(rng, q, lengths, m, order, max_tries=100):
    """q input records (given lengths), collectively exciting of ``order``."""
    if np.isscalar(lengths):
        lengths = [lengths] * q
    for _ in range(max_tries):
        us = [rng.standard_normal((T, m)) for T in lengths]
        if dd.is_persistently_exciting([dd.SignalSegment(u) for u in us], order):
            return us
    raise RuntimeError("could not draw collectively exciting inputs")


def rounding_per_unit_g(A_known, A_new):
    """Bound on the rounding of one completed output A_new g, per unit of ||g||,
    where g is the min-norm least-squares solution of A_known g = b.

    Least squares by Householder QR or by SVD is backward stable: the
    computed g is the exact solution for data perturbed by a relative
    c eps, where c grows with the product k N of A_known's k x N dimensions
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    Thm 20.3).  max(k, N) is not such a constant: on a 3 x 3 A_known, lstsq's
    own error against 50-digit arithmetic was 1.5 times the bound it gives.
    That perturbation moves g by at most c eps kappa ||g||, with kappa the
    condition number over the singular values lstsq keeps (those above
    max(k, N) eps sigma_max), and A_new maps the change into the output at
    most ||A_new|| times larger.  Two solvers are compared, the code under
    test and a lstsq reference, hence 2 k N eps kappa ||A_new||.

    When no singular value survives the cutoff (A_known = 0), both solvers
    keep none: the min-norm g is exactly 0, with no rounding, and so is the bound.
    """
    k, N = A_known.shape
    s = np.linalg.svd(A_known, compute_uv=False)
    kept = s[s > EPS * max(k, N) * s.max(initial=0.0)]
    if not kept.size:
        return 0.0
    return 2 * k * N * EPS * (kept[0] / kept[-1]) * np.linalg.norm(A_new, 2)


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


def traced_peak(call):
    """(``call()``, the peak of the memory tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def least_refused_depth():
    """The least depth d whose excitation test on one channel of 2d samples is
    refused: it folds a d x (d + 1) mosaic into a d x d factor, one d x
    PASS_BLOCK block at a time, and 8 d (d + PASS_BLOCK) bytes, which is
    8 ((d + PASS_BLOCK / 2)^2 - (PASS_BLOCK / 2)^2), exceed the limit."""
    half = dd.hankel.PASS_BLOCK // 2
    return math.isqrt(dd.hankel.MAX_FOLD_BYTES // 8 + half ** 2) + 1 - half


def simulate_records(rng, sys, lengths, order):
    """Simulate PE experiments; returns list of StateTrajectory."""
    us = pe_inputs(rng, len(lengths), lengths, sys.m, order)
    return [dd.simulate(sys, rng.standard_normal(sys.n), u) for u in us]


def unstabilized_runs():
    """(system, three 3-step runs, weights) whose Riccati solution leaves a
    mode unstabilized: the mode at 2 is neither actuated nor weighted."""
    sys = dd.LtiSystem(A=np.diag([2.0, 0.5]), B=[[0.0], [1.0]], C=np.eye(2),
                       D=np.zeros((2, 1)))
    rng = np.random.default_rng(0)
    runs = [dd.simulate(sys, rng.standard_normal(2), rng.standard_normal((3, 1)))
            for _ in range(3)]
    return sys, runs, dd.LqrWeights(Q=np.diag([0.0, 1.0]), R=np.eye(1))


@pytest.fixture
def known_system():
    """The second-order SISO system behind the shipped fixture record."""
    return dd.LtiSystem(A=[[1, 0], [1, 1]], B=[[1], [0]], C=[[0, 1]], D=[[1]])


@pytest.fixture
def short_runs_system():
    """The system behind ``short_runs_record.csv``: the record is its response
    from x0 = (1, -1) to inputs ``rng.integers(-2, 3, size=(19, 1))`` with
    ``rng = np.random.default_rng(19)``, with samples 4, 9 and 14 blanked."""
    return dd.LtiSystem(A=[[1, 0], [1, 1]], B=[[1], [0]], C=[[1, 0], [0, 1]],
                        D=[[0], [1]])


@pytest.fixture
def record():
    return dd.read_trajectory_csv(RECORD_CSV)


@pytest.fixture
def reactor():
    return dd.batch_reactor()


@pytest.fixture
def linalg_calls(monkeypatch):
    """(function name, shape of its first argument, shape of its second
    positional argument or None) for every ``np.linalg`` qr, svd, pinv, lstsq,
    solve, eigvalsh and eigvals call while the test runs, in call order."""
    calls = []
    for name in ("qr", "svd", "pinv", "lstsq", "solve", "eigvalsh", "eigvals"):
        def call(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a), np.shape(args[0]) if args else None))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)
    return calls
