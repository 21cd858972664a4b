"""Shared helpers: random system/test-signal generators and fixed fixtures."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import ddlti as dd

DATA_DIR = Path(__file__).parent / "data"
RECORD_CSV = DATA_DIR / "corrupted_record.csv"
#: Four 4-sample runs of a two-output second-order system; see
#: ``short_runs_system``.  No run is long enough for an order-5 excitation
#: test, yet the runs' depth-2 windows determine the system.
SHORT_RUNS_CSV = DATA_DIR / "short_runs_record.csv"


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


def simulate_records(rng, sys, lengths, order):
    """Simulate PE experiments; returns list of StateTrajectory."""
    us = pe_inputs(rng, len(lengths), lengths, sys.m, order)
    return [dd.simulate(sys, rng.standard_normal(sys.n), u) for u in us]


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
