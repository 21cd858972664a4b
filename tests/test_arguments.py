"""The argument rule: every public function that takes a matrix or vector
argument refuses a wrongly shaped, ragged or non-numeric one with an
InputError naming the argument, the shape required and the shape given ('*'
marks a free size)."""
import copy
import re
from types import SimpleNamespace

import numpy as np
import pytest

import ddlti as dd
from conftest import RECORD_CSV


@pytest.fixture(scope="module")
def ctx():
    """The reactor, a pooled batch of it (n = 4, m = 2, N = 30), unit weights
    and the fixture record's depth-3 dictionary (m = p = 1, N = 11)."""
    sys = dd.batch_reactor()
    runs = dd.generate_experiments(sys, 5, 6, pe_order=5, rng=np.random.default_rng(0))
    record = dd.read_trajectory_csv(RECORD_CSV)
    return SimpleNamespace(
        sys=sys, batch=dd.assemble_batch(runs), weights=dd.LqrWeights(Q=np.eye(4), R=np.eye(2)),
        d=dd.build_data_matrix(dd.segment_trajectory(record), 3))


def system(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1))):
    return dd.LtiSystem(A=A, B=B, C=C, D=D)


def batch_with(c, **blocks):
    b = {k: getattr(c.batch, k) for k in ("Xm", "Xp", "Um")} | blocks
    return dd.ExperimentBatch(**b, boundaries=c.batch.boundaries)


Z = np.zeros

#: (id, call on ctx, argument name, shape required, shape given)
CASES = [
    ("LtiSystem-A", lambda c: system(A=Z((2, 3))), "A", "(2, 2)", "(2, 3)"),
    ("LtiSystem-A-1d", lambda c: system(A=Z(2)), "A", "(*, *)", "(2,)"),
    ("LtiSystem-B", lambda c: system(B=Z((3, 1))), "B", "(2, *)", "(3, 1)"),
    ("LtiSystem-C", lambda c: system(C=Z((1, 3))), "C", "(*, 2)", "(1, 3)"),
    ("LtiSystem-D", lambda c: system(D=Z((2, 1))), "D", "(1, 1)", "(2, 1)"),
    ("LqrWeights-Q", lambda c: dd.LqrWeights(Q=Z((2, 3)), R=np.eye(1)), "Q", "(2, 2)", "(2, 3)"),
    ("LqrWeights-R", lambda c: dd.LqrWeights(Q=np.eye(2), R=Z((1, 2))), "R", "(1, 1)", "(1, 2)"),
    ("LqrWeights-Q-text", lambda c: dd.LqrWeights(Q="a", R=[[1]]),
     "Q", "(*, *)", "a ragged or non-numeric array"),
    ("ExperimentBatch-Xm", lambda c: batch_with(c, Xm=Z(30)), "Xm", "(*, *)", "(30,)"),
    ("ExperimentBatch-Xp", lambda c: batch_with(c, Xp=Z((4, 29))), "Xp", "(4, 30)", "(4, 29)"),
    ("ExperimentBatch-Um", lambda c: batch_with(c, Um=Z((2, 29))), "Um", "(*, 30)", "(2, 29)"),
    ("simulate-x0", lambda c: dd.simulate(c.sys, Z(3), Z((5, 2))), "x0", "(4,)", "(3,)"),
    ("simulate-u_seq", lambda c: dd.simulate(c.sys, Z(4), Z((5, 3))), "u_seq", "(*, 2)", "(5, 3)"),
    ("simulate-x0-ragged", lambda c: dd.simulate(c.sys, [[1, 2], [3]], Z((3, 2))),
     "x0", "(4,)", "a ragged or non-numeric array"),
    ("simulate-u_seq-ragged", lambda c: dd.simulate(c.sys, Z(4), [[1, 2], [3]]),
     "u_seq", "(*, 2)", "a ragged or non-numeric array"),
    ("instability_report-x0", lambda c: dd.instability_report(c.sys, Z(5), Z((5, 2))),
     "x0", "(4,)", "(5,)"),
    ("is_controllable-A", lambda c: dd.is_controllable(Z((2, 3)), Z((2, 1))),
     "A", "(2, 2)", "(2, 3)"),
    ("is_controllable-B", lambda c: dd.is_controllable(Z((2, 2)), Z((3, 1))),
     "B", "(2, *)", "(3, 1)"),
    ("spectral_radius-M", lambda c: dd.spectral_radius(Z((2, 3))), "M", "(2, 2)", "(2, 3)"),
    ("spectral_radius-ragged", lambda c: dd.spectral_radius([[1, 2], [3]]),
     "M", "(*, *)", "a ragged or non-numeric array"),
    ("dare_solve-A", lambda c: dd.dare_solve(Z((2, 3)), Z((2, 1)), np.eye(2), np.eye(1)),
     "A", "(2, 2)", "(2, 3)"),
    ("dare_solve-B", lambda c: dd.dare_solve(np.eye(2), Z((3, 1)), np.eye(2), np.eye(1)),
     "B", "(2, *)", "(3, 1)"),
    ("dare_solve-Q", lambda c: dd.dare_solve(np.eye(2), np.ones((2, 1)), np.eye(3), np.eye(1)),
     "Q", "(2, 2)", "(3, 3)"),
    ("dare_solve-R", lambda c: dd.dare_solve(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2)),
     "R", "(1, 1)", "(2, 2)"),
    ("lmi_operator-P", lambda c: dd.lmi_operator(np.eye(3), c.batch, c.weights),
     "P", "(4, 4)", "(3, 3)"),
    ("lmi_operator-Q",
     lambda c: dd.lmi_operator(np.eye(4), c.batch, dd.LqrWeights(np.eye(3), np.eye(2))),
     "Q", "(4, 4)", "(3, 3)"),
    ("lqr_from_data-R", lambda c: dd.lqr_from_data(c.batch, dd.LqrWeights(np.eye(4), np.eye(3))),
     "R", "(2, 2)", "(3, 3)"),
    ("export_sdp-Q", lambda c: dd.export_sdp(c.batch, dd.LqrWeights(np.eye(5), np.eye(2))),
     "Q", "(4, 4)", "(5, 5)"),
    ("datadriven_simulate-past_u",
     lambda c: dd.datadriven_simulate(c.d, Z((1, 1)), Z((2, 1)), Z((3, 1))),
     "past_u", "(2, 1)", "(1, 1)"),
    ("datadriven_simulate-past_y",
     lambda c: dd.datadriven_simulate(c.d, Z((2, 1)), Z((2, 2)), Z((3, 1))),
     "past_y", "(2, 1)", "(2, 2)"),
    ("datadriven_simulate-future_u",
     lambda c: dd.datadriven_simulate(c.d, Z((2, 1)), Z((2, 1)), Z((3, 2))),
     "future_u", "(*, 1)", "(3, 2)"),
    ("is_system_trajectory-u", lambda c: dd.is_system_trajectory(c.d, Z(2), Z(3)),
     "u", "(3,)", "(2,)"),
    # A vector argument is flattened first, so the shape given is the flat one.
    ("is_system_trajectory-y", lambda c: dd.is_system_trajectory(c.d, Z(3), Z((2, 2))),
     "y", "(3,)", "(4,)"),
    ("synthesize_trajectory-g", lambda c: dd.synthesize_trajectory(c.d, Z(10)),
     "g", "(11,)", "(10,)"),
    ("ho_kalman-markov", lambda c: dd.ho_kalman(Z((3, 2)), 1), "markov", "(*, *, *)", "(3, 2)"),
    ("ho_kalman-markov-ragged", lambda c: dd.ho_kalman([[1], [2, 3]], 1),
     "markov", "(*, *, *)", "a ragged or non-numeric array"),
    # Records: a ragged one is named, by its field or its place in the family.
    ("StateTrajectory-u-ragged",
     lambda c: dd.StateTrajectory(u=[[1, 2], [3]], x=Z((2, 1)), y=Z((2, 1)), final_state=[0]),
     "u", "(*, *)", "a ragged or non-numeric array"),
    ("CorruptedTrajectory-u-ragged",
     lambda c: dd.CorruptedTrajectory(u=[[1, 2], [3]], y=Z((2, 1))),
     "u", "(*, *)", "a ragged or non-numeric array"),
    ("build_data_matrix-ragged",
     lambda c: dd.build_data_matrix([([[1, 2], [3]], Z((2, 1)))], 1),
     "pair 0[0]", "(*, *)", "a ragged or non-numeric array"),
    ("numerical_rank-ragged", lambda c: dd.numerical_rank([[1, 2], [3]]),
     "M", "(*, *)", "a ragged or non-numeric array"),
    ("numerical_rank-3d", lambda c: dd.numerical_rank(Z((2, 2, 2))), "M", "(*, *)", "(2, 2, 2)"),
]

#: (id, call with a non-finite argument, argument name)
NON_FINITE = [
    ("numerical_rank-nan", lambda: dd.numerical_rank([[np.nan, 1.0]]), "M"),
    ("numerical_rank-inf", lambda: dd.numerical_rank([[np.inf, 1], [0, 1]]), "M"),
]


#: (id, call building a record without an input or an output channel, shapes given)
NO_CHANNEL = [
    ("CorruptedTrajectory-u", lambda: dd.CorruptedTrajectory(u=Z((50, 0)), y=Z((50, 1))),
     "(50, 0) and (50, 1)"),
    ("CorruptedTrajectory-y", lambda: dd.CorruptedTrajectory(u=Z((50, 2)), y=Z((50, 0))),
     "(50, 2) and (50, 0)"),
    # With no u channel a row of u is both complete and blank, so a gap in y looks whole.
    ("CorruptedTrajectory-u-gap", lambda: dd.CorruptedTrajectory(
        u=Z((50, 0)), y=np.where(np.arange(50)[:, None] == 7, np.nan, 1.0)),
     "(50, 0) and (50, 1)"),
]


@pytest.mark.parametrize("call, name, expected, given", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_wrongly_shaped_arguments_are_refused(ctx, call, name, expected, given):
    message = f"{name} must have shape {expected}, got {given}"
    with pytest.raises(dd.InputError, match=f"^{re.escape(message)}$"):
        call(ctx)


@pytest.mark.parametrize("call, name", [case[1:] for case in NON_FINITE],
                         ids=[case[0] for case in NON_FINITE])
def test_non_finite_arguments_are_refused(call, name):
    with pytest.raises(dd.InputError, match=f"^{name} contains non-finite entries$"):
        call()


@pytest.mark.parametrize("call, shapes", [case[1:] for case in NO_CHANNEL],
                         ids=[case[0] for case in NO_CHANNEL])
def test_records_without_a_channel_are_refused(call, shapes):
    message = f"u and y must each have at least one channel, got shapes {shapes}"
    with pytest.raises(dd.InputError, match=f"^{re.escape(message)}$"):
        call()


#: (id, call building a record that holds arrays)
RECORDS = [
    ("RankDecision", lambda c: dd.RankDecision(1, np.array([2.0, 0.0]), 2e-8)),
    ("ExcitationReport", lambda c: dd.excitation_report([np.arange(10.0)], 2)),
    ("SignalSegment", lambda c: dd.SignalSegment(np.arange(4.0))),
    ("LtiSystem", lambda c: c.sys),
    ("StateTrajectory", lambda c: dd.simulate(c.sys, np.zeros(4), np.ones((3, 2)))),
    ("CorruptedTrajectory", lambda c: dd.read_trajectory_csv(RECORD_CSV)),
    ("LqrWeights", lambda c: c.weights),
    ("DataDictionary", lambda c: c.d),
    ("ExperimentBatch", lambda c: c.batch),
    ("LqrSolution", lambda c: dd.lqr_from_data(c.batch, c.weights)),
    ("InstabilityReport", lambda c: dd.instability_report(c.sys, np.ones(4), np.ones((3, 2)))),
    ("IdentificationResult", lambda c: dd.identify(dd.read_trajectory_csv(RECORD_CSV))),
]


@pytest.mark.parametrize("make", [case[1] for case in RECORDS], ids=[case[0] for case in RECORDS])
def test_records_compare_by_identity(ctx, make):
    # Records that hold arrays have no elementwise truth value to compare
    # by, so equality is identity: it answers, and never raises.
    x = make(ctx)
    assert x == x
    assert (x == copy.copy(x)) is False and x != copy.copy(x)
    assert hash(x) == hash(x)
