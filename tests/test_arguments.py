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
        d=dd.build_data_matrix(dd.segment_trajectory(record), 3), record=record,
        segments=dd.segment_trajectory(record), runs=runs)


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


#: (id, call on ctx, error, message): an argument outside its range is
#: refused, named with the rule it breaks.
OUT_OF_RANGE = [
    ("segment_trajectory-min_len", lambda c: dd.segment_trajectory(c.record, min_len=0),
     dd.InputError, "min_len must be at least 1"),
    ("recover_markov_parameters-count", lambda c: dd.recover_markov_parameters(c.segments, 2, 0),
     dd.InputError, "count must be at least 1"),
    ("recover_markov_parameters-order",
     lambda c: dd.recover_markov_parameters(c.segments, -1, 3),
     dd.InputError, "order must be nonnegative"),
    ("ho_kalman-order", lambda c: dd.ho_kalman(Z((3, 1, 1)), -1),
     dd.InputError, "order must be nonnegative"),
    # An empty array is as short as any other, order 0 included.
    ("ho_kalman-empty", lambda c: dd.ho_kalman(Z((0, 1, 1)), 0),
     dd.InputError, "need at least 1 Markov parameters for order 0, got 0"),
    ("scan_order-max_order", lambda c: dd.scan_order(c.segments, max_order=-1),
     dd.InputError, "max_order must be nonnegative"),
    ("markov_parameters-count", lambda c: dd.markov_parameters(c.sys, 0),
     dd.InputError, "count must be at least 1"),
    ("response_maps-L", lambda c: dd.response_maps(c.sys, 0),
     dd.InputError, "L must be at least 1"),
    ("CorruptedTrajectory-lengths", lambda c: dd.CorruptedTrajectory(u=Z((5, 1)), y=Z((4, 1))),
     dd.InputError, "u and y must cover the same time steps"),
    ("CorruptedTrajectory-no-step", lambda c: dd.CorruptedTrajectory(u=Z((0, 1)), y=Z((0, 1))),
     dd.InputError, "record must contain at least one time step"),
    ("CorruptedTrajectory-3d", lambda c: dd.CorruptedTrajectory(u=Z((5, 1, 1)), y=Z((5, 1))),
     dd.InputError, "u and y must be 2-D (one row per time step)"),
    ("CorruptedTrajectory-start_time",
     lambda c: dd.CorruptedTrajectory(u=Z((5, 1)), y=Z((5, 1)), start_time=1.5),
     dd.InputError, "start_time must be an integer, got 1.5"),
    ("StateTrajectory-start_time", lambda c: dd.simulate(c.sys, Z(4), Z((3, 2)), start_time=0.5),
     dd.InputError, "start_time must be an integer, got 0.5"),
    ("SignalSegment-start_time", lambda c: dd.SignalSegment(np.arange(4.0), start_time=1.5),
     dd.InputError, "start_time must be an integer, got 1.5"),
    ("LtiSystem-no-input", lambda c: system(B=Z((2, 0)), D=Z((1, 0))),
     dd.InputError, "input and output dimensions must be at least 1"),
    ("check_rank_condition-count",
     lambda c: dd.check_rank_condition(c.sys, [Z((5, 4))], [Z((5, 2))] * 2, 2),
     dd.InputError, "state and input records must come in matching numbers"),
    ("check_rank_condition-states",
     lambda c: dd.check_rank_condition(c.sys, [Z((5, 3))], [Z((5, 2))], 2),
     dd.InputError, "state records must have 4 channels, got 3"),
    ("check_rank_condition-inputs",
     lambda c: dd.check_rank_condition(c.sys, [Z((5, 4))], [Z((5, 1))], 2),
     dd.InputError, "input records must have 2 channels, got 1"),
    ("build_data_matrix-not-pairs", lambda c: dd.build_data_matrix([1, 2], 2),
     dd.InputError, "each element must be an (input, output) pair"),
    ("hankel_matrix-no-channel", lambda c: dd.hankel_matrix(Z((5, 0)), 1),
     dd.InputError, "signal must contain at least one sample and one channel"),
    ("hankel_matrix-nan", lambda c: dd.hankel_matrix([1.0, np.nan, 2.0], 1),
     dd.InputError, "signal contains non-finite entries"),
    ("hankel_matrix-depth", lambda c: dd.hankel_matrix(Z(5), 0),
     dd.InputError, "depth must be at least 1"),
    ("pe_length_bound-depth", lambda c: dd.pe_length_bound(0, 1),
     dd.InputError, "depth, channels and n_signals must be positive"),
    ("generate_experiments-count",
     lambda c: dd.generate_experiments(c.sys, 0, 6, 2, np.random.default_rng(0)),
     dd.InputError, "n_experiments and length must be positive"),
    # A constant input never excites order 2, however often it is drawn.
    ("generate_experiments-retries", lambda c: dd.generate_experiments(
        c.sys, 3, 6, 2, np.random.default_rng(0), input_low=1.0, input_high=1.0, max_retries=2),
     dd.ExcitationError, "could not draw inputs collectively exciting of order 2 in 2 attempts "
     "(total samples 18)"),
    ("export_sdp-no-state", lambda c: dd.export_sdp(
        dd.ExperimentBatch(Xm=Z((0, 5)), Xp=Z((0, 5)), Um=np.ones((1, 5)), boundaries=(0,)),
        dd.LqrWeights(Q=Z((0, 0)), R=np.eye(1))),
     dd.InputError, "the batch must carry at least one state channel"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in OUT_OF_RANGE],
                         ids=[case[0] for case in OUT_OF_RANGE])
def test_arguments_out_of_range_are_refused(ctx, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(ctx)


#: (id, call on ctx with a rank tolerance): every public rtol reaches the rank rule.
RTOL = [
    ("numerical_rank", lambda c, rtol: dd.numerical_rank(np.eye(2), rtol)),
    ("is_controllable", lambda c, rtol: dd.is_controllable(c.sys.A, c.sys.B, rtol)),
    ("is_persistently_exciting",
     lambda c, rtol: dd.is_persistently_exciting(np.ones((30, 1)), 3, rtol=rtol)),
    ("excitation_report", lambda c, rtol: dd.excitation_report(c.runs[0].u, 2, rtol)),
    ("max_excitation_order", lambda c, rtol: dd.max_excitation_order(c.runs[0].u, rtol)),
    ("check_rank_condition", lambda c, rtol: dd.check_rank_condition(
        c.sys, [r.x for r in c.runs], [r.u for r in c.runs], 2, rtol)),
    ("ho_kalman", lambda c, rtol: dd.ho_kalman(dd.markov_parameters(c.sys, 9), 4, rtol)),
    # Order 0 decides no rank: its tolerance is checked on entry.
    ("ho_kalman-order-0", lambda c, rtol: dd.ho_kalman(np.zeros((1, 1, 1)), 0, rtol)),
    ("scan_order", lambda c, rtol: dd.scan_order(c.segments, rtol=rtol)),
    # Its rtol reaches only the completion's uniqueness cutoff.
    ("recover_markov_parameters",
     lambda c, rtol: dd.recover_markov_parameters(c.segments, 2, 5, rtol=rtol)),
    ("identify", lambda c, rtol: dd.identify(c.record, rtol=rtol)),
    ("identify_ab", lambda c, rtol: dd.identify_ab(c.batch, rtol)),
    ("lqr_from_data", lambda c, rtol: dd.lqr_from_data(c.batch, c.weights, rtol=rtol)),
]


@pytest.mark.parametrize("rtol", [-1.0, np.nan, 1.0, 2.0])
@pytest.mark.parametrize("call", [case[1] for case in RTOL], ids=[case[0] for case in RTOL])
def test_rank_tolerances_outside_the_unit_interval_are_refused(ctx, call, rtol):
    # A negative or NaN tolerance called a constant input exciting; one of 1
    # or more calls every matrix rank 0.
    message = f"rtol must be in [0, 1), got {rtol}"
    with pytest.raises(dd.InputError, match=f"^{re.escape(message)}$"):
        call(ctx, rtol)


def test_a_zero_rank_tolerance_counts_every_nonzero_singular_value():
    assert dd.numerical_rank(np.diag([1.0, 1e-300]), 0.0) == 2


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
