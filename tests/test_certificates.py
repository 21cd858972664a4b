"""The certificate rule: every threshold refusal in willems and lqr raises
through ``_linalg.certify``, which accepts a value only at or below its bound
(so a NaN refuses) and words every refusal as "context: name value exceeds
bound", with the value and bound on the error.  The rank-requirement rule:
every rank refusal raises through ``_linalg.require_rank``, worded as
"context: name has rank r, below the required R; " and the singular values
either side of the cut and the cutoff, with the decision and the required
rank on the error."""
import re
import warnings

import numpy as np
import pytest

import ddlti as dd
from ddlti.cli import main
from conftest import unstabilized_runs


def reactor_batch(seed=0, q=5, T=6):
    exps = dd.generate_experiments(dd.batch_reactor(), q, T, pe_order=5,
                                   rng=np.random.default_rng(seed))
    return dd.assemble_batch(exps)


def with_xp(batch, Xp):
    return dd.ExperimentBatch(Xm=batch.Xm, Xp=Xp, Um=batch.Um, boundaries=batch.boundaries)


def swapped_successors():
    """Two successor states swapped: L(P) has a clearly positive eigenvalue."""
    batch = reactor_batch(seed=24)
    Xp = batch.Xp.copy()
    Xp[:, [3, 7]] = Xp[:, [7, 3]]
    return with_xp(batch, Xp)


def nudged_successor():
    """One successor state nudged by 1e-5: L(P) <= 0 holds, but no right
    inverse of Xm annihilates it to 1e-6."""
    batch = reactor_batch()
    Xp = batch.Xp.copy()
    Xp[0, 5] += 1e-5
    return with_xp(batch, Xp)


def unique_completion_below_the_lag():
    """Depth 1 leaves the state of a second-order system free."""
    sys = dd.LtiSystem(A=[[1, 0], [1, 1]], B=[[1], [0]], C=[[0, 1]], D=[[1]])
    rng = np.random.default_rng(0)
    data = dd.simulate(sys, rng.standard_normal(2), rng.standard_normal((40, 1)))
    d = dd.build_data_matrix([(data.u, data.y)], 1)
    dd.datadriven_simulate(d, np.zeros((0, 1)), np.zeros((0, 1)), np.ones((2, 1)))


def unstabilized_lqr():
    _, runs, W = unstabilized_runs()
    dd.lqr_from_data(dd.assemble_batch(runs), W)


def unstabilized_dare():
    sys, _, W = unstabilized_runs()
    dd.dare_solve(sys.A, sys.B, W.Q, W.R)


EYE = dd.LqrWeights(Q=np.eye(4), R=np.eye(2))
EYE_JSON = '{"Q": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]], "R": [[1,0],[0,1]]}'

#: (id, refused call, error class, exit code, context, quantity, phrase)
SITES = [
    ("uniqueness-defect", unique_completion_below_the_lag, dd.InsufficientDataError, 3,
     "the data at depth 1 do not determine the new output (a deeper window or "
     "more exciting data is needed)", "row-space defect", None),
    ("past-residual",
     lambda: dd.recover_markov_parameters([(np.ones((12, 1)), np.ones((12, 1)))], 2, 5),
     dd.InconsistentPastError, 3,
     "recorded data cannot explain the given past at step 0", "relative residual", None),
    ("riccati-residual",
     lambda: dd.dare_solve([[0.7, 1.6], [0.7, -2.6]], [[0.9], [0.4]], np.eye(2),
                           1e-6 * np.eye(1), max_iter=1),
     dd.RiccatiDivergenceError, 4,
     "the Riccati iteration did not converge in its 1-step budget", "Riccati residual", None),
    ("model-gain-radius", unstabilized_dare, dd.RiccatiDivergenceError, 4,
     "the computed gain does not stabilize (A, B), which may not be stabilizable",
     "spectral radius", "spectral radius"),
    ("lmi-eigenvalue", lambda: dd.lqr_from_data(swapped_successors(), EYE),
     dd.CertificationError, 4,
     "the data-side operator L(P) is not negative semidefinite", "max eigenvalue",
     "negative semidefinite"),
    ("right-inverse-residual", lambda: dd.lqr_from_data(nudged_successor(), EYE),
     dd.CertificationError, 4,
     "no right inverse of Xm annihilates L(P)", "relative residual", "right inverse"),
    ("closed-loop-radius", unstabilized_lqr, dd.CertificationError, 4,
     "the closed loop is not stable", "spectral radius", "spectral radius"),
]


@pytest.mark.parametrize("call, error, code, context, name, phrase",
                         [site[1:] for site in SITES], ids=[site[0] for site in SITES])
def test_every_certificate_refuses_in_one_format(call, error, code, context, name, phrase):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no refusal passes through a numpy warning
        with pytest.raises(error) as err:
            call()
    e = err.value
    assert type(e) is error and e.exit_code == code
    assert not e.value <= e.bound
    assert str(e) == f"{context}: {name} {e.value:.3e} exceeds {e.bound:.3e}"
    # benchmarks/workloads.py classifies refusals by these phrases.
    phrases = {"right inverse", "negative semidefinite", "spectral radius"}
    assert {p for p in phrases if p in str(e)} == ({phrase} if phrase else set())


def test_radius_one_refuses():
    # A marginally stable loop is not stable: radius exactly 1 refuses.
    A, B, W = np.eye(1), np.zeros((1, 1)), dd.LqrWeights(Q=np.zeros((1, 1)), R=np.eye(1))
    with pytest.raises(dd.RiccatiDivergenceError, match="spectral radius 1.000e") as err:
        dd.dare_solve(A, B, W.Q, W.R)
    assert err.value.value == 1.0


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200, 1e300])
def test_overflowing_batches_refuse_their_certificate(tmp_path, scale, capsys):
    # The core of L(P) overflows: its eigenvalue is NaN, which refuses,
    # rather than reaching the eigensolver or the right-inverse SVD.
    runs = dd.generate_experiments(dd.batch_reactor(), 8, 10, pe_order=5,
                                   rng=np.random.default_rng(0))
    runs = [dd.StateTrajectory(u=scale * r.u, x=scale * r.x, y=scale * r.y,
                               final_state=scale * r.final_state) for r in runs]
    weights = tmp_path / "w.json"
    weights.write_text(EYE_JSON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow refuses without a numpy warning
        with pytest.raises(dd.CertificationError, match="negative semidefinite") as err:
            dd.lqr_from_data(dd.assemble_batch(runs), EYE)
        assert np.isnan(err.value.value) and "(its core is not finite)" in str(err.value)
        paths = []
        for i, r in enumerate(runs):
            paths.append(str(tmp_path / f"e{i}.csv"))
            dd.write_experiment_csv(paths[-1], r)
        assert main(["lqr", *paths, "--weights", str(weights)]) == 4
    assert re.search(r"error: .*max eigenvalue nan exceeds", capsys.readouterr().err)


def three_step_run():
    """One reactor run of three steps: [Xm; Um] is 6 x 3, of rank 3."""
    return dd.generate_experiments(dd.batch_reactor(), 1, 3, pe_order=1,
                                   rng=np.random.default_rng(0))[0]


def three_step_stack():
    run = three_step_run()
    return np.hstack([run.x, run.u]).T


#: (id, refused call, error class, exit code, context, matrix name, rank,
#: required rank, the matrix decided on, in exact arithmetic)
RANK_SITES = [
    ("identify_ab", lambda: dd.identify_ab(dd.assemble_batch([three_step_run()])),
     dd.InsufficientDataError, 3, "the experiments do not determine the dynamics", "[Xm; Um]",
     3, 6, three_step_stack),
    ("lqr_from_data", lambda: dd.lqr_from_data(dd.assemble_batch([three_step_run()]), EYE),
     dd.InsufficientDataError, 3, "the experiments do not determine the dynamics", "[Xm; Um]",
     3, 6, three_step_stack),
    ("ho_kalman", lambda: dd.ho_kalman(np.ones((5, 1, 1)), 2), dd.OrderInfeasibleError, 5,
     "the Markov parameters do not realize order 2", "the impulse-response Hankel matrix",
     1, 2, lambda: np.ones((2, 2))),
]


@pytest.mark.parametrize("call, error, code, context, name, rank, required, matrix",
                         [site[1:] for site in RANK_SITES], ids=[site[0] for site in RANK_SITES])
def test_every_rank_requirement_refuses_in_one_format(call, error, code, context, name, rank,
                                                      required, matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            call()
    e, rtol = err.value, dd.DEFAULT_RANK_RTOL
    assert type(e) is error and e.exit_code == code
    d = e.decision
    assert isinstance(d, dd.RankDecision) and d.rank == rank and e.required == required
    s = d.singular_values
    expected = np.linalg.svd(matrix(), compute_uv=False)
    assert np.allclose(s, expected, rtol=0.0, atol=1e-14 * expected[0])
    assert d.cutoff == rtol * s[0] and s[rank - 1] > d.cutoff
    assert rank == len(s) or s[rank] <= d.cutoff
    sides = [f"sigma_{k + 1} {s[k]:.3e}" for k in (rank - 1, rank) if k < len(s)]
    assert str(e) == (f"{context}: {name} has rank {rank}, below the required {required}; "
                      + ", ".join(sides + [f"cutoff {d.cutoff:.3e}"]))


def test_rank_refusal_exits_3_through_the_cli(tmp_path, capsys):
    path, weights = tmp_path / "run.csv", tmp_path / "w.json"
    dd.write_experiment_csv(path, three_step_run())
    weights.write_text(EYE_JSON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lqr", str(path), "--weights", str(weights)]) == 3
    assert re.search(r"error: the experiments do not determine the dynamics: \[Xm; Um\] has "
                     r"rank 3, below the required 6; sigma_3 \S+, cutoff \S+$",
                     capsys.readouterr().err.strip())
