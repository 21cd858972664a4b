"""Seeded inputs, operations and output checks for the three workloads.

Each workload builds its inputs from the seed at construction (the set-up
phase), then offers ``op(i)``, one untraced operation timed around the
library call(s) only, and ``traced_op(tracer, i)``, the same work with a
span around every call into a library module.  Every operation's output is
checked against the generating model.  A check's error bound is the
library's default solve/certificate tolerance times a scale taken from the
data: the magnitude of the reference values for Markov parameters, outputs
and SDPA entries, and for LQR gains the first-order sensitivity of the
certified right inverse (``gain_scale``).

Outcomes: ``OK``; ``REFUSED`` when the LQR certificate rejects exact,
full-rank data (the library's known false rejections); ``WRONG`` for
anything else that is not the expected result.  A result's ``failed``
counts only ``WRONG`` ops.  Refusals are counted on their own and reported
in ``failed_share`` and ``lqr.rejected.*``: a timed loop repeats the seed's
batches a number of times that depends on the machine's speed, so a count
that included them would differ between two runs of the same code.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ddlti as dd
from ddlti import cli

OK, REFUSED, WRONG = "ok", "refused", "wrong"

#: Default tolerance of the library's completion solves (``tol``) and LQR
#: certificates (``tol_cert``); every check's bound is this times a scale.
TOL = 1e-6
#: The library's default relative singular-value cutoff.
RTOL = 1e-8


@dataclass(frozen=True)
class Sizes:
    n: int                  # order of the random identification systems
    ident_T: int            # identify-long-run record length
    ident_gaps: tuple       # fixed missing steps of that record
    lqr_batches: int        # pool of batches in lqr-pooled
    lqr_experiments: int    # experiments per batch
    exp_len: int            # steps per reactor experiment
    cli_T: int              # cli-session record length
    cli_missing: float      # share of cli-session samples missing
    cli_future: int         # dd-simulate future steps
    cli_lqr: int            # experiment files given to `lqr`
    cli_sdp: int            # experiment files given to `export-sdp`


SIZES = {
    "full": Sizes(n=8, ident_T=2400, ident_gaps=(800, 1600),
                  lqr_batches=10, lqr_experiments=80, exp_len=10,
                  cli_T=2000, cli_missing=0.02, cli_future=500,
                  cli_lqr=40, cli_sdp=20),
    "tiny": Sizes(n=3, ident_T=300, ident_gaps=(100, 200),
                  lqr_batches=2, lqr_experiments=10, exp_len=10,
                  cli_T=400, cli_missing=0.02, cli_future=50,
                  cli_lqr=10, cli_sdp=5),
}


class Tally:
    """Operations attempted, refused by a certificate, and wrong."""

    def __init__(self):
        self.attempted = self.refused = self.wrong = 0
        self.notes: list[str] = []

    def add(self, outcomes):
        for kind, note in outcomes:
            self.attempted += 1
            self.refused += kind == REFUSED
            if kind == WRONG:
                self.wrong += 1
                if len(self.notes) < 5:
                    self.notes.append(str(note))


# --- reference computations (numpy/scipy only, independent of ddlti) -------

def within(err: float, scale: float) -> bool:
    return bool(np.isfinite(err)) and err <= TOL * max(1.0, scale)


def radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M)))) if len(M) else 0.0


def rank(M) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RTOL * s[0])) if s.size and s[0] > 0 else 0


def markov_ref(system, count: int) -> np.ndarray:
    out = [system.D]
    M = system.B
    for _ in range(1, count):
        out.append(system.C @ M)
        M = system.A @ M
    return np.array(out)


def outputs_ref(system, x0, u) -> np.ndarray:
    x, ys = np.asarray(x0, float), []
    for uk in u:
        ys.append(system.C @ x + system.D @ uk)
        x = system.A @ x + system.B @ uk
    return np.array(ys)


def reactor():
    """The batch reactor, unit LQR weights and the gain scipy's DARE gives."""
    import scipy.linalg  # only the LQR checks need it; keep it out of other set-ups
    plant = dd.batch_reactor()
    weights = dd.LqrWeights(Q=np.eye(4), R=np.eye(2))
    A, B, Q, R = plant.A, plant.B, weights.Q, weights.R
    P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    return plant, weights, -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def hankel_ref(u, depth: int) -> np.ndarray:
    """Block Hankel matrix by its definition: column j is u[j:j+depth], time-major."""
    w = np.lib.stride_tricks.sliding_window_view(u, depth, axis=0)
    return w.transpose(0, 2, 1).reshape(len(w), -1).T


def random_minimal_system(rng, n: int, m: int = 2, p: int = 2, rho: float = 0.9):
    """Random controllable and observable system with spectral radius ``rho``."""
    for _ in range(200):
        A = rng.standard_normal((n, n))
        A *= rho / radius(A)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        obsv = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        if rank(ctrb) == n and rank(obsv) == n:
            return dd.LtiSystem(A=A, B=B, C=C, D=D)
    raise RuntimeError("could not draw a minimal system")


def complete_runs(present: np.ndarray) -> list[tuple[int, int]]:
    """(start, length) of the maximal runs of True in a mask."""
    edges = np.diff(np.concatenate([[0], present.astype(int), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]


def run_lengths(total: int, count: int) -> np.ndarray:
    """``count`` run lengths summing to ``total``, at the quantiles of the
    exponential distribution that uniformly scattered missing samples give.

    Every seed then sees the same mix of short and long runs, in its own
    order, so the cost of a session does not depend on the seed's luck.
    """
    q = -np.log(1.0 - (np.arange(count) + 0.5) / count)
    L = np.maximum(1, np.round(q * total / q.sum())).astype(int)
    L[-1] += total - L.sum()
    return L


def largest_window(lengths, m: int, p: int) -> int:
    """Deepest window whose runs give at least (m+p)*depth columns."""
    for depth in range(max(lengths), 1, -1):
        if sum(L - depth + 1 for L in lengths if L >= depth) >= (m + p) * depth:
            return depth
    return 1


def timed(fn, *args, **kw):
    """(seconds, result, exception) of one call; only the call is timed."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kw)
    except Exception as e:  # the outcome is classified by the caller
        # Without its traceback the error holds no frames, so the data the
        # failed call allocated is freed now rather than at some later GC.
        return time.perf_counter() - t0, None, e.with_traceback(None)
    return time.perf_counter() - t0, out, None


@contextlib.contextmanager
def maybe_span(tracer, name):
    if tracer is None:
        yield None
    else:
        with tracer.span(name) as s:
            yield s


def gapped_record(tracer, system, rng, T: int, gaps) -> dd.CorruptedTrajectory:
    """A simulated record of T steps with whole samples blanked at ``gaps``."""
    x0 = rng.standard_normal(system.n)
    u = rng.standard_normal((T, system.m))
    with maybe_span(tracer, "lti.simulate"):
        traj = dd.simulate(system, x0, u)
    # Generated data must obey the model before anything is checked against it.
    x = np.vstack([traj.x, traj.final_state])
    err = max(np.abs(x[0] - x0).max(),
              np.abs(x[:-1] @ system.A.T + u @ system.B.T - x[1:]).max(),
              np.abs(traj.x @ system.C.T + u @ system.D.T - traj.y).max())
    if not within(err, np.abs(x).max()):
        raise RuntimeError(f"simulate disagrees with its model by {err:.3e}")
    u, y = traj.u.copy(), traj.y.copy()
    u[gaps] = np.nan
    y[gaps] = np.nan
    return dd.CorruptedTrajectory(u=u, y=y)


def classify_rejection(err: Exception) -> str:
    text = str(err)
    if "right inverse" in text:
        return "right_inverse"
    if "negative semidefinite" in text:
        return "lmi"
    if "spectral radius" in text:
        return "radius"
    return "other"


def gain_scale(batch) -> float:
    """How far an accepted gain may sit from the exact one, per unit ``TOL``.

    The certificate admits a right inverse X of Xm with relative residual
    ``tol_cert``: ||Xm X - I||_F <= tol_cert * sqrt(n).  To first order that
    moves X by at most tol_cert * sqrt(n) / sigma_min(Xm), and K = Um X by
    ||Um||_2 times that.
    """
    smin = np.linalg.svd(batch.Xm, compute_uv=False)[-1]
    return float(np.sqrt(batch.n) * np.linalg.norm(batch.Um, 2) / smin)


def check_gain(K, radius_reported, plant, K_ref, scale):
    err = float(np.abs(np.asarray(K) - K_ref).max())
    if not within(err, scale):
        return WRONG, f"gain error {err:.3e} above {TOL * max(1.0, scale):.3e}"
    if not (radius_reported < 1.0 and radius(plant.A + plant.B @ K) < 1.0):
        return WRONG, "closed loop not stable"
    return OK, err


# --- identify-long-run ------------------------------------------------------

class IdentifyLongRun:
    """``identify`` on one long record with two missing samples."""

    name = "identify-long-run"
    pass_len = 1
    op_label = "identify_s"     # what op_s is called in the printed report
    root_span = "ident.op"      # the span around one traced operation

    def __init__(self, seed: int, sz: Sizes, workdir: Path, tracer=None):
        rng = np.random.default_rng([seed, 1])
        self.system = random_minimal_system(rng, sz.n)
        self.record = gapped_record(tracer, self.system, rng, sz.ident_T,
                                    list(sz.ident_gaps))
        self.markov = markov_ref(self.system, 2 * sz.n + 1)
        self.window = largest_window(
            [L for _, L in complete_runs(self.record.present)], 2, 2)
        self.last = None

    def check(self, order, markov):
        n = self.system.n
        if order != n:
            return WRONG, f"order {order} != {n}"
        err = float(np.abs(markov - self.markov).max())
        if not within(err, np.abs(self.markov).max()):
            return WRONG, f"markov error {err:.3e}"
        return OK, err

    def op(self, i: int):
        dt, res, err = timed(dd.identify, self.record)
        if err is not None:
            return dt, [(WRONG, repr(err))]
        self.last = res
        return dt, [self.check(res.order, res.markov)]

    def traced_op(self, tr, i: int):
        try:
            with tr.span(self.root_span) as op:
                with tr.span("ident.segment"):
                    segs = dd.segment_trajectory(self.record, min_len=1)
                with tr.span("ident.scan_order"):
                    order = dd.scan_order(segs)
                count = 2 * order + 1
                with tr.span("ident.markov"):
                    markov = dd.recover_markov_parameters(segs, order, count)
                with tr.span("ident.ho_kalman"):
                    system = dd.ho_kalman(markov, order)
                with tr.span("lti.markov_check"):
                    dd.markov_parameters(system, count)
            # Kernel probes at the largest window the longest run supports.
            pairs = [(u, y) for u, y in segs if u.length >= self.window]
            with tr.span("hankel.build"):
                M = dd.build_data_matrix(pairs, self.window).matrix
            with tr.span("linalg.rank"):
                dd.numerical_rank(M)
        except Exception as e:
            return 0.0, [(WRONG, repr(e))]
        self.rank_matrix_bytes = M.nbytes
        outcome = self.check(order, markov)
        if outcome[0] == OK and self.last is not None:
            # The staged pipeline must reproduce identify's own result.
            err = float(np.abs(self.last.markov - markov).max())
            if self.last.order != order or not within(err, np.abs(markov).max()):
                outcome = (WRONG, "staged result differs from identify")
        return op["end"] - op["start"], [outcome]

    def layer_metrics(self, tr) -> dict:
        out = {f"{k}_s": tr.per_op(k) for k in (
            "ident.segment", "ident.scan_order", "ident.markov",
            "ident.ho_kalman", "lti.markov_check", "hankel.build", "linalg.rank")}
        out["linalg.rank_matrix_bytes"] = [float(self.rank_matrix_bytes)]
        return out


# --- lqr-pooled -------------------------------------------------------------

class LqrPooled:
    """``lqr_from_data`` over a seeded pool of reactor batches, one per op."""

    name = "lqr-pooled"
    op_label = "lqr_s"
    root_span = "lqr.op"

    def __init__(self, seed: int, sz: Sizes, workdir: Path, tracer=None):
        rng = np.random.default_rng([seed, 2])
        self.plant, self.weights, self.K_ref = reactor()
        self.experiments = []
        for _ in range(sz.lqr_batches):
            with maybe_span(tracer, "lqr.generate_experiments"):
                self.experiments.append(dd.generate_experiments(
                    self.plant, sz.lqr_experiments, sz.exp_len, pe_order=5, rng=rng))
        self.batches = [dd.assemble_batch(e) for e in self.experiments]
        self.gain_scales = [gain_scale(b) for b in self.batches]
        self.pass_len = len(self.batches)
        self.rejected: dict[int, str] = {}
        self.k_err: dict[int, float] = {}

    def outcome(self, i, sol, err):
        if err is not None:
            if isinstance(err, dd.CertificationError):
                self.rejected[i] = classify_rejection(err)
                return REFUSED, str(err)
            return WRONG, repr(err)
        verdict = check_gain(sol.K, sol.closed_loop_radius, self.plant, self.K_ref,
                             self.gain_scales[i])
        if verdict[0] == OK:
            self.k_err[i] = verdict[1]
        return verdict

    def op(self, i: int):
        i %= self.pass_len
        dt, sol, err = timed(dd.lqr_from_data, self.batches[i], self.weights)
        return dt, [self.outcome(i, sol, err)]

    def traced_op(self, tr, i: int):
        i %= self.pass_len
        W = self.weights
        try:
            with tr.span(self.root_span):
                with tr.span("lqr.assemble_batch"):
                    batch = dd.assemble_batch(self.experiments[i])
                with tr.span("lqr.identify_ab"):
                    A, B = dd.identify_ab(batch)
                with tr.span("lqr.dare_solve"):
                    P, _ = dd.dare_solve(A, B, W.Q, W.R)
                with tr.span("lqr.lmi_operator"):
                    dd.lmi_operator(P, batch, W)
                with tr.span("lqr.lqr_from_data") as call:
                    _, sol, err = timed(dd.lqr_from_data, batch, W)
        except Exception as e:
            return 0.0, [(WRONG, repr(e))]
        return call["end"] - call["start"], [self.outcome(i, sol, err)]

    def layer_metrics(self, tr) -> dict:
        out = {f"{k}_s": tr.per_op(k) for k in (
            "lqr.assemble_batch", "lqr.identify_ab", "lqr.dare_solve",
            "lqr.lmi_operator")}
        full = tr.per_op_map("lqr.lqr_from_data")
        ab = tr.per_op_map("lqr.identify_ab")
        dare = tr.per_op_map("lqr.dare_solve")
        out["lqr.certify_s"] = [full[k] - ab[k] - dare[k] for k in full]
        kinds = list(self.rejected.values())
        for kind in ("lmi", "right_inverse", "radius", "other"):
            out[f"lqr.rejected.{kind}"] = [float(kinds.count(kind))]
        out["lqr.k_err_max"] = [max(self.k_err.values(), default=0.0)]
        return out


# --- cli-session ------------------------------------------------------------

def run_cli(argv):
    """In-process ``ddlti`` call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


class CliSession:
    """One CLI session over CSV files written at set-up."""

    name = "cli-session"
    pass_len = 1
    op_label = "session_s"
    root_span = "cli.session"

    def __init__(self, seed: int, sz: Sizes, workdir: Path, tracer=None):
        rng = np.random.default_rng([seed, 3])
        n, m = sz.n, 2
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.system = system = random_minimal_system(rng, n)

        # Record with seeded missing samples.
        k = round(sz.cli_missing * sz.cli_T)
        lengths = run_lengths(sz.cli_T - k, k + 1)
        rng.shuffle(lengths)
        record = gapped_record(tracer, system, rng, sz.cli_T,
                               np.cumsum(lengths[:-1] + 1) - 1)
        self.record = self._path("record.csv")
        with maybe_span(tracer, "io.write_trajectory_csv"):
            dd.write_trajectory_csv(self.record, record)

        # A genuine past of n samples, then future inputs to continue it.
        x0 = rng.standard_normal(n)
        u = rng.standard_normal((n + sz.cli_future, m))
        y = outputs_ref(system, x0, u)
        self.past_u, self.past_y, self.future_u, self.y_future = u[:n], y[:n], u[n:], y[n:]
        self.past = self._path("past.csv")
        with maybe_span(tracer, "io.write_trajectory_csv"):
            dd.write_trajectory_csv(self.past, dd.CorruptedTrajectory(
                u=self.past_u, y=self.past_y))
        self.future = self._path("future.csv")
        with open(self.future, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"u{j + 1}" for j in range(m)])
            for k, row in enumerate(self.future_u):
                w.writerow([n + k] + [repr(float(v)) for v in row])

        # Reactor experiments for `lqr` and `export-sdp`.
        self.plant, self.weights, self.K_ref = reactor()
        with maybe_span(tracer, "lqr.generate_experiments"):
            exps = dd.generate_experiments(self.plant, sz.cli_lqr, sz.exp_len,
                                           pe_order=5, rng=rng)
        self.exps = []
        for k, e in enumerate(exps):
            path = self._path(f"exp{k:03d}.csv")
            with maybe_span(tracer, "io.write_experiment_csv"):
                dd.write_experiment_csv(path, e)
            self.exps.append(path)
        self.weights_json = self._path("weights.json")
        with open(self.weights_json, "w") as fh:
            json.dump({"Q": self.weights.Q.tolist(), "R": self.weights.R.tolist()}, fh)
        self.gain_scale = gain_scale(dd.assemble_batch(exps))
        sdp = exps[:sz.cli_sdp]
        Xm = np.hstack([e.x.T for e in sdp])
        Um = np.hstack([e.u.T for e in sdp])
        self.sdp_n, self.sdp_N = Xm.shape
        self.sdp_files = self.exps[:sz.cli_sdp]
        self.sdp_C0 = Xm.T @ self.weights.Q @ Xm + Um.T @ self.weights.R @ Um

        # What pe-check must answer, derived from the record itself.
        self.order = 2 * n + 1
        runs = complete_runs(record.present)
        # Generic random inputs reach the counting bound k*m <= L - k + 1.
        self.run_orders = [(L + 1) // (m + 1) for _, L in runs]
        if min(L for _, L in runs) < self.order:
            self.pe_code = 2
        else:
            H = np.hstack([hankel_ref(record.u[s:s + L], self.order) for s, L in runs])
            self.pe_code = 0 if rank(H) == self.order * m else 2

        self.outputs = {k: self._path(f) for k, f in (
            ("model", "model.json"), ("cont", "cont.csv"),
            ("gain", "gain.json"), ("sdp", "program.dat-s"))}
        w = ["--weights", self.weights_json]
        self.calls = [
            ("cli.pe_check", ["pe-check", self.record, "--order", str(self.order)],
             self.check_pe),
            ("cli.identify", ["identify", self.record, "--out", self.outputs["model"]],
             self.check_identify),
            ("cli.dd_simulate", ["dd-simulate", self.record, "--past", self.past,
                                 "--future", self.future, "--out", self.outputs["cont"]],
             self.check_ddsim),
            ("cli.lqr", ["lqr", *self.exps, *w, "--out", self.outputs["gain"]],
             self.check_lqr),
            ("cli.export_sdp", ["export-sdp", *self.sdp_files, *w,
                                "--out", self.outputs["sdp"]],
             self.check_sdp),
        ]
        read = [self.record] * 3 + [self.past, self.future] + self.exps + self.sdp_files
        self.csv_bytes_read = float(sum(os.path.getsize(p) for p in read))

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    # Checks: each gets the exit code, stdout and stderr of its call.

    def check_pe(self, code, out, err):
        if code != self.pe_code:
            return WRONG, f"pe-check exit {code}, expected {self.pe_code}"
        got = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()
               if line.startswith("  segment ")]
        if got != self.run_orders:
            return WRONG, "per-segment excitation orders differ from the counting bound"
        return OK, None

    def check_identify(self, code, out, err):
        if code != 0:
            return WRONG, f"identify exit {code}: {err.strip()}"
        with open(self.outputs["model"]) as fh:
            m = json.load(fh)
        system = dd.LtiSystem(**{k: np.array(m[k]) for k in "ABCD"})
        ref = markov_ref(self.system, 2 * self.system.n + 1)
        e = float(np.abs(markov_ref(system, len(ref)) - ref).max())
        if system.n != self.system.n or not within(e, np.abs(ref).max()):
            return WRONG, f"identified model off (order {system.n}, error {e:.3e})"
        return OK, e

    def check_ddsim(self, code, out, err):
        if code != 0:
            return WRONG, f"dd-simulate exit {code}: {err.strip()}"
        with open(self.outputs["cont"]) as fh:
            rows = list(csv.reader(fh))
        p = self.y_future.shape[1]
        ys = np.array([[float(v) for v in r[-p:]] for r in rows[1:]])
        if ys.shape != self.y_future.shape:
            return WRONG, f"dd-simulate wrote {ys.shape} outputs"
        e = float(np.abs(ys - self.y_future).max())
        if not within(e, np.abs(self.y_future).max()):
            return WRONG, f"dd-simulate error {e:.3e}"
        return OK, e

    def check_lqr(self, code, out, err):
        if code == 4:
            return REFUSED, err.strip()
        if code != 0:
            return WRONG, f"lqr exit {code}: {err.strip()}"
        with open(self.outputs["gain"]) as fh:
            g = json.load(fh)
        return check_gain(g["K"], g["closed_loop_radius"], self.plant, self.K_ref,
                          self.gain_scale)

    def check_sdp(self, code, out, err):
        if code != 0:
            return WRONG, f"export-sdp exit {code}: {err.strip()}"
        n, N = self.sdp_n, self.sdp_N
        with open(self.outputs["sdp"]) as fh:
            head = [next(fh) for _ in range(5)]
            f0 = []
            for line in fh:
                if not line.startswith("0 "):
                    break
                f0.append(line.split())
        if (head[1].split()[0] != str(n * (n + 1) // 2) or head[2].split()[0] != "2"
                or head[3].split()[:2] != [str(n), str(N)]):
            return WRONG, f"SDPA header {head[1:4]} does not match n={n}, N={N}"
        F0 = np.zeros((N, N))
        for _, block, r, c, v in f0:
            if block != "2":
                return WRONG, "SDPA constant term outside block 2"
            F0[int(r) - 1, int(c) - 1] = float(v)
        ref = -np.triu(0.5 * (self.sdp_C0 + self.sdp_C0.T))
        e = float(np.abs(F0 - ref).max())
        if not within(e, np.abs(ref).max()):
            return WRONG, f"SDPA constant block error {e:.3e}"
        return OK, e

    def _clear_outputs(self):
        for path in self.outputs.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def op(self, i: int):
        self._clear_outputs()
        total, outcomes = 0.0, []
        for _, argv, check in self.calls:
            dt, code, out, err = run_cli(argv)
            total += dt
            outcomes.append(check(code, out, err))
        return total, outcomes

    def traced_op(self, tr, i: int):
        self._clear_outputs()
        results = []
        with tr.span(self.root_span) as session:
            for name, argv, _ in self.calls:
                with tr.span(name):
                    results.append(run_cli(argv)[1:])
        outcomes = [check(*r) for (_, _, check), r in zip(self.calls, results)]
        try:
            outcomes.append(self._replay(tr))
        except Exception as e:
            outcomes.append((WRONG, repr(e)))
        return session["end"] - session["start"], outcomes

    def _replay(self, tr):
        """The library calls the subcommands make, timed one module at a time."""
        with tr.span("io.read_trajectory_csv"):
            record = dd.read_trajectory_csv(self.record)
        for path in self.exps:
            with tr.span("io.read_experiment_csv"):
                dd.read_experiment_csv(path)
        segs = dd.segment_trajectory(record, min_len=1)
        inputs = [u for u, _ in segs]
        with tr.span("hankel.max_excitation_order"):
            for u in inputs:
                dd.max_excitation_order(u)
        with tr.span("hankel.excitation_report"):
            with contextlib.suppress(dd.DepthTooLargeError):
                dd.excitation_report(inputs, self.order)
        depth = self.system.n + 1
        usable = [(u, y) for u, y in segs if u.length >= depth]
        with tr.span("willems.build_data_matrix"):
            d = dd.build_data_matrix(usable, depth)
        with tr.span("willems.ddsim"):
            ys = dd.datadriven_simulate(d, self.past_u, self.past_y, self.future_u)
        batch = dd.assemble_batch([dd.read_experiment_csv(p) for p in self.sdp_files])
        with tr.span("lqr.export_sdp"):
            self.sdpa_bytes = len(dd.export_sdp(batch, self.weights))
        e = float(np.abs(ys - self.y_future).max())
        if not within(e, np.abs(self.y_future).max()):
            return WRONG, f"replayed datadriven_simulate error {e:.3e}"
        return OK, e

    def layer_metrics(self, tr) -> dict:
        names = ["cli.pe_check", "cli.identify", "cli.dd_simulate", "cli.lqr",
                 "cli.export_sdp", "io.read_trajectory_csv", "io.read_experiment_csv",
                 "hankel.max_excitation_order", "hankel.excitation_report",
                 "willems.build_data_matrix", "willems.ddsim", "lqr.export_sdp"]
        out = {f"{k}_s": tr.per_op(k) for k in names}
        out["willems.ddsim_step_s"] = [t / len(self.future_u) for t in out["willems.ddsim_s"]]
        out["lqr.sdpa_bytes"] = [float(self.sdpa_bytes)]
        out["io.csv_bytes_read"] = [self.csv_bytes_read]
        return out


WORKLOADS = {w.name: w for w in (IdentifyLongRun, LqrPooled, CliSession)}
