"""Scaling sweeps for the traced run.

Each stage is timed at three sizes and the slope of log(time) against
log(size) is reported, so an asymptotic change shows as a changed exponent.
The sizes reproduce the baseline table of ROADMAP item 1; ``tiny`` keeps
the metric names and shrinks the sizes for the smoke test.
"""
from __future__ import annotations

import numpy as np

import ddlti as dd
from workloads import (
    OK,
    REFUSED,
    WRONG,
    check_gain,
    gain_scale,
    gapped_record,
    hankel_ref,
    outputs_ref,
    random_minimal_system,
    reactor,
    within,
)

#: metric label -> size, per stage, for each size preset.
POINTS = {
    "full": {
        "scan_order": {"run400": 400, "run800": 800, "run1600": 1600},
        "lqr_from_data": {"n400": 400, "n800": 800, "n1600": 1600},
        "export_sdp": {"n50": 50, "n100": 100, "n200": 200},
        "ddsim_step": {"n500": 500, "n1000": 1000, "n2000": 2000},
        "long_T": 100_000,
    },
    "tiny": {
        "scan_order": {"run400": 40, "run800": 80, "run1600": 160},
        "lqr_from_data": {"n400": 100, "n800": 200, "n1600": 400},
        "export_sdp": {"n50": 20, "n100": 40, "n200": 80},
        "ddsim_step": {"n500": 100, "n1000": 200, "n2000": 400},
        "long_T": 5_000,
    },
}
#: Completed steps timed per dictionary size in the datadriven_simulate sweep.
DDSIM_STEPS = 100
#: A point is repeated until this much time is spent on it (at least once).
POINT_SECONDS = 0.5


def _time(tr, name, fn, *args):
    """Median time of repeated calls inside one traced op; returns (s, result)."""
    tr.new_op()
    times, spent = [], 0.0
    while spent < POINT_SECONDS or not times:
        with tr.span(name) as s:
            out = fn(*args)
        times.append(s["end"] - s["start"])
        spent += times[-1]
        if len(times) >= 5:
            break
    return float(np.median(times)), out


def _exponent(points: dict, times: dict) -> float:
    sizes = [points[k] for k in times]
    return float(np.polyfit(np.log(sizes), np.log(list(times.values())), 1)[0])


def run_sweeps(tr, seed: int, preset: str, n: int):
    """Returns (metrics, outcomes, rejected) for every sweep stage; ``rejected``
    names the lqr_from_data points whose batch the certificate refused, since
    a refusal ends the call early and so lowers that point's time."""
    cfg = POINTS[preset]
    rng = np.random.default_rng([seed, 4])
    metrics, outcomes, rejected = {}, [], []
    system = random_minimal_system(rng, n)

    # Order scan over three complete runs of the given length.
    times = {}
    for label, L in cfg["scan_order"].items():
        record = gapped_record(None, system, rng, 3 * L + 2, [L, 2 * L + 1])
        segs = dd.segment_trajectory(record)
        times[label], order = _time(tr, f"sweep.ident.scan_order.{label}",
                                    dd.scan_order, segs)
        outcomes.append((OK, None) if order == n else (WRONG, f"scan_order gave {order}"))
    _store(metrics, "sweep.ident.scan_order", cfg["scan_order"], times)

    # Certified LQR and SDPA export on pooled reactor batches of 10-step runs.
    plant, weights, K_ref = reactor()

    def lqr(batch):
        try:
            return dd.lqr_from_data(batch, weights)
        except dd.CertificationError as e:
            return e

    for stage, fn in (("lqr_from_data", lqr),
                      ("export_sdp", lambda b: dd.export_sdp(b, weights))):
        times = {}
        for label, N in cfg[stage].items():
            batch = dd.assemble_batch(dd.generate_experiments(
                plant, N // 10, 10, pe_order=5, rng=rng))
            times[label], out = _time(tr, f"sweep.lqr.{stage}.{label}", fn, batch)
            if stage != "lqr_from_data":
                continue
            if isinstance(out, dd.CertificationError):
                rejected.append(f"sweep.lqr.{stage}.{label}")
                outcomes.append((REFUSED, str(out)))
            else:
                outcomes.append(check_gain(out.K, out.closed_loop_radius, plant, K_ref,
                                           gain_scale(batch)))
        _store(metrics, f"sweep.lqr.{stage}", cfg[stage], times)

    # Data-driven simulation: per completed step against dictionary width N.
    times = {}
    for label, N in cfg["ddsim_step"].items():
        L = n + 1
        u = rng.standard_normal((N + L - 1, 2))
        d = dd.build_data_matrix([(u, dd.simulate(system, rng.standard_normal(n), u).y)], L)
        x0 = rng.standard_normal(n)
        uf = rng.standard_normal((n + DDSIM_STEPS, 2))
        ref = outputs_ref(system, x0, uf)
        t, ys = _time(tr, f"sweep.willems.ddsim.{label}", dd.datadriven_simulate,
                      d, uf[:n], ref[:n], uf[n:])
        times[label] = t / DDSIM_STEPS
        e = float(np.abs(ys - ref[n:]).max())
        outcomes.append((OK, e) if within(e, np.abs(ref).max())
                        else (WRONG, f"ddsim sweep error {e:.3e}"))
    _store(metrics, "sweep.willems.ddsim_step", cfg["ddsim_step"], times)

    # Long records: one Hankel matrix of depth 20 and one simulation.
    T = cfg["long_T"]
    u = rng.standard_normal((T, 2))
    t, _ = _time(tr, "sweep.lti.simulate.t100k", dd.simulate, system, np.zeros(n), u)
    metrics["sweep.lti.simulate.t100k_s"] = t
    t, H = _time(tr, "sweep.hankel.hankel_matrix.t100k", dd.hankel_matrix, u, 20)
    metrics["sweep.hankel.hankel_matrix.t100k_s"] = t
    outcomes.append((OK, None) if np.array_equal(H, hankel_ref(u, 20))
                    else (WRONG, "hankel_matrix differs from its definition"))
    return metrics, outcomes, rejected


def _store(metrics, prefix, points, times):
    for label, t in times.items():
        metrics[f"{prefix}.{label}_s"] = t
    metrics[f"{prefix}.exponent"] = _exponent(points, times)
