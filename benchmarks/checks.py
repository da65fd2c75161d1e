"""Output checks of the benchmark jobs.

Each ``*_problems`` function takes a job's output as arrays or parsed JSON
and returns a list of problems, empty when the output is correct;
``test_checks.py`` feeds each one a perturbed copy to prove it rejects it.
``check_pass`` reads one pass directory and applies them.  None of this runs
inside a timed region.
"""

import csv
import json
import os

import numpy as np

from fracdyn import (
    EstimatorConfig,
    augment_v,
    augmented_spectral_radius,
    bisection_bound,
    build_weight_table,
    frac_difference,
    gaussian_noise,
    me_batch,
    ols_spatial,
)
from fracdyn.fileio import read_trajectory

import workloads as W

SIMULATE_RTOL = 1e-9
IDENTIFY_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12
STABILITY_RTOL = 1e-12
ESTIMATE_RTOL = 1e-6
KKT_RTOL = 1e-8
#: Filter steps compared against the batch minimum-energy solve.
ESTIMATE_STEPS = 100


def fos_trajectory_problems(model, states, noise) -> list:
    """Every step must satisfy D^a x[k+1] = A x[k] + Bw w[k] (input-free run).

    The fractional difference comes from ``frac_difference``, not from the
    simulator's own recursion; residuals are relative to the largest state
    magnitude so far, the scale of the terms the difference sums.
    """
    K = states.shape[0] - 1
    if noise.shape[0] != K:
        return [f"trajectory has {K} steps, noise has {noise.shape[0]}"]
    if not np.all(np.isfinite(states)):
        return ["trajectory has non-finite states"]
    table = build_weight_table(model.alpha, K)
    rhs = states[:-1] @ model.A.T + noise @ model.Bw.T
    running_max = np.maximum.accumulate(np.abs(states).max(axis=1))
    worst, where = 0.0, 0
    for k in range(K):
        lhs = frac_difference(states[: k + 2], model.alpha, k + 1, table)
        scale = max(running_max[k + 1], np.abs(rhs[k]).max(), np.finfo(float).tiny)
        err = np.abs(lhs - rhs[k]).max() / scale
        if err > worst:
            worst, where = err, k
    if worst > SIMULATE_RTOL:
        return [f"dynamics residual {worst:.3e} at step {where} exceeds {SIMULATE_RTOL:g}"]
    return []


def identify_problems(traj, window, epsilon, alpha_hat, iterations, A_hat) -> list:
    """Orders in [-1, 1], bisection within its bound, A_hat = OLS at the orders."""
    problems = []
    if np.any(~np.isfinite(alpha_hat)) or np.any(np.abs(alpha_hat) > 1.0):
        problems.append(f"orders {alpha_hat.tolist()} leave [-1, 1]")
    cap = bisection_bound(epsilon)
    if np.any(iterations > cap):
        problems.append(f"iterations {iterations.tolist()} exceed the bound {cap}")
    if not problems:
        ref = ols_spatial(traj, alpha_hat, window).A_hat
        err = np.abs(A_hat - ref).max() / max(np.abs(ref).max(), np.finfo(float).tiny)
        if not err <= IDENTIFY_RTOL:
            problems.append(f"A_hat differs from ols_spatial by {err:.3e} relative")
    return problems


def gramian_problems(report: dict, horizon: int) -> list:
    """Both Gramians finite and symmetric, at the requested horizon."""
    problems = []
    if report.get("horizon") != horizon:
        problems.append(f"horizon {report.get('horizon')} != {horizon}")
    for label, W_ in (("controllability", report["controllability"]["matrix"]),
                      ("observability", report["observability"]["gramian"])):
        W_ = np.asarray(W_, dtype=float)
        if not np.all(np.isfinite(W_)):
            problems.append(f"{label} Gramian is not finite")
        elif np.abs(W_ - W_.T).max() > SYMMETRY_RTOL * max(np.abs(W_).max(), np.finfo(float).tiny):
            problems.append(f"{label} Gramian is not symmetric")
    return problems


def stability_problems(report: dict, model, depth: int) -> list:
    """Heuristic lift radius equal to an in-process evaluation."""
    if report.get("test") != "heuristic-lift-spectral-radius" or report.get("depth") != depth:
        return [f"expected the depth-{depth} heuristic lift test, got {report.get('test')}"]
    rho = float(report["spectral_radius"])
    ref = augmented_spectral_radius(model, depth)
    if not abs(rho - ref) <= STABILITY_RTOL * max(1.0, ref):
        return [f"spectral radius {rho!r} differs from in-process {ref!r}"]
    return []


def box_problems(inputs, lo: float, hi: float, solves: int, K: int) -> list:
    """Every applied input inside the box exactly; one solve per step (M = 1)."""
    problems = []
    if inputs.shape[0] != K:
        problems.append(f"{inputs.shape[0]} applied inputs for {K} steps")
    outside = int(np.sum((inputs < lo) | (inputs > hi) | ~np.isfinite(inputs)))
    if outside:
        problems.append(f"{outside} applied inputs leave the box [{lo!r}, {hi!r}]")
    if solves != K:
        problems.append(f"{solves} solves for {K} steps")
    return problems


def estimate_problems(net, v: int, weights: dict, traj, estimates) -> list:
    """Filter estimate at step ESTIMATE_STEPS equal to the batch minimum-energy solve."""
    aug = augment_v(net, v)
    cfg = EstimatorConfig.from_scalars(aug, weights["Q"], weights["R"], weights["P0"])
    N = ESTIMATE_STEPS
    u = traj.inputs[:N] if traj.inputs is not None else None
    xb, _ = me_batch(aug, cfg, u, traj.outputs[1 : N + 1])
    ref = xb[N, : aug.n]
    err = np.linalg.norm(estimates[N] - ref) / max(np.linalg.norm(ref), np.finfo(float).tiny)
    if not err <= ESTIMATE_RTOL:
        return [f"filter estimate at step {N} differs from me_batch by {err:.3e} relative"]
    return []


def kkt_problems(kkt_scaled_max: float) -> list:
    """Box-QP solves must be stationary to KKT_RTOL (scaled by 1 + |cost|)."""
    if not kkt_scaled_max <= KKT_RTOL:
        return [f"scaled KKT residual {kkt_scaled_max:.3e} exceeds {KKT_RTOL:g}"]
    return []


def differing_files(names, pass_dir: str, ref_dir: str) -> list:
    """Names (with their manifests, where written) whose bytes differ from ref_dir."""
    differing = []
    for name in names:
        for fname in (name, name + ".manifest.json"):
            ref = os.path.join(ref_dir, fname)
            if fname != name and not os.path.exists(ref):
                continue
            try:
                with open(os.path.join(pass_dir, fname), "rb") as a, open(ref, "rb") as b:
                    same = a.read() == b.read()
            except OSError:
                same = False
            if not same:
                differing.append(fname)
    return differing


def _columns(path: str, prefix: str, rows: slice) -> np.ndarray:
    """Numbered columns ``<prefix>1..`` of a CSV, for the given rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [i for i, h in enumerate(header) if h.startswith(prefix) and h[len(prefix):].isdigit()]
        data = list(reader)[rows]
    return np.array([[float(r[i]) for i in idx] for r in data]).reshape(len(data), len(idx))


def _json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _lm_simulate(wl, d: str, gauges: dict) -> list:
    model = wl.truth["model"]
    traj = read_trajectory(os.path.join(d, "traj.csv"))
    if traj.K != W.LM_STEPS:
        return [f"trajectory has {traj.K} steps, not {W.LM_STEPS}"]
    noise = gaussian_noise(wl.truth["noise_seed"], W.LM_STEPS, model.p, W.LM_SIGMA)
    return fos_trajectory_problems(model, traj.states, noise)


def _lm_identify(wl, d: str, gauges: dict) -> list:
    with open(os.path.join(d, "diag.csv"), newline="") as fh:
        diag = list(csv.DictReader(fh))
    alpha_hat = np.array([float(r["alpha_hat"]) for r in diag])
    iterations = np.array([int(r["iterations"]) for r in diag])
    A_hat = np.asarray(_json(os.path.join(d, "identified.json"))["A"], dtype=float)
    # a gauge of the order-recovery defect, not a failure
    gauges["alpha_err_max"] = float(np.abs(alpha_hat - wl.truth["model"].alpha).max())
    traj = read_trajectory(os.path.join(d, "traj.csv"))
    return identify_problems(traj, W.LM_WINDOW, W.LM_EPSILON, alpha_hat, iterations, A_hat)


def _lm_gramians(wl, d: str, gauges: dict) -> list:
    return gramian_problems(_json(os.path.join(d, "gramians.json")), W.LM_GRAMIAN_HORIZON)


def _lm_stability(wl, d: str, gauges: dict) -> list:
    return stability_problems(_json(os.path.join(d, "stability.json")),
                              wl.truth["model"], W.LM_STABILITY_DEPTH)


def _closed_loop(out: str, scenario_key: str):
    def check(wl, d: str, gauges: dict) -> list:
        sc = wl.truth[scenario_key]
        K = sc["K"]
        path = os.path.join(d, out)
        states = _columns(path, "x", slice(None))
        if states.shape[0] != K + 1 or not np.all(np.isfinite(states)):
            return [f"{out} lacks {K + 1} finite state rows"]
        solves = _json(path + ".summary.json")["solves"]
        return box_problems(_columns(path, "u", slice(0, K)), sc["u_lo"], sc["u_hi"], solves, K)

    return check


def _net_simulate(wl, d: str, gauges: dict) -> list:
    net = wl.truth["network"]
    traj = read_trajectory(os.path.join(d, "measured.csv"))
    if traj.K != W.NET_STEPS or traj.outputs is None or traj.outputs.shape[1] != net.q:
        return [f"measured.csv lacks {W.NET_STEPS + 1} rows of {net.q} outputs"]
    y = traj.states @ net.C.T
    if np.abs(traj.outputs - y).max() > 1e-12 * max(1.0, np.abs(y).max()):
        return ["outputs differ from C x"]
    return []


def _net_estimate(wl, d: str, gauges: dict) -> list:
    net = wl.truth["network"]
    estimates = _columns(os.path.join(d, "estimates.csv"), "xhat", slice(None))
    if estimates.shape != (W.NET_STEPS + 1, net.n):
        return [f"estimates have shape {estimates.shape}"]
    traj = read_trajectory(os.path.join(d, "measured.csv"))
    return estimate_problems(net, W.NET_V, W.NET_WEIGHTS, traj, estimates)


_CHECKS = {
    ("long-memory", "simulate"): _lm_simulate,
    ("long-memory", "identify"): _lm_identify,
    ("long-memory", "gramians"): _lm_gramians,
    ("long-memory", "stability"): _lm_stability,
    ("mpc-tight", "mpc"): _closed_loop("run.csv", "scenario"),
    ("mpc-tight", "mpc_state"): _closed_loop("state_run.csv", "state_scenario"),
    ("long-memory", "network_simulate"): _net_simulate,
    ("long-memory", "estimate"): _net_estimate,
}


def check_pass(wl, pass_dir: str):
    """Apply every job's output check to one pass; returns (problems per job, gauges)."""
    problems, gauges = {}, {}
    for job in wl.jobs:
        try:
            problems[job.name] = _CHECKS[wl.name, job.name](wl, pass_dir, gauges)
        except Exception as exc:  # a missing or malformed output fails its job's check
            problems[job.name] = [f"output check raised {type(exc).__name__}: {exc}"]
    return problems, gauges
