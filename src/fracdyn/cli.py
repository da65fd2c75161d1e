"""Batch command-line front end.

One subcommand per pipeline stage: ``simulate``, ``analyze``, ``identify``,
``estimate``, ``mpc``.  All numeric options can also come from a JSON config
file; flags always win over config values.  Outputs are written atomically
and every invocation writes a manifest next to its primary output.  Exit
codes: 0 success, 2 parse/validation failure, 3 numerical failure.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .analysis import (
    FractionalTransferFunction,
    FrequencyResponse,
    augmented_spectral_radius,
    commensurate_stability,
    controllability_gramian,
    fopid_response,
    observability_matrices,
    tf_eval,
)
from .errors import DomainError, FracdynError
from .estimate import EstimatorConfig, run_estimator
from .fileio import (
    atomic_write,
    canonical_json,
    fmt_float,
    read_model,
    read_trajectory,
    write_bode,
    write_manifest,
    write_model,
    write_trajectory,
)
from .model import FosModel, MultiTermNetwork, augment_v
from .mpc import MpcProblem, run_closed_loop, uncontrolled_baseline
from .simulate import gaussian_noise, simulate_fos, simulate_network
from .sysid import identify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise DomainError(f"cannot parse vector {text!r}: {exc}") from exc


def _scalar(config: dict, key: str, default, kind=float):
    """``config[key]`` (or the default) as one number; null, lists and objects exit 2."""
    value = config.get(key, default)
    if not isinstance(value, (int, float, str)):
        raise DomainError(f"{key} must be a number, got {value!r}")
    return kind(value)


def _pair(value, name: str, kind=float) -> tuple:
    """A comma-separated string or a two-element list as two numbers."""
    parts = value.split(",") if isinstance(value, str) else value
    if not (isinstance(parts, list) and len(parts) == 2
            and all(isinstance(v, (int, float, str)) for v in parts)):
        raise DomainError(f"{name} must be two numbers, got {value!r}")
    return kind(parts[0]), kind(parts[1])


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    return data


def _effective(config: dict, args_map: dict) -> dict:
    """Flags win over config-file values; None flags defer to the file."""
    merged = dict(config)
    for key, val in args_map.items():
        if val is not None:
            merged[key] = val
    return merged


def cmd_simulate(args) -> int:
    config = _effective(_load_config(args.config), {
        "model": args.model, "x0": args.x0, "steps": args.steps, "seed": args.seed,
        "sigma": args.sigma, "dt": args.dt, "input": args.input, "out": args.out,
    })
    model = read_model(config["model"])
    K = int(config.get("steps", 0))
    if K < 0:
        raise DomainError("steps must be non-negative")
    x0_text = config.get("x0")
    n = model.n
    x0 = _parse_vector(x0_text) if isinstance(x0_text, str) else np.asarray(
        x0_text if x0_text is not None else np.zeros(n), dtype=float)
    u = None
    if config.get("input"):
        u_traj = read_trajectory(config["input"])
        u = u_traj.inputs
        if u is None:
            raise DomainError("input trajectory file carries no input columns")
    seed = config.get("seed")
    sigma = float(config.get("sigma", 1.0))
    for name, value in (("x0", x0), ("sigma", sigma)):
        if not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite")
    dt = float(config.get("dt", 1.0))
    if isinstance(model, MultiTermNetwork):
        w = gaussian_noise(int(seed), K, model.p, sigma) if seed is not None else None
        traj = simulate_network(model, x0, u=u, w=w, K=K, dt=dt)
    else:
        traj = simulate_fos(model, x0, u=u, w=int(seed) if seed is not None else None,
                            K=K, dt=dt, noise_sigma=sigma)
    write_trajectory(config["out"], traj)
    write_manifest(config["out"], "simulate", {"model": config["model"]},
                   {"trajectory": config["out"]}, seed, config, __version__)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _effective(_load_config(args.config), {
        "model": args.model, "what": args.what, "horizon": args.horizon,
        "alpha": args.alpha, "fopid": args.fopid, "num": args.num, "den": args.den,
        "omega_start": args.omega_start, "omega_stop": args.omega_stop,
        "omega_points": args.omega_points, "out": args.out,
    })
    what = config.get("what", "stability")
    out = config["out"]
    inputs = {}
    if what == "stability":
        model = read_model(config["model"])
        inputs["model"] = config["model"]
        alpha = config.get("alpha")
        report = {}
        if alpha is not None or model.is_commensurate():
            a = float(alpha) if alpha is not None else float(model.alpha[0])
            rep = commensurate_stability(model.A, a)
            report = {
                "test": "commensurate-sector",
                "alpha": a,
                "eigenvalues": [[ev.real, ev.imag] for ev in rep.eigenvalues],
                "margins_rad": list(rep.margins),
                "verdict": rep.verdict,
            }
        else:
            p = int(config.get("horizon", 10))
            rho = augmented_spectral_radius(model, p)
            report = {
                "test": "heuristic-lift-spectral-radius",
                "note": "no exact mixed-order test exists; heuristic only",
                "depth": p,
                "spectral_radius": rho,
                "verdict": "contractive (heuristic)" if rho < 1 else "non-contractive (heuristic)",
            }
        atomic_write(out, canonical_json(report) + "\n")
    elif what == "gramians":
        model = read_model(config["model"])
        inputs["model"] = config["model"]
        K = int(config.get("horizon", max(1, model.n)))
        ctrb = controllability_gramian(model, None, K)
        obsv = observability_matrices(model, None, K)
        report = {
            "horizon": K,
            "controllability": {
                "matrix": [list(r) for r in ctrb.matrix],
                "rank": ctrb.rank,
                "controllable": ctrb.full_rank,
                "smallest_retained_singular_value": ctrb.smallest_retained,
            },
            "observability": {
                "gramian": [list(r) for r in obsv.gramian],
                "rank": obsv.rank,
                "observable": obsv.full_rank,
            },
        }
        atomic_write(out, canonical_json(report) + "\n")
    elif what == "bode":
        start = float(config.get("omega_start", 1e-2))
        stop = float(config.get("omega_stop", 1e2))
        points = int(config.get("omega_points", 200))
        if start <= 0 or stop <= start:
            raise DomainError("need 0 < omega_start < omega_stop")
        if points < 1:
            raise DomainError(f"omega_points must be >= 1, got {points}")
        omegas = np.logspace(np.log10(start), np.log10(stop), points)
        if config.get("fopid"):
            vals = (_parse_vector(config["fopid"]) if isinstance(config["fopid"], str)
                    else np.asarray(config["fopid"], dtype=float))
            if vals.shape != (5,):
                raise DomainError("fopid needs kp,ki,kd,lambda,mu")
            resp = fopid_response(*vals, omegas)
        elif config.get("num") is not None and config.get("den") is not None:
            tf = FractionalTransferFunction.rational(
                _parse_terms(config["num"]), _parse_terms(config["den"]))
            resp = FrequencyResponse(omegas, np.array([tf_eval(tf, 1j * w) for w in omegas]))
        else:
            raise DomainError("bode needs either --fopid or --num/--den terms")
        write_bode(out, resp)
        print("note: fractional powers of j*omega evaluated on the principal branch")
    else:
        raise DomainError(f"unknown analyze target {what!r}")
    write_manifest(out, "analyze", inputs, {"report": out},
                   config.get("seed"), config, __version__)
    return EXIT_OK


def _parse_terms(spec) -> list:
    """Terms as 'coef:exp,coef:exp' or a list of [coef, exp] pairs."""
    if isinstance(spec, str):
        terms = []
        for part in spec.split(","):
            coef, _, exp = part.partition(":")
            terms.append((float(coef), float(exp) if exp else 0.0))
        return terms
    return [(float(c), float(e)) for c, e in spec]


def cmd_identify(args) -> int:
    config = _effective(_load_config(args.config), {
        "trajectory": args.trajectory, "depth": args.depth, "epsilon": args.epsilon,
        "window": args.window, "out_model": args.out_model, "out_diag": args.out_diag,
    })
    traj = read_trajectory(config["trajectory"])
    p = _scalar(config, "depth", 50, int)
    epsilon = _scalar(config, "epsilon", 1e-3)
    window = None if config.get("window") is None else _pair(config["window"], "window", int)
    result = identify(traj, p, epsilon, window)
    n = result.alpha_hat.shape[0]
    model = FosModel(alpha=np.clip(result.alpha_hat, -1.0, 1.0), A=result.A_hat,
                     B=np.zeros((n, 0)), Bw=np.eye(n))
    write_model(config["out_model"], model)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["channel", "alpha_hat", "iterations", "mse", "flag"])
    for i in range(n):
        writer.writerow([i + 1, fmt_float(result.alpha_hat[i]),
                         int(result.iterations[i]), fmt_float(result.mse[i]),
                         result.flag_string(i)])
    atomic_write(config["out_diag"], out.getvalue())
    write_manifest(config["out_model"], "identify", {"trajectory": config["trajectory"]},
                   {"model": config["out_model"], "diagnostics": config["out_diag"]},
                   config.get("seed"), config, __version__)
    return EXIT_OK


def _estimator_config_from(aug, raw: dict) -> EstimatorConfig:
    def weight(value, size, name):
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return float(arr) * np.eye(size)
        if arr.ndim == 1:
            if arr.shape[0] != size:
                raise DomainError(f"{name} diagonal must have length {size}")
            return np.diag(arr)
        return arr

    q = weight(raw.get("Q", 1.0), aug.Gtil.shape[1], "Q")
    r = weight(raw.get("R", 1.0), aug.q, "R")
    p0 = weight(raw.get("P0", 1.0), aug.dim, "P0")
    xh = raw.get("xhat0", 0.0)
    xh = np.asarray(xh, dtype=float)
    if xh.ndim == 0:
        xhat0 = np.full(aug.dim, float(xh))
    elif xh.shape == (aug.n,):
        xhat0 = np.zeros(aug.dim)
        xhat0[: aug.n] = xh
    elif xh.shape == (aug.dim,):
        xhat0 = xh
    else:
        raise DomainError(f"xhat0 must be scalar, length {aug.n}, or length {aug.dim}")
    return EstimatorConfig(Q=q, R=r, P0=p0, xhat0=xhat0)


def cmd_estimate(args) -> int:
    config = _effective(_load_config(args.config), {
        "model": args.model, "trajectory": args.trajectory, "v": args.v, "out": args.out,
    })
    net = read_model(config["model"])
    if not isinstance(net, MultiTermNetwork):
        raise DomainError("estimate expects a multi-term network model file")
    traj = read_trajectory(config["trajectory"])
    v = int(config.get("v", 2))
    aug = augment_v(net, v)
    est_config = _estimator_config_from(aug, config)
    run = run_estimator(net, v, est_config, traj)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    n = aug.n
    writer.writerow(["t"] + [f"xhat{i + 1}" for i in range(n)] + ["err_norm"])
    N = run.base_estimates.shape[0] - 1
    for k in range(N + 1):
        row = [fmt_float(k * traj.dt)]
        row += [fmt_float(vv) for vv in run.base_estimates[k]]
        row.append(fmt_float(run.err_norms[k]) if run.err_norms is not None else "")
        writer.writerow(row)
    atomic_write(config["out"], out.getvalue())
    summary = {
        "v": v,
        "steps": N,
        "terminal_error": run.terminal_error,
        "sup_error": run.sup_error,
    }
    summary_path = config["out"] + ".summary.json"
    atomic_write(summary_path, canonical_json(summary) + "\n")
    write_manifest(config["out"], "estimate",
                   {"model": config["model"], "trajectory": config["trajectory"]},
                   {"estimates": config["out"], "summary": summary_path},
                   config.get("seed"), config, __version__)
    return EXIT_OK


def cmd_mpc(args) -> int:
    config = _effective(_load_config(args.scenario), {
        "K": args.steps, "seed": args.seed, "out": args.out,
        "horizon": args.horizon, "control_horizon": args.control_horizon,
        "bounds": args.bounds,
    })
    if "model" not in config:
        raise DomainError("scenario must name a model file")
    if "out" not in config or not config["out"]:
        raise DomainError("no output path given (scenario 'out' or --out)")
    plant = read_model(config["model"])
    if isinstance(plant, MultiTermNetwork):
        raise DomainError("mpc expects a single-term model file")
    if config.get("bounds") is not None:
        u_lo, u_hi = _pair(config["bounds"], "bounds")
    else:
        u_lo, u_hi = _scalar(config, "u_lo", -np.inf), _scalar(config, "u_hi", np.inf)
    problem = MpcProblem(
        p=_scalar(config, "p", 10, int),
        P=_scalar(config, "horizon", 10, int),
        M=_scalar(config, "control_horizon", config.get("horizon", 10), int),
        Q=np.asarray(config.get("Q", 1.0), dtype=float),
        R=np.asarray(config.get("R", 1.0), dtype=float),
        c=np.asarray(config["c"], dtype=float) if config.get("c") is not None else None,
        u_lo=u_lo, u_hi=u_hi,
    )
    K = _scalar(config, "K", 100, int)
    seed = _scalar(config, "seed", 0, int)
    sigma = _scalar(config, "sigma", 1.0)
    x0 = config.get("x0")
    x0 = np.asarray(x0, dtype=float) if x0 is not None else None
    result = run_closed_loop(plant, problem, K, seed, x0=x0, noise_sigma=sigma)
    baseline = uncontrolled_baseline(plant, K, seed, x0=x0, noise_sigma=sigma)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    n, m = plant.n, plant.m
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                    + [f"u{i + 1}" for i in range(m)] + ["cost_cycle"])
    cost_at = dict(zip(result.solve_steps, result.cycle_costs))
    traj = result.trajectory
    for k in range(K + 1):
        row = [fmt_float(k * traj.dt)]
        row += [fmt_float(v) for v in traj.states[k]]
        row += [fmt_float(v) for v in result.applied[k]] if k < K else [""] * m
        row.append(fmt_float(cost_at[k]) if k in cost_at else "")
        writer.writerow(row)
    atomic_write(config["out"], out.getvalue())
    energy_controlled = float(np.sum(traj.states**2))
    energy_baseline = float(np.sum(baseline.states**2))
    summary = {
        "steps": K,
        "solves": len(result.cycle_costs),
        "energy_controlled": energy_controlled,
        "energy_baseline": energy_baseline,
        "suppression_ratio": energy_controlled / energy_baseline if energy_baseline else None,
    }
    summary_path = config["out"] + ".summary.json"
    atomic_write(summary_path, canonical_json(summary) + "\n")
    write_manifest(config["out"], "mpc", {"model": config["model"]},
                   {"run": config["out"], "summary": summary_path},
                   seed, config, __version__)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdyn",
        description="Batch toolkit for discrete-time fractional-order systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a model file to a trajectory CSV")
    sim.add_argument("--model", help="model JSON file")
    sim.add_argument("--x0", help="comma-separated initial state")
    sim.add_argument("--steps", type=int, help="number of steps K")
    sim.add_argument("--seed", type=int, help="noise seed (omit for noise-free)")
    sim.add_argument("--sigma", type=float, help="noise scale for seeded runs")
    sim.add_argument("--dt", type=float, help="sample period metadata")
    sim.add_argument("--input", help="trajectory CSV whose u columns drive the run")
    sim.add_argument("--config", help="JSON config (flags win)")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="stability, gramians, or bode CSV")
    ana.add_argument("what", choices=["stability", "gramians", "bode"])
    ana.add_argument("--model")
    ana.add_argument("--alpha", type=float, help="override commensurate order")
    ana.add_argument("--horizon", type=int, help="gramian horizon / heuristic depth")
    ana.add_argument("--fopid", help="kp,ki,kd,lambda,mu")
    ana.add_argument("--num", help="numerator terms coef:exp,...")
    ana.add_argument("--den", help="denominator terms coef:exp,...")
    ana.add_argument("--omega-start", dest="omega_start", type=float)
    ana.add_argument("--omega-stop", dest="omega_stop", type=float)
    ana.add_argument("--omega-points", dest="omega_points", type=int)
    ana.add_argument("--config")
    ana.add_argument("--out", required=True)
    ana.set_defaults(func=cmd_analyze)

    idf = sub.add_parser("identify", help="fit orders and coupling from a trajectory")
    idf.add_argument("--trajectory", required=True)
    idf.add_argument("--depth", type=int, help="prediction memory depth p")
    idf.add_argument("--epsilon", type=float, help="bisection tolerance")
    idf.add_argument("--window", help="offset,length")
    idf.add_argument("--config")
    idf.add_argument("--out-model", dest="out_model", required=True)
    idf.add_argument("--out-diag", dest="out_diag", required=True)
    idf.set_defaults(func=cmd_identify)

    est = sub.add_parser("estimate", help="minimum-energy estimates from measured outputs")
    est.add_argument("--model", required=True, help="multi-term network JSON")
    est.add_argument("--trajectory", required=True, help="CSV with y columns")
    est.add_argument("--v", type=int, help="truncation depth")
    est.add_argument("--config", help="JSON with Q,R,P0,xhat0")
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    mpc = sub.add_parser("mpc", help="closed-loop receding-horizon run from a scenario")
    mpc.add_argument("scenario", help="scenario JSON")
    mpc.add_argument("--steps", type=int)
    mpc.add_argument("--seed", type=int)
    mpc.add_argument("--horizon", type=int)
    mpc.add_argument("--control-horizon", dest="control_horizon", type=int)
    mpc.add_argument("--bounds", help="lo,hi")
    mpc.add_argument("--out")
    mpc.set_defaults(func=cmd_mpc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"fracdyn {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FracdynError, ValueError, KeyError, OSError) as exc:
        print(f"fracdyn {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
