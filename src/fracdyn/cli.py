"""Batch command-line front end.

One subcommand per pipeline stage: ``simulate``, ``analyze``, ``identify``,
``estimate``, ``mpc``.  Every option can also come from a JSON config file;
flags always win over config values.  An absent key takes its default; a
present one is judged under its own name by the library's argument readers
(``fraccore``), so ``null`` or a bad value exits 2 naming the key.  Outputs
are written atomically and every invocation writes a manifest next to its
primary output.  Exit codes: 0 success, 2 parse/validation failure, 3
numerical failure or memory exhausted.
"""

import argparse
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
from .errors import DomainError, FracdynError, NonFiniteError
from .estimate import EstimatorConfig, run_estimator
from .fileio import (
    atomic_write,
    canonical_json,
    read_model,
    read_trajectory,
    write_bode,
    write_manifest,
    write_model,
    write_table,
    write_trajectory,
)
from .fraccore import _array, _count, _real
from .model import FosModel, MultiTermNetwork
from .mpc import MpcProblem, run_closed_loop, uncontrolled_baseline
from .simulate import gaussian_noise, simulate_fos, simulate_network
from .sysid import identify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: Parser entries that are not options of the run.
_NOT_OPTIONS = frozenset({"func", "command", "config", "scenario"})


def _options(args, path: str | None) -> dict:
    """The JSON object at ``path``, overlaid with every flag that was given."""
    config = {}
    if path:
        with open(path, "r") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise DomainError("config file must hold a JSON object")
    config.update((key, value) for key, value in vars(args).items()
                  if value is not None and key not in _NOT_OPTIONS)
    return config


def _path(config: dict, key: str) -> str:
    """``config[key]`` as a file name; absent, null or non-string values exit 2."""
    value = config.get(key)
    if not isinstance(value, str) or not value:
        raise DomainError(f"{key} must name a file, got {value!r}")
    return value


def _json_count(value):
    """A whole float such as 4.0, as JSON may write a count, as that int; else ``value``."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _get(config: dict, key: str, reader, default=None, **rules):
    """``reader(config[key], key, **rules)``: ``key`` judged by the library's reader.

    An absent key reads ``default``, or None when that is None.  The config
    format adds two rules: a comma-separated string is a vector, and a whole
    float is a count (4.0 reads as 4, 3.9 exits 2).
    """
    if key not in config and default is None:
        return None
    value = config.get(key, default)
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    return reader(_json_count(value) if reader is _count else value, key, **rules)


def _model(config: dict, kind=FosModel):
    """The model file at ``config["model"]``; a file of another kind than ``kind`` exits 2."""
    model = read_model(_path(config, "model"))
    if not isinstance(model, kind):
        want = "multi-term network" if kind is MultiTermNetwork else "single-term"
        raise DomainError(f"{config['model']} is not a {want} model file")
    return model


def cmd_simulate(args) -> int:
    config = _options(args, args.config)
    model = read_model(_path(config, "model"))
    K = _get(config, "steps", _count, 0)
    x0 = _get(config, "x0", _array, np.zeros(model.n), length=model.n)
    u = None
    if "input" in config:
        u = read_trajectory(_path(config, "input")).inputs
        if u is None:
            raise DomainError("input trajectory file carries no input columns")
    seed = _get(config, "seed", _count)
    sigma = _get(config, "sigma", _real, 1.0)
    dt = _get(config, "dt", _real, 1.0)
    out = _path(config, "out")
    if isinstance(model, MultiTermNetwork):
        w = gaussian_noise(seed, K, model.p, sigma) if seed is not None else None
        traj = simulate_network(model, x0, u=u, w=w, K=K, dt=dt)
    else:
        traj = simulate_fos(model, x0, u=u, w=seed, K=K, dt=dt, noise_sigma=sigma)
    write_trajectory(out, traj)
    write_manifest(out, "simulate", {"model": config["model"]}, {"trajectory": out},
                   seed, config, __version__)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _options(args, args.config)
    what, out = args.what, _path(config, "out")
    inputs = {}
    if what == "stability":
        model = _model(config)
        inputs["model"] = config["model"]
        alpha = _get(config, "alpha", _real)
        if alpha is not None or model.is_commensurate():
            a = alpha if alpha is not None else float(model.alpha[0])
            rep = commensurate_stability(model.A, a)
            report = {
                "test": "commensurate-sector",
                "alpha": a,
                "eigenvalues": [[ev.real, ev.imag] for ev in rep.eigenvalues],
                "margins_rad": list(rep.margins),
                "verdict": rep.verdict,
            }
        else:
            p = _get(config, "horizon", _count, 10)
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
        model = _model(config)
        inputs["model"] = config["model"]
        K = _get(config, "horizon", _count, max(1, model.n))
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
    else:
        start = _get(config, "omega_start", _real, 1e-2, lo=0.0)
        stop = _get(config, "omega_stop", _real, 1e2, lo=start)
        points = _get(config, "omega_points", _count, 200, least=1)
        omegas = np.logspace(np.log10(start), np.log10(stop), points)
        if "fopid" in config:
            resp = fopid_response(*_get(config, "fopid", _array, length=5), omegas)
        elif "num" in config and "den" in config:
            tf = FractionalTransferFunction.rational(_terms(config, "num"), _terms(config, "den"))
            resp = FrequencyResponse(omegas, np.array([tf_eval(tf, 1j * w) for w in omegas]))
        else:
            raise DomainError("bode needs either --fopid or --num/--den terms")
        write_bode(out, resp)
        print("note: fractional powers of j*omega evaluated on the principal branch")
    write_manifest(out, "analyze", inputs, {"report": out},
                   config.get("seed"), config, __version__)
    return EXIT_OK


def _terms(config: dict, key: str) -> np.ndarray:
    """Terms as 'coef:exp,coef:exp' (a bare coef has exponent 0) or [coef, exp] pairs."""
    spec = config[key]
    if isinstance(spec, str):
        spec = [[coef, exp or 0.0] for coef, _, exp in (p.partition(":") for p in spec.split(","))]
    return _array(spec, key)


def cmd_identify(args) -> int:
    config = _options(args, args.config)
    traj = read_trajectory(_path(config, "trajectory"))
    p = _get(config, "depth", _count, 50)
    epsilon = _get(config, "epsilon", _real, 1e-3)
    window = _get(config, "window", _array, length=2)
    if window is not None:
        window = tuple(_count(_json_count(v), "window") for v in window.tolist())
    out_model, out_diag = _path(config, "out_model"), _path(config, "out_diag")
    result = identify(traj, p, epsilon, window)
    n = result.alpha_hat.shape[0]
    model = FosModel(alpha=np.clip(result.alpha_hat, -1.0, 1.0), A=result.A_hat,
                     B=np.zeros((n, 0)), Bw=np.eye(n))
    write_model(out_model, model)
    write_table(out_diag, ["channel", "alpha_hat", "iterations", "mse", "flag"],
                ([i + 1, result.alpha_hat[i], int(result.iterations[i]), result.mse[i],
                  result.flag_string(i)] for i in range(n)))
    write_manifest(out_model, "identify", {"trajectory": config["trajectory"]},
                   {"model": out_model, "diagnostics": out_diag},
                   config.get("seed"), config, __version__)
    return EXIT_OK


def cmd_estimate(args) -> int:
    config = _options(args, args.config)
    net = _model(config, MultiTermNetwork)
    traj = read_trajectory(_path(config, "trajectory"))
    v = _get(config, "v", _count, 2)
    out = _path(config, "out")
    weights = EstimatorConfig(*(_get(config, key, _array, default) for key, default in
                                (("Q", 1.0), ("R", 1.0), ("P0", 1.0), ("xhat0", 0.0))))
    run = run_estimator(net, v, weights, traj)
    N = run.base_estimates.shape[0] - 1
    err = run.err_norms if run.err_norms is not None else [""] * (N + 1)
    write_table(out, ["t"] + [f"xhat{i + 1}" for i in range(net.n)] + ["err_norm"],
                ([k * traj.dt, *run.base_estimates[k], err[k]] for k in range(N + 1)))
    summary = {
        "v": v,
        "steps": N,
        "terminal_error": run.terminal_error,
        "sup_error": run.sup_error,
    }
    summary_path = out + ".summary.json"
    atomic_write(summary_path, canonical_json(summary) + "\n")
    write_manifest(out, "estimate",
                   {"model": config["model"], "trajectory": config["trajectory"]},
                   {"estimates": out, "summary": summary_path},
                   config.get("seed"), config, __version__)
    return EXIT_OK


def cmd_mpc(args) -> int:
    config = _options(args, args.scenario)
    plant = _model(config)
    out = _path(config, "out")
    bounds = _get(config, "bounds", _array, length=2, finite=False)
    if bounds is None:
        bounds = [_get(config, key, _array, default, length=1, finite=False)[0]
                  for key, default in (("u_lo", -np.inf), ("u_hi", np.inf))]
    P = _get(config, "horizon", _count, 10)
    problem = MpcProblem(
        p=_get(config, "p", _count, 10),
        P=P,
        M=_get(config, "control_horizon", _count, P),
        Q=_get(config, "Q", _array, 1.0),
        R=_get(config, "R", _array, 1.0),
        c=_get(config, "c", _array),
        u_lo=bounds[0], u_hi=bounds[1],
    )
    K = _get(config, "K", _count, 100)
    seed = _get(config, "seed", _count, 0)
    sigma = _get(config, "sigma", _real, 1.0)
    x0 = _get(config, "x0", _array, length=plant.n)
    result = run_closed_loop(plant, problem, K, seed, x0=x0, noise_sigma=sigma)
    baseline = uncontrolled_baseline(plant, K, seed, x0=x0, noise_sigma=sigma)

    n, m = plant.n, plant.m
    cost_at = dict(zip(result.solve_steps, result.cycle_costs))
    traj = result.trajectory
    with np.errstate(over="ignore"):  # an energy that is not finite raises instead
        energy_controlled = float(np.sum(traj.states**2))
        energy_baseline = float(np.sum(baseline.states**2))
    if not np.isfinite([energy_controlled, energy_baseline]).all():
        raise NonFiniteError("state energy is not finite")
    blank = [""] * m
    write_table(out, ["t"] + [f"x{i + 1}" for i in range(n)]
                + [f"u{i + 1}" for i in range(m)] + ["cost_cycle"],
                ([k * traj.dt, *traj.states[k], *(result.applied[k] if k < K else blank),
                  cost_at.get(k, "")] for k in range(K + 1)))
    summary = {
        "steps": K,
        "solves": len(result.cycle_costs),
        "energy_controlled": energy_controlled,
        "energy_baseline": energy_baseline,
        "suppression_ratio": energy_controlled / energy_baseline if energy_baseline else None,
    }
    summary_path = out + ".summary.json"
    atomic_write(summary_path, canonical_json(summary) + "\n")
    write_manifest(out, "mpc", {"model": config["model"]},
                   {"run": out, "summary": summary_path},
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
    mpc.add_argument("--steps", dest="K", type=int)
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
    except (ArithmeticError, MemoryError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        print(f"fracdyn {args.command}: {kind}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FracdynError, ValueError, KeyError, OSError) as exc:
        print(f"fracdyn {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
