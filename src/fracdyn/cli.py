"""Batch command-line front end.

One subcommand per pipeline stage: ``simulate``, ``analyze``, ``identify``,
``estimate``, ``mpc``.  Every option can also come from a JSON config file;
flags always win over config values.  An absent key takes its default; a
present one must be a number, or numbers of the right length, and ``null``
exits 2.  Outputs are written atomically and every invocation writes a
manifest next to its primary output.  Exit codes: 0 success, 2
parse/validation failure, 3 numerical failure or memory exhausted.
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
from .model import FosModel, MultiTermNetwork, _holds_bool
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


def _array(key: str, value, finite: bool = True) -> np.ndarray:
    """``value`` as a float array; a comma-separated string reads as a vector.

    Null, true/false at any depth, non-numbers, ragged nests and NaN exit 2 naming
    ``key``, and so does +-inf unless ``finite`` is false.
    """
    if value is None:
        raise DomainError(f"{key} must not be null")
    if _holds_bool(value):
        raise DomainError(f"{key} must be numbers, not true or false, got {value!r}")
    items = [v for v in value.split(",") if v.strip()] if isinstance(value, str) else value
    try:
        arr = np.asarray(items, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{key} must be numbers, got {value!r}") from None
    if np.isnan(arr).any() or (finite and np.isinf(arr).any()):
        raise DomainError(f"{key} must be {'finite' if finite else 'numbers'}, got {value!r}")
    return arr


def _whole(key: str, arr: np.ndarray, value) -> None:
    """Exit 2 naming ``key`` unless every entry of ``arr`` is a whole number."""
    if not np.all(arr == np.trunc(arr)):
        raise DomainError(f"{key} must be integral, got {value!r}")


def _number(config: dict, key: str, default, kind=float, finite: bool = True):
    """``config[key]`` as one ``kind`` number, or ``default`` when the key is absent.

    An int option rejects a value that ``int()`` would change: 4.0 reads as 4,
    3.9 exits 2.
    """
    if key not in config:
        return default
    value = config[key]
    arr = _array(key, value, finite)
    if isinstance(value, list) or arr.size != 1:
        raise DomainError(f"{key} must be one number, got {value!r}")
    if kind is int:
        _whole(key, arr, value)
    try:
        return kind(value)
    except ValueError:
        raise DomainError(f"{key} must be one {kind.__name__}, got {value!r}") from None


def _vector(config: dict, key: str, default, length: int, finite: bool = True, kind=float):
    """``config[key]`` as ``length`` numbers, or ``default`` when the key is absent.

    With ``kind=int`` every entry must be a whole number.
    """
    if key not in config:
        return default
    vec = np.atleast_1d(_array(key, config[key], finite))
    if vec.shape != (length,):
        raise DomainError(f"{key} must have length {length}, got {config[key]!r}")
    if kind is int:
        _whole(key, vec, config[key])
    return vec


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
    K = _number(config, "steps", 0, int)
    if K < 0:
        raise DomainError("steps must be non-negative")
    x0 = _vector(config, "x0", np.zeros(model.n), model.n)
    u = None
    if "input" in config:
        u = read_trajectory(_path(config, "input")).inputs
        if u is None:
            raise DomainError("input trajectory file carries no input columns")
    seed = _number(config, "seed", None, int)
    sigma = _number(config, "sigma", 1.0)
    dt = _number(config, "dt", 1.0)
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
        alpha = _number(config, "alpha", None)
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
            p = _number(config, "horizon", 10, int)
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
        K = _number(config, "horizon", max(1, model.n), int)
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
        start = _number(config, "omega_start", 1e-2)
        stop = _number(config, "omega_stop", 1e2)
        points = _number(config, "omega_points", 200, int)
        if start <= 0 or stop <= start:
            raise DomainError("need 0 < omega_start < omega_stop")
        if points < 1:
            raise DomainError(f"omega_points must be >= 1, got {points}")
        omegas = np.logspace(np.log10(start), np.log10(stop), points)
        if "fopid" in config:
            resp = fopid_response(*_vector(config, "fopid", None, 5), omegas)
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


def _terms(config: dict, key: str) -> list:
    """Terms as 'coef:exp,coef:exp' (a bare coef has exponent 0) or [coef, exp] pairs."""
    spec = config[key]
    if isinstance(spec, str):
        spec = [[coef, exp or 0.0] for coef, _, exp in (p.partition(":") for p in spec.split(","))]
    terms = _array(key, spec)
    if terms.ndim != 2 or terms.shape[1] != 2:
        raise DomainError(f"{key} must be [coef, exp] pairs, got {config[key]!r}")
    return [tuple(term) for term in terms.tolist()]


def cmd_identify(args) -> int:
    config = _options(args, args.config)
    traj = read_trajectory(_path(config, "trajectory"))
    p = _number(config, "depth", 50, int)
    epsilon = _number(config, "epsilon", 1e-3)
    window = _vector(config, "window", None, 2, kind=int)
    out_model, out_diag = _path(config, "out_model"), _path(config, "out_diag")
    result = identify(traj, p, epsilon, None if window is None else tuple(map(int, window)))
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
    v = _number(config, "v", 2, int)
    out = _path(config, "out")
    weights = EstimatorConfig(
        Q=_array("Q", config.get("Q", 1.0)), R=_array("R", config.get("R", 1.0)),
        P0=_array("P0", config.get("P0", 1.0)), xhat0=_array("xhat0", config.get("xhat0", 0.0)),
    )
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
    bounds = _vector(config, "bounds", None, 2, finite=False)
    if bounds is None:
        bounds = (_number(config, "u_lo", -np.inf, finite=False),
                  _number(config, "u_hi", np.inf, finite=False))
    P = _number(config, "horizon", 10, int)
    problem = MpcProblem(
        p=_number(config, "p", 10, int),
        P=P,
        M=_number(config, "control_horizon", P, int),
        Q=_array("Q", config.get("Q", 1.0)),
        R=_array("R", config.get("R", 1.0)),
        c=_array("c", config["c"]) if "c" in config else None,
        u_lo=float(bounds[0]), u_hi=float(bounds[1]),
    )
    K = _number(config, "K", 100, int)
    seed = _number(config, "seed", 0, int)
    sigma = _number(config, "sigma", 1.0)
    x0 = _vector(config, "x0", None, plant.n)
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
