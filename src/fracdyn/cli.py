"""Batch command-line front end.

One subcommand per pipeline stage: ``simulate``, ``analyze``, ``identify``,
``estimate``, ``mpc``.  At module level the CLI imports only ``errors``,
``fileio``, ``fraccore`` and ``model`` of the package; a subcommand imports
its own stage's module when it runs, so a cold job compiles no other stage,
and ``simulate`` comes only with ``simulate``, ``mpc`` and (through
``analysis``) ``analyze``.  Every option, file names too, can also come from
a JSON config file; flags win over config values.  Argparse only names them:
``_path`` judges a file name and the argument readers of ``fraccore`` every
other value, under its key and from a flag or the file alike.  An absent value
takes its default; ``null``, a bad value or no file name exits 2 naming the key.

``main`` owns a run.  It reads the options once; a subcommand, a function of
them, writes its primary outputs (atomically) and returns the manifest's
inputs, outputs and seed and its summary dict or None.  ``main`` writes the
summary to ``<first output>.summary.json``, listed last in the outputs, then
the manifest beside the first output, and returns the exit code: 0 success,
2 parse/validation failure, 3 numerical failure or memory exhausted.  A run
that fails writes no summary and no manifest.  A cold job ends by ``entry``,
which skips interpreter teardown once ``main`` has closed every output.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, FracdynError, NonFiniteError
from .fileio import (
    read_model,
    read_trajectory,
    write_bode,
    write_json,
    write_manifest,
    write_model,
    write_table,
    write_trajectory,
)
from .fraccore import _array, _count, _real
from .model import FosModel, MultiTermNetwork

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: Parser entries that are not options of the run.
_NOT_OPTIONS = frozenset({"func", "command", "config"})


def _options(args) -> dict:
    """The JSON object at ``args.config``, overlaid with every flag that was given."""
    config = {}
    if args.config:
        with open(args.config, "r") as fh:
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
    """A whole float such as 4.0, a count from JSON or a flag, as that int; else ``value``."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _get(config: dict, key: str, reader, default=None, **rules):
    """``reader(config.get(key, default), key, **rules)``, or None if both are absent.

    A comma-separated string is a vector, and a whole float a count (4.0 reads as 4, 3.9 exits 2).
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


def cmd_simulate(config: dict) -> tuple:
    from .simulate import gaussian_noise, simulate_fos, simulate_network

    model = read_model(_path(config, "model"))
    K = _get(config, "steps", _count, 0)
    x0 = _get(config, "x0", _array, np.zeros(model.n), shape=(model.n,))
    u = None
    if "input" in config:
        u = read_trajectory(_path(config, "input")).inputs
        if u is None:
            raise DomainError("input trajectory file carries no inputs (u1, u2, ...)")
    seed = _get(config, "seed", _count)
    sigma = _get(config, "sigma", _real, 1.0, lo=0.0, ends="[)")  # as gaussian_noise reads it
    dt = _get(config, "dt", _real, 1.0, lo=0.0)  # as Trajectory reads it
    out = _path(config, "out")
    w = None if seed is None else gaussian_noise(seed, K, model.p, sigma)
    run = simulate_network if isinstance(model, MultiTermNetwork) else simulate_fos
    write_trajectory(out, run(model, x0, u=u, w=w, K=K, dt=dt))
    inputs = {key: config[key] for key in ("model", "input") if key in config}
    return inputs, {"trajectory": out}, seed, None


def cmd_analyze(config: dict) -> tuple:
    from .analysis import (FractionalTransferFunction, FrequencyResponse, _controllability,
                           _observability, augmented_spectral_radius, commensurate_stability,
                           fopid_response, tf_eval)

    what, out, seed = config["what"], _path(config, "out"), _get(config, "seed", _count)
    if what == "bode":
        start = _get(config, "omega_start", _real, 1e-2, lo=0.0)
        stop = _get(config, "omega_stop", _real, 1e2, lo=start)
        points = _get(config, "omega_points", _count, 200, least=1)
        omegas = np.logspace(np.log10(start), np.log10(stop), points)
        if "fopid" in config:
            resp = fopid_response(*_get(config, "fopid", _array, shape=(5,)), omegas)
        elif "num" in config and "den" in config:
            tf = FractionalTransferFunction.rational(_terms(config, "num"), _terms(config, "den"))
            resp = FrequencyResponse(omegas, np.array([tf_eval(tf, 1j * w) for w in omegas]))
        else:
            raise DomainError("bode needs either --fopid or --num/--den terms")
        # the note first: a stdout that cannot take it fails the run before any file exists
        print("note: fractional powers of j*omega evaluated on the principal branch")
        write_bode(out, resp)
        return {}, {"report": out}, seed, None
    model = _model(config)
    if what == "stability":
        alpha = _get(config, "alpha", _real)
        if alpha is not None or model.is_commensurate():
            a = alpha if alpha is not None else float(model.alpha[0])
            rep = commensurate_stability(model.A, a)
            report = {
                "test": "commensurate-sector",
                "alpha": a,
                "eigenvalues": [[ev.real, ev.imag] for ev in rep.eigenvalues],
                "margins_rad": rep.margins,
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
    else:
        K = _get(config, "horizon", _count, max(1, model.n))
        # controllability_gramian(model, None, K) and observability_matrices(model, None, K),
        # from one table of transition matrices
        ctrb, G = _controllability(model, model.B, K)
        obsv = _observability(np.eye(model.n), G, K)
        report = {
            "horizon": K,
            "controllability": {
                "matrix": ctrb.matrix,
                "rank": ctrb.rank,
                "controllable": ctrb.full_rank,
                "smallest_retained_singular_value": ctrb.smallest_retained,
            },
            "observability": {
                "gramian": obsv.gramian,
                "rank": obsv.rank,
                "observable": obsv.full_rank,
            },
        }
    write_json(out, report)
    return {"model": config["model"]}, {"report": out}, seed, None


def _terms(config: dict, key: str) -> np.ndarray:
    """Terms as 'coef:exp,coef:exp' (a bare coef has exponent 0) or [coef, exp] pairs."""
    spec = config[key]
    if isinstance(spec, str):
        spec = [[coef, exp or 0.0] for coef, _, exp in (p.partition(":") for p in spec.split(","))]
    return _array(spec, key)


def cmd_identify(config: dict) -> tuple:
    from .sysid import identify

    traj = read_trajectory(_path(config, "trajectory"))
    seed = _get(config, "seed", _count)
    p = _get(config, "depth", _count, 50)
    epsilon = _get(config, "epsilon", _real, 1e-3)
    window = _get(config, "window", _array, shape=(2,))
    if window is not None:
        window = tuple(_count(_json_count(v), "window") for v in window.tolist())
    out_model, out_diag = _path(config, "out_model"), _path(config, "out_diag")
    result = identify(traj, p, epsilon, window)
    n = result.alpha_hat.shape[0]
    write_model(out_model, FosModel(alpha=result.alpha_hat, A=result.A_hat))
    write_table(out_diag, ["channel", "alpha_hat", "iterations", "mse", "flag"],
                ([i + 1, result.alpha_hat[i], int(result.iterations[i]), result.mse[i],
                  result.flag_string(i)] for i in range(n)))
    return ({"trajectory": config["trajectory"]}, {"model": out_model, "diagnostics": out_diag},
            seed, None)


def cmd_estimate(config: dict) -> tuple:
    from .estimate import EstimatorConfig, run_estimator

    net = _model(config, MultiTermNetwork)
    traj = read_trajectory(_path(config, "trajectory"))
    v, seed = _get(config, "v", _count, 2), _get(config, "seed", _count)
    out = _path(config, "out")
    weights = EstimatorConfig(*(_get(config, key, _array, default) for key, default in
                                (("Q", 1.0), ("R", 1.0), ("P0", 1.0), ("xhat0", 0.0))))
    run = run_estimator(net, v, weights, traj)
    N = run.base_estimates.shape[0] - 1
    err = run.err_norms if run.err_norms is not None else [""] * (N + 1)
    write_table(out, ["t"] + [f"xhat{i + 1}" for i in range(net.n)] + ["err_norm"],
                ([k * traj.dt, *run.base_estimates[k], err[k]] for k in range(N + 1)))
    summary = {"v": v, "steps": N, "terminal_error": run.terminal_error,
               "sup_error": run.sup_error}
    return ({"model": config["model"], "trajectory": config["trajectory"]}, {"estimates": out},
            seed, summary)


def cmd_mpc(config: dict) -> tuple:
    from .mpc import MpcProblem, run_closed_loop, uncontrolled_baseline
    from .simulate import gaussian_noise

    plant = _model(config)
    out = _path(config, "out")
    bounds = _get(config, "bounds", _array, shape=(2,), finite=False)
    if bounds is None:
        bounds = [_get(config, key, _array, default, shape=(1,), finite=False)[0]
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
    x0 = _get(config, "x0", _array, shape=(plant.n,))
    w = gaussian_noise(seed, K, plant.p, sigma)  # one draw for the run and its baseline
    result = run_closed_loop(plant, problem, K, w, x0=x0)
    baseline = uncontrolled_baseline(plant, K, w, x0=x0)

    n, m = plant.n, plant.m
    cost_at = dict(zip(result.solve_steps, result.cycle_costs))
    traj = result.trajectory
    with np.errstate(over="ignore"):  # an energy that is not finite raises instead
        energy_controlled = result.energy
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
    return {"model": config["model"]}, {"run": out}, seed, summary


def build_parser() -> argparse.ArgumentParser:
    def number(text: str):  # a count flag: int() of its text, exact, else float(); _get judges it
        try:
            return int(text)
        except ValueError:
            return float(text)

    parser = argparse.ArgumentParser(
        prog="fracdyn", description="Batch toolkit for discrete-time fractional-order systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a model file to a trajectory CSV")
    sim.add_argument("--model", help="model JSON file")
    sim.add_argument("--x0", help="comma-separated initial state")
    sim.add_argument("--steps", type=number, help="number of steps K")
    sim.add_argument("--seed", type=number, help="noise seed (omit for noise-free)")
    sim.add_argument("--sigma", type=float, help="noise scale for seeded runs")
    sim.add_argument("--dt", type=float, help="sample period metadata")
    sim.add_argument("--input", help="trajectory CSV whose u columns drive the run")
    sim.add_argument("--config", help="JSON config (flags win)")
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="stability, gramians, or bode CSV")
    ana.add_argument("what", choices=["stability", "gramians", "bode"])
    ana.add_argument("--model")
    ana.add_argument("--alpha", type=float, help="override commensurate order")
    ana.add_argument("--horizon", type=number, help="gramian horizon / heuristic depth")
    ana.add_argument("--fopid", help="kp,ki,kd,lambda,mu")
    ana.add_argument("--num", help="numerator terms coef:exp,...")
    ana.add_argument("--den", help="denominator terms coef:exp,...")
    ana.add_argument("--omega-start", dest="omega_start", type=float)
    ana.add_argument("--omega-stop", dest="omega_stop", type=float)
    ana.add_argument("--omega-points", dest="omega_points", type=number)
    ana.add_argument("--config")
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analyze)

    idf = sub.add_parser("identify", help="fit orders and coupling from a trajectory")
    idf.add_argument("--trajectory")
    idf.add_argument("--depth", type=number, help="prediction memory depth p")
    idf.add_argument("--epsilon", type=float, help="bisection tolerance")
    idf.add_argument("--window", help="offset,length")
    idf.add_argument("--config")
    idf.add_argument("--out-model", dest="out_model")
    idf.add_argument("--out-diag", dest="out_diag")
    idf.set_defaults(func=cmd_identify)

    est = sub.add_parser("estimate", help="minimum-energy estimates from measured outputs")
    est.add_argument("--model", help="multi-term network JSON")
    est.add_argument("--trajectory", help="CSV with y columns")
    est.add_argument("--v", type=number, help="truncation depth")
    est.add_argument("--config", help="JSON with Q,R,P0,xhat0")
    est.add_argument("--out")
    est.set_defaults(func=cmd_estimate)

    mpc = sub.add_parser("mpc", help="closed-loop receding-horizon run from a scenario")
    mpc.add_argument("config", metavar="scenario", help="scenario JSON")
    mpc.add_argument("--steps", dest="K", type=number)
    mpc.add_argument("--seed", type=number)
    mpc.add_argument("--horizon", type=number)
    mpc.add_argument("--control-horizon", dest="control_horizon", type=number)
    mpc.add_argument("--bounds", help="lo,hi")
    mpc.add_argument("--out")
    mpc.set_defaults(func=cmd_mpc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _options(args)
        inputs, outputs, seed, summary = args.func(config)
        first = next(iter(outputs.values()))
        if summary is not None:
            outputs["summary"] = first + ".summary.json"
            write_json(outputs["summary"], summary)
        write_manifest(first, args.command, inputs, outputs, seed, config)
        return EXIT_OK
    except (ArithmeticError, MemoryError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        print(f"fracdyn {args.command}: {kind}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FracdynError, ValueError, KeyError, OSError) as exc:
        print(f"fracdyn {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> int:
    """``main()``, then ``os._exit`` after a flush: a cold job's exit, without teardown.

    The code goes to ``sys.exit`` instead where teardown does work: after a failed
    flush, or when a tracer, profiler or ``sys.monitoring`` tool watches the run.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # None, closed or a broken pipe
        return code
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    if sys.gettrace() is None and sys.getprofile() is None and not (
            monitoring and any(map(monitoring.get_tool, range(6)))):
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(entry())
