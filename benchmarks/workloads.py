"""Seeded inputs and job lists of the two benchmark workloads.

``prepare(name, seed, inputs_dir)`` draws the workload's models from the seed,
writes them under ``inputs_dir`` and returns the jobs of one pass in order.
Jobs run with the pass directory as working directory, so every path a job
names is relative and its outputs (manifests included) are byte-identical
between passes.  The same seed always gives the same files.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from fracdyn import FosModel, MultiTermNetwork, augmented_spectral_radius
from fracdyn.fileio import fmt_float, write_model

WORKLOADS = ("long-memory", "mpc-tight")

# long-memory sizes
LM_N = 4
LM_STEPS = 16000
LM_SIGMA = 0.1
LM_WINDOW = (8000, 2000)
LM_DEPTH = 200
LM_EPSILON = 1e-3
LM_GRAMIAN_HORIZON = 300
LM_STABILITY_DEPTH = 50

# mpc-tight sizes
MPC_P = 20
MPC_STEPS = 500
MPC_BOX = 0.05
MPC_SIGMA = 0.5
MPC_STATE_STEPS = 40
MPC_STATE_BOX = 0.1
MPC_STATE_LIMIT = 1.0

# long-memory network sizes
NET_STEPS = 800
NET_SIGMA = 0.1
NET_V = 40
NET_WEIGHTS = {"Q": 1.0, "R": 0.01, "P0": 1.0}


@dataclass(frozen=True)
class Job:
    """One process of a pass.

    ``name`` is the metric stem (``<name>_s``).  A CLI job runs
    ``python -m fracdyn *argv``; a library job runs ``job.py *argv``.
    ``outputs`` are the primary files it must leave in the pass directory.
    """

    name: str
    argv: tuple
    outputs: tuple
    library: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    truth: dict = field(default_factory=dict)


def _vec(values) -> str:
    return ",".join(fmt_float(v) for v in values)


def _stable_fos(rng, n: int, m: int, lo: float, hi: float, depth: int) -> FosModel:
    """Draw A = -0.3 I + 0.05 N(0,1) and orders U(lo, hi) until the lift contracts.

    B has orthonormal columns (QR of a Gaussian draw): with a raw Gaussian B
    the input conditioning, and with it the MPC solver work, varied threefold
    between seeds.
    """
    while True:
        alpha = rng.uniform(lo, hi, n)
        A = -0.3 * np.eye(n) + 0.05 * rng.standard_normal((n, n))
        B = np.linalg.qr(rng.standard_normal((n, m)))[0]
        model = FosModel(alpha=alpha, A=A, B=B, Bw=np.eye(n))
        if augmented_spectral_radius(model, depth) < 1.0:
            return model


def _mpc_tight(rng, seed: int, inputs: str) -> Workload:
    plant = _stable_fos(rng, 3, 2, 0.3, 0.9, MPC_P)
    write_model(os.path.join(inputs, "plant.json"), plant)
    x0 = rng.standard_normal(3).tolist()
    common = {"model": "../inputs/plant.json", "p": MPC_P, "horizon": MPC_P,
              "control_horizon": 1, "Q": 1.0, "R": 0.1, "sigma": MPC_SIGMA, "x0": x0}
    scenario = dict(common, u_lo=-MPC_BOX, u_hi=MPC_BOX, K=MPC_STEPS,
                    seed=int(rng.integers(0, 2**31)), out="run.csv")
    state_scenario = dict(common, u_lo=-MPC_STATE_BOX, u_hi=MPC_STATE_BOX,
                          K=MPC_STATE_STEPS, seed=int(rng.integers(0, 2**31)),
                          state_H=[[1.0, 0.0, 0.0]], state_h=[MPC_STATE_LIMIT])
    for fname, data in (("scenario.json", scenario), ("state_scenario.json", state_scenario)):
        with open(os.path.join(inputs, fname), "w") as fh:
            json.dump(data, fh, indent=1)
    jobs = [
        Job("mpc", ("mpc", "../inputs/scenario.json"), ("run.csv", "run.csv.summary.json")),
        Job("mpc_state", ("mpc-state", "../inputs/state_scenario.json", "state_run.csv"),
            ("state_run.csv", "state_run.csv.summary.json"), library=True),
    ]
    truth = {"scenario": scenario, "state_scenario": state_scenario}
    return Workload("mpc-tight", seed, jobs, truth)


def network_model(rng) -> MultiTermNetwork:
    n = 3
    e1 = np.zeros((n, 1))
    e1[0, 0] = 1.0
    return MultiTermNetwork(
        state_terms=((0.6, np.eye(n)), (0.3, 0.1 * rng.standard_normal((n, n)))),
        input_terms=((0.5, e1),),
        disturbance_terms=((0.7, np.eye(n)),),
        C=np.eye(n)[:2],
    )


def _long_memory(rng, seed: int, inputs: str) -> Workload:
    """Full-memory sums: a K=16000 single-term model, then a multi-term network."""
    model = _stable_fos(rng, LM_N, 1, 0.1, 0.95, LM_STABILITY_DEPTH)
    write_model(os.path.join(inputs, "model.json"), model)
    x0 = rng.standard_normal(LM_N)
    noise_seed = int(rng.integers(0, 2**31))
    net = network_model(rng)
    write_model(os.path.join(inputs, "network.json"), net)
    with open(os.path.join(inputs, "weights.json"), "w") as fh:
        json.dump(NET_WEIGHTS, fh)
    net_x0 = rng.standard_normal(net.n)
    net_noise_seed = int(rng.integers(0, 2**31))
    model_arg = "../inputs/model.json"
    jobs = [
        Job("simulate", ("simulate", "--model", model_arg, f"--x0={_vec(x0)}",
                         "--steps", str(LM_STEPS), "--seed", str(noise_seed),
                         "--sigma", fmt_float(LM_SIGMA), "--out", "traj.csv"),
            ("traj.csv",)),
        Job("identify", ("identify", "--trajectory", "traj.csv", "--depth", str(LM_DEPTH),
                         "--epsilon", fmt_float(LM_EPSILON),
                         "--window", f"{LM_WINDOW[0]},{LM_WINDOW[1]}",
                         "--out-model", "identified.json", "--out-diag", "diag.csv"),
            ("identified.json", "diag.csv")),
        Job("gramians", ("analyze", "gramians", "--model", model_arg,
                         "--horizon", str(LM_GRAMIAN_HORIZON), "--out", "gramians.json"),
            ("gramians.json",)),
        Job("stability", ("analyze", "stability", "--model", model_arg,
                          "--horizon", str(LM_STABILITY_DEPTH), "--out", "stability.json"),
            ("stability.json",)),
        Job("network_simulate", ("simulate", "--model", "../inputs/network.json",
                                 f"--x0={_vec(net_x0)}", "--steps", str(NET_STEPS),
                                 "--seed", str(net_noise_seed), "--sigma", fmt_float(NET_SIGMA),
                                 "--out", "measured.csv"),
            ("measured.csv",)),
        Job("estimate", ("estimate", "--model", "../inputs/network.json",
                         "--trajectory", "measured.csv", "--v", str(NET_V),
                         "--config", "../inputs/weights.json", "--out", "estimates.csv"),
            ("estimates.csv", "estimates.csv.summary.json")),
    ]
    truth = {"model": model, "noise_seed": noise_seed, "network": net}
    return Workload("long-memory", seed, jobs, truth)


def prepare(name: str, seed: int, inputs_dir: str) -> Workload:
    """Write the workload's inputs for ``seed`` and return its jobs."""
    build = {"long-memory": _long_memory, "mpc-tight": _mpc_tight}[name]
    os.makedirs(inputs_dir, exist_ok=True)
    return build(np.random.default_rng(seed), seed, inputs_dir)
