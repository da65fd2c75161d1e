"""Self-test of the benchmark's output checks.

Each check must accept a correct output and reject a perturbed copy of it, so
that a zero error rate means something.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest benchmarks/test_checks.py -q
"""

import json
import os

import numpy as np
import pytest

import fracdyn as fd
from fracdyn.cli import main as cli_main
from fracdyn.fileio import write_model

import checks
import run
import tracing
import workloads


def eighth_digit(x: float) -> float:
    return x * (1.0 + 1e-7)


@pytest.fixture(scope="module")
def fos():
    model = fd.FosModel(alpha=[0.4, 0.7], A=[[-0.3, 0.05], [0.02, -0.25]], B=[[1.0], [0.5]])
    traj = fd.simulate_fos(model, [1.0, -0.5], w=7, K=300, noise_sigma=0.1)
    return model, traj


def test_trajectory_check_rejects_one_changed_sample(fos):
    model, traj = fos
    noise = fd.gaussian_noise(7, 300, 2, 0.1)
    assert checks.fos_trajectory_problems(model, traj.states, noise) == []
    for k, i in ((57, 1), (300, 0), (1, 0)):
        bad = traj.states.copy()
        bad[k, i] = eighth_digit(bad[k, i])
        assert checks.fos_trajectory_problems(model, bad, noise)
    assert checks.fos_trajectory_problems(model, traj.states, fd.gaussian_noise(8, 300, 2, 0.1))


def test_identify_check_rejects_changed_fit(fos):
    _, traj = fos
    window, eps = (100, 150), 1e-2
    res = fd.identify(traj, 40, eps, window)
    good = (traj, window, eps, res.alpha_hat, res.iterations, res.A_hat)
    assert checks.identify_problems(*good) == []
    A_bad = res.A_hat.copy()
    A_bad[0, 1] = eighth_digit(A_bad[0, 1])
    assert checks.identify_problems(traj, window, eps, res.alpha_hat, res.iterations, A_bad)
    cap = fd.bisection_bound(eps)
    assert checks.identify_problems(traj, window, eps, res.alpha_hat, res.iterations + cap, res.A_hat)
    assert checks.identify_problems(traj, window, eps, res.alpha_hat + 2.0, res.iterations, res.A_hat)


@pytest.fixture(scope="module")
def reports(fos, tmp_path_factory):
    model, _ = fos
    d = tmp_path_factory.mktemp("analyze")
    write_model(str(d / "model.json"), model)
    for what in ("gramians", "stability"):
        assert cli_main(["analyze", what, "--model", str(d / "model.json"), "--horizon", "12",
                         "--out", str(d / f"{what}.json")]) == 0
    return {what: json.loads((d / f"{what}.json").read_text()) for what in ("gramians", "stability")}


def test_gramian_check_rejects_asymmetric_or_nonfinite(reports):
    report = reports["gramians"]
    assert checks.gramian_problems(report, 12) == []
    assert checks.gramian_problems(report, 13)
    for key, field in (("controllability", "matrix"), ("observability", "gramian")):
        bad = json.loads(json.dumps(report))
        bad[key][field][0][1] = eighth_digit(bad[key][field][0][1])
        assert checks.gramian_problems(bad, 12)
        bad[key][field][1][1] = float("nan")
        assert checks.gramian_problems(bad, 12)


def test_stability_check_rejects_changed_radius(fos, reports):
    model, _ = fos
    report = reports["stability"]
    assert checks.stability_problems(report, model, 12) == []
    bad = dict(report, spectral_radius=eighth_digit(report["spectral_radius"]))
    assert checks.stability_problems(bad, model, 12)
    assert checks.stability_problems(report, model, 11)


def test_box_check_rejects_input_outside_box(fos):
    model, _ = fos
    prob = fd.MpcProblem(p=5, P=5, M=1, Q=1.0, R=0.1, u_lo=-0.05, u_hi=0.05)
    loop = fd.run_closed_loop(model, prob, 20, 3, x0=[1.0, -0.5], noise_sigma=0.5)
    applied, solves = loop.applied, len(loop.solutions)
    assert checks.box_problems(applied, -0.05, 0.05, solves, 20) == []
    bad = applied.copy()
    bad[4, 0] = np.nextafter(0.05, 1.0)
    assert checks.box_problems(bad, -0.05, 0.05, solves, 20)
    assert checks.box_problems(applied, -0.05, 0.05, solves - 1, 20)
    assert checks.box_problems(applied[:-1], -0.05, 0.05, solves, 20)


def test_estimate_check_rejects_changed_estimate():
    net = workloads.network_model(np.random.default_rng(0))
    traj = fd.simulate_network(net, [0.5, -0.2, 0.1], w=fd.gaussian_noise(1, 120, 3, 0.1), K=120)
    v, weights = 4, workloads.NET_WEIGHTS
    aug = fd.augment_v(net, v)
    cfg = fd.EstimatorConfig.from_scalars(aug, weights["Q"], weights["R"], weights["P0"])
    estimates = fd.run_estimator(net, v, cfg, traj).base_estimates
    assert checks.estimate_problems(net, v, weights, traj, estimates) == []
    bad = estimates.copy()
    N = checks.ESTIMATE_STEPS
    bad[N, np.argmax(np.abs(bad[N]))] *= 1.0 + 1e-5
    assert checks.estimate_problems(net, v, weights, traj, bad)


def test_kkt_check_rejects_large_residual():
    assert checks.kkt_problems(1e-12) == []
    assert checks.kkt_problems(1e-7)
    assert checks.kkt_problems(float("nan"))


def test_byte_identity_check_rejects_one_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "out.csv").write_text("t,x1\n0,1\n")
        (d / "out.csv.manifest.json").write_text("{}\n")
    assert checks.differing_files(["out.csv"], str(b), str(a)) == []
    (b / "out.csv").write_text("t,x1\n0,2\n")
    assert checks.differing_files(["out.csv"], str(b), str(a)) == ["out.csv"]
    (b / "out.csv.manifest.json").unlink()
    assert checks.differing_files(["out.csv"], str(b), str(a)) == ["out.csv", "out.csv.manifest.json"]


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    one_pass = {"wall": 1.0, "walls": {}, "rss_kb": 1024}
    printed = {
        "end_to_end": run.end_to_end([0.5], [0.5], [one_pass]),
        "per_layer": run.per_layer([tracing.aggregate([])], [0.5], [one_pass], [one_pass], {}),
    }
    for key, metrics in printed.items():
        assert {k: unit for k, (_, unit) in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]}
