import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracdyn
from fracdyn import (
    FosModel,
    MultiTermNetwork,
    NonFiniteError,
    Trajectory,
    identify,
    simulate_fos,
    simulate_network,
)
from fracdyn.cli import main
from fracdyn.fileio import (
    model_to_dict,
    read_model,
    read_trajectory,
    write_model,
    write_trajectory,
)


@pytest.fixture
def scalar_model_file(tmp_path):
    path = tmp_path / "model.json"
    write_model(str(path), FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]], Bw=[[1.0]]))
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def test_simulate_zero_steps_writes_single_row(tmp_path, scalar_model_file):
    out = str(tmp_path / "traj.csv")
    code = run_cli("simulate", "--model", scalar_model_file, "--x0", "1.0",
                   "--steps", "0", "--out", out)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header plus the initial state
    traj = read_trajectory(out)
    assert traj.K == 0 and traj.states[0, 0] == 1.0


def test_simulate_deterministic_bytes(tmp_path, scalar_model_file):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert run_cli("simulate", "--model", scalar_model_file, "--x0", "1.0",
                       "--steps", "50", "--seed", "7", "--sigma", "0.1",
                       "--out", out) == 0
    assert pathlib.Path(out1).read_bytes() == pathlib.Path(out2).read_bytes()
    m1 = json.loads(pathlib.Path(out1 + ".manifest.json").read_text())
    m2 = json.loads(pathlib.Path(out2 + ".manifest.json").read_text())
    assert m1["config_digest"] == m2["config_digest"]
    assert m1["seed"] == 7 and m1["version"]


def test_trajectory_round_trip(tmp_path, scalar_model_file):
    out = str(tmp_path / "t.csv")
    assert run_cli("simulate", "--model", scalar_model_file, "--x0", "1.0",
                   "--steps", "10", "--seed", "3", "--out", out) == 0
    traj = read_trajectory(out)
    assert traj.K == 10
    back = str(tmp_path / "t2.csv")
    write_trajectory(back, traj)
    assert pathlib.Path(out).read_text() == pathlib.Path(back).read_text()


def test_missing_model_file_exits_2(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("simulate", "--model", str(tmp_path / "nope.json"),
                   "--steps", "5", "--out", out) == 2


def test_identify_pipeline_closure(tmp_path, scalar_model_file):
    traj_path = str(tmp_path / "traj.csv")
    assert run_cli("simulate", "--model", scalar_model_file, "--x0", "1.0",
                   "--steps", "160", "--out", traj_path) == 0
    model_out = str(tmp_path / "ident.json")
    diag_out = str(tmp_path / "diag.csv")
    assert run_cli("identify", "--trajectory", traj_path, "--depth", "160",
                   "--epsilon", "1e-3", "--window", "0,120",
                   "--out-model", model_out, "--out-diag", diag_out) == 0
    est = read_model(model_out)
    assert abs(est.alpha[0] - 0.5) <= 2e-3
    # re-simulate the identified model from the same start: one-step MSE is tiny
    resim = str(tmp_path / "resim.csv")
    assert run_cli("simulate", "--model", model_out, "--x0", "1.0",
                   "--steps", "160", "--out", resim) == 0
    a = read_trajectory(traj_path).states
    b = read_trajectory(resim).states
    one_step = np.mean((a[1:41] - b[1:41]) ** 2)
    assert one_step <= 1e-4
    with open(diag_out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["flag"] == "ok"
    assert int(rows[0]["iterations"]) <= 11


def test_identify_constant_channel_flagged(tmp_path):
    m = FosModel(alpha=[0.5], A=[[0.2]])
    from fracdyn import simulate_fos

    live = simulate_fos(m, [1.0], K=160).states[:, 0]
    states = np.column_stack([np.full(161, 2.5), live])
    traj_path = str(tmp_path / "c.csv")
    write_trajectory(traj_path, Trajectory(states=states))
    model_out = str(tmp_path / "m.json")
    diag_out = str(tmp_path / "d.csv")
    assert run_cli("identify", "--trajectory", traj_path, "--depth", "120",
                   "--window", "0,120", "--out-model", model_out,
                   "--out-diag", diag_out) == 0
    with open(diag_out) as fh:
        rows = list(csv.DictReader(fh))
    assert "degenerate" in rows[0]["flag"]


def test_analyze_stability_and_gramians(tmp_path, scalar_model_file):
    out = str(tmp_path / "stab.json")
    assert run_cli("analyze", "stability", "--model", scalar_model_file,
                   "--out", out) == 0
    rep = json.loads(pathlib.Path(out).read_text())
    assert rep["test"] == "commensurate-sector"
    assert rep["verdict"] in {"stable", "unstable", "marginal"}

    out2 = str(tmp_path / "gram.json")
    assert run_cli("analyze", "gramians", "--model", scalar_model_file,
                   "--horizon", "4", "--out", out2) == 0
    rep2 = json.loads(pathlib.Path(out2).read_text())
    assert rep2["controllability"]["controllable"] is True
    assert rep2["observability"]["observable"] is True


def test_analyze_noncommensurate_heuristic(tmp_path):
    path = str(tmp_path / "mixed.json")
    write_model(path, FosModel(alpha=[0.5, 0.9], A=[[0.1, 0.0], [0.0, 0.1]]))
    out = str(tmp_path / "stab.json")
    assert run_cli("analyze", "stability", "--model", path, "--out", out) == 0
    rep = json.loads(pathlib.Path(out).read_text())
    assert rep["test"] == "heuristic-lift-spectral-radius"
    assert "heuristic" in rep["verdict"]


def test_analyze_gramians_singular_exits_3(tmp_path):
    # alpha = 1 with A = -I makes G_1 = 0: the conjugated Gramian is undefined
    path = str(tmp_path / "sing.json")
    write_model(path, FosModel(alpha=[1.0], A=[[-1.0]], B=[[1.0]]))
    out = str(tmp_path / "g.json")
    assert run_cli("analyze", "gramians", "--model", path,
                   "--horizon", "2", "--out", out) == 3


#: Address-space cap of the capped CLI runs: 1 GiB.
_AS_CAP = 1 << 30


def _capped_cli(tmp_path, *argv):
    """Run ``python -m fracdyn *argv`` under the address-space cap, BLAS on one thread.

    Returns the exit code, stderr and the child's peak RSS in MB (os.wait4).
    The cap makes an allocation past it fail at once instead of overcommitting.
    """
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_AS_CAP, _AS_CAP))

    src = str(pathlib.Path(fracdyn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fracdyn", *argv], env=env, cwd=tmp_path,
                                stdout=subprocess.DEVNULL, stderr=err, preexec_fn=cap)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, (tmp_path / "stderr.txt").read_text(), usage.ru_maxrss / 1024


def _four_state_model(tmp_path) -> str:
    path = str(tmp_path / "model.json")
    A = -0.3 * np.eye(4) + 0.05 * np.array([[0, 1, 0, -1], [1, 0, 1, 0],
                                             [0, -1, 0, 1], [1, 0, -1, 0]])
    write_model(path, FosModel(alpha=[0.2, 0.45, 0.7, 0.9], A=A, B=[[1.0], [0.5], [-0.5], [0.25]]))
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB only on Linux")
def test_analyze_gramians_at_horizon_20000_stays_small(tmp_path):
    # the stacks are (K+1) n x n and K q x n; nothing (K q) x (K m) is formed
    code, err, peak_mb = _capped_cli(tmp_path, "analyze", "gramians", "--model",
                                     _four_state_model(tmp_path), "--horizon", "20000",
                                     "--out", "g.json")
    assert code == 0, err
    assert peak_mb < 150, peak_mb
    rep = json.loads((tmp_path / "g.json").read_text())
    assert rep["horizon"] == 20000 and rep["observability"]["observable"] is True


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_analyze_gramians_out_of_memory_exits_3_with_one_line(tmp_path):
    # G_0..G_K alone needs 1.19 GiB at this horizon, past the cap
    code, err, _ = _capped_cli(tmp_path, "analyze", "gramians", "--model",
                               _four_state_model(tmp_path), "--horizon", "10000000",
                               "--out", "g.json")
    assert code == 3
    assert err.startswith("fracdyn analyze: out of memory: ") and err.count("\n") == 1, err
    assert not (tmp_path / "g.json").exists()


def test_analyze_bode_fopid(tmp_path):
    out = str(tmp_path / "bode.csv")
    assert run_cli("analyze", "bode", "--fopid", "1,1,0,0.5,1",
                   "--omega-start", "1", "--omega-stop", "10",
                   "--omega-points", "3", "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    first = rows[0]
    assert float(first["omega"]) == 1.0
    assert float(first["re"]) == pytest.approx(1.7071067811865475, rel=1e-12)
    assert float(first["phase_deg"]) == pytest.approx(
        np.degrees(np.angle(1.7071067811865475 - 0.7071067811865476j)), rel=1e-9)


def test_simulate_network_model_file(tmp_path):
    net = MultiTermNetwork(
        state_terms=((0.5, [[1.0, 0.0], [0.1, 1.0]]),),
        input_terms=((0.5, [[1.0], [0.0]]),),
        disturbance_terms=((0.7, np.eye(2)),),
        C=np.eye(2),
    )
    path = str(tmp_path / "net.json")
    write_model(path, net)
    out = str(tmp_path / "nt.csv")
    assert run_cli("simulate", "--model", path, "--x0", "1.0,0.0",
                   "--steps", "12", "--seed", "2", "--sigma", "0.05",
                   "--out", out) == 0
    traj = read_trajectory(out)
    assert traj.K == 12
    assert traj.outputs is not None and traj.outputs.shape == (13, 2)

    # zero-step network run still writes the initial row
    out0 = str(tmp_path / "n0.csv")
    assert run_cli("simulate", "--model", path, "--x0", "1.0,0.0",
                   "--steps", "0", "--out", out0) == 0
    assert read_trajectory(out0).K == 0


def test_analyze_bode_rational_terms(tmp_path):
    out = str(tmp_path / "b.csv")
    # H(s) = 1/s evaluated at omega = 2 -> -0.5j
    assert run_cli("analyze", "bode", "--num", "1:0", "--den", "1:1",
                   "--omega-start", "2", "--omega-stop", "4",
                   "--omega-points", "2", "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["re"]) == pytest.approx(0.0, abs=1e-15)
    assert float(rows[0]["im"]) == pytest.approx(-0.5, abs=1e-15)


def test_simulate_with_input_file(tmp_path, scalar_model_file):
    drive = str(tmp_path / "drive.csv")
    u = np.ones((5, 1))
    write_trajectory(drive, Trajectory(states=np.zeros((6, 1)), inputs=u))
    out = str(tmp_path / "forced.csv")
    assert run_cli("simulate", "--model", scalar_model_file, "--x0", "0.0",
                   "--steps", "5", "--input", drive, "--out", out) == 0
    traj = read_trajectory(out)
    # x[1] = B*u[0] = 1 for the zero-start scalar model
    assert traj.states[1, 0] == pytest.approx(1.0, abs=1e-15)
    assert traj.states[2, 0] == pytest.approx(0.7 + 1.0, abs=1e-14)


def test_estimate_cli_end_to_end(tmp_path):
    net = MultiTermNetwork(
        state_terms=((0.6, np.eye(2)), (0.3, [[0.0, 0.1], [0.1, 0.0]])),
        input_terms=((0.5, [[1.0], [1.0]]),),
        disturbance_terms=((0.7, np.eye(2)),),
        C=np.eye(2),
    )
    net_path = str(tmp_path / "net.json")
    write_model(net_path, net)
    rng = np.random.default_rng(3)
    K = 60
    u = 0.2 * rng.normal(size=(K, 1))
    w = 0.01 * rng.normal(size=(K, 2))
    truth = simulate_network(net, [1.0, -0.5], u=u, w=w, K=K)
    traj_path = str(tmp_path / "meas.csv")
    write_trajectory(traj_path, Trajectory(
        states=truth.states, inputs=u, outputs=truth.outputs))
    out = str(tmp_path / "est.csv")
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"Q": 1.0, "R": 0.05, "P0": 1.0, "xhat0": [1.0, -0.5]}, fh)
    assert run_cli("estimate", "--model", net_path, "--trajectory", traj_path,
                   "--v", "4", "--config", cfg_path, "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == K + 1
    summary = json.loads(pathlib.Path(out + ".summary.json").read_text())
    assert summary["sup_error"] < 0.5
    assert summary["terminal_error"] < 0.1


def test_mpc_scenario_and_bounds_validation(tmp_path, scalar_model_file):
    scen = {
        "model": scalar_model_file,
        "p": 6, "horizon": 8, "control_horizon": 4,
        "Q": 1.0, "R": 1.0, "u_lo": -5.0, "u_hi": 5.0,
        "K": 30, "seed": 11, "sigma": 0.1, "x0": [1.0],
    }
    scen_path = str(tmp_path / "scen.json")
    with open(scen_path, "w") as fh:
        json.dump(scen, fh)
    out = str(tmp_path / "run.csv")
    assert run_cli("mpc", scen_path, "--out", out) == 0
    summary = json.loads(pathlib.Path(out + ".summary.json").read_text())
    assert summary["energy_controlled"] < summary["energy_baseline"]
    assert summary["solves"] == -(-30 // 4)

    # invalid box must exit 2 and name the offending field
    bad = dict(scen, u_lo=2.0, u_hi=-2.0)
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    code = run_cli("mpc", bad_path, "--out", str(tmp_path / "no.csv"))
    assert code == 2


def test_mpc_deterministic_bytes(tmp_path, scalar_model_file):
    scen = {
        "model": scalar_model_file, "p": 5, "horizon": 6, "control_horizon": 3,
        "Q": 1.0, "R": 1.0, "u_lo": -2.0, "u_hi": 2.0,
        "K": 20, "seed": 4, "sigma": 0.2, "x0": [1.0],
    }
    scen_path = str(tmp_path / "scen.json")
    with open(scen_path, "w") as fh:
        json.dump(scen, fh)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = str(tmp_path / name)
        assert run_cli("mpc", scen_path, "--out", out) == 0
        outs.append(pathlib.Path(out).read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("extra,failure", [
    # every horizon cost from a state of 1e308 overflows; the run used to exit 0
    # with nan costs and infinite energies in its outputs
    ({"x0": [1e308, 1e308]}, "horizon cost is not finite"),
    # the costs stay finite under a tiny Q, the summed squared states do not
    ({"x0": [1e200, 1e200], "Q": 1e-300}, "state energy is not finite"),
])
def test_mpc_overflow_exits_3_without_a_warning(tmp_path, capsys, extra, failure):
    path = str(tmp_path / "m.json")
    write_model(path, FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.0], [0.1, -0.3]], B=[[1.0], [0.0]]))
    scen_path, out = tmp_path / "scen.json", tmp_path / "run.csv"
    scen_path.write_text(json.dumps({"model": path, "horizon": 3, "K": 50, **extra}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("mpc", str(scen_path), "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert f"numerical failure: {failure}" in err and "Traceback" not in err
    assert not caught
    assert not out.exists()


def test_mpc_bounds_flag_overrides_scenario(tmp_path, scalar_model_file):
    scen = {
        "model": scalar_model_file, "p": 5, "horizon": 6, "control_horizon": 3,
        "Q": 1.0, "R": 1e-4, "u_lo": -50.0, "u_hi": 50.0,
        "K": 20, "seed": 4, "sigma": 0.3, "x0": [2.0],
    }
    scen_path = str(tmp_path / "scen.json")
    with open(scen_path, "w") as fh:
        json.dump(scen, fh)
    out = str(tmp_path / "tight.csv")
    assert run_cli("mpc", scen_path, "--bounds=-0.05,0.05", "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    applied = [float(r["u1"]) for r in rows if r["u1"].strip()]
    assert max(abs(v) for v in applied) <= 0.05


def test_flags_win_over_config(tmp_path, scalar_model_file):
    cfg = {"model": scalar_model_file, "steps": 5, "out": str(tmp_path / "cfg_out.csv")}
    cfg_path = str(tmp_path / "sim.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "flag_out.csv")
    assert run_cli("simulate", "--config", cfg_path, "--x0", "1.0",
                   "--steps", "8", "--out", out) == 0
    traj = read_trajectory(out)
    assert traj.K == 8  # flag value, not the config's 5


#: Exit code of every toolkit error, as the CLI has always mapped them.
EXIT_CODES = {
    "FracdynError": 2,
    "DimensionError": 2,
    "DomainError": 2,
    "NotSPD": 2,
    "SingularError": 3,
    "NonFiniteError": 3,
    "EigenFailure": 3,
    "NotControllable": 3,
    "NotObservable": 3,
    "InnovationSingular": 3,
    "InfeasibleStateConstraints": 3,
}


def _error_classes():
    from fracdyn import errors

    return sorted((obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, errors.FracdynError)),
                  key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_toolkit_error_keeps_its_exit_code(tmp_path, monkeypatch, capsys, error):
    import fracdyn.cli as cli

    def fail(path):
        raise error("boom")

    monkeypatch.setattr(cli, "read_model", fail)
    code = run_cli("simulate", "--model", "m.json", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_CODES[error.__name__]
    err = capsys.readouterr().err
    assert "boom" in err and "Traceback" not in err


def test_ragged_trajectory_row_exits_2_naming_the_line(tmp_path, capsys):
    traj_path = tmp_path / "ragged.csv"
    traj_path.write_text("t,x1,x2\n0,1.0,2.0\n1,0.5\n2,0.25,0.5\n")
    code = run_cli("identify", "--trajectory", str(traj_path),
                   "--out-model", str(tmp_path / "m.json"),
                   "--out-diag", str(tmp_path / "d.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "Traceback" not in err


def test_bode_without_frequency_points_exits_2(tmp_path):
    out = tmp_path / "bode.csv"
    assert run_cli("analyze", "bode", "--fopid", "1,1,0,0.5,1",
                   "--omega-points", "0", "--out", str(out)) == 2
    assert not out.exists()


#: What the readers say of a non-finite option: an array's entries, or a number.
NON_FINITE = {"x0": "x0 entries must be finite", "sigma": "sigma must be finite"}


@pytest.mark.parametrize("extra, option", [
    (("--x0", "nan"), "x0"),
    (("--x0", "1", "--sigma", "nan", "--seed", "1"), "sigma"),
])
def test_simulate_non_finite_option_exits_2_naming_it(tmp_path, capsys, scalar_model_file,
                                                       extra, option):
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", scalar_model_file, *extra, "--steps", "5",
                   "--out", str(out)) == 2
    assert NON_FINITE[option] in capsys.readouterr().err
    assert not out.exists()


def test_identify_overflowing_trajectory_exits_3_naming_the_channel(tmp_path, capsys):
    states = 0.1 * np.random.default_rng(5).standard_normal(61)
    states[30] = 1e300
    traj_path = tmp_path / "big.csv"
    traj_path.write_text("t,x1\n" + "".join(f"{k},{x!r}\n" for k, x in enumerate(states.tolist())))
    model_out, diag_out = tmp_path / "m.json", tmp_path / "d.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("identify", "--trajectory", str(traj_path), "--depth", "20",
                       "--window", "0,50", "--out-model", str(model_out),
                       "--out-diag", str(diag_out))
    assert code == 3
    assert "channel 1" in capsys.readouterr().err
    assert not caught
    assert not model_out.exists() and not diag_out.exists()


def test_identify_overflowing_long_trajectory_exits_3_naming_the_channel(tmp_path, capsys):
    # long enough that the full-memory targets are summed by FFT
    states = 0.1 * np.random.default_rng(5).standard_normal(10001)
    states[9000] = 1e300
    traj_path = tmp_path / "big.csv"
    write_trajectory(str(traj_path), Trajectory(states=states[:, None]))
    model_out, diag_out = tmp_path / "m.json", tmp_path / "d.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError, match="^channel 1: prediction error is not finite$"):
            identify(Trajectory(states=states[:, None]), 200, 1e-3, (8000, 2000))
        code = run_cli("identify", "--trajectory", str(traj_path), "--depth", "200",
                       "--window", "8000,2000", "--out-model", str(model_out),
                       "--out-diag", str(diag_out))
    assert code == 3
    assert "channel 1" in capsys.readouterr().err
    assert not caught
    assert not model_out.exists() and not diag_out.exists()


def test_diverging_network_exits_3_naming_the_step(tmp_path, capsys):
    # the states overflow at step 385, long after the far field has joined; an
    # unguarded far field warns of overflow in its inverse FFT on the way
    net = MultiTermNetwork(state_terms=((1.0, np.eye(2)), (0.5, [[-0.905, 0.01], [-0.02, -0.93]])),
                           disturbance_terms=((0.7, np.eye(2)),))
    path, out = str(tmp_path / "net.json"), tmp_path / "x.csv"
    write_model(path, net)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", "--model", path, "--x0", "1.0,-0.5", "--steps", "600",
                       "--seed", "1", "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert "state became non-finite at step 385" in err and "Traceback" not in err
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("alpha,A,x0", [
    # G grows past the block solve's bound, so every block is stepped
    ([0.45, 0.7], [[10.5, 0.1], [-0.05, 10.5]], "1.0,-0.5"),
    # G_64 ~ 670: the overflowing block is solved first, then re-stepped
    ([0.55, 0.8], [[0.235, 0.05], [-0.02, 0.185]], "1e287,-5e286"),
])
def test_diverging_single_term_model_exits_3_naming_the_step(tmp_path, capsys, alpha, A, x0):
    # the run overflows in the middle of a block after the first four; the
    # loop names the step, with no warning
    model = FosModel(alpha=alpha, A=A, Bw=np.eye(2))
    path, out = str(tmp_path / "fos.json"), tmp_path / "x.csv"
    write_model(path, model)
    with pytest.raises(NonFiniteError) as lib:
        simulate_fos(model, [float(v) for v in x0.split(",")], w=5, K=600)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", "--model", path, "--x0", x0, "--steps", "600",
                       "--seed", "5", "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    step = int(str(lib.value).rsplit(" ", 1)[1])
    assert 4 * 64 < step < 600 and step % 64 not in (0, 1)
    assert f"state became non-finite at step {step}\n" in err and "Traceback" not in err
    assert "RuntimeWarning" not in err and not caught
    assert not out.exists()


@pytest.mark.parametrize("R", [1e-308, [[[1e-308, 0.0], [0.0, 1e-308]]] * 21])
def test_estimate_overflow_exits_3_naming_the_step(tmp_path, capsys, R):
    # weights near the float limit overflow the predicted weight; the estimate
    # of step 1 is still finite, that of step 2 is not.  R is a number or a
    # per-step schedule
    net = {"state_terms": [{"exponent": 0.6, "matrix": [[1, 0], [0, 1]]}],
           "input_terms": [{"exponent": 0.5, "matrix": [[1], [1]]}],
           "disturbance_terms": [{"exponent": 0.7, "matrix": [[1, 0], [0, 1]]}],
           "C": [[1, 0], [0, 1]]}
    model, traj, weights = tmp_path / "net.json", tmp_path / "net.csv", tmp_path / "w.json"
    model.write_text(json.dumps(net))
    weights.write_text(json.dumps({"Q": 1e308, "R": R, "P0": 1e308}))
    assert run_cli("simulate", "--model", str(model), "--x0", "1.0,-0.5", "--steps", "20",
                   "--seed", "2", "--sigma", "0.01", "--out", str(traj)) == 0
    out = tmp_path / "est.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("estimate", "--model", str(model), "--trajectory", str(traj), "--v", "3",
                       "--config", str(weights), "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert err == "fracdyn estimate: numerical failure: estimate became non-finite at step 2\n"
    assert not caught
    assert not out.exists() and not (tmp_path / "est.csv.summary.json").exists()


def test_estimate_on_a_header_only_trajectory_exits_2(tmp_path, capsys):
    net_path, traj_path = _write_network_files(tmp_path, 5)
    header = tmp_path / "header.csv"
    header.write_text(pathlib.Path(traj_path).read_text().split("\n")[0] + "\n")
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--model", net_path, "--trajectory", str(header),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "fracdyn estimate: trajectory has no measurement after step 0\n"
    assert not out.exists()


def test_estimate_on_a_trajectory_short_of_an_output_exits_2(tmp_path, capsys):
    # the network measures two outputs; the file carries only y1
    net_path, traj_path = _write_network_files(tmp_path, 5)
    one = tmp_path / "one.csv"
    one.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                           for line in pathlib.Path(traj_path).read_text().splitlines()))
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--model", net_path, "--trajectory", str(one),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "fracdyn estimate: measurement must have length 2\n"
    assert not out.exists()


@pytest.fixture
def short_trajectory_file(tmp_path, scalar_model_file):
    path = str(tmp_path / "traj.csv")
    assert run_cli("simulate", "--model", scalar_model_file, "--x0", "1.0",
                   "--steps", "30", "--out", path) == 0
    return path


def _write_network_files(directory, K: int) -> tuple:
    """A two-node network file and a K-step trajectory of it with inputs and outputs."""
    net = MultiTermNetwork(
        state_terms=((0.6, np.eye(2)), (0.3, [[0.0, 0.1], [0.1, 0.0]])),
        input_terms=((0.5, [[1.0], [1.0]]),),
        disturbance_terms=((0.7, np.eye(2)),),
        C=np.eye(2),
    )
    net_path, traj_path = str(directory / "net.json"), str(directory / "meas.csv")
    write_model(net_path, net)
    rng = np.random.default_rng(3)
    u = 0.2 * rng.normal(size=(K, 1))
    truth = simulate_network(net, [1.0, -0.5], u=u, w=0.01 * rng.normal(size=(K, 2)), K=K)
    write_trajectory(traj_path, Trajectory(states=truth.states, inputs=u, outputs=truth.outputs))
    return net_path, traj_path


@pytest.mark.parametrize("key", ["Q", "R"])
def test_estimate_diagonal_weight_writes_the_bytes_of_its_number(tmp_path, key):
    net_path, traj_path = _write_network_files(tmp_path, 30)
    written = []
    for i, config in enumerate(({key: 0.5}, {key: [0.5, 0.5]}, {})):
        path, out = tmp_path / "config.json", tmp_path / f"est{i}.csv"
        path.write_text(json.dumps(dict(config, v=2)))
        assert run_cli("estimate", "--model", net_path, "--trajectory", traj_path,
                       "--config", str(path), "--out", str(out)) == 0
        written.append(out.read_bytes() + pathlib.Path(f"{out}.summary.json").read_bytes())
    number, diagonal, default = written
    assert diagonal == number != default


@pytest.mark.parametrize("key, weight", [
    ("Q", [1.0, 2.0, 3.0]),
    ("R", [[1.0, 0.5], [-0.5, 1.0]]),
    ("R", [[1.0, 2.0], [2.0, 1.0]]),
])
def test_estimate_and_mpc_reject_a_bad_weight_with_one_message(tmp_path, capsys, key, weight):
    net_path, traj_path = _write_network_files(tmp_path, 10)
    plant = tmp_path / "plant.json"
    write_model(str(plant), FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]],
                                     B=np.eye(2)))
    config, scenario = tmp_path / "config.json", tmp_path / "scenario.json"
    config.write_text(json.dumps({key: weight}))
    scenario.write_text(json.dumps({"model": str(plant), "p": 2, "horizon": 3, "K": 3,
                                    "out": str(tmp_path / "run.csv"), key: weight}))
    messages = []
    for argv in (("estimate", "--model", net_path, "--trajectory", traj_path,
                  "--config", str(config), "--out", str(tmp_path / "est.csv")),
                 ("mpc", str(scenario))):
        assert run_cli(*argv) == 2
        messages.append(capsys.readouterr().err.split(": ", 1)[1])
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{key} must")


@pytest.mark.parametrize("command, key, value", [
    ("mpc", "bounds", [0.1]),
    ("mpc", "seed", None),
    ("mpc", "sigma", None),
    ("mpc", "horizon", None),
    ("identify", "window", [5]),
    ("identify", "depth", None),
    ("identify", "epsilon", None),
    ("simulate", "steps", None),
    ("simulate", "dt", None),
    ("simulate", "seed", None),
    ("simulate", "sigma", [1]),
    ("analyze gramians", "horizon", None),
    ("analyze stability", "alpha", [0.5]),
    ("analyze bode", "omega_points", None),
    ("estimate", "v", None),
    ("estimate", "Q", None),
    ("estimate", "xhat0", None),
    # a 3-step schedule for a 30-step run
    ("estimate", "Q", [np.eye(2).tolist()] * 3),
    ("simulate", "model", None),
    # JSON true/false are not numbers
    ("simulate", "steps", True),
    ("simulate", "sigma", False),
    ("simulate", "seed", True),
    ("mpc", "x0", [True]),
    ("analyze stability", "alpha", True),
    ("identify", "window", [0, True]),
    ("estimate", "xhat0", [True, False]),
    ("estimate", "Q", [[1.0, False], [0.0, 1.0]]),
])
def test_null_or_short_config_value_exits_2(tmp_path, capsys, scalar_model_file,
                                            short_trajectory_file, command, key, value):
    path, config, argv, out = _small_run(tmp_path, scalar_model_file, short_trajectory_file,
                                         command)
    config[key] = value
    path.write_text(json.dumps(config))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{key} must" in err and "Traceback" not in err
    assert not out.exists()


def _small_run(tmp_path, scalar_model_file, short_trajectory_file, command) -> tuple:
    """(config path, config, argv, primary output) of a short run of ``command``."""
    path, out = tmp_path / "config.json", tmp_path / "out.csv"
    if command == "mpc":
        config = {"model": scalar_model_file, "p": 3, "horizon": 4, "control_horizon": 2,
                  "K": 4, "seed": 1, "sigma": 0.1, "x0": [1.0], "out": str(out)}
        argv = ["mpc", str(path)]
    elif command == "identify":
        config = {"trajectory": short_trajectory_file, "depth": 10, "epsilon": 1e-2,
                  "window": [0, 20]}
        out = tmp_path / "m.json"
        argv = ["identify", "--trajectory", short_trajectory_file, "--config", str(path),
                "--out-model", str(out), "--out-diag", str(tmp_path / "d.csv")]
    elif command == "simulate":
        config = {"model": scalar_model_file, "steps": 5, "seed": 1, "sigma": 0.1, "dt": 0.5,
                  "x0": [1.0]}
        argv = ["simulate", "--config", str(path), "--out", str(out)]
    elif command == "estimate":
        config = {"v": 2, "Q": 1.0, "R": 0.05, "P0": 1.0, "xhat0": [1.0, -0.5]}
        net_path, traj_path = _write_network_files(tmp_path, 30)
        argv = ["estimate", "--model", net_path, "--trajectory", traj_path,
                "--config", str(path), "--out", str(out)]
    else:
        config = {"model": scalar_model_file, "horizon": 4, "alpha": 0.5,
                  "fopid": [1.0, 1.0, 0.0, 0.5, 1.0], "omega_points": 3}
        argv = command.split() + ["--config", str(path), "--out", str(out)]
    return path, config, argv, out


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "steps", 3.9),
    ("simulate", "seed", 1.5),
    ("mpc", "horizon", 4.5),
    ("analyze bode", "omega_points", 3.5),
    ("identify", "depth", 10.5),
    ("identify", "window", [0, 20.5]),
    ("estimate", "v", 2.5),
    ("mpc", "p", 3.5),
    ("mpc", "control_horizon", 1.5),
    ("mpc", "K", 2.7),
])
def test_fractional_value_of_an_integer_option_exits_2(tmp_path, capsys, scalar_model_file,
                                                      short_trajectory_file, command, key,
                                                      value):
    path, config, argv, out = _small_run(tmp_path, scalar_model_file, short_trajectory_file,
                                         command)
    config[key] = value
    path.write_text(json.dumps(config))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a whole number" in err and "Traceback" not in err
    assert not out.exists()


def test_whole_float_value_of_an_integer_option_is_accepted(tmp_path, scalar_model_file,
                                                           short_trajectory_file):
    path, config, argv, out = _small_run(tmp_path, scalar_model_file, short_trajectory_file,
                                         "simulate")
    config["steps"] = 4.0
    path.write_text(json.dumps(config))
    assert run_cli(*argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 5


_JUNK = st.one_of(
    st.none(),
    st.sampled_from(["", "x", "1,2", "-1", "nan"]),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3), min_size=1, max_size=3),
    st.integers(-2, 4),
    st.floats(-2.0, 2.0),
)
#: Scenario keys the fuzz test overrides; "K" stays at most 5 so each run is short.
_FUZZED = {key: _JUNK for key in ("p", "horizon", "control_horizon", "Q", "R", "c", "x0",
                                  "u_lo", "u_hi", "bounds", "seed", "sigma")}
_FUZZED["K"] = st.one_of(_JUNK.filter(lambda v: not isinstance(v, (int, float)) or v <= 5))


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.fixed_dictionaries({}, optional=_FUZZED))
def test_mpc_scenario_fuzz_keeps_the_exit_contract(tmp_path, capsys, overrides):
    model = tmp_path / "plant.json"
    write_model(str(model), FosModel(alpha=[0.5, 0.8], A=[[-0.2, 0.1], [0.0, -0.3]],
                                     B=[[1.0], [0.5]], Bw=np.eye(2)))
    scenario = {"model": str(model), "p": 3, "horizon": 3, "control_horizon": 1, "K": 3,
                "seed": 1, "sigma": 0.1, "out": str(tmp_path / "run.csv")}
    scenario.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("mpc", str(path)) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


_SIM_FUZZED = {key: _JUNK for key in ("x0", "seed", "sigma", "dt")}
_SIM_FUZZED["steps"] = _FUZZED["K"]


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.fixed_dictionaries({}, optional=_SIM_FUZZED))
def test_simulate_config_fuzz_keeps_the_exit_contract(tmp_path, capsys, scalar_model_file,
                                                      overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict({"model": scalar_model_file, "steps": 3}, **overrides)))
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "t.csv"))
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


_TERMS = st.one_of(_JUNK, st.sampled_from(["1:0", "1:0.5,2:1", "1:x", ":", "0"]))
_ANA_FUZZED = {key: _JUNK for key in ("alpha", "horizon", "fopid", "omega_start",
                                      "omega_stop", "omega_points")}
_ANA_FUZZED.update(num=_TERMS, den=_TERMS)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(what=st.sampled_from(["stability", "gramians", "bode"]),
       overrides=st.fixed_dictionaries({}, optional=_ANA_FUZZED))
def test_analyze_config_fuzz_keeps_the_exit_contract(tmp_path, capsys, what, overrides):
    model = tmp_path / "m.json"
    write_model(str(model), FosModel(alpha=[0.5, 0.8], A=[[-0.2, 0.1], [0.0, -0.3]],
                                     B=[[1.0], [0.5]]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict({"model": str(model)}, **overrides)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_cli("analyze", what, "--config", str(path), "--out", str(tmp_path / "r"))
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


_EST_FUZZED = {key: _JUNK for key in ("v", "Q", "R", "P0", "xhat0")}


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.fixed_dictionaries({}, optional=_EST_FUZZED))
def test_estimate_config_fuzz_keeps_the_exit_contract(tmp_path, capsys, overrides):
    net_path, traj_path = _write_network_files(tmp_path, 8)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("estimate", "--model", net_path, "--trajectory", traj_path,
                       "--config", str(path), "--out", str(tmp_path / "e.csv"))
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]


_CELL = st.one_of(st.sampled_from(["", " ", "x", "nan", "inf", "1e400", "-0"]),
                  st.floats(-2.0, 2.0).map(repr), st.integers(-3, 3).map(str))
_HEADER = st.lists(st.sampled_from(["t", "x1", "x2", "u1", "y1", "y2", "z", ""]),
                   min_size=0, max_size=6)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_HEADER, rows=st.lists(st.lists(_CELL, max_size=7), max_size=6))
def test_trajectory_reader_fuzz_keeps_the_exit_contract(tmp_path, capsys, header, rows):
    net_path, _ = _write_network_files(tmp_path, 1)
    traj_path = tmp_path / "fuzz.csv"
    traj_path.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("estimate", "--model", net_path, "--trajectory", str(traj_path),
                       "--v", "2", "--out", str(tmp_path / "e.csv"))
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("model, field", [
    ({"state_terms": None}, "state term"),
    ({"state_terms": 5}, "state_terms"),
    ({"state_terms": [5]}, "state_terms"),
    ({"state_terms": [{"exponent": None, "matrix": [[0.1]]}]}, "state term"),
    ({"state_terms": [{"exponent": 0.5, "matrix": None}]}, "state term must be numbers"),
    ({"state_terms": [{"exponent": 0.5, "matrix": [[1.0]]}], "C": [[float("nan")]]},
     "C entries must be finite"),
    ({"alpha": [0.5], "A": [[None]]}, "A entries must be finite"),
    ({"alpha": [0.5], "A": [[0.2]], "B": [[None]]}, "B entries must be finite"),
    ({"alpha": [0.5], "A": [[0.2]], "Bw": [[float("inf")]]}, "Bw entries must be finite"),
    ({"alpha": [0.5], "A": [[0.2]], "n": None}, "declared n"),
    ([1.0], "JSON object"),
    # JSON true/false are not numbers
    ({"alpha": [True, 0.7], "A": [[-0.2, 0.0], [0.0, -0.3]]}, "alpha must be numbers"),
    ({"alpha": [0.5, 0.7], "A": [[-0.2, False], [0.0, -0.3]]}, "A must be numbers"),
    ({"alpha": [0.5], "A": [[0.2]], "n": True}, "declared n"),
    ({"alpha": [0.5], "A": [[0.2]], "B": [[1.0]], "m": True}, "declared m"),
    ({"alpha": [0.5], "A": [[0.2]], "Bw": [[True]]}, "Bw must be numbers"),
    ({"state_terms": [{"exponent": True, "matrix": [[1.0]]}]}, "state_terms"),
    ({"state_terms": [{"exponent": 0.5, "matrix": [[1.0]]}], "C": [[True]]}, "C must be numbers"),
])
def test_bad_model_file_exits_2_naming_the_field(tmp_path, capsys, model, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    assert run_cli("simulate", "--model", str(path), "--steps", "5",
                   "--out", str(tmp_path / "t.csv")) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


_NUMBER = st.one_of(st.floats(-2.0, 2.0),
                  st.sampled_from([float("nan"), float("inf"), float("-inf")]))
_MODEL_JUNK = st.one_of(
    st.none(),
    st.sampled_from(["", "x", "0.5", [], [[]], {}, {"a": 1}]),
    _NUMBER,
    st.integers(-2, 3),
    st.lists(st.one_of(_NUMBER, st.none()), max_size=3),
    # square, ragged or 3-D nests with a null or string entry now and then
    st.lists(st.lists(st.one_of(_NUMBER, st.none(), st.just("x")), max_size=3),
             min_size=1, max_size=3),
    st.lists(st.lists(st.lists(_NUMBER, min_size=1, max_size=2), min_size=1, max_size=2),
             min_size=1, max_size=2),
)
_TERM = st.one_of(_MODEL_JUNK, st.fixed_dictionaries(
    {"exponent": st.one_of(_MODEL_JUNK, st.floats(0.1, 1.5)),
     "matrix": st.one_of(_MODEL_JUNK, st.just([[1.0, 0.0], [0.0, 1.0]]))}))
#: Field overrides of a valid two-state FosModel file and of a valid network file.
_FOS_FIELDS = {key: _MODEL_JUNK for key in ("alpha", "A", "B", "Bw", "n", "m")}
_NET_FIELDS = {key: st.one_of(_MODEL_JUNK, st.lists(_TERM, max_size=2))
               for key in ("state_terms", "input_terms", "disturbance_terms")}
_NET_FIELDS["C"] = _MODEL_JUNK


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(network=st.booleans(),
       fos=st.fixed_dictionaries({}, optional=_FOS_FIELDS),
       net=st.fixed_dictionaries({}, optional=_NET_FIELDS))
def test_model_reader_fuzz_keeps_the_exit_contract(tmp_path, capsys, network, fos, net):
    if network:
        model = model_to_dict(MultiTermNetwork(
            state_terms=((0.6, np.eye(2)),), input_terms=((0.5, [[1.0], [1.0]]),),
            disturbance_terms=((0.7, np.eye(2)),), C=np.eye(2)))
        model.update(net)
    else:
        model = model_to_dict(FosModel(alpha=[0.5, 0.8], A=[[-0.2, 0.1], [0.0, -0.3]],
                                       B=[[1.0], [0.5]], Bw=np.eye(2)))
        model.update(fos)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    assert run_cli("simulate", "--model", str(path), "--steps", "5", "--seed", "1",
                   "--sigma", "0.1", "--out", str(tmp_path / "t.csv")) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    for what in ("stability", "gramians"):
        assert run_cli("analyze", what, "--model", str(path),
                       "--out", str(tmp_path / "o.json")) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


def _pinned_inputs() -> None:
    """Model, network and trajectory files, by relative name, in the working directory."""
    write_model("model.json", FosModel(alpha=[0.5, 0.8], A=[[-0.2, 0.1], [0.0, -0.3]],
                                       B=[[1.0], [0.5]], Bw=np.eye(2)))
    _write_network_files(pathlib.Path(), 40)


#: subcommand -> (config file, flags, primary outputs).  The flags override some
#: of the file's keys, so each run goes through the config-plus-flags merge.  The
#: manifest sits beside the first output.
_PINNED_RUNS = {
    "simulate": ({"model": "model.json", "steps": 5, "seed": 3, "sigma": 0.2,
                  "x0": [1.0, -1.0], "dt": 0.5},
                 ("simulate", "--steps", "12", "--sigma", "0.1", "--out", "sim.csv"),
                 ("sim.csv",)),
    "analyze": ({"fopid": [1.0, 1.0, 0.0, 0.5, 1.0], "omega_start": 0.1, "omega_stop": 10.0,
                 "omega_points": 50},
                ("analyze", "bode", "--omega-points", "7", "--out", "bode.csv"), ("bode.csv",)),
    "identify": ({"depth": 10, "epsilon": 1e-2, "window": [0, 35]},
                 ("identify", "--trajectory", "meas.csv", "--depth", "5",
                  "--out-model", "id.json", "--out-diag", "diag.csv"), ("id.json", "diag.csv")),
    "estimate": ({"v": 2, "Q": 1.0, "R": 0.05, "P0": 1.0, "xhat0": [1.0, -0.5]},
                 ("estimate", "--model", "net.json", "--trajectory", "meas.csv", "--v", "3",
                  "--out", "est.csv"), ("est.csv", "est.csv.summary.json")),
    "mpc": ({"model": "model.json", "p": 3, "horizon": 4, "control_horizon": 2, "Q": 1.0,
             "R": 0.1, "u_lo": -0.5, "u_hi": 0.5, "K": 10, "seed": 2, "sigma": 0.1,
             "x0": [1.0, 0.0], "out": "cfg.csv"},
            ("mpc", "--steps", "12", "--bounds=-0.3,0.3", "--out", "mpc.csv"),
            ("mpc.csv", "mpc.csv.summary.json")),
}


def _pinned_run(command: str) -> tuple:
    """(manifest config_digest, sha256 of the primary outputs) of one pinned run."""
    config, argv, outs = _PINNED_RUNS[command]
    _pinned_inputs()
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    if command == "mpc":
        argv = argv[:1] + ("config.json",) + argv[1:]
    else:
        argv = argv + ("--config", "config.json")
    assert run_cli(*argv) == 0
    with open(outs[0] + ".manifest.json") as fh:
        digest = json.load(fh)["config_digest"]
    sha = hashlib.sha256()
    for out in outs:
        with open(out, "rb") as fh:
            sha.update(fh.read())
    return digest, sha.hexdigest()


#: Taken from the code before the options merge was derived from the parser.
#: The estimate output hash was re-taken when the filter step began to
#: assemble M from the lift's rows: every value of est.csv agreed with the
#: dense step's to 4.4e-14 relative, and its config digest is unchanged.
_PINNED = {
    "analyze": ("631c6b13ceca67fa2770a53bb3d193937483d3213897ad898420d06df1ddd5ad",
                "1788bd9d154fcf11fea8231262c8053feaa76c88388632c106ce1335d854e0a3"),
    "estimate": ("3d1c28e0f219406832aebbe2c94a2538e467ae724b7854b5e5dc48e544464d66",
                 "1ed5998860650e0d2720cab74609544f1ba82c5babd4320d9ec37072a2a927bf"),
    "identify": ("03cfc1f3ee326c49407dd4296e4906e000de0c16822c075889a572675d769224",
                 "b71c7022b8a94c9ee03c7b836362cc560ee74160e885fc3ae8c362071bdfaf6a"),
    "mpc": ("93a480ada58b8aadd51ea37fa45227258f80e5890481c1e6fbe0742aa0f2c42b",
            "612783ddde16743910fef5de28d1be71d52e505823b39796a73d56c2d451cffb"),
    "simulate": ("4782e1c04d281c127d5918a446854865f8899f774c682a2a6d01b63f0e646891",
                 "cf8f8a7d838af46d2c468e682c637c7590a927ea8a938bd91086f36f118932c5"),
}


@pytest.mark.parametrize("command", sorted(_PINNED_RUNS))
def test_config_digest_and_output_bytes_are_pinned(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert _pinned_run(command) == _PINNED[command]
