import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracdyn import FosModel, MultiTermNetwork, simulate_network, Trajectory
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
    assert open(out1, "rb").read() == open(out2, "rb").read()
    m1 = json.load(open(out1 + ".manifest.json"))
    m2 = json.load(open(out2 + ".manifest.json"))
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
    assert open(out).read() == open(back).read()


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
    rep = json.load(open(out))
    assert rep["test"] == "commensurate-sector"
    assert rep["verdict"] in {"stable", "unstable", "marginal"}

    out2 = str(tmp_path / "gram.json")
    assert run_cli("analyze", "gramians", "--model", scalar_model_file,
                   "--horizon", "4", "--out", out2) == 0
    rep2 = json.load(open(out2))
    assert rep2["controllability"]["controllable"] is True
    assert rep2["observability"]["observable"] is True


def test_analyze_noncommensurate_heuristic(tmp_path):
    path = str(tmp_path / "mixed.json")
    write_model(path, FosModel(alpha=[0.5, 0.9], A=[[0.1, 0.0], [0.0, 0.1]]))
    out = str(tmp_path / "stab.json")
    assert run_cli("analyze", "stability", "--model", path, "--out", out) == 0
    rep = json.load(open(out))
    assert rep["test"] == "heuristic-lift-spectral-radius"
    assert "heuristic" in rep["verdict"]


def test_analyze_gramians_singular_exits_3(tmp_path):
    # alpha = 1 with A = -I makes G_1 = 0: the conjugated Gramian is undefined
    path = str(tmp_path / "sing.json")
    write_model(path, FosModel(alpha=[1.0], A=[[-1.0]], B=[[1.0]]))
    out = str(tmp_path / "g.json")
    assert run_cli("analyze", "gramians", "--model", path,
                   "--horizon", "2", "--out", out) == 3


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
    summary = json.load(open(out + ".summary.json"))
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
    summary = json.load(open(out + ".summary.json"))
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
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


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
    "PoleError": 3,
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


@pytest.mark.parametrize("extra, option", [
    (("--x0", "nan"), "x0"),
    (("--x0", "1", "--sigma", "nan", "--seed", "1"), "sigma"),
])
def test_simulate_non_finite_option_exits_2_naming_it(tmp_path, capsys, scalar_model_file,
                                                       extra, option):
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", scalar_model_file, *extra, "--steps", "5",
                   "--out", str(out)) == 2
    assert f"{option} must be finite" in capsys.readouterr().err
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


@pytest.fixture
def short_trajectory_file(tmp_path, scalar_model_file):
    path = str(tmp_path / "traj.csv")
    assert run_cli("simulate", "--model", scalar_model_file, "--x0", "1.0",
                   "--steps", "30", "--out", path) == 0
    return path


@pytest.mark.parametrize("command, key, value", [
    ("mpc", "bounds", [0.1]),
    ("mpc", "seed", None),
    ("mpc", "sigma", None),
    ("mpc", "horizon", None),
    ("identify", "window", [5]),
    ("identify", "depth", None),
    ("identify", "epsilon", None),
])
def test_null_or_short_config_value_exits_2(tmp_path, capsys, scalar_model_file,
                                            short_trajectory_file, command, key, value):
    if command == "mpc":
        config = {"model": scalar_model_file, "p": 3, "horizon": 4, "control_horizon": 2,
                  "K": 4, "seed": 1, "sigma": 0.1, "x0": [1.0], "out": str(tmp_path / "r.csv")}
    else:
        config = {"trajectory": short_trajectory_file, "depth": 10, "epsilon": 1e-2,
                  "window": [0, 20]}
    config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if command == "mpc":
        code = run_cli("mpc", str(path))
    else:
        code = run_cli("identify", "--trajectory", short_trajectory_file, "--config", str(path),
                       "--out-model", str(tmp_path / "m.json"),
                       "--out-diag", str(tmp_path / "d.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


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


@pytest.mark.parametrize("model, field", [
    ({"state_terms": None}, "state term"),
    ({"state_terms": 5}, "state_terms"),
    ({"state_terms": [5]}, "state_terms"),
    ({"state_terms": [{"exponent": None, "matrix": [[0.1]]}]}, "state term"),
    ({"state_terms": [{"exponent": 0.5, "matrix": None}]}, "state term entries must be finite"),
    ({"state_terms": [{"exponent": 0.5, "matrix": [[1.0]]}], "C": [[float("nan")]]},
     "C entries must be finite"),
    ({"alpha": [0.5], "A": [[None]]}, "A entries must be finite"),
    ({"alpha": [0.5], "A": [[0.2]], "B": [[None]]}, "B entries must be finite"),
    ({"alpha": [0.5], "A": [[0.2]], "Bw": [[float("inf")]]}, "Bw entries must be finite"),
    ({"alpha": [0.5], "A": [[0.2]], "n": None}, "declared n"),
    ([1.0], "JSON object"),
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
