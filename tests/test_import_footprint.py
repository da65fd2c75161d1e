"""Import footprint: fracdyn imports numpy only, so no stage loads scipy.

Every CLI call is a fresh process, so any scipy import would be paid by the
subcommand that makes it.  A fresh interpreter imports fracdyn, runs every
subcommand through ``fracdyn.cli.main`` and closed loops with soft and hard
state rows, and records the scipy modules loaded after each stage.

Cold start is paid the same way.  ``import fracdyn`` loads neither numpy nor
a submodule, and a name taken from it loads only its module's imports.
Neither the CLI nor ``fileio`` loads ``dataclasses`` or ``hashlib`` (which
only a manifest's digest needs) at import.

A cold ``python -m fracdyn`` job loads, of the stage modules ``analysis``,
``sysid``, ``estimate`` and ``mpc``, only the one its subcommand runs, and a
failure after that deferred import still exits 2 with one stderr line.  It
loads ``simulate`` only when it steps a model: ``simulate``, ``mpc`` and
``analyze`` (whose ``analysis`` runs the simulator), never ``identify`` or
``estimate``.
"""

import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracdyn
from fracdyn import FosModel, MultiTermNetwork, simulate_fos, simulate_network
from fracdyn.fileio import write_model, write_trajectory

#: The modules of the stages that only one subcommand runs.
STAGES = ("fracdyn.analysis", "fracdyn.estimate", "fracdyn.mpc", "fracdyn.sysid")

#: The modules a cold subcommand is checked for: the stages and the simulator.
TRACKED = (*STAGES, "fracdyn.simulate")


def _env() -> dict:
    """This environment with the tested fracdyn first on PYTHONPATH."""
    src = str(Path(fracdyn.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


SCRIPT = r"""
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

work = sys.argv[1]
stages = {}
import fracdyn
stages["import fracdyn"] = scipy_modules()
import fracdyn.cli
from fracdyn.cli import main
stages["import fracdyn.cli"] = scipy_modules()

def path(name):
    return os.path.join(work, name)

def run(*argv):
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")

with open(path("fos.json"), "w") as fh:
    json.dump({"alpha": [0.5, 0.7], "A": [[-0.2, 0.1], [0.0, -0.3]],
               "B": [[1.0], [0.5]]}, fh)
with open(path("net.json"), "w") as fh:
    json.dump({"state_terms": [{"exponent": 0.6, "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
               "input_terms": [{"exponent": 0.5, "matrix": [[1.0], [1.0]]}],
               "disturbance_terms": [{"exponent": 0.7, "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
               "C": [[1.0, 0.0], [0.0, 1.0]]}, fh)
with open(path("est.json"), "w") as fh:
    json.dump({"Q": 1.0, "R": 0.05, "P0": 1.0, "xhat0": [1.0, -0.5]}, fh)

run("simulate", "--model", path("fos.json"), "--x0", "1.0,-0.5", "--steps", "40",
    "--seed", "3", "--sigma", "0.01", "--out", path("traj.csv"))
stages["simulate"] = scipy_modules()
run("identify", "--trajectory", path("traj.csv"), "--depth", "20", "--epsilon", "1e-2",
    "--window", "0,30", "--out-model", path("ident.json"), "--out-diag", path("diag.csv"))
stages["identify"] = scipy_modules()
run("analyze", "stability", "--model", path("fos.json"), "--out", path("stab.json"))
run("analyze", "gramians", "--model", path("fos.json"), "--horizon", "3",
    "--out", path("gram.json"))
run("analyze", "bode", "--fopid", "1,1,0,0.5,1", "--omega-start", "1", "--omega-stop", "10",
    "--omega-points", "3", "--out", path("bode.csv"))
stages["analyze"] = scipy_modules()
run("simulate", "--model", path("net.json"), "--x0", "1.0,-0.5", "--steps", "20",
    "--seed", "2", "--sigma", "0.01", "--out", path("net.csv"))
stages["network simulate"] = scipy_modules()
with open(path("scenario.json"), "w") as fh:
    json.dump({"model": path("fos.json"), "p": 4, "horizon": 5, "control_horizon": 2,
               "Q": 1.0, "R": 0.1, "u_lo": -0.2, "u_hi": 0.2, "K": 8, "seed": 4,
               "sigma": 0.1, "x0": [1.0, -0.5]}, fh)
run("mpc", path("scenario.json"), "--out", path("run.csv"))
from fracdyn import FosModel, MpcProblem, run_closed_loop
plant = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
for hard in (False, True):
    problem = MpcProblem(p=4, P=5, M=2, Q=1.0, R=0.1, u_lo=-1.0, u_hi=1.0,
                         state_H=[[1.0, 0.0]], state_h=[0.8], hard_state=hard)
    run_closed_loop(plant, problem, 8, 4, x0=[1.0, -0.5], noise_sigma=0.1)
stages["mpc"] = scipy_modules()
run("estimate", "--model", path("net.json"), "--trajectory", path("net.csv"), "--v", "3",
    "--config", path("est.json"), "--out", path("est.csv"))
stages["estimate"] = scipy_modules()

with open(path("stages.json"), "w") as fh:
    json.dump(stages, fh)
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    work = tmp_path_factory.mktemp("footprint")
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(work)], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads((work / "stages.json").read_text())


@pytest.mark.parametrize("stage", ["import fracdyn", "import fracdyn.cli", "simulate",
                                   "identify", "analyze", "network simulate", "mpc",
                                   "estimate"])
def test_scipy_free_stage_loads_no_scipy(stages, stage):
    assert stages[stage] == []


#: (statement run in a fresh interpreter, modules that must not be loaded after it)
COLD_STARTS = [
    ("import fracdyn", ["numpy", "fracdyn.*"]),
    ("from fracdyn import simulate_fos", list(STAGES)),
    ("import fracdyn.cli", ["dataclasses", *STAGES]),
    ("import fracdyn.fileio", ["hashlib"]),
]


@pytest.mark.parametrize("statement,absent", COLD_STARTS, ids=[s for s, _ in COLD_STARTS])
def test_a_cold_import_loads_only_what_it_uses(statement, absent):
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "fracdyn" in loaded
    # errors, a dozen exception classes, may load with the package
    found = sorted(name for name in loaded - {"fracdyn.errors"}
                   if any(fnmatch.fnmatchcase(name, pattern) for pattern in absent))
    assert found == []


def cold_cli(cwd, *argv) -> tuple:
    """Run ``python -m fracdyn *argv`` in ``cwd``: exit code, stderr lines, ``TRACKED`` loaded.

    ``-X importtime`` writes a line to stderr for each module as it is first
    imported; the other stderr lines are the CLI's own.
    """
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "fracdyn", *argv],
                          env=_env(), cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = done.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:")}
    own = [line for line in lines if not line.startswith("import time:")]
    return done.returncode, own, sorted(imported.intersection(TRACKED))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory holding a mixed-order model, a network, their runs and two scenarios."""
    work = tmp_path_factory.mktemp("cold_cli")
    fos = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    net = MultiTermNetwork(state_terms=[(0.6, [[1.0, 0.0], [0.0, 1.0]])],
                           input_terms=[(0.5, [[1.0], [1.0]])],
                           disturbance_terms=[(0.7, [[1.0, 0.0], [0.0, 1.0]])],
                           C=[[1.0, 0.0], [0.0, 1.0]])
    write_model(str(work / "fos.json"), fos)
    write_model(str(work / "net.json"), net)
    write_trajectory(str(work / "traj.csv"),
                     simulate_fos(fos, [1.0, -0.5], K=40, w=3, noise_sigma=0.01))
    write_trajectory(str(work / "net.csv"),
                     simulate_network(net, [1.0, -0.5], K=20, w=2))
    scenario = {"model": "fos.json", "p": 4, "horizon": 5, "control_horizon": 2, "Q": 1.0,
                "R": 0.1, "u_lo": -0.2, "u_hi": 0.2, "K": 8, "seed": 4, "sigma": 0.1,
                "x0": [1.0, -0.5]}
    (work / "scenario.json").write_text(json.dumps(scenario))
    (work / "lost.json").write_text(json.dumps(dict(scenario, model="missing.json")))
    return work


#: (subcommand, its arguments, expected exit code, ``TRACKED`` modules it loads)
FOOTPRINTS = [
    ("simulate", ["simulate", "--model", "fos.json", "--x0", "1,-0.5", "--steps", "5",
                  "--out", "sim.csv"], 0, ["fracdyn.simulate"]),
    ("network simulate", ["simulate", "--model", "net.json", "--steps", "5",
                          "--out", "netsim.csv"], 0, ["fracdyn.simulate"]),
    ("identify", ["identify", "--trajectory", "traj.csv", "--depth", "10", "--epsilon", "1e-2",
                  "--out-model", "ident.json", "--out-diag", "diag.csv"], 0, ["fracdyn.sysid"]),
    ("analyze stability", ["analyze", "stability", "--model", "fos.json",
                           "--out", "stab.json"], 0, ["fracdyn.analysis", "fracdyn.simulate"]),
    ("analyze gramians", ["analyze", "gramians", "--model", "fos.json", "--horizon", "3",
                          "--out", "gram.json"], 0, ["fracdyn.analysis", "fracdyn.simulate"]),
    ("analyze bode", ["analyze", "bode", "--fopid", "1,1,0,0.5,1", "--omega-points", "3",
                      "--out", "bode.csv"], 0, ["fracdyn.analysis", "fracdyn.simulate"]),
    ("estimate", ["estimate", "--model", "net.json", "--trajectory", "net.csv", "--v", "2",
                  "--out", "est.csv"], 0, ["fracdyn.estimate"]),
    ("mpc", ["mpc", "scenario.json", "--out", "run.csv"], 0, ["fracdyn.mpc", "fracdyn.simulate"]),
    ("--version", ["--version"], 0, []),
    ("usage error", ["simulate", "--steps", "x", "--out", "bad.csv"], 2, []),
]


@pytest.mark.parametrize("argv,code,stages", [case[1:] for case in FOOTPRINTS],
                         ids=[case[0] for case in FOOTPRINTS])
def test_a_cold_subcommand_loads_only_its_own_stage(cli_files, argv, code, stages):
    returned, own, loaded = cold_cli(cli_files, *argv)
    assert returned == code, own
    assert loaded == stages


#: (subcommand, arguments that fail after its stage module is imported, ``TRACKED`` loaded)
LATE_FAILURES = [
    ("identify", ["identify", "--trajectory", "missing.csv", "--out-model", "m.json",
                  "--out-diag", "m.csv"], ["fracdyn.sysid"]),
    ("estimate", ["estimate", "--model", "fos.json", "--trajectory", "net.csv",
                  "--out", "e.csv"], ["fracdyn.estimate"]),
    ("mpc", ["mpc", "lost.json", "--out", "r.csv"], ["fracdyn.mpc", "fracdyn.simulate"]),
    ("analyze", ["analyze", "stability", "--model", "fos.json", "--horizon", "0",
                 "--out", "h.json"], ["fracdyn.analysis", "fracdyn.simulate"]),
]


@pytest.mark.parametrize("command,argv,stages", LATE_FAILURES,
                         ids=[case[0] for case in LATE_FAILURES])
def test_a_cold_failure_after_the_stage_import_exits_2_with_one_line(cli_files, command, argv,
                                                                     stages):
    returned, own, loaded = cold_cli(cli_files, *argv)
    assert returned == 2
    assert len(own) == 1 and own[0].startswith(f"fracdyn {command}: "), own
    assert loaded == stages
    assert not (cli_files / argv[-1]).exists()
