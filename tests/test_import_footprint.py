"""Import footprint: fracdyn imports numpy only, so no stage loads scipy.

Every CLI call is a fresh process, so any scipy import would be paid by the
subcommand that makes it.  A fresh interpreter imports fracdyn, runs every
subcommand through ``fracdyn.cli.main`` and closed loops with soft and hard
state rows, and records the scipy modules loaded after each stage.

Cold start is paid the same way.  ``import fracdyn`` loads neither numpy nor
a submodule, and a name taken from it loads only its module's imports.
Neither the CLI nor ``fileio`` loads ``dataclasses`` or ``hashlib`` (which
only a manifest's digest needs) at import.
"""

import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracdyn

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
    src = str(Path(fracdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(work)], env=env,
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
    ("from fracdyn import simulate_fos",
     ["fracdyn.sysid", "fracdyn.estimate", "fracdyn.mpc", "fracdyn.analysis"]),
    ("import fracdyn.cli", ["dataclasses"]),
    ("import fracdyn.fileio", ["hashlib"]),
]


@pytest.mark.parametrize("statement,absent", COLD_STARTS, ids=[s for s, _ in COLD_STARTS])
def test_a_cold_import_loads_only_what_it_uses(statement, absent):
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    src = str(Path(fracdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "fracdyn" in loaded
    # errors, a dozen exception classes, may load with the package
    found = sorted(name for name in loaded - {"fracdyn.errors"}
                   if any(fnmatch.fnmatchcase(name, pattern) for pattern in absent))
    assert found == []
