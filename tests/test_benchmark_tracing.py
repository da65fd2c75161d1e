"""The benchmark's traced runs keep working on the current sources.

``benchmarks/tracing.py`` wraps fracdyn's functions at the module attributes
where one module calls another, and its per-layer figures read 0 for a wrapper
that is never called.  A fresh interpreter installs the tracing, runs each CLI
subcommand through ``fracdyn.cli.main`` and reports the exit codes and the span
names recorded, so a renamed or bypassed boundary fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracdyn

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

SCRIPT = r"""
import json, os, sys

work = sys.argv[1]
import tracing

recorder = tracing.Recorder("tracing-guard")
tracing.install(recorder)
import fracdyn.cli

def path(name):
    return os.path.join(work, name)

with open(path("fos.json"), "w") as fh:
    json.dump({"alpha": [0.5, 0.7], "A": [[-0.2, 0.1], [0.0, -0.3]],
               "B": [[1.0], [0.5]]}, fh)
with open(path("net.json"), "w") as fh:
    json.dump({"state_terms": [{"exponent": 0.6, "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
               "input_terms": [{"exponent": 0.5, "matrix": [[1.0], [1.0]]}],
               "disturbance_terms": [{"exponent": 0.7, "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
               "C": [[1.0, 0.0], [0.0, 1.0]]}, fh)
with open(path("schedule.json"), "w") as fh:
    json.dump({"R": [[[1.0, 0.0], [0.0, 1.0]]] * 21}, fh)  # a per-step R keeps me_filter_step
with open(path("scenario.json"), "w") as fh:
    json.dump({"model": path("fos.json"), "p": 4, "horizon": 5, "control_horizon": 1,
               "Q": 1.0, "R": 0.1, "u_lo": -0.2, "u_hi": 0.2, "K": 6, "seed": 4,
               "sigma": 0.1, "x0": [1.0, -0.5]}, fh)
jobs = [
    ("simulate", "--model", path("fos.json"), "--x0", "1.0,-0.5", "--steps", "40",
     "--seed", "3", "--sigma", "0.01", "--out", path("traj.csv")),
    ("identify", "--trajectory", path("traj.csv"), "--depth", "10", "--epsilon", "1e-2",
     "--window", "0,30", "--out-model", path("ident.json"), "--out-diag", path("diag.csv")),
    ("analyze", "gramians", "--model", path("fos.json"), "--horizon", "3",
     "--out", path("gram.json")),
    ("analyze", "stability", "--model", path("fos.json"), "--horizon", "5",
     "--out", path("stab.json")),
    ("simulate", "--model", path("net.json"), "--x0", "1.0,-0.5", "--steps", "20",
     "--seed", "2", "--sigma", "0.01", "--out", path("net.csv")),
    ("estimate", "--model", path("net.json"), "--trajectory", path("net.csv"), "--v", "3",
     "--out", path("est.csv")),
    ("estimate", "--model", path("net.json"), "--trajectory", path("net.csv"), "--v", "3",
     "--config", path("schedule.json"), "--out", path("est_schedule.csv")),
    ("mpc", path("scenario.json"), "--out", path("run.csv")),
]
codes = [[job[0], fracdyn.cli.main(list(job))] for job in jobs]
with open(path("result.json"), "w") as fh:
    json.dump({"codes": codes, "spans": sorted({span[2] for span in recorder.spans}),
               "boundaries": sorted({entry[2] for entry in tracing.BOUNDARIES})}, fh)
"""


def test_traced_cli_runs_reach_every_boundary(tmp_path):
    src = str(Path(fracdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, str(BENCHMARKS), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert all(code == 0 for _, code in result["codes"]), result["codes"]
    missing = set(result["boundaries"]) - set(result["spans"])
    assert not missing, f"boundaries without a span: {sorted(missing)}"
    assert {"cli.main", "simulate.FosSimulator.step"} <= set(result["spans"])
