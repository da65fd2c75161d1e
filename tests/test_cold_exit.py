"""The cold job's exit: ``python -m fracdyn`` skips teardown and changes nothing else.

``cli.entry`` ends a cold job by ``os._exit`` once ``main`` has returned and
stdout and stderr are flushed.  Each case runs ``python -m fracdyn`` in a
fresh interpreter and compares it with ``main`` run in process on the same
files: the exit code, every stderr line, stdout and every file written.  The
normal exit stays where teardown is read: a profiler's report, a closed
stdout, a broken pipe.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracdyn
from fracdyn import FosModel, MultiTermNetwork, simulate_fos, simulate_network
from fracdyn.cli import main
from fracdyn.fileio import write_model, write_trajectory


def _env() -> dict:
    """This environment with the tested fracdyn first on PYTHONPATH, BLAS on one thread.

    PYTHONUNBUFFERED is dropped: a redirected stdout is then block-buffered,
    as a shell gives it, and holds its text until a flush.
    """
    src = str(Path(fracdyn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def cold(cwd, *args, head=("-m", "fracdyn"), **popen) -> subprocess.CompletedProcess:
    """``python *head *args`` in ``cwd``; stdout and stderr captured unless ``popen`` says."""
    popen.setdefault("capture_output", "stdout" not in popen)
    return subprocess.run([sys.executable, *head, *args], env=_env(), cwd=cwd, text=True,
                          timeout=120, **popen)


#: ``python -m fracdyn`` and ``main`` as statements for ``python -c``, after a set-up
RUN = "import runpy\nrunpy.run_module('fracdyn', run_name='__main__')\n"
MAIN = "import sys\nfrom fracdyn.cli import main\nsys.exit(main(sys.argv[1:]))\n"

BODE = ["analyze", "bode", "--fopid", "1,1,0,0.5,1", "--omega-points", "3", "--out", "bode.csv"]
NOTE = "note: fractional powers of j*omega evaluated on the principal branch\n"


def files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _inputs(work: Path) -> None:
    fos = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    net = MultiTermNetwork(state_terms=[(0.6, [[1.0, 0.0], [0.0, 1.0]])],
                           input_terms=[(0.5, [[1.0], [1.0]])],
                           disturbance_terms=[(0.7, [[1.0, 0.0], [0.0, 1.0]])],
                           C=[[1.0, 0.0], [0.0, 1.0]])
    write_model(str(work / "fos.json"), fos)
    write_model(str(work / "net.json"), net)
    write_trajectory(str(work / "traj.csv"),
                     simulate_fos(fos, [1.0, -0.5], K=40, w=3, noise_sigma=0.01))
    write_trajectory(str(work / "net.csv"), simulate_network(net, [1.0, -0.5], K=20, w=2))
    (work / "scenario.json").write_text(json.dumps(
        {"model": "fos.json", "p": 4, "horizon": 5, "control_horizon": 2, "Q": 1.0, "R": 0.1,
         "u_lo": -0.2, "u_hi": 0.2, "K": 8, "seed": 4, "sigma": 0.1, "x0": [1.0, -0.5]}))


#: (case, arguments, exit code of main)
RUNS = [
    ("simulate", ["simulate", "--model", "fos.json", "--x0", "1,-0.5", "--steps", "70",
                  "--seed", "3", "--out", "sim.csv"], 0),
    ("network simulate", ["simulate", "--model", "net.json", "--steps", "5",
                          "--out", "netsim.csv"], 0),
    ("identify", ["identify", "--trajectory", "traj.csv", "--depth", "10", "--epsilon", "1e-2",
                  "--out-model", "ident.json", "--out-diag", "diag.csv"], 0),
    ("analyze stability", ["analyze", "stability", "--model", "fos.json",
                           "--out", "stab.json"], 0),
    ("analyze gramians", ["analyze", "gramians", "--model", "fos.json", "--horizon", "3",
                          "--out", "gram.json"], 0),
    ("analyze bode", ["analyze", "bode", "--fopid", "1,1,0,0.5,1", "--omega-points", "3",
                      "--out", "bode.csv"], 0),
    ("estimate", ["estimate", "--model", "net.json", "--trajectory", "net.csv", "--v", "2",
                  "--out", "est.csv"], 0),
    ("mpc", ["mpc", "scenario.json", "--out", "run.csv"], 0),
    ("validation error", ["simulate", "--model", "fos.json", "--steps", "-1",
                          "--out", "neg.csv"], 2),
    ("missing input", ["identify", "--trajectory", "missing.csv", "--out-model", "m.json",
                       "--out-diag", "m.csv"], 2),
]


@pytest.mark.parametrize("argv,code", [case[1:] for case in RUNS], ids=[c[0] for c in RUNS])
def test_a_cold_job_exits_and_writes_as_main_does(tmp_path, monkeypatch, capsys, argv, code):
    for side in ("main", "cold"):
        (tmp_path / side).mkdir()
        _inputs(tmp_path / side)
    monkeypatch.chdir(tmp_path / "main")
    assert main(argv) == code
    ran = capsys.readouterr()
    done = cold(tmp_path / "cold", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, ran.out, ran.err)
    assert files(tmp_path / "cold") == files(tmp_path / "main")
    assert len(files(tmp_path / "main")) >= 5 + 2 * (code == 0)  # outputs and a manifest


def test_a_usage_error_exits_2_with_main_s_usage(tmp_path, monkeypatch, capsys):
    argv = ["simulate", "--steps", "x", "--out", "bad.csv"]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(argv)
    done = cold(tmp_path, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (raised.value.code, "",
                                                           capsys.readouterr().err)
    assert done.returncode == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_a_memory_capped_job_exits_3_as_main_does(tmp_path):
    # the out-of-memory case of test_cli.py: G_0..G_K needs 1.19 GiB, past a 1 GiB cap
    _inputs(tmp_path)
    argv = ["analyze", "gramians", "--model", "fos.json", "--horizon", "10000000",
            "--out", "g.json"]
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    runs = [cold(tmp_path, *argv, head=("-c", cap + run)) for run in (RUN, MAIN)]
    assert [(r.returncode, r.stderr) for r in runs] == [(3, runs[1].stderr)] * 2
    assert runs[0].stderr.startswith("fracdyn analyze: out of memory: ")
    assert not (tmp_path / "g.json").exists()


def test_the_note_reaches_a_redirected_stdout_whole(tmp_path):
    # a file makes stdout block-buffered: only the flush before os._exit writes the note
    with open(tmp_path / "out.txt", "w") as out:
        done = cold(tmp_path, *BODE, stdout=out, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "out.txt").read_text() == NOTE


@pytest.mark.parametrize("stdout", ["closed", "/dev/full"])
def test_a_stdout_that_cannot_be_flushed_exits_as_with_teardown(tmp_path, stdout):
    # a stdout closed before start is None; /dev/full takes a write and fails its flush
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    runs = []
    for head in (("-m", "fracdyn"), ("-c", MAIN)):
        with open("/dev/full", "w") as full:
            done = cold(tmp_path, *BODE, head=head, stdout=full, stderr=subprocess.PIPE,
                        preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
        runs.append((done.returncode, done.stderr))
    assert runs[0] == runs[1]
    # 120: teardown's own flush failed too, and says so on stderr
    assert runs[0][0] == (0 if stdout == "closed" else 120), runs[0]
    assert (tmp_path / "bode.csv.manifest.json").exists()


@pytest.mark.parametrize("command", [["analyze", "gramians", "--model", "fos.json",
                                      "--horizon", "3", "--out", "gram.json"], BODE],
                         ids=["gramians", "bode"])
def test_a_profiled_job_still_prints_the_report(tmp_path, command):
    _inputs(tmp_path)
    done = cold(tmp_path, *command, head=("-m", "cProfile", "-s", "tottime", "-m", "fracdyn"))
    assert done.returncode == 0, done.stderr
    assert "function calls" in done.stdout and "Ordered by: internal time" in done.stdout
    assert (tmp_path / (command[-1] + ".manifest.json")).exists()


TEARDOWN = "import atexit\natexit.register(print, 'teardown ran', flush=True)\n"


@pytest.mark.parametrize("watch,teardown", [
    ("", False),
    ("sys.settrace(lambda *a: None)\n", True),
    ("sys.setprofile(lambda *a: None)\n", True),
    # a sys.monitoring tool (Python 3.12+), as coverage's sysmon core registers one
    ("import types\nsys.monitoring = types.SimpleNamespace("
     "get_tool=lambda i: 'coverage' if i == 1 else None)\n", True),
], ids=["unwatched", "tracer", "profiler", "monitoring"])
def test_teardown_runs_only_when_the_run_is_watched(tmp_path, watch, teardown):
    done = cold(tmp_path, *BODE, head=("-c", "import sys\n" + TEARDOWN + watch + RUN))
    assert done.returncode == 0, done.stderr
    assert done.stdout == NOTE + "teardown ran\n" * teardown
