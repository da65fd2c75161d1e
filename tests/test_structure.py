"""Structure checks on the package source.

Every memory sum is evaluated in ``fraccore``: the FFT convolutions of the
memory tail, the block solves, the drives and the long history sums all go
through its ``block_convolve``.  A module that calls ``numpy.fft`` itself, or
a function of ``fraccore`` other than ``kernel_spectrum`` and
``block_convolve`` that does, has grown a second convolution beside it.

Every recursion in ``simulate`` stores its steps through one store step, the
only place there that sums a step, checks it and raises ``NonFiniteError``.

Identification scores orders through one fit, ``sysid._fit``, the only place
in ``sysid`` that tabulates weights or sums a history; ``ols_spatial`` runs the
same fit.  Its rows come from one minimum-norm ``np.linalg.lstsq`` call, at
any rank of the window, with no second (ridge) solver beside it.

Every lift is built by ``model._companion``, the only place in the package
that constructs an ``AugmentedModel``, so the layout it declares (dense and
noise rows on top, identity runs below) is the one the filter reads.

The public namespace of ``fracdyn`` is pinned: each name is declared once,
in its module's ``__all__`` (``errors`` exports every class it defines), and
the package's map from name to module, which loads the module on first use,
agrees with those declarations.  No module imports ``dataclasses``: records
are named tuples, which write and compile no methods at import.

The MPC solver factors by QR in one place, ``mpc._solve_qp``, which alone
returns the solution and alone proves hard state rows infeasible; the active
set that ``mpc._propose`` offers is only ever a starting point for it.

Every output file is written by ``fileio.atomic_write``, the only place in the
package that opens a file for writing, so every one is renamed into place
whole and gets the mode ``open`` would give it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracdyn
from fracdyn import Trajectory, sysid

PACKAGE = Path(fracdyn.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def fft_uses(path: Path) -> list:
    """Line numbers where a module imports or reads ``numpy.fft``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname for a in node.names if a.name == "numpy" and a.asname}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name == "numpy.fft" or a.name.startswith("numpy.fft.") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.fft") or (
                module == "numpy" and any(a.name == "fft" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_the_check_sees_the_ffts_of_fraccore():
    assert fft_uses(PACKAGE / "fraccore.py")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fraccore.py"],
                         ids=lambda p: p.name)
def test_only_fraccore_calls_numpy_fft(path):
    assert fft_uses(path) == [], f"{path.name} uses numpy.fft; convolve through fraccore"


def enclosing_definitions(path: Path, lines) -> set:
    """Names of the top-level functions and classes holding ``lines``; "<module>" outside them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    spans = [(node.lineno, node.end_lineno, node.name) for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return {next((name for lo, hi, name in spans if lo <= line <= hi), "<module>")
            for line in lines}


def test_inside_fraccore_only_the_block_convolution_calls_numpy_fft():
    path = PACKAGE / "fraccore.py"
    outside = enclosing_definitions(path, fft_uses(path)) - {"kernel_spectrum", "block_convolve"}
    assert not outside, f"{sorted(outside)} use numpy.fft; go through block_convolve"


def callers(path: Path, name: str) -> set:
    """Innermost definitions in ``path`` that call ``name`` or ``<x>.name``, dotted by scope."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = set()

    def visit(node, scope):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Name) and func.id == name
                or isinstance(func, ast.Attribute) and func.attr == name):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope + [child.name] if isinstance(child, scopes) else scope)

    visit(tree, [])
    return found


def test_simulate_raises_nonfinite_error_from_one_store_step():
    raisers = callers(PACKAGE / "simulate.py", "NonFiniteError")
    assert len(raisers) == 1, f"{sorted(raisers)} construct NonFiniteError; store through one step"


@pytest.mark.parametrize("name", ["history_sum", "build_weight_table"])
def test_inside_sysid_only_the_fit_sums_and_tabulates(name):
    assert callers(PACKAGE / "sysid.py", name) == {"_fit"}, f"score through sysid._fit, not {name}"


def test_identify_tabulates_once_per_lockstep_score(monkeypatch):
    # the fit looks build_weight_table up as a module attribute, where a wrapper can see it
    calls = []
    real = sysid.build_weight_table
    monkeypatch.setattr(sysid, "build_weight_table", lambda a, J: calls.append(a) or real(a, J))
    states = np.random.default_rng(0).standard_normal((120, 3)).cumsum(axis=0)
    res = sysid.identify(Trajectory(states=states), 20, 1e-2, (0, 100))
    assert len(calls) == 3 + sysid.bisection_bound(1e-2) == 3 + int(res.iterations.max())
    assert all(len(orders) == 3 for orders in calls)


#: numpy.linalg functions that solve or invert a linear system.
LINEAR_SOLVERS = frozenset({"lstsq", "solve", "inv", "pinv", "tensorsolve", "tensorinv",
                            "cholesky", "qr", "svd"})


def linalg_solver_uses(path: Path) -> list:
    """(line, name) of every ``<x>.linalg.<solver>`` a module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in LINEAR_SOLVERS
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]


def test_sysid_solves_for_rows_only_by_least_squares_in_the_fit():
    path = PACKAGE / "sysid.py"
    uses = linalg_solver_uses(path)
    assert [name for _, name in uses] == ["lstsq"], f"sysid solves by {uses}"
    assert enclosing_definitions(path, [line for line, _ in uses]) == {"_fit"}
    assert not hasattr(sysid, "RIDGE_SCALE")
    assert "RIDGE_SCALE" not in path.read_text()


def test_the_lift_check_sees_the_companion_build():
    assert callers(PACKAGE / "model.py", "AugmentedModel") == {"_companion"}


def test_only_the_companion_builder_constructs_a_lift():
    found = {path.name: names for path in MODULES
             if (names := callers(path, "AugmentedModel"))}
    assert found == {"model.py": {"_companion"}}, f"lifts constructed in {found}"


#: The 75 public attributes of ``fracdyn``: its eight modules and their ``__all__`` names.
PUBLIC = """
    AugmentedModel BranchWarning ClosedLoopResult CondensedProblem DimensionError DomainError
    EigenFailure EstimationRun EstimatorConfig EstimatorState FosModel FosSimulator
    FracdynError FractionalTransferFunction FrequencyResponse GramianReport
    IdentificationResult InfeasibleStateConstraints InnovationSingular MpcProblem MpcSolution
    MultiTermNetwork NetworkSeries NonFiniteError NotControllable NotObservable NotSPD
    ObservabilityReport OlsBound OlsResult SingularError StabilityReport Trajectory
    aj_series analysis augment_p augment_v augmented_spectral_radius bisection_bound
    build_weight_table commensurate_stability condense controllability_gramian deadbeat_input
    errors estimate finite_time_gramian fopid_response frac_difference fraccore gaussian_noise
    gl_weight_recursive history_sum identify me_batch me_filter_init me_filter_step model mpc
    network_series observability_matrices ols_error_bound ols_spatial reconstruct_initial_state
    run_closed_loop run_estimator simulate simulate_augmented simulate_fos simulate_network
    solve_horizon sysid tf_eval transition_matrices uncontrolled_baseline
""".split()


def test_the_lazy_namespace_maps_each_name_to_the_module_that_declares_it():
    declared = {}
    for module in fracdyn._NAMES:
        mod = getattr(fracdyn, module)
        names = getattr(mod, "__all__", None) or [  # errors: every class it defines
            name for name, obj in vars(mod).items()
            if isinstance(obj, type) and obj.__module__ == mod.__name__]
        declared.update(dict.fromkeys(names, module))
    assert fracdyn._HOME == declared
    assert all(getattr(fracdyn, name).__module__ == f"fracdyn.{module}"
               for name, module in declared.items())


def dataclass_imports(path: Path) -> list:
    """Line numbers where a module imports ``dataclasses`` or a name from it."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]


@pytest.mark.parametrize("source,hit", [
    ("import dataclasses", True), ("from dataclasses import dataclass, field", True),
    ("import os, dataclasses as dc", True), ("from typing import NamedTuple", False),
])
def test_the_dataclass_check_reads_each_form_of_import(tmp_path, source, hit):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert bool(dataclass_imports(path)) == hit


def test_no_module_imports_dataclasses():
    # each record is a named tuple; a dataclass writes and compiles code at import
    found = {path.name: lines for path in MODULES if (lines := dataclass_imports(path))}
    assert not found, f"dataclasses imported in {found}"


def test_the_public_namespace_is_pinned():
    # a fresh interpreter: importing fracdyn.cli or fracdyn.fileio adds them as attributes
    script = ("import json, fracdyn\n"
              "star = {}\n"
              "exec('from fracdyn import *', star)\n"
              "print(json.dumps([sorted(n for n in names if not n.startswith('_'))\n"
              "                  for names in (dir(fracdyn), star)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    attributes, starred = json.loads(done.stdout)
    assert attributes == starred == sorted(PUBLIC)


def qr_and_infeasible_raises(path: Path) -> list:
    """Line numbers where a module reads ``np.linalg.qr`` or raises InfeasibleStateConstraints."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "qr":
            hit = isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.linalg") and any(
                a.name == "qr" for a in node.names)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            hit = isinstance(exc, ast.Name) and exc.id == "InfeasibleStateConstraints"
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_the_qp_solver_factors_by_qr_and_proves_infeasibility():
    hits = {path: qr_and_infeasible_raises(path) for path in MODULES}
    found = {path.name: enclosing_definitions(path, lines) for path, lines in hits.items() if lines}
    assert found == {"mpc.py": {"_solve_qp"}}, f"QR steps or infeasibility proofs in {found}"
    assert len(hits[PACKAGE / "mpc.py"]) == 2  # one QR step, one proof


#: Calls that create or open a file for writing whatever their arguments.
WRITE_CALLS = frozenset({"fdopen", "mkstemp", "write_text", "write_bytes"})


def write_opens(source: str) -> list:
    """Line numbers of the calls in ``source`` that open or create a file for writing.

    ``open`` and ``<x>.open`` with a mode holding w, a, x or +, or with a mode that
    is not a literal (so the check errs towards a hit), ``os.open``, ``os.fdopen``,
    ``tempfile.mkstemp`` and ``Path.write_text`` or ``write_bytes``.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, owner = func.id, None
        elif isinstance(func, ast.Attribute):
            name = func.attr
            owner = func.value.id if isinstance(func.value, ast.Name) else ""
        else:
            continue
        if name in WRITE_CALLS or (owner, name) == ("os", "open"):
            hit = True
        elif name == "open":
            at = 1 if owner in (None, "io") else 0  # open(file, mode), path.open(mode)
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            hit = mode is not None and not (isinstance(mode, ast.Constant)
                                            and isinstance(mode.value, str)
                                            and not set(mode.value) & set("wax+"))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("call,hit", [
    ('open(p, "w")', True), ('open(p, mode="a", newline="")', True), ('io.open(p, "xb")', True),
    ('open(p, "r+")', True), ('path.open("w")', True), ("open(p, how)", True),
    ('os.fdopen(fd, "w")', True), ("os.open(p, flags)", True), ("tempfile.mkstemp()", True),
    ('path.write_text("x")', True), ("open(p)", False), ('open(p, "rb")', False),
    ("path.open()", False), ('path.open("r")', False),
])
def test_the_write_check_reads_each_form_of_open(call, hit):
    assert bool(write_opens(call)) == hit


def test_the_write_check_sees_the_opens_of_atomic_write():
    path = PACKAGE / "fileio.py"
    assert enclosing_definitions(path, write_opens(path.read_text())) == {"atomic_write"}


def test_only_atomic_write_opens_files_for_writing():
    found = {path.name: enclosing_definitions(path, lines) for path in MODULES
             if (lines := write_opens(path.read_text()))}
    assert found == {"fileio.py": {"atomic_write"}}, f"files opened for writing in {found}"
