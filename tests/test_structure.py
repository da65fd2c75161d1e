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
any rank of the window, with no second (ridge) solver beside it.  It sums
every channel's targets in one call of the window's ``history_sums`` and its
prediction tails in one ``history_sum`` call, outside its channel loop: the
sums keep channels independent, so a per-channel call buys nothing.  A window
builds its ``history_sums`` once (in ``sysid._window``), so every fit of it
shares one transform of the history.

Every lift is built by ``model._companion``, the only place in the package
that constructs an ``AugmentedModel``, and only ``model.py`` reads the layout
it declares (dense and noise rows on top, identity runs below): no other
source reads ``.copies`` or subscripts ``Atil`` or ``Gtil``.  The filter
applies a lift through its ``shift`` and ``propagate`` on both routes, so in
``estimate`` only ``me_batch``, the dense oracle, reads ``Atil``.

The public namespace of ``fracdyn`` is pinned: each name is declared once,
in the package's table ``fracdyn._NAMES``, whose row is its stage module's
``__all__`` (``errors`` exports every class it defines), and every name in a
row is defined by that module, which the package loads on first use.  No
module imports ``dataclasses``: records are named tuples, which write and
compile no methods at import.

The MPC solver factors by QR in one place, ``mpc._solve_qp``, which alone
returns the solution and alone proves hard state rows infeasible; the active
set that ``mpc._propose`` offers is only ever a starting point for it.

Every output file is written by ``fileio.atomic_write``, the only place in the
package that opens a file for writing, so every one is renamed into place
whole and gets the mode ``open`` would give it.

Every step count, horizon, depth and window is judged by ``fraccore._count``,
which refuses one that is not a whole number or lies below its floor.  A
module that compares a count with a number, or raises the floor message of a
count itself, has grown a second rule beside it.

Every argument is judged by the readers of ``fraccore`` (``_count``, ``_real``
and ``_array``), the CLI's options under their config keys.  ``cli.py`` raises
none of the readers' messages and casts no value to float itself: it holds no
reader of its own.  Its parser only names the options: no ``add_argument``
call passes ``required=True`` or ``type=int``, so ``cli._path`` alone requires
a file and ``cli._get`` alone judges a count, from a flag or a config file
alike.  Every matrix and time series is judged by the shape it declares to
``_array``, so no module but ``fraccore`` raises a shape message.

The CLI has one driver.  ``cli.main`` reads a run's options and writes its
summary and manifest; it is the one caller of ``write_manifest``, and no
``cmd_*`` subcommand calls ``_options``, ``write_manifest``, ``atomic_write``
or ``canonical_json``.  Every JSON file is written by ``fileio.write_json``,
the only place an ``atomic_write`` takes a ``canonical_json`` text.  Both
entry points, ``python -m fracdyn`` and the ``fracdyn`` script, run one
function, ``cli.entry``, so they exit the same way.
"""

import ast
import json
import os
import re
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


def loop_calls(source: str, function: str, name: str) -> tuple:
    """Line numbers of the calls of ``name`` in ``function``: (inside a loop, outside any)."""
    tree = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    inside = {node.lineno for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
              for node in ast.walk(loop) if _called_name(node) == name}
    every = {node.lineno for node in ast.walk(tree) if _called_name(node) == name}
    return sorted(inside), sorted(every - inside)


@pytest.mark.parametrize("source,inside,outside", [
    ("def f(x):\n    z = g(x)\n    for i in x:\n        h(z[i])", [], [2]),
    ("def f(x):\n    for i in x:\n        z = g(x[i])", [3], []),
    ("def f(x):\n    while x:\n        if x:\n            x = sysid.g(x)", [4], []),
])
def test_the_loop_check_reads_each_form_of_a_call(source, inside, outside):
    assert loop_calls(source, "f", "g") == (inside, outside)


def test_the_fit_sums_every_channel_outside_its_channel_loop():
    # the sums keep channels independent, so one call sums every channel
    source = (PACKAGE / "sysid.py").read_text()
    for name in ("targets", "history_sum"):  # the window's target sums, the prediction tails
        inside, outside = loop_calls(source, "_fit", name)
        assert not inside, f"_fit calls {name} inside a loop at lines {inside}"
        assert len(outside) == 1, name


def test_only_a_window_builds_target_sums():
    assert callers(PACKAGE / "sysid.py", "history_sums") == {"_window"}


def test_each_fit_makes_at_most_two_history_sums(monkeypatch):
    sums, fits, windows = [], [], []
    real_sum, real_sums, real_fit = sysid.history_sum, sysid.history_sums, sysid._fit

    def counted_sums(x, lags, start, stop):
        windows.append((lags, start, stop))
        targets = real_sums(x, lags, start, stop)
        return lambda weights: sums.append(np.shape(weights)) or targets(weights)

    monkeypatch.setattr(sysid, "history_sum",
                        lambda *args: sums.append(np.shape(args[1])) or real_sum(*args))
    monkeypatch.setattr(sysid, "history_sums", counted_sums)
    monkeypatch.setattr(sysid, "_fit", lambda *args: fits.append(args) or real_fit(*args))
    traj = Trajectory(states=np.random.default_rng(0).standard_normal((120, 3)).cumsum(axis=0))
    sysid.identify(traj, 20, 1e-2, (0, 100))
    assert len(sums) == 2 * len(fits) == 2 * (3 + sysid.bisection_bound(1e-2))
    assert set(sums) == {(3, 101), (3, 20)}  # every channel's targets, then its tails
    assert windows == [(101, 1, 101)]  # one target sums for every fit of the window
    del sums[:], windows[:]
    sysid.ols_spatial(traj, [0.5] * 3, (0, 100))
    assert sums == [(3, 101)] and windows == [(101, 1, 101)]


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


def layout_reads(source: str) -> list:
    """Line numbers where ``source`` reads ``<x>.copies`` or subscripts ``Atil`` or ``Gtil``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "copies":
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript):
            value = node.value
            name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", None)
            if name in ("Atil", "Gtil"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,hit", [
    ("out[:n] = aug.Atil[:n] @ X", True), ("G = self.Gtil[:n]", True), ("Atil[n:].any()", True),
    ("for run in aug.copies:\n    pass", True), ("runs = self.copies", True),
    ("x = aug.Atil @ xhat", False), ("width = aug.Gtil.shape[1]", False),
    ("y = aug.Btil[:n]", False), ("runs = copies(aug)", False),
])
def test_the_layout_check_reads_each_form_of_a_layout_read(source, hit):
    assert bool(layout_reads(source)) == hit


def test_the_layout_check_sees_the_layout_reads_of_the_lift():
    path = PACKAGE / "model.py"
    # the builder writes the layout and the lift reads it
    assert enclosing_definitions(path, layout_reads(path.read_text())) == {
        "_companion", "AugmentedModel"}


def test_only_the_lift_reads_its_layout():
    found = {path.name: lines for path in MODULES
             if path.name != "model.py" and (lines := layout_reads(path.read_text()))}
    assert not found, f"the companion layout is read at {found}; go through AugmentedModel"


def atil_reads(source: str) -> list:
    """Line numbers where ``source`` reads ``<x>.Atil``, as an attribute or through ``getattr``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "Atil"
            or _called_name(node) == "getattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "Atil"]


@pytest.mark.parametrize("source,hit", [
    ("x = aug.Atil @ xhat", True), ("A, G, C = aug.Atil, aug.Gtil, aug.Ctil", True),
    ("top = state.aug.Atil[:n]", True), ('A = getattr(aug, "Atil")', True),
    ("x = aug.shift(xhat)", False), ("M = aug.propagate(P, Q)", False),
    ("width = aug.Gtil.shape[1]", False), ("Atil = build(n)", False),
])
def test_the_dense_lift_check_reads_each_form_of_a_read(source, hit):
    assert bool(atil_reads(source)) == hit


def test_inside_estimate_only_the_batch_oracle_reads_the_dense_lift():
    # both filter routes predict through shift; me_batch builds the dense oracle
    path = PACKAGE / "estimate.py"
    assert enclosing_definitions(path, atil_reads(path.read_text())) == {"me_batch"}


#: The 74 public attributes of ``fracdyn``: its eight modules and their ``__all__`` names.
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
    history_sum identify me_batch me_filter_init me_filter_step model mpc
    network_series observability_matrices ols_error_bound ols_spatial reconstruct_initial_state
    run_closed_loop run_estimator simulate simulate_augmented simulate_fos simulate_network
    solve_horizon sysid tf_eval transition_matrices uncontrolled_baseline
""".split()


def test_the_lazy_namespace_maps_each_name_to_the_module_that_declares_it():
    for module, row in fracdyn._NAMES.items():
        mod = getattr(fracdyn, module)
        if module == "errors":  # every class it defines, and no __all__
            assert sorted(row) == sorted(name for name, obj in vars(mod).items()
                                         if isinstance(obj, type) and obj.__module__ == mod.__name__)
        else:  # the row itself, not a second list of the same names
            assert mod.__all__ is row, module
        for name in row:
            assert getattr(mod, name).__module__ == mod.__name__, name
            assert getattr(fracdyn, name) is getattr(mod, name), name


def test_the_package_loads_a_module_on_its_first_read(monkeypatch):
    import fracdyn.mpc as mpc

    monkeypatch.delattr(fracdyn, "mpc")  # as before any import of it: the package loads it
    assert fracdyn.mpc is mpc
    assert set(dir(fracdyn)) >= set(fracdyn.__all__)


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


def _is_count(node) -> bool:
    """Whether ``node`` is a call of ``_count``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_count")


def count_names(source: str) -> set:
    """The names that the ``_count`` calls in ``source`` give their counts.

    The CLI's ``_get(config, key, _count, ...)`` judges ``key`` as a count.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            continue
        if _is_count(node) or (isinstance(node.func, ast.Name) and node.func.id == "_get"
                               and len(node.args) > 2 and isinstance(node.args[2], ast.Name)
                               and node.args[2].id == "_count"):
            names.add(node.args[1].value)
    return names


def _text(node) -> str:
    """A message's literal text, with each ``{...}`` of an f-string read as ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ""


def count_floor_checks(source: str, names) -> list:
    """Line numbers where ``source`` judges the floor of a count by hand.

    An ``if`` that raises when one ``_count(...)`` call, or a name assigned
    from one, compares so with a number; or a raise of the floor message of a
    count in ``names`` ("<name> must be non-negative" or "<name> must be >= 1").
    A chained comparison such as ``1 <= M <= P`` relates two counts and is not
    a floor, and a branch that raises nothing is not a check.
    """
    tree = ast.parse(source)
    counted = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            counted |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_count(v)}
    floor = re.compile(rf"^({'|'.join(map(re.escape, names))}) must be (non-negative|>= 1)\b")
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(isinstance(n, ast.Raise)
                                            for stmt in node.body for n in ast.walk(stmt)):
            sides = [[c.left, *c.comparators] for c in ast.walk(node.test)
                     if isinstance(c, ast.Compare) and len(c.ops) == 1]
            hit = any(
                any(_is_count(side) or isinstance(side, ast.Name) and side.id in counted
                    for side in pair)
                and any(isinstance(side, ast.Constant) and isinstance(side.value, (int, float))
                        for side in pair)
                for pair in sides)
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            hit = bool(floor.match(_text(node.exc.args[0])))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


#: The name of every count that the package judges.
COUNT_NAMES = set().union(*(count_names(path.read_text()) for path in MODULES))


@pytest.mark.parametrize("source,hit", [
    ('if _count(K, "step count K") < 0:\n    raise DimensionError("x")', True),
    ('K = _count(K, "K")\nif K < 1:\n    raise DomainError("need K >= 1")', True),
    ('p, P = _count(p, "p"), _count(P, "P")\nif not 0 < P:\n    raise ValueError', True),
    ('J = _count(J, "J")\nif J >= 1:\n    A[1:] = 0.0', False),
    ('raise DomainError("horizon K must be >= 1")', True),
    ('raise DomainError(f"omega_points must be >= 1, got {points}")', True),
    ('K = _count(K, "step count K", least=1)', False),
    ('M = _count(M, "M")\nif not 1 <= M <= P:\n    raise DomainError("M")', False),
    ('raise DimensionError("sigma must be non-negative")', False),
    ('raise DomainError(f"{name} exponents must be non-negative")', False),
])
def test_the_floor_check_reads_each_form_of_a_hand_check(source, hit):
    assert bool(count_floor_checks(source, COUNT_NAMES)) == hit


def test_the_floor_check_knows_the_counts_of_every_module():
    assert {"horizon K", "omega_points", "step count K", "memory depth p"} <= COUNT_NAMES


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fraccore.py"],
                         ids=lambda p: p.name)
def test_only_fraccore_judges_the_floor_of_a_count(path):
    lines = count_floor_checks(path.read_text(), COUNT_NAMES)
    assert lines == [], f"{path.name} checks a count's floor at lines {lines}; use fraccore._count"


#: Wording that only the argument readers of ``fraccore`` raise.
READER_MESSAGES = ("must be finite", "must have length", "must be a whole number")
#: numpy calls that read a value as floats when given ``dtype=float``.
FLOAT_CASTS = {"asarray", "array"}


def _raises_words(node, messages) -> bool:
    """Whether ``node`` raises an error whose message holds one of ``messages``."""
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and bool(node.exc.args) and any(words in _text(node.exc.args[0])
                                            for words in messages))


def reader_uses(source: str) -> list:
    """Line numbers where ``source`` judges an argument itself.

    A raise whose message holds a reader's wording, or a call of ``asarray``
    or ``array`` with ``dtype=float`` (or ``float`` as its second argument).
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            hit = _raises_words(node, READER_MESSAGES)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in FLOAT_CASTS:
            dtype = next((kw.value for kw in node.keywords if kw.arg == "dtype"),
                         node.args[1] if len(node.args) > 1 else None)
            hit = isinstance(dtype, ast.Name) and dtype.id == "float"
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,hit", [
    ('raise DomainError(f"{key} must be finite, got {value!r}")', True),
    ('raise DomainError(f"{key} must have length {n}, got {value!r}")', True),
    ('raise DomainError(f"{key} must be a whole number, got {value!r}")', True),
    ("arr = np.asarray(items, dtype=float)", True),
    ("arr = numpy.array(items, float)", True),
    ('raise DomainError(f"{key} must name a file, got {value!r}")', False),
    ("arr = np.asarray(rows)", False),
    ("x0 = _array(value, key, length=2)", False),
])
def test_the_reader_check_reads_each_form_of_a_reader(source, hit):
    assert bool(reader_uses(source)) == hit


def test_the_reader_check_sees_the_readers_of_fraccore():
    path = PACKAGE / "fraccore.py"
    assert {"_count", "_real", "_array"} <= enclosing_definitions(
        path, reader_uses(path.read_text()))


def test_the_cli_holds_no_reader_of_its_own():
    # every option is judged by a reader of fraccore under its config key
    lines = reader_uses((PACKAGE / "cli.py").read_text())
    assert lines == [], f"cli.py judges an argument at lines {lines}; use fraccore's readers"


def parser_rules(source: str) -> list:
    """Line numbers of the ``add_argument`` calls that pass ``required=True`` or ``type=int``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if _called_name(node) == "add_argument" and any(
                (kw.arg, ast.unparse(kw.value)) in {("required", "True"), ("type", "int")}
                for kw in node.keywords)]


@pytest.mark.parametrize("source,hit", [
    ('sim.add_argument("--out", required=True)', True),
    ('sim.add_argument("--steps", type=int, help="number of steps K")', True),
    ('parser.add_argument("--seed", type=int)', True),
    ('sim.add_argument("--out")', False),
    ('sim.add_argument("--steps", type=number)', False),
    ('sim.add_argument("--sigma", type=float)', False),
    ('sub = parser.add_subparsers(dest="command", required=True)', False),
])
def test_the_parser_check_reads_each_form_of_a_rule(source, hit):
    assert bool(parser_rules(source)) == hit


def test_argparse_only_names_the_options():
    # presence is judged by _path and counts by _get, from a flag or a config file alike
    lines = parser_rules((PACKAGE / "cli.py").read_text())
    assert lines == [], f"cli.py judges an option in argparse at lines {lines}"


#: Wording of a shape judged by hand; ``fraccore._array`` alone judges a declared shape.
SHAPE_MESSAGES = ("must have shape", "rows, got", "columns", "must be a matrix", "must be square")


def shape_raises(source: str) -> list:
    """Line numbers where ``source`` raises an error in a shape's wording."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if _raises_words(node, SHAPE_MESSAGES)]


@pytest.mark.parametrize("source,hit", [
    ('raise DimensionError(f"C must have shape {aug.Ctil.shape}")', True),
    ('raise DimensionError(f"{name} must have {want} rows, got {val.shape[0]}")', True),
    ('raise DimensionError(f"y must have {q} columns")', True),
    ('raise DimensionError(f"{name} must be a matrix, got shape {m.shape}")', True),
    ('raise DimensionError(f"{name} must be square, got {m.shape}")', True),
    ('raise DimensionError("input-term matrices must share a column count")', False),
    ('raise DimensionError("need at least one measurement")', False),
    ('x = _array(value, "C", (None, n))', False),
])
def test_the_shape_check_reads_each_form_of_a_shape_message(source, hit):
    assert bool(shape_raises(source)) == hit


def test_the_shape_check_sees_the_shape_message_of_fraccore():
    path = PACKAGE / "fraccore.py"
    assert enclosing_definitions(path, shape_raises(path.read_text())) == {"_array"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fraccore.py"],
                         ids=lambda p: p.name)
def test_only_fraccore_raises_a_shape_message(path):
    lines = shape_raises(path.read_text())
    assert lines == [], f"{path.name} judges a shape at lines {lines}; declare it to _array"


@pytest.mark.parametrize("source,found", [
    ("def main(args):\n    write_manifest(out, 'x', {}, {}, None, {})", {"main"}),
    ("def cmd_a(config):\n    def inner():\n        fileio.write_manifest(out)", {"cmd_a.inner"}),
    ("def main(args):\n    write_json(out, {})", set()),
])
def test_the_manifest_check_reads_each_form_of_a_call(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert callers(path, "write_manifest") == found


def test_only_the_cli_driver_writes_a_manifest():
    found = {path.name: names for path in MODULES if (names := callers(path, "write_manifest"))}
    assert found == {"cli.py": {"main"}}, f"manifests written in {found}"


#: What a subcommand leaves to ``cli.main``: reading the options and writing the manifest
#: and JSON files.
RUN_CALLS = frozenset({"_options", "write_manifest", "atomic_write", "canonical_json"})


def subcommand_run_calls(path: Path) -> set:
    """(scope, name) of each call of a ``RUN_CALLS`` name inside a ``cmd_*`` function."""
    return {(scope, name) for name in RUN_CALLS for scope in callers(path, name)
            if scope.startswith("cmd_")}


@pytest.mark.parametrize("source,hit", [
    ("def cmd_a(args):\n    config = _options(args)", True),
    ("def cmd_a(config):\n    fileio.atomic_write(out, text)", True),
    ("def cmd_a(config):\n    def emit():\n        return canonical_json(x)", True),
    ("def cmd_a(config):\n    write_manifest(out, 'a', {}, {}, None, config)", True),
    ("def cmd_a(config):\n    write_json(out, report)", False),
    ("def main(args):\n    config = _options(args)", False),
])
def test_the_subcommand_check_reads_each_form_of_a_run_call(tmp_path, source, hit):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert bool(subcommand_run_calls(path)) == hit


def test_no_subcommand_reads_options_or_writes_a_manifest_or_json():
    calls = subcommand_run_calls(PACKAGE / "cli.py")
    assert not calls, f"subcommands call {sorted(calls)}; leave them to cli.main"


def _called_name(node) -> str | None:
    """The name a call calls, ``f`` of ``f(...)`` or ``<x>.f(...)``; None for another node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def json_writes(source: str) -> list:
    """Line numbers of the ``atomic_write`` calls whose arguments hold a ``canonical_json`` call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if _called_name(node) == "atomic_write"
            and any(_called_name(inner) == "canonical_json"
                    for arg in node.args for inner in ast.walk(arg))]


@pytest.mark.parametrize("source,hit", [
    ('atomic_write(path, canonical_json(report) + "\\n")', True),
    ("fileio.atomic_write(path, canonical_json(report))", True),
    ("atomic_write(path, chunks())", False),
    ("write_json(path, report)", False),
])
def test_the_json_check_reads_each_form_of_a_json_write(source, hit):
    assert bool(json_writes(source)) == hit


def test_only_write_json_writes_canonical_json():
    found = {path.name: enclosing_definitions(path, lines) for path in MODULES
             if (lines := json_writes(path.read_text()))}
    assert found == {"fileio.py": {"write_json"}}, f"JSON written by atomic_write in {found}"


def test_both_entry_points_run_cli_entry():
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not a source checkout")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject.read_text(),
                        re.M | re.S).group(1)
    assert re.findall(r'^fracdyn\s*=\s*"(.*)"', scripts, re.M) == ["fracdyn.cli:entry"]
    tree = ast.parse((PACKAGE / "__main__.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {_called_name(node) for node in ast.walk(tree)} - {None}
    assert ("cli", "entry") in imported and called == {"exit", "entry"}
