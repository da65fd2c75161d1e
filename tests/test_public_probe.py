"""One generated probe of every public entry of fracdyn.

``SPEC`` holds, for each callable in ``fracdyn.__all__`` (and the
closed-loop step ``FosSimulator.step``), a call with valid arguments.  The
probe then asserts two things of each argument it lists:

- each bad value of ``BAD`` raises a ``FracdynError`` whose message names the
  argument, unless the spec declares the value valid for that argument, or
  declares another outcome, each with its reason;
- finite, well-typed values, drawn by hypothesis around the valid ones,
  either give a result whose every float is finite or raise a
  ``FracdynError``.

Record arguments (a model, a lift, a trajectory, a problem, a filter state)
are built here once and not probed: a number passed for a model fails on its
first attribute, which says nothing of how an argument is read.  The result
records check nothing: they hold what a function computed.
"""

import cmath
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fracdyn
from fracdyn import (
    EstimatorConfig, FosModel, FosSimulator, FracdynError, FractionalTransferFunction,
    MpcProblem, MultiTermNetwork, NonFiniteError, Trajectory, augment_p, augment_v,
    me_filter_init, simulate_fos, simulate_network)

#: The bad values given to every probed argument.
BAD = {
    "-1": -1, "0": 0, "2.5": 2.5, "inf": np.inf, "-inf": -np.inf, "nan": np.nan,
    "1e308": 1e308, "True": True, "None": None, "string": "x", "nan vector": [np.nan, 1.0],
    "vector": [1.0, 2.0],
}

#: The bad values that are finite numbers: valid for an argument whose range holds them,
#: and for an array, where a number is a 1 x 1 matrix, a weight of that multiple of I, a
#: series of one sample or a vector of one entry.
NUMBERS = {"-1", "0", "2.5", "1e308"}
#: ... and a vector of two is a row (a column where a row does not fit the declared
#: sizes), a diagonal weight or a single-channel series of two samples.
MATRIX = NUMBERS | {"vector"}


class Entry(NamedTuple):
    """A call of ``fn`` with valid ``args``, and what the probe expects of bad ones.

    ``accepts`` maps an argument to the bad values it takes as valid (the
    reasons are those of ``NUMBERS`` and ``MATRIX``, None where it is the
    default, or a comment), and ``raises`` maps (argument, bad value) to
    another exception class that it raises instead, with the reason.
    ``names`` maps an argument to the pattern its messages use when that is
    not the argument's own name.  ``series`` maps each time-major series
    argument to a valid single-channel value, a (K, 1) array, to be given
    with the other series of the call; its 1-D form is a valid value too,
    read as the same column.
    """

    fn: object
    args: dict
    probed: tuple
    accepts: dict = {}
    raises: dict = {}
    names: dict = {}
    series: dict = {}


def _fixtures():
    model = FosModel(alpha=[0.5], A=[[-0.2]], B=[[1.0]])
    net = MultiTermNetwork(state_terms=[(0.6, [[1.0]])], input_terms=[(0.5, [[1.0]])],
                           disturbance_terms=[(0.7, [[1.0]])], C=[[1.0]])
    config = EstimatorConfig(Q=1.0, R=1.0, P0=1.0, xhat0=0.0)
    net_run = simulate_network(net, [1.0], w=np.full((10, 1), 0.1), K=10)
    return dict(
        model=model, net=net, config=config,
        aug=augment_p(model, 2), lift=augment_v(net, 2),
        traj=simulate_fos(model, [1.0], w=3, K=30),
        net_traj=Trajectory(states=net_run.states, inputs=net_run.inputs,
                            outputs=net_run.outputs),
        state=me_filter_init(augment_v(net, 2), config),
        problem=MpcProblem(p=2, P=3, M=1, Q=1.0, R=1.0, u_lo=-1.0, u_hi=1.0),
        tf=FractionalTransferFunction.rational([(1.0, 0.5)], [(1.0, 1.0), (1.0, 0.0)]),
    )


F = _fixtures()

#: Why a non-finite drive of one closed-loop or filter step names the step, not the drive.
HOT = ("the drives of one step get a shape check only: the check of what the step computes "
       "raises NonFiniteError naming the step")


def _column(*samples):
    """A single-channel series: a (K, 1) array of ``samples``."""
    return np.array(samples, dtype=float)[:, None]


# tf_eval on the negative real axis warns of the principal branch by design
pytestmark = pytest.mark.filterwarnings("ignore::fracdyn.errors.BranchWarning")


def _step(u, w):
    return FosSimulator(F["model"], [1.0], 3).step(u, w)


SPEC = {
    "build_weight_table": Entry(fracdyn.build_weight_table, dict(alphas=[0.5], J=3),
                                ("alphas", "J"),
                                accepts={"alphas": MATRIX - {"1e308"}, "J": {"0"}}),
    "history_sum": Entry(fracdyn.history_sum, dict(x=[1.0, 2.0, 3.0], weights=[1.0, -0.5],
                                                   start=0, stop=3),
                         ("x", "weights", "start", "stop"),
                         accepts={"weights": {"vector"}, "start": {"0"}, "stop": {"0"}},
                         raises={("start", "-1"): (IndexError, "a row outside the series"),
                                 ("stop", "-1"): (IndexError, "a row outside the series"),
                                 ("x", "vector"): (IndexError, "a row outside the series")}),
    "frac_difference": Entry(fracdyn.frac_difference,
                             dict(series=[1.0, 2.0, 3.0], alphas=[0.5], k=2),
                             ("series", "alphas", "k"),
                             accepts={"alphas": NUMBERS - {"1e308"}, "k": {"0"}},
                             raises={("k", "-1"): (IndexError, "a step outside the series"),
                                     **{("series", bad): (IndexError, "a step outside the series")
                                        for bad in MATRIX}},
                             series={"series": _column(1.0, 2.0, 3.0)}),
    "FosModel": Entry(FosModel, dict(alpha=[0.5], A=[[-0.2]], B=[[1.0]], Bw=[[1.0]]),
                      ("alpha", "A", "B", "Bw"),
                      accepts={"alpha": {"-1", "0"}, "A": NUMBERS, "B": MATRIX | {"None"},
                               "Bw": MATRIX | {"None"}}),
    "MultiTermNetwork": Entry(MultiTermNetwork, dict(
        state_terms=[(0.6, [[1.0]])], input_terms=[(0.5, [[1.0]])],
        disturbance_terms=[(0.7, [[1.0]])], C=[[1.0]]),
        ("state_terms", "input_terms", "disturbance_terms", "C"),
        accepts={"C": MATRIX | {"None"}},
        names={"state_terms": "state term", "input_terms": "input term",
               "disturbance_terms": "disturbance term"}),
    "aj_series": Entry(fracdyn.aj_series, dict(model=F["model"], J=2), ("J",),
                       accepts={"J": {"0"}}),
    "augment_p": Entry(fracdyn.augment_p, dict(model=F["model"], p=2), ("p",)),
    "network_series": Entry(fracdyn.network_series, dict(net=F["net"], J=2), ("J",),
                            accepts={"J": {"0"}}),
    "augment_v": Entry(fracdyn.augment_v, dict(net=F["net"], v=2), ("v",)),
    "Trajectory": Entry(Trajectory, dict(states=[[1.0], [0.5]], inputs=[[0.0]],
                                         outputs=[[1.0], [0.5]], noises=[[0.0]], dt=1.0),
                        ("states", "inputs", "outputs", "noises", "dt"),
                        accepts={"states": {"vector"}, "inputs": MATRIX | {"None"},
                                 "outputs": {"vector", "None"}, "noises": MATRIX | {"None"},
                                 "dt": NUMBERS - {"-1", "0"}},
                        raises={("states", bad): (fracdyn.DimensionError, "a number is one "
                                                  "sample, so K = 0; the error names inputs, "
                                                  "which holds one") for bad in NUMBERS},
                        series={"states": _column(1.0, 0.5, 0.2), "inputs": _column(0.1, 0.0),
                                "outputs": _column(1.0, 0.5, 0.2),
                                "noises": _column(0.0, -0.1)}),
    "FosSimulator": Entry(FosSimulator, dict(model=F["model"], x0=[1.0], max_steps=3),
                          ("x0", "max_steps"), accepts={"x0": NUMBERS, "max_steps": {"0"}}),
    "FosSimulator.step": Entry(_step, dict(u=[0.5], w=[0.1]), ("u", "w"),
                               accepts={key: NUMBERS | {"None"} for key in "uw"},
                               raises={(key, bad): (NonFiniteError, HOT) for key in "uw"
                                       for bad in ("inf", "-inf", "nan")}),
    "simulate_fos": Entry(fracdyn.simulate_fos, dict(model=F["model"], x0=[1.0], u=None, w=3,
                                                     K=4, dt=1.0, noise_sigma=1.0),
                          ("x0", "u", "w", "K", "dt", "noise_sigma"),
                          accepts={"x0": NUMBERS, "u": {"None"}, "w": {"0", "None"},
                                   "K": {"0"}, "dt": NUMBERS - {"-1", "0"},
                                   "noise_sigma": {"0", "2.5"}},
                          names={"w": r"\b(w|seed)\b", "noise_sigma": "sigma"},
                          series={"u": _column(0.1, 0.2, 0.3, 0.4),
                                  "w": _column(0.0, 0.1, -0.1, 0.2)}),
    "simulate_network": Entry(fracdyn.simulate_network, dict(net=F["net"], x0=[1.0], u=None,
                                                             w=None, K=4, dt=1.0),
                              ("x0", "u", "w", "K", "dt"),
                              accepts={"x0": NUMBERS, "u": {"None"}, "w": {"0", "None"},
                                       "K": {"0"}, "dt": NUMBERS - {"-1", "0"}},
                              names={"w": r"\b(w|seed)\b"},
                              series={"u": _column(0.1, 0.2, 0.3, 0.4),
                                      "w": _column(0.0, 0.1, -0.1, 0.2)}),
    "simulate_augmented": Entry(fracdyn.simulate_augmented, dict(aug=F["aug"], x0=[1.0], u=None,
                                                                 w=None, K=4),
                                ("x0", "u", "w", "K"),
                                accepts={"x0": NUMBERS | {"vector"}, "u": {"None"},
                                         "w": {"0", "None"}, "K": {"0"}},
                                names={"w": r"\b(w|seed)\b"},
                                series={"u": _column(0.1, 0.2, 0.3, 0.4),
                                        "w": _column(0.0, 0.1, -0.1, 0.2)}),
    "transition_matrices": Entry(fracdyn.transition_matrices, dict(model=F["model"], K=3),
                                 ("K",), accepts={"K": {"0"}}),
    "gaussian_noise": Entry(fracdyn.gaussian_noise, dict(seed=1, steps=200, dim=1, sigma=1.0),
                            ("seed", "steps", "dim", "sigma"),
                            accepts={"seed": {"0"}, "steps": {"0"}, "dim": {"0"},
                                     "sigma": {"0", "2.5"}}),
    "commensurate_stability": Entry(fracdyn.commensurate_stability, dict(A=[[-0.2]], alpha=0.5),
                                    ("A", "alpha"), accepts={"A": NUMBERS}),
    "augmented_spectral_radius": Entry(fracdyn.augmented_spectral_radius,
                                       dict(model=F["model"], p=3), ("p",)),
    "controllability_gramian": Entry(fracdyn.controllability_gramian,
                                     dict(model=F["model"], B=[[1.0]], K=2), ("B", "K"),
                                     accepts={"B": MATRIX - {"1e308"} | {"None"}}),
    "deadbeat_input": Entry(fracdyn.deadbeat_input, dict(model=F["model"], B=[[1.0]], x0=[1.0],
                                                         K=2),
                            ("B", "x0", "K"),
                            accepts={"B": MATRIX - {"0", "1e308"} | {"None"},
                                     "x0": NUMBERS},
                            raises={("B", "0"): (fracdyn.NotControllable, "no input reaches x")}),
    "observability_matrices": Entry(fracdyn.observability_matrices,
                                    dict(model=F["model"], C=[[1.0]], K=2), ("C", "K"),
                                    accepts={"C": MATRIX - {"1e308"} | {"None"}}),
    "reconstruct_initial_state": Entry(fracdyn.reconstruct_initial_state, dict(
        model=F["model"], B=[[1.0]], C=[[1.0]], u=[[0.0], [0.0]], y=[[1.0], [0.3]], K=2),
        ("B", "C", "u", "y", "K"),
        accepts={"B": NUMBERS | {"None"}, "C": {"-1", "2.5", "None"},
                 "u": {"None", "vector"}, "y": {"vector"}},
        raises={("C", "0"): (fracdyn.NotObservable, "a zero output map observes nothing"),
                ("B", "vector"): (fracdyn.DimensionError, "a row of two inputs is a valid B; "
                                  "the error names u, which has one column"),
                ("C", "vector"): (fracdyn.DimensionError, "a column of two outputs is a valid "
                                  "C; the error names y, which has one column")},
        series={"u": _column(0.0, 0.5), "y": _column(1.0, 0.3)}),
    "FractionalTransferFunction": Entry(FractionalTransferFunction, dict(
        num=[(1.0, 0.5)], den=[(1.0, 1.0), (1.0, 0.0)], ss=None), ("num", "den", "ss"),
        accepts={"num": {"None", "vector"}, "den": {"vector"}, "ss": {"None"}}),
    "tf_eval": Entry(fracdyn.tf_eval, dict(tf=F["tf"], s=1j), ("s",),
                     accepts={"s": NUMBERS - {"-1"}}),
    "fopid_response": Entry(fracdyn.fopid_response, dict(kp=1.0, ki=1.0, kd=0.5, lam=0.5, mu=0.7,
                                                         omegas=[0.1, 1.0]),
                            ("kp", "ki", "kd", "lam", "mu", "omegas"),
                            accepts={**{key: NUMBERS for key in ("kp", "kd", "mu")},
                                     "ki": NUMBERS - {"1e308"}, "lam": NUMBERS - {"1e308"},
                                     "omegas": {"2.5", "1e308", "vector"}},
                            raises={("lam", "1e308"): (NonFiniteError, "s^-lam overflows: the "
                                                       "message names the power")}),
    "identify": Entry(fracdyn.identify, dict(traj=F["traj"], p=5, epsilon=0.1, window=(0, 25)),
                      ("p", "epsilon", "window"), accepts={"window": {"None"}}),
    "ols_spatial": Entry(fracdyn.ols_spatial, dict(traj=F["traj"], alphas=[0.5], window=(0, 25)),
                         ("alphas", "window"),
                         accepts={"alphas": NUMBERS - {"1e308"}, "window": {"None"}}),
    "bisection_bound": Entry(fracdyn.bisection_bound, dict(epsilon=0.1), ("epsilon",)),
    "finite_time_gramian": Entry(fracdyn.finite_time_gramian, dict(Atil=[[0.5]], t=3),
                                 ("Atil", "t"), accepts={"Atil": NUMBERS - {"1e308"}}),
    "ols_error_bound": Entry(fracdyn.ols_error_bound, dict(Atil=[[0.5]], K=10, k=2, delta=0.1,
                                                           C=1.0, c=1.0),
                             ("Atil", "K", "k", "delta", "C", "c"),
                             accepts={"Atil": {"-1", "0"}, "C": NUMBERS,
                                      "c": NUMBERS - {"1e308"}}),
    "EstimatorConfig": Entry(EstimatorConfig, dict(Q=1.0, R=1.0, P0=1.0, xhat0=0.0),
                             ("Q", "R", "P0", "xhat0"),
                             accepts={**dict.fromkeys(("Q", "R", "P0"), {"2.5", "1e308", "vector"}),
                                      "xhat0": MATRIX}),
    "me_filter_init": Entry(fracdyn.me_filter_init, dict(aug=F["lift"], config=F["config"]), ()),
    "me_filter_step": Entry(fracdyn.me_filter_step, dict(state=F["state"], u=[0.5], y=[0.3],
                                                         C=None),
                            ("u", "y", "C"),
                            accepts={"u": NUMBERS | {"None"}, "y": NUMBERS, "C": {"None"}},
                            raises={(key, bad): (NonFiniteError, HOT) for key in "uy"
                                    for bad in ("inf", "-inf", "nan")},
                            names={"u": "input", "y": "measurement"}),
    "me_batch": Entry(fracdyn.me_batch, dict(aug=F["lift"], config=F["config"], u=[[0.5]],
                                             y=[[0.3]]),
                      ("u", "y"), accepts={"u": NUMBERS - {"1e308"} | {"None"},
                                           "y": NUMBERS - {"1e308"}},
                      raises={("y", "vector"): (fracdyn.DimensionError, "a 1-D y is two "
                                                "measurements; the error names u, which holds "
                                                "one input")},
                      series={"u": _column(0.5, -0.2, 0.1), "y": _column(0.3, 0.2, 0.4)}),
    "run_estimator": Entry(fracdyn.run_estimator, dict(net=F["net"], v=2, config=F["config"],
                                                       traj=F["net_traj"]), ("v",)),
    "MpcProblem": Entry(MpcProblem, dict(p=2, P=3, M=1, Q=1.0, R=1.0, c=[0.0], u_lo=-1.0,
                                         u_hi=1.0, state_H=[[1.0]], state_h=[2.0],
                                         hard_state=False),
                        ("p", "P", "M", "Q", "R", "c", "u_lo", "u_hi", "state_H", "state_h",
                         "hard_state"),
                        accepts={"Q": {"0", "2.5", "1e308", "vector"},
                                 "R": {"2.5", "1e308", "vector"}, "c": MATRIX | {"None"},
                                 "u_lo": {"-1", "0", "-inf"},
                                 "u_hi": {"-1", "0", "2.5", "inf", "1e308", "vector"},
                                 "state_H": NUMBERS | {"vector"}, "state_h": NUMBERS | {"inf"},
                                 "hard_state": set(BAD)}),  # a flag is read by its truth
    "condense": Entry(fracdyn.condense, dict(problem=F["problem"], model=F["model"]), ()),
    "solve_horizon": Entry(fracdyn.solve_horizon, dict(problem=F["problem"], model=F["model"],
                                                       history=[[1.0], [0.5]]),
                           ("history",), accepts={"history": MATRIX - {"1e308"}},
                           series={"history": _column(1.0, 0.5, 0.2)}),
    "run_closed_loop": Entry(fracdyn.run_closed_loop, dict(plant=F["model"], problem=F["problem"],
                                                           K=3, noise=1, x0=[1.0],
                                                           noise_sigma=1.0),
                             ("K", "noise", "x0", "noise_sigma"),
                             accepts={"noise": {"0", "None"}, "x0": NUMBERS - {"1e308"} | {"None"},
                                      "noise_sigma": {"0", "2.5"}},
                             raises={(key, "1e308"): (NonFiniteError, "the horizon cost "
                                                      "overflows from the first state")
                                     for key in ("x0", "noise_sigma")},
                             names={"noise": r"\b(noise|seed)\b", "noise_sigma": "sigma"},
                             series={"noise": _column(0.1, 0.0, -0.1)}),
    "uncontrolled_baseline": Entry(fracdyn.uncontrolled_baseline, dict(
        plant=F["model"], K=3, noise=1, x0=[1.0], noise_sigma=1.0),
        ("K", "noise", "x0", "noise_sigma"),
        accepts={"noise": {"0", "None"}, "x0": NUMBERS | {"None"},
                 "noise_sigma": {"0", "2.5", "1e308"}},
        names={"noise": r"\b(noise|seed)\b", "noise_sigma": "sigma"},
        series={"noise": _column(0.1, 0.0, -0.1)}),
}


#: Why the records in ``fracdyn.__all__`` that the probe does not call are left out.
RESULT = "a result record checks nothing: it holds what a function computed"
UNPROBED = {
    "AugmentedModel": "a lift is built by augment_p or augment_v; its constructor checks only "
                      "the companion layout of the arrays it is given",
    **dict.fromkeys(["NetworkSeries", "StabilityReport", "GramianReport", "ObservabilityReport",
                     "FrequencyResponse", "IdentificationResult", "OlsResult", "OlsBound",
                     "EstimatorState", "EstimationRun", "MpcSolution", "ClosedLoopResult",
                     "CondensedProblem"], RESULT),
}


def test_the_spec_holds_every_public_callable():
    objects = {name: getattr(fracdyn, name) for name in fracdyn.__all__
               if name not in fracdyn._NAMES}  # the names of the modules are not callables
    public = {name for name, obj in objects.items()
              if not (isinstance(obj, type) and issubclass(obj, (BaseException, Warning)))}
    assert public == set(SPEC) - {"FosSimulator.step"} | set(UNPROBED)
    assert not set(SPEC) & set(UNPROBED)


def _walk_finite(result) -> bool:
    """Whether every float in ``result``, a nest of arrays, numbers and records, is finite."""
    if isinstance(result, np.ndarray):
        return result.dtype.kind not in "fc" or bool(np.isfinite(result).all())
    if isinstance(result, (float, complex, np.floating, np.complexfloating)):
        return cmath.isfinite(result)
    if isinstance(result, (tuple, list)):
        return all(map(_walk_finite, result))
    return True


PROBES = [(name, arg, bad) for name, entry in SPEC.items() for arg in entry.probed
          for bad in BAD]


@pytest.mark.parametrize("name,arg,bad", PROBES)
def test_a_bad_value_raises_a_toolkit_error_naming_the_argument(name, arg, bad):
    entry = SPEC[name]
    call = lambda: entry.fn(**(entry.args | {arg: BAD[bad]}))  # noqa: E731
    if bad in entry.accepts.get(arg, ()):
        result = call()  # an infinite value that is valid, as a bound, may be held as given
        assert bad in ("inf", "-inf") or _walk_finite(result)
        return
    error, _ = entry.raises.get((arg, bad), (FracdynError, None))
    with pytest.raises(error) as caught:
        call()
    if error is FracdynError:
        pattern = entry.names.get(arg, rf"\b{re.escape(arg)}\b")
        assert re.search(pattern, str(caught.value)), str(caught.value)


def _same(got, want) -> bool:
    """Whether two results, nests of arrays, numbers and records, hold the same bits."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    if isinstance(want, (tuple, list)):
        return type(got) is type(want) and len(got) == len(want) and all(map(_same, got, want))
    return got == want


SERIES = [(name, arg) for name, entry in SPEC.items() for arg in entry.series]


def test_every_series_argument_declares_a_single_channel_value():
    assert {name for name, _ in SERIES} == {
        "frac_difference", "Trajectory", "simulate_fos", "simulate_network", "simulate_augmented",
        "reconstruct_initial_state", "me_batch", "solve_horizon", "run_closed_loop",
        "uncontrolled_baseline"}


@pytest.mark.parametrize("name,arg", SERIES)
def test_a_single_channel_series_reads_as_its_column(name, arg):
    entry = SPEC[name]
    args = entry.args | entry.series
    want = entry.fn(**args)
    assert _same(entry.fn(**(args | {arg: entry.series[arg].ravel()})), want)


#: 1-D single-channel series that each call below once refused, with their samples.
FLAT = {
    "Trajectory inputs": (lambda s: Trajectory(states=[1.0, 2.0, 3.0, 4.0], inputs=s),
                          [0.1, 0.2, 0.3]),
    "me_batch y": (lambda s: fracdyn.me_batch(F["lift"], F["config"], None, s), [0.3, 0.2, 0.4]),
    "me_batch u": (lambda s: fracdyn.me_batch(F["lift"], F["config"], s, [[0.3], [0.2], [0.4]]),
                   [0.5, -0.2, 0.1]),
    "solve_horizon history": (lambda s: fracdyn.solve_horizon(F["problem"], F["model"], s),
                              [1.0, 0.5, 0.2]),
    "reconstruct_initial_state y": (lambda s: fracdyn.reconstruct_initial_state(
        F["model"], None, [[1.0]], None, s, 3), [1.0, 0.3, 0.1]),
}


@pytest.mark.parametrize("case", FLAT)
def test_a_once_refused_1d_series_equals_its_column(case):
    call, samples = FLAT[case]
    assert _same(call(samples), call(_column(*samples)))


def _finite_like(value):
    """A strategy of finite, well-typed values of the kind and shape of ``value``."""
    if value is None or isinstance(value, bool):
        return st.just(value)
    if isinstance(value, int):
        return st.integers(-1, 6)
    if isinstance(value, float):
        return st.floats(-3.0, 3.0)
    if isinstance(value, complex):
        return st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    if isinstance(value, tuple) and all(isinstance(v, int) for v in value):
        return st.tuples(*(st.integers(-1, 30) for _ in value))
    try:
        shape = np.shape(np.asarray(value, dtype=float))
    except (TypeError, ValueError):  # pairs of an exponent and a matrix
        return st.just(value)
    return arrays(float, shape, elements=st.floats(-2.0, 2.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_finite_inputs_give_finite_results_or_a_toolkit_error(data):
    entry = SPEC[data.draw(st.sampled_from(sorted(SPEC)))]
    args = dict(entry.args)
    for arg in entry.probed:
        if data.draw(st.booleans()):
            args[arg] = data.draw(_finite_like(args[arg]))
    declared = tuple({FracdynError} | {error for error, _ in entry.raises.values()})
    try:
        result = entry.fn(**args)
    except declared:
        return
    assert _walk_finite(result), args
