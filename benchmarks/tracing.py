"""Spans recorded from outside fracdyn, at the attributes where its modules meet.

``install(recorder)`` replaces module attributes with wrappers that record a
span per call: the functions ``fracdyn.cli`` imports from the other modules,
the cross-module helpers listed in ``BOUNDARIES``, ``FosSimulator.step`` and
``cli.main`` itself.  Callers look these names up at call time, so the traced
code path is the untraced one plus the wrappers.  Nothing inside ``src/`` is
edited.  ``aggregate`` turns one pass's spans into per-layer figures.
"""

import functools
import importlib
import inspect
import json
import os
import time

#: (module, attribute, span name): cross-module calls outside ``fracdyn.cli``.
BOUNDARIES = (
    ("fracdyn.sysid", "build_weight_table", "fraccore.build_weight_table"),
    ("fracdyn.simulate", "build_weight_table", "fraccore.build_weight_table"),
    ("fracdyn.model", "build_weight_table", "fraccore.build_weight_table"),
    ("fracdyn.simulate", "network_series", "model.network_series"),
    ("fracdyn.analysis", "transition_matrices", "simulate.transition_matrices"),
    ("fracdyn.analysis", "augment_p", "model.augment_p"),
    ("fracdyn.mpc", "augment_p", "model.augment_p"),
    ("fracdyn.mpc", "solve_horizon", "mpc.solve_horizon"),
    ("fracdyn.mpc", "run_closed_loop", "mpc.run_closed_loop"),
    ("fracdyn.estimate", "me_filter_step", "estimate.me_filter_step"),
    # write_trajectory reaches atomic_write inside fileio; wrapped to count bytes
    ("fracdyn.fileio", "atomic_write", "fileio.atomic_write"),
)

#: Formatting helpers left unwrapped: their time is the CSV formatting that
#: ``cli.main.self_s`` is meant to hold.
UNWRAPPED_CLI_NAMES = frozenset({"fmt_float", "canonical_json"})


class Recorder:
    """In-memory span list of one process; written out once, at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start, end, note]
        self._stack = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "note")
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [dict(zip(keys, rec)) for rec in self.spans]}, fh)


def _written_bytes(args, result):
    return os.path.getsize(args[0])


def _solve_note(args, sol):
    """KKT residual (raw and scaled by 1 + |cost|), state rows or not, active first moves."""
    first_lo, first_hi = sol.active_lower[0], sol.active_upper[0]
    return {"kkt": sol.kkt_residual, "kkt_scaled": sol.kkt_residual / (1.0 + abs(sol.cost)),
            "state_rows": args[0].state_H is not None,
            "active": int((first_lo | first_hi).sum()), "moves": int(first_lo.size)}


_NOTES = {"fileio.atomic_write": _written_bytes, "mpc.solve_horizon": _solve_note}


def install(recorder: Recorder) -> None:
    """Wrap every boundary named in the module docstring."""
    cli = importlib.import_module("fracdyn.cli")
    for attr, fn in list(vars(cli).items()):
        origin = getattr(fn, "__module__", "") or ""
        if (inspect.isfunction(fn) and origin.startswith("fracdyn.") and origin != "fracdyn.cli"
                and attr not in UNWRAPPED_CLI_NAMES):
            span = f"{origin.split('.')[-1]}.{attr}"
            setattr(cli, attr, recorder.wrap(span, fn, _NOTES.get(span)))
    for module_name, attr, span in BOUNDARIES:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(span, getattr(module, attr), _NOTES.get(span)))
    simulate = importlib.import_module("fracdyn.simulate")
    simulate.FosSimulator.step = recorder.wrap("simulate.FosSimulator.step",
                                               simulate.FosSimulator.step)
    cli.main = recorder.wrap("cli.main", cli.main)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def aggregate(span_files) -> dict:
    """Per-layer figures of one pass from the span files of its jobs.

    Self time is a span's duration minus its children's; spans of one process
    nest strictly, so children never overlap.
    """
    self_s, calls = {}, {}
    solve_ms, kkt, kkt_box_scaled = [], [0.0], [0.0]
    active = moves = scores = written = 0
    identify_s = 0.0
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        by_id = {s["id"]: s for s in spans}
        child_time = {}
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(s["id"], 0.0)
            calls[name] = calls.get(name, 0) + 1
            note = s["note"]
            if name == "mpc.solve_horizon":
                solve_ms.append(1e3 * dur)
                kkt.append(note["kkt"])
                if not note["state_rows"]:
                    kkt_box_scaled.append(note["kkt_scaled"])
                active += note["active"]
                moves += note["moves"]
            elif name == "fileio.atomic_write":
                written += note
            elif name == "sysid.identify":
                identify_s += dur
            elif (name == "fraccore.build_weight_table" and s["parent"] >= 0
                  and by_id[s["parent"]]["name"] == "sysid.identify"):
                scores += 1
    return {
        "self_s": self_s,
        "calls": calls,
        "identify_scores": scores,
        "identify_ms_per_score": 1e3 * identify_s / scores if scores else 0.0,
        "atomic_write_bytes": written,
        "solve_p50_ms": _percentile(solve_ms, 50),
        "solve_p98_ms": _percentile(solve_ms, 98),
        "kkt_max": max(kkt),
        "kkt_box_scaled_max": max(kkt_box_scaled),
        "active_share": active / moves if moves else 0.0,
    }
