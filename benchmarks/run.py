"""Benchmark of fracdyn as a batch user runs it: every job a cold CLI process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed draws the workload's input files
(workloads.py); fracdyn only ever sees those files.  The run repeats passes
over the workload's jobs, each job its own process, for about S seconds.
Before each job it times the fixed reference load (reference.py), and before
each pass, with ``--trace 0``, ``import fracdyn`` (setup_s), each in a fresh
interpreter.
``pipeline_ref`` is the median pass wall divided by the median reference
wall, so that the drifting speed of a shared machine largely cancels.
Outputs are checked afterwards (checks.py) and must be byte-identical
between passes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced passes with traced ones (job.py --trace) and prints the
per-layer metrics.  The last stdout line is the JSON result; the lines
before it are a readable report.  See README.md.
"""

import os

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy loads in this process too

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

#: A run stops starting passes once this many seconds have gone, whatever
#: --seconds says, so that it ends within its 180 s allowance.
HARD_LIMIT_S = 150.0

JOB_NAMES = ("simulate", "identify", "gramians", "stability", "network_simulate", "estimate",
             "mpc", "mpc_state")
SELF_TIMES = (
    "fraccore.build_weight_table", "simulate.FosSimulator.step", "simulate.simulate_fos",
    "simulate.transition_matrices", "analysis.observability_matrices",
    "analysis.controllability_gramian", "analysis.augmented_spectral_radius",
    "model.augment_p", "sysid.identify", "fileio.write_trajectory", "fileio.read_trajectory",
    "simulate.simulate_network", "model.network_series", "model.augment_v",
    "estimate.run_estimator", "estimate.me_filter_step", "mpc.run_closed_loop",
    "mpc.uncontrolled_baseline", "cli.main",
)
CALL_COUNTS = ("fraccore.build_weight_table", "simulate.FosSimulator.step",
               "estimate.me_filter_step", "mpc.solve_horizon")


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def import_fracdyn():
    """Import fracdyn from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "fracdyn", "__init__.py")):
        fail(f"no fracdyn sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import fracdyn

    if not os.path.abspath(fracdyn.__file__).startswith(SRC + os.sep):
        fail(f"fracdyn imported from {fracdyn.__file__}, not from {SRC}")
    return fracdyn


def run_child(cmd, cwd: str, log: str, deadline: float):
    """Run one process to completion; returns (wall s, exit code, peak RSS KB, stderr).

    The process is killed at ``deadline`` (a ``time.monotonic()`` value), and
    when this process is interrupted while waiting for it.
    """
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    with open(log + ".stdout", "wb") as out, open(log + ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".stderr", errors="replace") as fh:
        stderr = fh.read()
    return wall, proc.returncode, usage.ru_maxrss, stderr


def import_sample(work: str, deadline: float) -> float:
    """Wall time of ``import fracdyn`` in a fresh interpreter."""
    wall, code, _, stderr = run_child([sys.executable, "-c", "import fracdyn"], work,
                                      os.path.join(work, "import"), deadline)
    if code != 0:
        fail(f"import fracdyn failed in a fresh interpreter:\n{stderr}")
    return wall


def reference_sample(work: str, deadline: float) -> float:
    """Wall time of the fixed reference load in a fresh interpreter."""
    wall, code, _, stderr = run_child([sys.executable, os.path.join(BENCH, "reference.py")],
                                      work, os.path.join(work, "reference"), deadline)
    if code != 0:
        fail(f"the reference load failed:\n{stderr}")
    return wall


def job_command(job, spans: str | None, run_id: str) -> list:
    trace = ["--trace", spans, run_id] if spans else []
    if job.library:
        return [sys.executable, os.path.join(BENCH, "job.py"), *trace, *job.argv]
    if spans:
        return [sys.executable, os.path.join(BENCH, "job.py"), *trace, "cli", *job.argv]
    return [sys.executable, "-m", "fracdyn", *job.argv]


def run_pass(wl, work: str, index: int, traced: bool, deadline: float, setup, ref) -> dict:
    """One pass over the workload's jobs, in order, in a fresh directory.

    With a ``setup`` list, an ``import fracdyn`` sample is taken first, and
    a reference sample is appended to ``ref`` before each job, so that both
    spread over the whole run.  Neither is part of the pass wall, which sums
    the job walls.
    """
    d = os.path.join(work, f"pass-{index:02d}")
    os.makedirs(d)
    record = {"dir": d, "traced": traced, "walls": {}, "problems": {}, "rss_kb": 0, "spans": []}
    if setup is not None:
        setup.append(import_sample(work, deadline))
    for job in wl.jobs:
        ref.append(reference_sample(work, deadline))
        spans = os.path.join(d, f"{job.name}.spans.json") if traced else None
        run_id = f"{wl.name}/seed{wl.seed}/pass{index}/{job.name}"
        wall, code, rss, stderr = run_child(job_command(job, spans, run_id), d,
                                            os.path.join(d, job.name), deadline)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        for out in job.outputs:
            path = os.path.join(d, out)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                problems.append(f"missing or empty output {out}")
        if spans:
            if os.path.isfile(spans):
                record["spans"].append(spans)
            else:
                problems.append("no spans written")
        record["walls"][job.name] = wall
        record["problems"][job.name] = problems
        record["rss_kb"] = max(record["rss_kb"], rss)
    record["wall"] = sum(record["walls"].values())
    return record


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def environment(fracdyn, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fracdyn": fracdyn.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; "unknown" without one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setup: list, ref: list, passes: list) -> dict:
    """End-to-end metrics (name -> (value, unit)) of an untraced run."""
    return {
        "setup_s": (median(setup), "s"),
        "pipeline_ref": (median([p["wall"] for p in passes]) / median(ref), "ref"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024.0, "MB"),
    }


def per_layer(aggs: list, ref: list, traced: list, untraced: list, gauges: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)); 0 where a layer does not run."""
    last = aggs[-1]
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (median([a["self_s"].get(name, 0.0) for a in aggs]), "s")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (last["calls"].get(name, 0), "count")
    m["sysid.identify.scores"] = (last["identify_scores"], "count")
    m["sysid.identify.ms_per_score"] = (median([a["identify_ms_per_score"] for a in aggs]), "ms")
    m["sysid.identify.alpha_err_max"] = (gauges.get("alpha_err_max", 0.0), "ratio")
    m["fileio.atomic_write.bytes"] = (last["atomic_write_bytes"], "bytes")
    m["mpc.solve_horizon.p50_ms"] = (median([a["solve_p50_ms"] for a in aggs]), "ms")
    m["mpc.solve_horizon.p98_ms"] = (median([a["solve_p98_ms"] for a in aggs]), "ms")
    m["mpc.kkt_residual_max"] = (max(a["kkt_max"] for a in aggs), "ratio")
    m["mpc.active_share"] = (last["active_share"], "ratio")
    m["pipeline_s"] = (median([p["wall"] for p in untraced]), "s")
    m["reference_s"] = (median(ref), "s")
    for job in JOB_NAMES:
        m[f"{job}_s"] = (median([p["walls"][job] for p in untraced if job in p["walls"]]), "s")
    m["trace.overhead_s"] = (median([p["wall"] for p in traced])
                             - median([p["wall"] for p in untraced]), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    fracdyn = import_fracdyn()
    sys.path.insert(0, BENCH)
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    deadline = time.monotonic() + HARD_LIMIT_S + 10.0
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.prepare(args.workload, args.seed, os.path.join(work, "inputs"))
        env = environment(fracdyn, args)
        import_sample(work, deadline)  # warm-up: compiles the bytecode cache
        reference_sample(work, deadline)
        setup = None if args.trace else []
        ref = []
        passes = []
        started = time.monotonic()
        budget = min(args.seconds, HARD_LIMIT_S)
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            begun = time.monotonic()
            passes.append(run_pass(wl, work, len(passes), traced, deadline, setup, ref))
            now = time.monotonic()
            # no pass is started that would, at the last pass's pace, end past the budget
            if len(passes) >= 2 and (now - started) + (now - begun) > budget:
                break

        problems, gauges = checks.check_pass(wl, passes[0]["dir"])
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        aggs = [tracing.aggregate(p["spans"]) for p in traced]
        if aggs and "mpc" in problems:
            problems["mpc"] += checks.kkt_problems(max(a["kkt_box_scaled_max"] for a in aggs))
        attempted = failed = 0
        failures = []
        for p in passes:
            for job in wl.jobs:
                mine = list(p["problems"][job.name]) + problems[job.name]
                if p is not passes[0]:
                    mine += [f"{f} differs from pass 0"
                             for f in checks.differing_files(job.outputs, p["dir"], passes[0]["dir"])]
                attempted += 1
                if mine:
                    failed += 1
                    failures.append(f"{os.path.basename(p['dir'])} {job.name}: {'; '.join(mine)}")

        if args.trace:
            metrics = per_layer(aggs, ref, traced, untraced, gauges)
        else:
            metrics = end_to_end(setup, ref, passes)
        report(wl, env, setup, ref, passes, metrics, attempted, failed, failures, gauges)
        save(args, env, wl, passes, setup, ref, metrics, failures, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def report(wl, env, setup, ref, passes, metrics, attempted, failed, failures, gauges) -> None:
    """Readable report: every end-to-end timing of this workload with its sample count."""
    untraced = [p for p in passes if not p["traced"]]
    print(f"# fracdyn benchmark: workload {wl.name}, seed {wl.seed}, "
          f"{len(untraced)} untraced + {len(passes) - len(untraced)} traced passes")
    print("# env " + json.dumps(env))
    rows = [("setup_s", median(setup), "s", len(setup))] if setup else []
    pipeline = median([p["wall"] for p in untraced])
    rows.append(("pipeline_ref", pipeline / median(ref), "ref", len(untraced)))
    rows.append(("pipeline_s", pipeline, "s", len(untraced)))
    rows.append(("reference_s", median(ref), "s", len(ref)))
    for job in wl.jobs:
        walls = [p["walls"][job.name] for p in untraced]
        rows.append((f"{job.name}_s", median(walls), "s", len(walls)))
    rows.append(("peak_rss_mb", max(p["rss_kb"] for p in passes) / 1024.0, "MB", len(passes)))
    rows.append(("error_rate", failed / attempted, "ratio", attempted))
    if "alpha_err_max" in gauges:
        rows.append(("sysid.identify.alpha_err_max", gauges["alpha_err_max"], "ratio", 1))
    print(f"# {'metric':<30} {'median':>12} {'unit':<6} samples")
    for name, value, unit, n in rows:
        print(f"# {name:<30} {value:>12.6g} {unit:<6} {n}")
    print(f"# failed {failed} of {attempted} jobs")
    for line in failures:
        print(f"# FAILED {line}")
    if any(p["traced"] for p in passes):
        print("# per-layer (traced passes; self times are medians over passes)")
        for name, (value, unit) in metrics.items():
            print(f"# {name:<40} {value:>14.6g} {unit}")


def save(args, env, wl, passes, setup, ref, metrics, failures, traced) -> None:
    """Keep the run record, and the spans of the first traced pass, under .bench_out/."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{wl.seed}-trace{args.trace}")
    record = {
        "env": env,
        "setup_s": setup,
        "reference_s": ref,
        "passes": [{"traced": p["traced"], "wall": p["wall"], "walls": p["walls"],
                    "rss_kb": p["rss_kb"]} for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        spans = {}
        for path in traced[0]["spans"]:
            with open(path) as fh:
                data = json.load(fh)
            spans[data["run_id"]] = data["spans"]
        with open(stem + ".spans.json", "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
