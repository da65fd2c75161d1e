"""One benchmark job in its own interpreter.

    python job.py [--trace SPANS.json RUN_ID] cli ARG...
    python job.py [--trace SPANS.json RUN_ID] mpc-state SCENARIO.json OUT.csv

``cli`` calls ``fracdyn.cli.main(ARG...)``, as ``python -m fracdyn`` does.
``mpc-state`` is the library job the CLI cannot express: ``run_closed_loop``
with a soft linear state row, which takes the L-BFGS-B penalty path.  It
writes the closed-loop trajectory (states and applied inputs) to OUT.csv and
the solve count to OUT.csv.summary.json.  With ``--trace`` the fracdyn module
boundaries are wrapped first (see tracing.py) and the spans are written to
SPANS.json when the job ends.
"""

import json
import sys

import numpy as np


def mpc_state(scenario_path: str, out: str) -> int:
    from fracdyn import mpc
    from fracdyn.fileio import atomic_write, canonical_json, read_model, write_trajectory

    with open(scenario_path) as fh:
        sc = json.load(fh)
    plant = read_model(sc["model"])
    problem = mpc.MpcProblem(
        p=sc["p"], P=sc["horizon"], M=sc["control_horizon"], Q=sc["Q"], R=sc["R"],
        u_lo=sc["u_lo"], u_hi=sc["u_hi"],
        state_H=np.asarray(sc["state_H"]), state_h=np.asarray(sc["state_h"]),
    )
    result = mpc.run_closed_loop(plant, problem, sc["K"], sc["seed"],
                                 x0=sc["x0"], noise_sigma=sc["sigma"])
    write_trajectory(out, result.trajectory)
    atomic_write(out + ".summary.json",
                 canonical_json({"steps": sc["K"], "solves": len(result.solutions)}) + "\n")
    return 0


def main(argv) -> int:
    recorder = None
    if argv[0] == "--trace":
        spans_path, run_id, argv = argv[1], argv[2], argv[3:]
        import tracing

        recorder = tracing.Recorder(run_id)
        tracing.install(recorder)
    try:
        if argv[0] == "cli":
            import fracdyn.cli

            return fracdyn.cli.main(list(argv[1:]))
        if argv[0] == "mpc-state":
            return mpc_state(*argv[1:])
        print(f"job.py: unknown job {argv[0]!r}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
