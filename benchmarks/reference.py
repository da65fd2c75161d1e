"""Reference load: a fixed amount of work that runs no fracdyn code.

    python3 benchmarks/reference.py

run.py times this in a fresh interpreter before every job and divides the
pass walls by its median wall (``pipeline_ref``), so that the speed of a
shared machine, which drifts by a third and more over minutes, largely
cancels.
It is built like a benchmark job: interpreter start, the imports fracdyn
depends on, a Python loop of small numpy operations over a growing history,
and one dense LAPACK call.  Its work never changes with the seed or with
fracdyn, so a change to fracdyn moves ``pipeline_ref`` by as much as it
moves the pass wall.
"""

import numpy as np
import scipy.linalg

STEPS = 3000
HISTORY = 64
DENSE = 160


def main() -> float:
    rng = np.random.default_rng(0)
    A = -0.3 * np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    weights = 1.0 / np.arange(1, HISTORY + 1) ** 1.5
    states = np.zeros((STEPS + 1, 4))
    states[0] = 1.0
    for k in range(STEPS):
        lo = max(0, k + 1 - HISTORY)
        memory = weights[: k + 1 - lo] @ states[lo : k + 1][::-1]
        states[k + 1] = A @ states[k] - 0.1 * memory
    M = rng.standard_normal((DENSE, DENSE))
    radius = np.abs(scipy.linalg.eigvals(M)).max()
    return float(np.abs(states).sum() + radius)


if __name__ == "__main__":
    value = main()
    if not np.isfinite(value):
        raise SystemExit("reference load produced a non-finite value")
