"""The file writers stream, keep the mode ``open`` would give, and leave no trace on failure.

``atomic_write`` takes a str or an iterable of str chunks.  The CSV writers hand
it a generator that formats ``fileio._BLOCK_ROWS`` rows at a time, and
``read_trajectory`` parses the file line by line, so neither holds a copy of
the whole file.  ``tracemalloc`` bounds the memory each one allocates beyond
the arrays it returns.
"""

import os
import stat
import tracemalloc

import numpy as np
import pytest

from fracdyn import NonFiniteError, Trajectory
from fracdyn.fileio import _BLOCK_ROWS, atomic_write, read_trajectory, write_table, write_trajectory


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.fixture
def restore_umask():
    saved = os.umask(0o022)
    yield
    os.umask(saved)


@pytest.mark.parametrize("mask", [0o022, 0o027, 0o077], ids=oct)
def test_a_new_file_gets_the_mode_of_open(tmp_path, restore_umask, mask):
    os.umask(mask)
    atomic_write(str(tmp_path / "new.txt"), "x\n")
    with open(tmp_path / "opened.txt", "w") as fh:
        fh.write("x\n")
    assert mode_of(tmp_path / "new.txt") == mode_of(tmp_path / "opened.txt") == 0o666 & ~mask
    assert os.umask(mask) == mask  # the umask is left as it was


@pytest.mark.parametrize("mode", [0o640, 0o604, 0o600], ids=oct)
def test_a_replaced_file_keeps_its_mode(tmp_path, restore_umask, mode):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    target.chmod(mode)
    write_table(str(target), ["a"], [[1.5]])
    assert target.read_text() == "a\n1.5\n"
    assert mode_of(target) == mode


def raise_after_two_blocks(rows):
    for k, row in enumerate(rows):
        if k == 2 * _BLOCK_ROWS:
            raise NonFiniteError("row is not finite")
        yield row


@pytest.mark.parametrize("write", [
    lambda path: atomic_write(path, raise_after_two_blocks(["0123456789\n"] * (3 * _BLOCK_ROWS))),
    lambda path: write_table(path, ["t", "x1"],
                             raise_after_two_blocks([k, 0.5 * k] for k in range(3 * _BLOCK_ROWS))),
], ids=["atomic_write", "write_table"])
def test_a_failed_streamed_write_leaves_nothing_behind(tmp_path, write):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,bytes\n")
    with pytest.raises(NonFiniteError):
        write(str(target))
    assert target.read_bytes() == b"old,bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def traced_peak(fn):
    """(result, bytes allocated at the peak of ``fn`` above what was allocated before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


MB = 10**6
K = 20_000


def test_trajectory_csv_memory_does_not_grow_with_the_steps(tmp_path):
    rng = np.random.default_rng(0)
    traj = Trajectory(states=rng.normal(size=(K + 1, 4)), inputs=rng.normal(size=(K, 1)),
                      outputs=None, dt=0.1)
    path = str(tmp_path / "traj.csv")
    _, written = traced_peak(lambda: write_trajectory(path, traj))
    assert os.path.getsize(path) > 2 * MB  # the file is larger than the bound
    assert written < 2 * MB
    back, read = traced_peak(lambda: read_trajectory(path))
    assert np.array_equal(back.states, traj.states) and np.array_equal(back.inputs, traj.inputs)
    assert read - back.states.nbytes - back.inputs.nbytes < 2 * MB


def test_table_memory_does_not_grow_with_the_rows(tmp_path):
    states = np.random.default_rng(1).normal(size=(K + 1, 5))
    rows = ((0.1 * k, *states[k], "") for k in range(K + 1))
    path = str(tmp_path / "table.csv")
    header = ["t", "x1", "x2", "x3", "x4", "x5", "note"]
    _, written = traced_peak(lambda: write_table(path, header, rows))
    assert os.path.getsize(path) > 2 * MB
    assert written < 2 * MB
