"""The trajectory CSV writer and reader as they were written cell by cell.

``loop_write_trajectory`` formats every cell through ``fmt_float`` and the csv
module, and ``loop_read_trajectory`` converts every used cell with ``float``,
row by row.  The library formats a block of rows with one ``%`` string and
parses all lines of a block but the last with numpy, leaving to the csv module
and ``float`` each block's last line and the blocks numpy refuses; it must
write the same bytes and read the same arrays, and raise the same messages.
Both go ``_BLOCK_ROWS`` rows or lines at a time, so the oracles also run with
the last row on either side of a block boundary, with blank rows, quoted
commas and faults past the first block, and with irregular lines planted on
both sides of every block boundary of a long file.  The first short row or
used cell that is not a number, in file order, raises DimensionError naming
its line (and the cell's column), in both; a time cell is used in the first
two rows only, for ``dt``.
"""

import csv
import io
import warnings

import numpy as np
import pytest

from fracdyn import DimensionError, Trajectory
from fracdyn.fileio import _BLOCK_ROWS, fmt_float, read_trajectory, write_trajectory

B = _BLOCK_ROWS


def loop_write_trajectory(path, traj):
    n = traj.n
    m = traj.inputs.shape[1] if traj.inputs is not None else 0
    q = traj.outputs.shape[1] if traj.outputs is not None else 0
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(q)])
    blocks = [np.arange(traj.K + 1)[:, None] * traj.dt, traj.states]
    if m:
        blocks.append(np.vstack([traj.inputs, np.zeros((1, m))]))
    if q:
        blocks.append(traj.outputs)
    rows = np.hstack(blocks).tolist()
    rows[-1][1 + n: 1 + n + m] = [""] * m
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell if isinstance(cell, (str, int)) else fmt_float(cell) for cell in row]
                     for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write(out.getvalue())


def loop_read_trajectory(path):
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionError(f"{path}: empty trajectory file") from None
        cols = {name: idx for idx, name in enumerate(header)}
        x_idx = [cols[h] for h in header if h.startswith("x")]
        u_idx = [cols[h] for h in header if h.startswith("u")]
        y_idx = [cols[h] for h in header if h.startswith("y")]
        used = set(x_idx + u_idx + y_idx)
        rows = []  # each row's values by column index
        for r in reader:
            if not any(cell.strip() for cell in r):
                continue
            if len(r) < len(header):
                raise DimensionError(f"{path}: line {reader.line_num} has {len(r)} fields, "
                                     f"the header has {len(header)}")
            row = {}
            for i, name in enumerate(header):
                if i in u_idx and not r[i].strip():
                    row[i] = 0.0
                elif i in used or (name == "t" and i == cols["t"] and len(rows) < 2):
                    row[i] = loop_number(path, reader.line_num, name, r[i])
            rows.append(row)
    if "t" not in cols:
        raise DimensionError(f"{path}: trajectory header lacks the time column")
    if not x_idx:
        raise DimensionError(f"{path}: trajectory header lacks state columns")
    T = len(rows)
    states = np.array([[r[i] for i in x_idx] for r in rows])
    outputs = np.array([[r[i] for i in y_idx] for r in rows]) if y_idx else None
    inputs = None
    if u_idx and T > 1:
        inputs = np.array([[r[i] for i in u_idx] for r in rows[: T - 1]])
    dt = 1.0
    if T >= 2:
        t0, t1 = rows[0][cols["t"]], rows[1][cols["t"]]
        dt = t1 - t0 if t1 > t0 else 1.0
    return Trajectory(states=states, inputs=inputs, outputs=outputs, dt=dt)


def loop_number(path, line, name, cell):
    try:
        return float(cell)
    except ValueError:
        raise DimensionError(
            f"{path}: line {line}, column {name}: {cell!r} is not a number") from None


def _numbered(start, count):
    """``count`` rows of a t,x1,u1,y1 file, every cell a number."""
    return "".join(f"{k},{0.5 * k},{k % 3},{k % 7}\n" for k in range(start, start + count))


def assert_same_trajectory(a, b):
    for name in ("states", "inputs", "outputs"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and np.array_equal(x, y), name
    assert a.dt == b.dt


def _trajectory(seed, K, n, m, q, dt):
    rng = np.random.default_rng(seed)
    # magnitudes from 1e-300 to 1e300, signed zeros and exact integers among them
    scale = 10.0 ** rng.integers(-300, 301, size=(K + 1, n))
    states = rng.normal(size=(K + 1, n)) * scale
    states[:: 7] = np.round(states[:: 7])
    states[0, 0] = -0.0
    inputs = rng.normal(size=(K, m)) if m else None
    outputs = rng.normal(size=(K + 1, q)) if q else None
    return Trajectory(states=states, inputs=inputs, outputs=outputs, dt=dt)


@pytest.mark.parametrize("K", [0, 1, 2, 65, 400, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("m,q", [(0, 0), (2, 0), (0, 3), (1, 2)])
@pytest.mark.parametrize("dt", [1.0, 0.1])
def test_trajectory_csv_matches_the_cell_loops(tmp_path, K, m, q, dt):
    traj = _trajectory(K + 10 * m + q, K, 3, m, q, dt)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_trajectory(str(fast), traj)
    loop_write_trajectory(str(slow), traj)
    assert fast.read_bytes() == slow.read_bytes()
    assert_same_trajectory(read_trajectory(str(fast)), loop_read_trajectory(str(slow)))


@pytest.mark.parametrize("text", [
    # a blank last input row, and a blank input cell inside the run
    "t,x1,u1\n0,1.5,\n1,2.5,0.25\n2,3.5,\n",
    # rows of blank cells and blank lines are skipped; extra fields are ignored
    "t,x1,x2,y1\n0,1,2,3\n,,,\n\n1,4,5,6,7\n  \n2,7,8,9\n",
    # only states, whitespace around cells, CRLF line ends, a text column
    "t,x1,note\r\n0, 1.25 ,a\r\n0.5,-2e-3,b\r\n",
    # a quoted text cell that holds a comma
    't,x1,note,y1\n0,1,"a,b",2\n1,3,c,4\n',
    # a single row, and a header with no rows
    "t,x1,u1,y1\n0,1,,2\n",
    "t,x1\n",
    # every row longer than the header, and blank lines before the only row
    "t,x1\n0,1,9\n1,2,9\n2,3,9\n",
    "t,x1\n\n\n  \n0,1\n",
])
def test_reader_contracts_match_the_cell_loop(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a body with no rows
        fast = read_trajectory(str(path))
    assert_same_trajectory(fast, loop_read_trajectory(str(path)))


@pytest.mark.parametrize("text", [
    "t,x1,x2\n0,1.0,2.0\n1,0.5\n2,0.25,0.5\n",
    # every row short of the header's last column
    "t,x1,x2\n0,1\n1,2\n2,3\n",
    "t,x1,u1\n0,1,2\n\n,,\n3\n",
    # three commas, but two fields
    't,x1,x2\n0,1,2\n1,"2,3"\n',
    "",
    "x1\n1\n",
    "t,u1\n0,1\n",
    # a time cell of the first two rows that is blank or not a number
    "t,x1\n,1.5\n,2.5\n",
    "t,x1\nabc,1.5\n1,2.5\n",
    # a used cell that is not a number: a state in the first block, an output past it,
    # an input, an input of the last row, and a state as the first block's last line
    "t,x1,x2\n0,1,2\n1,abc,3\n2,4,5\n",
    pytest.param("t,x1,u1,y1\n" + _numbered(0, B + 10) + "1,2,3,zz\n" + _numbered(0, 3),
                 id="output past the first block"),
    "t,x1,u1\n0,1,2\n1,2,x\n2,3,\n",
    "t,x1,u1\n0,1,2\n1,2,x\n",
    pytest.param("t,x1,u1,y1\n" + _numbered(0, B - 1) + "1,1_0_,3,4\n" + _numbered(0, 3),
                 id="state as the first block's last line"),
    # faults in file order: the unreadable cell before the short row, and the other way round
    "t,x1\n0,1\n1,abc\n2\n",
    "t,x1\n0,1\n2\n1,abc\n",
    # an unreadable cell before a header fault
    "t,u1\n0,1\n1,abc\n",
])
def test_reader_errors_match_the_cell_loop(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DimensionError) as slow:
        loop_read_trajectory(str(path))
    with pytest.raises(DimensionError) as fast:
        read_trajectory(str(path))
    assert str(fast.value) == str(slow.value)


def test_an_unreadable_cell_names_its_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,x1\n0,1.0\n1,abc\n")
    with pytest.raises(DimensionError) as exc:
        read_trajectory(str(path))
    assert str(exc.value) == f"{path}: line 3, column x1: 'abc' is not a number"


def _rows(start, count):
    """``count`` rows of a t,x1,note,y1 file, the note a quoted cell that holds a comma."""
    return "".join(f'{k},{0.5 * k},"n,{k}",{k % 7}\n' for k in range(start, start + count))


#: Body rows before the planted lines: the first block and some of the second.
PAST = B + 10


@pytest.mark.parametrize("planted,kept", [
    (",,,\n", 0), ("\n", 0), ("  \n", 0), ('1e3,2,"a,b",-1\n', 1), ("7,8,,9\n", 1)])
def test_reader_contracts_hold_past_the_first_block(tmp_path, planted, kept):
    path = tmp_path / "in.csv"
    path.write_bytes(("t,x1,note,y1\n" + _rows(0, PAST) + planted + _rows(PAST, 5)).encode())
    fast = read_trajectory(str(path))
    assert_same_trajectory(fast, loop_read_trajectory(str(path)))
    assert fast.states.shape == (PAST + kept + 5, 1)


@pytest.mark.parametrize("short", ["1,0.5\n", '1,"2,3",4\n', "1\n"])
def test_reader_names_the_true_line_past_the_first_block(tmp_path, short):
    # the header, the rows, a row of blank cells, a blank line, a quoted comma, the fault
    text = "t,x1,note,y1\n" + _rows(0, PAST) + ",,,\n\n" + _rows(PAST, 1) + short + _rows(0, 3)
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DimensionError) as slow:
        loop_read_trajectory(str(path))
    with pytest.raises(DimensionError) as fast:
        read_trajectory(str(path))
    assert str(fast.value) == str(slow.value)
    assert f"line {1 + PAST + 3 + 1} has " in str(fast.value)



def _line(cells, order, end="\n"):
    return ",".join(cells[i] for i in order) + end


#: Irregular lines planted near the block boundaries.  Each takes the cells of a
#: regular row of a t,x1,x2,u1,y1,note file and the file's column order.  Split at
#: every comma, the quoted note puts numbers where the columns after it belong, and
#: the row short of its note still holds every used column.
PLANTS = {
    "quoted comma": lambda c, o: _line(c[:5] + ['"a,1,2,3,b"'], o),
    "blank cells": lambda c, o: _line([""] * 6, o),
    "blank line": lambda c, o: "\n",
    "blank input": lambda c, o: _line(c[:3] + [""] + c[4:], o),
    "crlf": lambda c, o: _line(c, o, "\r\n"),
    "whitespace input": lambda c, o: _line(c[:3] + ["  "] + c[4:], o),
    "whitespace note": lambda c, o: _line(c[:5] + [" \t"], o),
    "short row": lambda c, o: _line(c, o[:3]),
    "short of the note": lambda c, o: _line(c, o[:-1]),
    "text time": lambda c, o: _line(["abc"] + c[1:], o),
    "long row": lambda c, o: _line(c + ["7"], o + [6]),
    "quoted number": lambda c, o: _line(c[:1] + [f'"{c[1]}"'] + c[2:], o),
    "unreadable state": lambda c, o: _line(c[:2] + ["abc"] + c[3:], o),
}

#: The plants that make a file fail to read.
FAULTS = ["short row", "short of the note", "unreadable state"]

#: Column orders of the fuzzed files: the note last (past every used column), inside, or
#: left out, so that numpy reads the blocks without a plant.
LAYOUTS = {"note last": [0, 1, 2, 3, 4, 5], "note inside": [0, 1, 5, 2, 3, 4],
           "no note": [0, 1, 2, 3, 4]}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", range(10))
def test_reader_matches_the_cell_loop_around_every_block_boundary(tmp_path, seed, layout):
    rng = np.random.default_rng(seed)
    order = LAYOUTS[layout]
    rows = 3 * B + int(rng.integers(1, 40))
    values = rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-300, 301, size=(rows, 4))
    cells = [[fmt_float(0.5 * k), *map(fmt_float, values[k]), f"n{k}"] for k in range(rows)]
    lines = [_line(row, order) for row in cells]
    kinds = sorted(PLANTS)
    if seed % 2:  # without a fault the file reads
        kinds = [kind for kind in kinds if kind not in FAULTS]
    for boundary in range(B, rows, B):  # the body line that starts a block, and its neighbours
        for k in rng.choice(np.arange(boundary - 4, boundary + 4), size=4, replace=False):
            lines[k] = PLANTS[kinds[rng.integers(len(kinds))]](cells[k], order)
    path = tmp_path / "fuzz.csv"
    header = _line(["t", "x1", "x2", "u1", "y1", "note"], order)
    path.write_bytes((header + "".join(lines)).encode())
    try:
        slow = loop_read_trajectory(str(path))
    except DimensionError as exc:
        with pytest.raises(DimensionError) as fast:
            read_trajectory(str(path))
        assert str(fast.value) == str(exc)
        return
    fast = read_trajectory(str(path))
    for name in ("states", "inputs", "outputs"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert fast.dt == slow.dt


@pytest.mark.parametrize("m,q", [(0, 0), (2, 0), (0, 3), (2, 1)])
def test_a_written_trajectory_takes_one_numpy_parse_and_one_loose_line_a_block(
        tmp_path, monkeypatch, m, q):
    path = tmp_path / "traj.csv"
    write_trajectory(str(path), _trajectory(m, 3 * B + 4, 3, m, q, 0.1))  # 3 * B + 5 rows
    slow = loop_read_trajectory(str(path))
    parsed, loose = [], []
    loadtxt, reader = np.loadtxt, csv.reader
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: parsed.append(len(lines)) or
                        loadtxt(lines, **kw))
    monkeypatch.setattr(csv, "reader", lambda lines: loose.append(list(lines)) or reader(lines))
    fast = read_trajectory(str(path))
    assert parsed == [B - 1, B - 1, B - 1, 4]
    # the header, then the last line of each block, the file's last (its blank inputs) among them
    assert [len(lines) for lines in loose] == [1, 1, 1, 1, 1]
    assert loose[-1] == path.read_text().splitlines(True)[-1:]
    assert_same_trajectory(fast, slow)
