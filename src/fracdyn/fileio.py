"""Canonical on-disk formats: model JSON, trajectory CSV, Bode CSV, manifests.

Every float is printed with one fixed 17-significant-digit formatter and
keys are emitted in a fixed order, so serialize -> parse -> serialize is
byte-identical and repeated runs with the same inputs produce byte-identical
files.  Output files are written atomically (temp file + rename), and every
JSON file (a model, a report, a summary, a manifest) by :func:`write_json`.
Each CLI run writes its summary, when it has one, to
``<first output>.summary.json`` and a manifest to
``<first output>.manifest.json`` naming its inputs, outputs (the summary
last), seed, the package version, and the digest of its effective
configuration.

CSV outputs are streamed to the temp file in blocks of rows, and the
trajectory reader parses ``_BLOCK_ROWS`` lines at a time, each line once, so
their working memory does not grow with the number of steps K.  A written file gets the mode that
``open(path, "w")`` would leave: a replaced file keeps its mode, and a new one
gets 0o666 less the process umask.
"""

import csv
import io
import itertools
import json
import os
import stat

import numpy as np

from . import __version__
from .errors import DimensionError
from .model import FosModel, MultiTermNetwork, Trajectory

__all__ = [
    "fmt_float",
    "canonical_json",
    "config_digest",
    "atomic_write",
    "write_json",
    "write_model",
    "read_model",
    "write_table",
    "write_trajectory",
    "read_trajectory",
    "write_bode",
    "write_manifest",
]


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form (round-trips every float64)."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered dicts, fixed float formatting."""
    out = io.StringIO()
    _emit(obj, out)
    return out.getvalue()


def _emit(obj, out) -> None:
    if isinstance(obj, dict):
        out.write("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(key)))
            out.write(": ")
            _emit(val, out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.write("[")
        for i, val in enumerate(items):
            if i:
                out.write(", ")
            _emit(val, out)
        out.write("]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(fmt_float(obj))
    elif obj is None:
        out.write("null")
    else:
        out.write(json.dumps(str(obj)))


def config_digest(config: dict) -> str:
    """SHA-256 hex digest of the canonical bytes of a configuration dict."""
    import hashlib  # here, not at import: only a manifest needs it, and it loads OpenSSL

    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def atomic_write(path: str, text) -> None:
    """Write-then-rename so readers never observe a partial file.

    ``text`` is a str or an iterable of str chunks, written in order.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # created with 0o666 so the umask applies, as it does for open(path, "w");
    # O_EXCL refuses, never overwrites, a name that is already taken
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))  # a replaced file keeps its mode
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """``obj`` as canonical JSON and a newline, written atomically."""
    atomic_write(path, canonical_json(obj) + "\n")


def model_to_dict(model) -> dict:
    if isinstance(model, FosModel):
        return {
            "n": model.n,
            "m": model.m,
            "alpha": model.alpha,
            "A": model.A,
            "B": model.B,
            "Bw": model.Bw,
        }
    if isinstance(model, MultiTermNetwork):
        def terms(pairs):
            return [{"exponent": e, "matrix": M} for e, M in pairs]

        return {
            "state_terms": terms(model.state_terms),
            "input_terms": terms(model.input_terms),
            "disturbance_terms": terms(model.disturbance_terms),
            "C": model.C,
        }
    raise DimensionError(f"cannot serialize object of type {type(model).__name__}")


def model_from_dict(data: dict):
    """Model from its JSON form; a ``null`` optional field counts as absent."""
    if not isinstance(data, dict):
        raise DimensionError("a model file must hold a JSON object")
    if "state_terms" in data:
        def terms(key):
            items = [] if data.get(key) is None else data[key]
            if not (isinstance(items, list) and all(
                    isinstance(item, dict) and {"exponent", "matrix"} <= item.keys()
                    and not isinstance(item["exponent"], bool) for item in items)):
                raise DimensionError(
                    f"{key} must be a list of objects with a numeric 'exponent' and a 'matrix'")
            return tuple((item["exponent"], item["matrix"]) for item in items)

        return MultiTermNetwork(
            state_terms=terms("state_terms"),
            input_terms=terms("input_terms"),
            disturbance_terms=terms("disturbance_terms"),
            C=data.get("C"),
        )
    if "A" not in data or "alpha" not in data:
        raise DimensionError("model file lacks the required 'alpha' and 'A' fields")
    model = FosModel(alpha=data["alpha"], A=data["A"], B=data.get("B"), Bw=data.get("Bw"))
    for key, size in (("n", model.n), ("m", model.m)):
        if key in data and (isinstance(data[key], bool) or data[key] != size):
            raise DimensionError(f"declared {key}={data[key]!r} but the model has {key}={size}")
    return model


def write_model(path: str, model) -> None:
    write_json(path, model_to_dict(model))


def read_model(path: str):
    with open(path, "r") as fh:
        return model_from_dict(json.load(fh))


#: Rows formatted per chunk that the CSV writers hand to ``atomic_write``.
_BLOCK_ROWS = 2048


def _csv_text(rows) -> str:
    out = io.StringIO()  # a fresh one per block: a rewound StringIO holds 4 bytes a character
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def write_table(path: str, header: list, rows) -> None:
    """CSV of a header and rows; str and int cells as they are, others via ``fmt_float``."""
    def chunks():
        yield _csv_text([header])
        rows_left = iter(rows)
        while block := list(itertools.islice(rows_left, _BLOCK_ROWS)):
            yield _csv_text([cell if isinstance(cell, (str, int)) else fmt_float(cell)
                             for cell in row] for row in block)

    atomic_write(path, chunks())


def write_trajectory(path: str, traj: Trajectory) -> None:
    """CSV with header t,x1..xn[,u1..um][,y1..yq]; the last input row is blank.

    Cells are ``fmt_float``'s text: one ``%`` format of a block of rows writes them.
    """
    n, K = traj.n, traj.K
    m = traj.inputs.shape[1] if traj.inputs is not None else 0
    q = traj.outputs.shape[1] if traj.outputs is not None else 0
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(q)])
    cells = ["%.17g"] * len(header)
    row = ",".join(cells) + "\n"
    cells[1 + n : 1 + n + m] = [""] * m
    last_row = ",".join(cells) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, K, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, K)
            blocks = [np.arange(lo, hi)[:, None] * traj.dt, traj.states[lo:hi]]
            if m:
                blocks.append(traj.inputs[lo:hi])
            if q:
                blocks.append(traj.outputs[lo:hi])
            yield row * (hi - lo) % tuple(np.hstack(blocks).ravel().tolist())
        yield last_row % (K * traj.dt, *traj.states[K], *(traj.outputs[K] if q else ()))

    atomic_write(path, chunks())


def _cell_or_zero(cell: str) -> float:
    return float(cell) if cell.strip() else 0.0


def read_trajectory(path: str) -> Trajectory:
    """Parse a trajectory CSV; missing u/y blocks and blank input cells are tolerated.

    Rows of blank cells are skipped, a blank input cell reads 0, and the time
    column is read from the first two rows only, for ``dt``.  numpy parses the
    body ``_BLOCK_ROWS`` lines at a time.  A block it cannot take exactly is
    halved until each line it cannot take stands alone: a line with a quote
    character, a blank cell, too few fields, or a number that only ``float``
    reads (``1_000``).  The csv module splits such a line and ``float``
    converts its cells, so a quoted cell may hold a comma but not a line break.
    """
    with open(path, "r") as fh:
        head = fh.readline()
        if not head:
            raise DimensionError(f"{path}: empty trajectory file")
        header = next(csv.reader([head]))
        width = len(header)

        def rows(lines, first: int):
            """(line number, cells) of each row that is not blank; ``lines`` start at ``first``."""
            reader = csv.reader(lines)
            for row in reader:
                if not "".join(row).strip():
                    continue
                if len(row) < width:
                    raise DimensionError(f"{path}: line {first + reader.line_num - 1} has "
                                         f"{len(row)} fields, the header has {width}")
                yield first + reader.line_num - 1, row

        cols = {name: idx for idx, name in enumerate(header)}
        x_idx = [cols[h] for h in header if h.startswith("x")]
        u_idx = [cols[h] for h in header if h.startswith("u")]
        y_idx = [cols[h] for h in header if h.startswith("y")]
        lacks = ("the time column" if "t" not in cols else
                 "state columns" if not x_idx else None)
        if lacks:
            for _ in rows(fh, 2):  # a short row is reported before the header
                pass
            raise DimensionError(f"{path}: trajectory header lacks {lacks}")
        used = sorted({*x_idx, *u_idx, *y_idx})
        convert = [_cell_or_zero if i in u_idx else float for i in used]
        # numpy refuses a line that lacks a used column, so only fields past the
        # last used one need counting
        counted = used[-1] < width - 1
        parts, times = [], []  # arrays of parsed rows; (line, t cell) of the first two rows

        def parse(lines: list, first: int) -> None:
            text = "".join(lines)
            if text.isspace():  # blank lines hold no row (and numpy warns on them)
                return
            if '"' not in text and not (
                    counted and min(map(str.count, lines, itertools.repeat(","))) < width - 1):
                try:
                    parts.append(np.loadtxt(lines, delimiter=",", usecols=used, ndmin=2,
                                            comments=None))
                except ValueError:
                    pass
                else:
                    for line_no, row in itertools.islice(rows(lines, first), 2 - len(times)):
                        times.append((line_no, row[cols["t"]]))
                    return
            if len(lines) > 1:
                half = len(lines) // 2
                parse(lines[:half], first)
                parse(lines[half:], first + half)
                return
            for line_no, row in rows(lines, first):
                parts.append(np.array([[f(row[i]) for f, i in zip(convert, used)]]))
                if len(times) < 2:
                    times.append((line_no, row[cols["t"]]))

        line_no = 2
        while block := list(itertools.islice(fh, _BLOCK_ROWS)):
            parse(block, line_no)
            line_no += len(block)
    data = np.concatenate(parts) if parts else np.zeros((0, len(used)))
    del parts  # the blocks go before the columns are taken out of ``data``
    T = len(data)
    # take, not fancy indexing, which would return column-major blocks
    states = data.take(np.searchsorted(used, x_idx), axis=1)
    outputs = data.take(np.searchsorted(used, y_idx), axis=1) if y_idx else None
    inputs = data[: T - 1].take(np.searchsorted(used, u_idx), axis=1) if u_idx and T > 1 else None
    dt = 1.0
    if T >= 2:
        t0, t1 = (_time(path, line, cell) for line, cell in times)
        dt = t1 - t0 if t1 > t0 else 1.0
    return Trajectory(states=states, inputs=inputs, outputs=outputs, dt=dt)


def _time(path: str, line: int, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DimensionError(f"{path}: line {line}, column t: {cell!r} is not a number") from None


def write_bode(path: str, freq_response) -> None:
    """CSV columns omega,re,im,mag_db,phase_deg."""
    r = freq_response
    write_table(path, ["omega", "re", "im", "mag_db", "phase_deg"], np.column_stack(
        [r.omega, r.response.real, r.response.imag, r.mag_db, r.phase_deg]).tolist())


#: Config keys that only name result files; excluded from the digest so the
#: digest identifies the computation, not where its outputs land.
_OUTPUT_KEYS = frozenset({"out", "out_model", "out_diag"})


def write_manifest(out_path: str, subcommand: str, inputs: dict, outputs: dict,
                   seed, config: dict) -> None:
    """Write <out>.manifest.json describing one CLI invocation."""
    effective = {k: v for k, v in sorted(config.items()) if k not in _OUTPUT_KEYS}
    manifest = {
        "subcommand": subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "config_digest": config_digest(effective),
    }
    write_json(out_path + ".manifest.json", manifest)
