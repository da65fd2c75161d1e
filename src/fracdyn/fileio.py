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
trajectory reader takes ``_BLOCK_ROWS`` lines at a time, numpy over all of a
block but its last line, so their working memory does not grow with the
number of steps K.  A written file gets the mode that
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


def read_trajectory(path: str) -> Trajectory:
    """Parse a trajectory CSV; missing u/y blocks and blank input cells are tolerated.

    Rows of blank cells are skipped, a blank input cell reads 0, extra fields
    are ignored, and the time column is read from the first two rows only,
    for ``dt``.  The body is read ``_BLOCK_ROWS`` lines at a time.  numpy
    parses every column of a block's lines but the last, and the block is
    kept only if it has the header's width.  The cell loop reads a block
    numpy refuses and each block's last line (where the writer leaves its
    blank input cells): the csv module splits a line, so a quoted cell may
    hold a comma but not a line break, and ``float`` converts its used
    cells.  numpy refuses every line the cell loop would read otherwise: a
    quote, a blank cell, a short or long row, a number only ``float`` reads
    (``1_000``), or a cell that is not a number, so a file with a text column
    is read by the cell loop alone.  The first short row or unreadable used
    cell, in file order, raises DimensionError naming its line.
    """
    with open(path, "r") as fh:
        head = fh.readline()
        if not head:
            raise DimensionError(f"{path}: empty trajectory file")
        header = next(csv.reader([head]))
        width = len(header)
        cols = {name: idx for idx, name in enumerate(header)}
        x_idx = [cols[h] for h in header if h.startswith("x")]
        u_idx = [cols[h] for h in header if h.startswith("u")]
        y_idx = [cols[h] for h in header if h.startswith("y")]
        used = sorted({*x_idx, *u_idx, *y_idx})
        timed = sorted({*used, cols["t"]}) if "t" in cols else used  # read in the first two rows
        parts, T = [np.zeros((0, width))], 0  # blocks of parsed rows, every column; their rows
        line_no = 2
        while block := list(itertools.islice(fh, _BLOCK_ROWS)):
            loose, first = block, line_no  # the cell loop's lines, and the first one's number
            line_no += len(block)
            try:  # numpy warns on a body of blank lines
                parsed = (np.loadtxt(block[:-1], delimiter=",", ndmin=2, comments=None)
                          if any(map(str.strip, block[:-1])) else None)
            except ValueError:
                parsed = None
            if parsed is not None and parsed.shape[1] == width:
                parts.append(parsed)
                T += len(parsed)
                loose, first = block[-1:], line_no - 1
            reader, rows = csv.reader(loose), []
            for row in reader:
                if not "".join(row).strip():
                    continue
                line = first + reader.line_num - 1
                if len(row) < width:
                    raise DimensionError(
                        f"{path}: line {line} has {len(row)} fields, the header has {width}")
                values = [0.0] * width
                for i in timed if T + len(rows) < 2 else used:
                    if i in u_idx and not row[i].strip():
                        continue
                    try:
                        values[i] = float(row[i])
                    except ValueError:
                        raise DimensionError(f"{path}: line {line}, column {header[i]}: "
                                             f"{row[i]!r} is not a number") from None
                rows.append(values)
            if rows:
                parts.append(np.array(rows))
                T += len(rows)
    lacks = "the time column" if "t" not in cols else "state columns" if not x_idx else None
    if lacks:
        raise DimensionError(f"{path}: trajectory header lacks {lacks}")
    data = np.concatenate(parts)
    del parts  # the blocks go before the columns are taken out of ``data``
    # take, not fancy indexing, which would return column-major blocks
    states = data.take(x_idx, axis=1)
    outputs = data.take(y_idx, axis=1) if y_idx else None
    inputs = data[: T - 1].take(u_idx, axis=1) if u_idx and T > 1 else None
    dt = 1.0
    if T >= 2:
        t0, t1 = data[:2, cols["t"]].tolist()
        dt = t1 - t0 if t1 > t0 else 1.0
    return Trajectory(states=states, inputs=inputs, outputs=outputs, dt=dt)


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
