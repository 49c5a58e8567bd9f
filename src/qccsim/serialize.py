"""Report serialization: JSON with full float precision, CSV artifacts.

Floats are printed with 17 significant digits so that bit-exact
reproducibility can be checked from the output alone; non-finite values
are null in JSON and nan, inf or -inf in CSV. CSV files carry a header
row, comma separators and LF line endings, and no quoting: headers are
fixed identifiers, and cells are numbers or empty. A sweep table and a
pointer grid are rendered 2^14 rows at a time, by one %-template per row
filled once per block; a sweep's record rows are read from the text of
its CSV rows, so each cell is formatted once for both.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError

# Rows formatted and written at a time, so a table of any length needs bounded memory.
BLOCK_ROWS = 2**14
FLOAT_FORMAT = ".17g"  # every float a record or CSV prints: 17 significant digits


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float."""
    return format(float(x), FLOAT_FORMAT)


def _spans(n_rows: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of each block of at most ``BLOCK_ROWS`` of ``n_rows`` rows."""
    return ((start, min(start + BLOCK_ROWS, n_rows)) for start in range(0, n_rows, BLOCK_ROWS))


def _csv_blocks(columns: Sequence[Sequence[float]]) -> Iterator[str]:
    """The CSV rows of equally long float columns, one text per block, each row ending in LF.

    A row's %-template holds a broadcast (stride-0) column as its one cell, formatted
    once, and ``%.17g`` for every other column; one ``%`` per block fills it from the
    block's values, row by row. %-formatting by FLOAT_FORMAT is :func:`format_float`
    (nan, inf and -inf included), and no formatted float holds a "%".
    """
    import numpy as np
    columns = [np.asarray(column, dtype=float) for column in columns]
    fixed = [column.size > 0 and column.strides[0] == 0 for column in columns]
    row = ",".join(format_float(c[0]) if f else f"%{FLOAT_FORMAT}" for c, f in zip(columns, fixed)) + "\n"
    varying = [column for column, f in zip(columns, fixed) if not f]
    for start, stop in _spans(len(columns[0])):
        values = np.column_stack([c[start:stop] for c in varying]).ravel().tolist() if varying else ()
        yield row * (stop - start) % tuple(values)


class Table:
    """Equally long float columns under ``header``, rendered once as the text of their
    CSV rows (:func:`_csv_blocks`, one text per ``BLOCK_ROWS`` rows): :func:`write_sweep_csv`
    writes that text, and a record reads its rows from it, as one object per row with
    nan, inf and -inf cells null."""

    def __init__(self, header: Sequence[str], columns: Sequence[Sequence[float]]) -> None:
        self.header = tuple(header)
        self.blocks = list(_csv_blocks(columns))


def dumps_json(obj) -> str:
    """Serialize to JSON with 17-significant-digit floats, indented by two spaces."""
    parts: list[str] = []
    _json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)  # the only copy of the text: a sweep's record can be hundreds of MB


def _json(obj, newline: str, put: Callable[[str], None]) -> None:
    """``put`` each piece of ``obj``'s JSON text, in order; ``newline`` is LF plus the
    indent of the line ``obj`` starts on."""
    if isinstance(obj, float):  # first: most values in a record are floats
        x = float(obj)
        put(format_float(x) if math.isfinite(x) else "null")
    elif obj is None:
        put("null")
    elif isinstance(obj, bool):
        put("true" if obj else "false")
    elif isinstance(obj, int):
        put(str(int(obj)))
    elif isinstance(obj, str):
        put(_json_string(obj))
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            put(f"{sep}{inner}{_json_string(key)}: ")
            _json(value, inner, put)
            sep = ","
        put(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + "  ", "["
        for value in obj:
            put(sep + inner)
            _json(value, inner, put)
            sep = ","
        put(newline + "]" if obj else "[]")
    elif isinstance(obj, Table):  # keys encoded once, into a row template filled once per block
        inner = newline + "  "
        fields = (f"{inner}  {_json_string(key).replace('%', '%%')}: %s" for key in obj.header)
        row = inner + "{" + ",".join(fields) + inner + "}"
        sep = "["
        for block in obj.blocks:
            put(sep)
            put(_json_rows(block, row, len(obj.header)))
            sep = ","
        put(newline + "]" if obj.blocks else "[]")
    elif hasattr(obj, "tolist"):  # a numpy scalar or array: checked without importing numpy
        _json(obj.tolist(), newline, put)
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def _json_rows(block: str, row: str, width: int) -> str:
    """The CSV rows of ``block``, ``width`` cells each, as ``row`` templates joined by
    commas and filled by one %: a number's text is kept, and nan, inf and -inf are null."""
    if "n" in block:  # no finite number's text holds an "n"
        block = block.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
    cells = block.replace("\n", ",")[:-1].split(",")  # the block's last LF ends no cell
    return ",".join([row] * (len(cells) // width)) % tuple(cells)


def complex_fields(prefix: str, z: complex) -> dict:
    return {f"{prefix}_re": float(z.real), f"{prefix}_im": float(z.imag)}


def weak_measurement_dict(
    result: WeakMeasurementResult, linear: LinearResponseReport, validity: ValidityReport
) -> dict:
    return {
        **complex_fields("weak_value", result.weak_value),
        **complex_fields("transition", result.transition_element),
        "postselect_prob": result.postselect_prob_unperturbed,
        "postselect_prob_coupled": result.postselect_prob_coupled,
        "g": result.g,
        **vars(linear),
        **{f"validity_{name}": value for name, value in vars(validity).items()},
    }


def qcc_report_dict(report: QccReport) -> dict:
    """The report's fields in order, complex ones as ``_re``/``_im`` pairs."""
    out = {}
    for name, value in vars(report).items():
        out.update(complex_fields(name, value) if isinstance(value, complex) else {name: value})
    return out


def _write_table(path: str | Path, header: Sequence[str], blocks: Iterable[str]) -> None:
    """A header row, then the text of each block of rows, each row ending in LF."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def write_grid_csv(grid: tuple[np.ndarray, np.ndarray, np.ndarray], path: str | Path) -> None:
    """Columns: x, re, im, prob_density, from :func:`qccsim.pointer.to_grid`'s ``(xs, amps, density)``."""
    xs, amps, density = grid
    _write_table(path, ("x", "re", "im", "prob_density"), _csv_blocks((xs, amps.real, amps.imag, density)))


def write_trials_csv(trials: tuple[np.ndarray, np.ndarray], path: str | Path) -> None:
    """Columns: trial_index, postselected, position (empty when 0), from
    :func:`qccsim.montecarlo.sample_trials`'s ``(positions, postselected)``."""
    import numpy as np
    positions, mask = trials
    trial_of = np.flatnonzero(mask)  # the trial index of each position
    if trial_of.size != positions.size:
        raise ValidationError("need one position per postselected trial")
    accepted = f"%%d,1,%{FLOAT_FORMAT}\n"

    def rows(start: int, stop: int) -> str:
        # A row template per trial, from its flag byte: the first % fills in the positions
        # (%-formatting by FLOAT_FORMAT is format_float, and has no "%"), the second the trial indices.
        lo, hi = np.searchsorted(trial_of, (start, stop))
        template = mask[start:stop].tobytes().decode().replace("\x00", "%%d,0,\n").replace("\x01", accepted)
        return template % tuple(positions[lo:hi].tolist()) % tuple(range(start, stop))

    _write_table(path, ("trial_index", "postselected", "position"), (rows(*span) for span in _spans(mask.size)))


def write_sweep_csv(path: str | Path, table: Table) -> None:
    """A sweep's table under its header, as the text its record's rows are read from."""
    _write_table(path, table.header, table.blocks)
