"""Report serialization: JSON with full float precision, CSV artifacts.

Floats are printed with 17 significant digits so that bit-exact
reproducibility can be checked from the output alone; non-finite values
are null in JSON and nan, inf or -inf in CSV. CSV files carry a header
row, comma separators and LF line endings, and no quoting: headers are
fixed identifiers, and cells are numbers or empty.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from pathlib import Path
from typing import Callable, Sequence

from .errors import ValidationError

# Rows formatted and written at a time, so a table of any length needs bounded memory.
BLOCK_ROWS = 2**14


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float."""
    return format(float(x), ".17g")


def _format_column(values) -> list[str]:
    """:func:`format_float` of every entry of a float array or sequence."""
    import numpy as np
    return [format(x, ".17g") for x in np.asarray(values, dtype=float).tolist()]


class Table:
    """Equally long float columns under ``header``, each cell formatted once by
    :func:`format_float`: a record renders it as one object per row (non-finite
    cells null), :func:`write_sweep_csv` as CSV rows (nan, inf, -inf)."""

    def __init__(self, header: Sequence[str], columns: Sequence[Sequence[float]]) -> None:
        self.header = tuple(header)
        self.cells = [_format_column(column) for column in columns]


_NULL = {"nan": "null", "inf": "null", "-inf": "null"}  # a CSV cell that is null in JSON


def dumps_json(obj) -> str:
    """Serialize to JSON with 17-significant-digit floats, indented by two spaces."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """``obj`` as JSON text; ``newline`` is LF plus the indent of the line ``obj`` starts on."""
    if isinstance(obj, float):  # first: most values in a record are floats
        x = float(obj)
        return format_float(x) if math.isfinite(x) else "null"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return _json_string(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        members = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            members.append(f"{inner}{_json_string(key)}: {_json(value, inner)}")
        return "{" + ",".join(members) + newline + "}" if members else "{}"
    if isinstance(obj, (list, tuple)):
        items = [inner + _json(value, inner) for value in obj]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    if isinstance(obj, Table):  # keys encoded once, into a per-row template
        fields = (f"{inner}  {_json_string(key).replace('%', '%%')}: %s" for key in obj.header)
        template = inner + "{" + ",".join(fields) + inner + "}"
        rows = ",".join(map(template.__mod__, zip(*(map(_NULL.get, x, x) for x in obj.cells))))
        return "[" + rows + newline + "]" if rows else "[]"
    if hasattr(obj, "tolist"):  # a numpy scalar or array: checked without importing numpy
        return _json(obj.tolist(), newline)
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


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


def _write_table(path: str | Path, header: Sequence[str], n_rows: int, rows: Callable) -> None:
    """A header row, then ``n_rows`` rows; ``rows(start, stop)`` returns the text of
    rows ``start`` to ``stop - 1``, each ending in LF."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            fh.write(rows(start, min(start + BLOCK_ROWS, n_rows)))


def _lines(columns) -> str:
    """CSV rows of formatted cells, one sequence per column."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_grid_csv(grid: GridPointerState, path: str | Path) -> None:
    """Columns: x, re, im, prob_density."""
    columns = (grid.xs, grid.amps.real, grid.amps.imag, grid.density)
    _write_table(path, ("x", "re", "im", "prob_density"), grid.xs.size,
                 lambda a, b: _lines(_format_column(x[a:b]) for x in columns))


def write_trials_csv(batch: TrialBatch, path: str | Path) -> None:
    """Columns: trial_index, postselected, position (empty when 0)."""
    import numpy as np
    mask = batch.postselected
    trial_of = np.flatnonzero(mask)  # the trial index of each position

    def rows(start: int, stop: int) -> str:
        # A row template per trial, from its flag byte: the first % fills in the positions
        # ("%.17g" % x is format_float(x), and has no "%"), the second the trial indices.
        lo, hi = np.searchsorted(trial_of, (start, stop))
        template = mask[start:stop].tobytes().decode().replace("\x00", "%%d,0,\n").replace("\x01", "%%d,1,%.17g\n")
        return template % tuple(batch.positions[lo:hi].tolist()) % tuple(range(start, stop))

    _write_table(path, ("trial_index", "postselected", "position"), mask.size, rows)


def write_sweep_csv(path: str | Path, table: Table) -> None:
    """A sweep's table under its header, from the cells its record's rows are rendered from."""
    _write_table(path, table.header, len(table.cells[0]), lambda a, b: _lines(x[a:b] for x in table.cells))
