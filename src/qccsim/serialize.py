"""Report serialization: JSON with full float precision, CSV artifacts.

Floats are printed with 17 significant digits so that bit-exact
reproducibility can be checked from the output alone; non-finite values
serialize as null. CSV files always carry a header row, comma
separators, and LF line endings.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .montecarlo import TrialBatch
from .pointer import GridPointerState
from .qcc import QccReport
from .weakmeas import (
    LinearResponseReport,
    ValidityReport,
    WeakMeasurementResult,
)


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float."""
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """Serialize to JSON with 17-significant-digit floats, indented by two spaces."""
    return "".join(_emit(obj, 0)) + "\n"


def _emit(obj, depth: int) -> Iterable[str]:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        yield "null"
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        yield format_float(x) if math.isfinite(x) else "null"
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            yield f"{inner}{json.dumps(key)}: "
            yield from _emit(value, depth + 1)
            yield ",\n" if i < len(obj) - 1 else "\n"
        yield f"{pad}}}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            yield "[]"
            return
        yield "[\n"
        for i, value in enumerate(items):
            yield inner
            yield from _emit(value, depth + 1)
            yield ",\n" if i < len(items) - 1 else "\n"
        yield f"{pad}]"
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def complex_fields(prefix: str, z: complex | None) -> dict:
    if z is None:
        return {f"{prefix}_re": None, f"{prefix}_im": None}
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


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_grid_csv(grid: GridPointerState, path: str | Path) -> None:
    """Columns: x, re, im, prob_density."""
    xs = grid.xs
    rows = (
        (
            format_float(x),
            format_float(z.real),
            format_float(z.imag),
            format_float((z.conjugate() * z).real),
        )
        for x, z in zip(xs, grid.amps)
    )
    _write_csv(path, ("x", "re", "im", "prob_density"), rows)


def write_trials_csv(batch: TrialBatch, path: str | Path) -> None:
    """Columns: trial_index, postselected, position (empty when 0)."""

    def rows():
        pos_iter = iter(batch.positions)
        for i, hit in enumerate(batch.postselected):
            yield (str(i), "1" if hit else "0", format_float(next(pos_iter)) if hit else "")

    _write_csv(path, ("trial_index", "postselected", "position"), rows())


def write_sweep_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Sweep table of float cells, each with full float precision."""
    _write_csv(path, header, ((format_float(v) for v in row) for row in rows))
