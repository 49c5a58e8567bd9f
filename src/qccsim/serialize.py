"""Report serialization: JSON with full float precision, CSV artifacts.

Floats are printed with 17 significant digits so that bit-exact
reproducibility can be checked from the output alone; non-finite values
are null in JSON and nan, inf or -inf in CSV. CSV files carry a header
row, comma separators and LF line endings, and no quoting: headers are
fixed identifiers, and cells are numbers or empty. Every table is rendered
2^14 rows at a time (``tolerances.BLOCK_ROWS``): a sweep table and a
pointer grid by one %-template per row filled once per block, a trials
CSV as fixed-width rows of numpy-computed text. A sweep's record rows are
read from the text of its CSV rows, so each cell is formatted once for both.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError
from .tolerances import spans

FLOAT_FORMAT = ".17g"  # every float a record or CSV prints: 17 significant digits


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float."""
    return format(float(x), FLOAT_FORMAT)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Built on first use, so that importing this module imports no numpy: ``digits[g]``, g = 0..99
    as 2 ASCII digits; ``pairs[g]``, the same spaced by NULs, and ``pairs[g + 100]`` without
    trailing zeros; ``marks``, for :func:`_float_texts`; 10**k, k = 0..20, and its 26-bit halves."""
    import numpy as np
    g = np.arange(100)[:, None]
    digits = (g // np.array([10, 1]) % 10 + ord("0")).astype(np.uint8)
    pairs = np.zeros((2, 100, 2, 2), np.uint8)
    pairs[0, ..., 0], pairs[1, ..., 0] = digits, np.where(g % np.array([100, 10]) == 0, 0, digits)
    marks = np.zeros((42, 40), np.uint8)
    for i in range(42):  # row 21 * (x < 0) + E + 4
        negative, E = i // 21, i % 21 - 4
        marks[i, :6] = list((b"-" * negative + (b"0." + b"0" * (-1 - E) if E < 0 else b"")).ljust(6, b"\0"))
        marks[i, 6 : max(6, 2 * E + 7) : 2] = ord("0")
    power = np.array([float(10**k) for k in range(21)])
    high = power * 134217729.0 - (power * 134217729.0 - power)
    return digits.view(np.uint16).ravel(), pairs.reshape(-1, 4).view(np.uint32).ravel(), marks, np.array([power, high, power - high])


def _float_texts(x: np.ndarray) -> np.ndarray:
    """The :func:`format_float` text of each float64 of ``x``: row i of the ``(len(x), 40)``
    uint8 array holds x[i]'s characters in order, with NULs between and after them."""
    import numpy as np
    _, pairs, marks, scale = _tables()
    # Numpy settles x's 17 digits N and E = floor(log10|x|) exactly where %.17g prints fixed
    # notation, E in [-4, 16]: 10**(16 - E) ≤ 1e20 < 5**22 * 2**22 is exact, and Dekker's product
    # (Veltkamp split by 2**27 + 1; no overflow or underflow here) gives |x| * 10**(16 - E) = p + e
    # exactly. If N = p + rint(e) is in [1e16, 1e17), p > 2**53 is an even integer, so rint's half
    # to even on e is %.17g's on p + e. Else (E one off, a carry to 1e17, x out of range): format_float.
    with np.errstate(all="ignore"):
        a = np.abs(x)
        E = np.floor(np.log10(a))
        fast = (E >= -4) & (E <= 16)
        E = np.where(fast, E, 0).astype(np.intp)
        s, s_hi, s_lo = scale[:, 16 - E]
        p, c = a * s, a * 134217729.0
        a_hi = c - (c - a)
        a_lo = a - a_hi
        e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
        N = p.astype(np.int64) + np.rint(e).astype(np.int64)
    settled = fast & (N >= 10**16) & (N < 10**17)
    N[~settled] = 10**16
    # Sign, and "0." and zeros if E < 0, in bytes 0-5; digit j in 2j + 6 (trailing zeros NUL).
    text = np.take(marks, 21 * (x < 0) + E + 4, axis=0)  # with 0x30, a "0", on digits 0..E
    text[:, 6] = N // 10**16 + ord("0")
    halves = ((N // 10**8 % 10**8).astype(np.uint32), (N % 10**8).astype(np.uint32))
    groups = [h // 10**k % 100 for h in halves for k in (6, 4, 2, 0)]  # digits 1-2, ..., 15-16
    words, zeros_after = text.view(np.uint32), True
    for k in range(7, -1, -1):
        words[:, k + 2] |= np.take(pairs, groups[k] + 100 * zeros_after)
        zeros_after = zeros_after & (groups[k] == 0)
    point = (np.arange(0, text.size, 40) + 2 * E + 7)[(E >= 0) & (E < 16)]  # after digit E
    text.ravel()[point[text.ravel()[point + 1] != 0]] = ord(".")  # if digit E + 1 is kept
    rest = np.flatnonzero(~settled)  # one %-formatting by FLOAT_FORMAT, which is format_float
    rest_texts = (f"%{FLOAT_FORMAT}\n" * rest.size % tuple(x[rest].tolist())).encode().split(b"\n")[:-1]
    text[rest] = np.array(rest_texts, "S40").view(np.uint8).reshape(-1, 40)
    return text


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
    for start, stop in spans(0, len(columns[0])):
        values = np.column_stack([c[start:stop] for c in varying]).ravel().tolist() if varying else ()
        yield row * (stop - start) % tuple(values)


class Table:
    """Equally long float columns under ``header``, rendered once as the text of their
    CSV rows (:func:`_csv_blocks`, one text per block of rows): :func:`write_sweep_csv`
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
    :func:`qccsim.montecarlo.sample_trials`'s ``(positions, postselected)``. Each block's rows are
    fixed-width bytes (index, ",0," or ",1,", :func:`_float_texts`), NULs dropped by ``translate``."""
    import numpy as np
    positions, mask = trials
    trial_of = np.flatnonzero(mask)  # the trial index of each position
    if trial_of.size != positions.size:
        raise ValidationError("need one position per postselected trial")
    width = 2 * -(-len(str(mask.size)) // 2)  # a trial index's digits, in pairs

    def rows(start: int, stop: int) -> str:
        lo, hi = np.searchsorted(trial_of, (start, stop))
        texts = _float_texts(positions[lo:hi])  # first: its temporaries are gone before the rows
        block = bytearray(bytes(width) + b",0," + bytes(40) + b"\n") * (stop - start)
        cells, index = np.frombuffer(block, np.uint8).reshape(stop - start, -1), np.arange(start, stop, dtype=np.uint32)
        for k in range(0, width, 2):
            cells.view(np.uint16)[:, k // 2] = np.take(_tables()[0], index // 10 ** (width - 2 - k) % 100)
        for k in range(1, width):  # an index below 10**k: its first width - k digits are zeros, NUL
            cells[: max(0, min(10**k, stop) - start), : width - k] = 0
        cells[trial_of[lo:hi] - start, width + 1] = ord("1")
        cells[trial_of[lo:hi] - start, width + 3 : -1] = texts
        return block.translate(None, b"\0").decode()

    _write_table(path, ("trial_index", "postselected", "position"), (rows(*span) for span in spans(0, mask.size)))


def write_sweep_csv(path: str | Path, table: Table) -> None:
    """A sweep's table under its header, as the text its record's rows are read from."""
    _write_table(path, table.header, table.blocks)
