"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

States and operators are immutable; every operation is a pure function.
Labels name a state's subsystems, and two states meet only on the same
labeled space. An operator acts on a state's whole space, so applying
it is one matrix-vector product. All spaces here are tiny, so a dense
representation is used throughout. numpy loads on first use, so code
that never builds a state runs without it.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import CapacityError, DimensionMismatch, ValidationError
from .tolerances import MAX_AMPLITUDES

SIGMA_X_ROWS = ((0.0, 1.0), (1.0, 0.0))


def vdot(bra, ket) -> complex:
    """<bra|ket> of two amplitude sequences, summed in order in Python complex
    arithmetic: one rounding on every platform, where a BLAS dot may fuse products."""
    total = 0j
    for b, k in zip(bra, ket):
        total += b.conjugate() * k
    return total


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    import numpy as np
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{shape_hint} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class StateVector(Record):
    """Complex amplitudes over an ordered, labeled tensor-product basis.

    Parameters
    ----------
    dims : sequence of int
        Dimension of each subsystem, in order.
    labels : sequence of str
        Unique name per subsystem (e.g. ``"path"``, ``"spin"``).
    amps : array_like of complex
        Flat amplitude vector of length ``prod(dims)``, ordered with the
        last subsystem index varying fastest (C order).

    States need not be normalized: postselection residuals carry the
    outcome probability in their squared norm.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        labels = tuple(str(x) for x in self.labels)
        if any(d < 1 for d in dims):
            raise ValidationError(f"subsystem dimensions must be >= 1, got {dims}")
        if len(labels) != len(dims):
            raise ValidationError(f"{len(labels)} labels for {len(dims)} subsystems")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"subsystem labels must be unique, got {labels}")
        amps = _frozen_array(self.amps, "amplitude vector").reshape(-1)
        if amps.size != math.prod(dims):
            raise DimensionMismatch(
                f"amplitude vector has length {amps.size}, expected {math.prod(dims)}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        import numpy as np
        return float(np.linalg.norm(self.amps))


class Operator(Record):
    """Dense square operator on a whole space of subsystems ``dims``."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        side = math.prod(dims)
        entries = _frozen_array(self.entries, "operator matrix")
        if entries.ndim != 2 or entries.shape != (side, side):
            raise DimensionMismatch(
                f"operator matrix has shape {entries.shape}, expected ({side}, {side})"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @property
    def side(self) -> int:
        return math.prod(self.dims)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product ``a (x) b`` with concatenated subsystem labels."""
    if set(a.labels) & set(b.labels):
        raise ValidationError(f"tensor factors share labels {sorted(set(a.labels) & set(b.labels))}")
    size = a.amps.size * b.amps.size
    if size > MAX_AMPLITUDES:
        raise CapacityError(f"tensor product needs {size} amplitudes, limit is {MAX_AMPLITUDES}")
    import numpy as np
    return StateVector(a.dims + b.dims, a.labels + b.labels, np.kron(a.amps, b.amps))


def apply(op: Operator, s: StateVector) -> StateVector:
    """``op`` acting on the whole space of ``s``: one matrix-vector product."""
    if op.dims != s.dims:
        raise DimensionMismatch(f"operator dims {op.dims} do not match state dims {s.dims}")
    return StateVector(s.dims, s.labels, op.entries @ s.amps)


def inner(bra: StateVector, ket: StateVector) -> complex:
    """Inner product ``<bra|ket>``, conjugate-linear in ``bra``."""
    if bra.dims != ket.dims or bra.labels != ket.labels:
        raise DimensionMismatch(
            f"inner product needs identical spaces, got {bra.dims}/{bra.labels} "
            f"vs {ket.dims}/{ket.labels}"
        )
    return vdot(bra.amps.tolist(), ket.amps.tolist())


def partial_project(bra: StateVector, s: StateVector) -> StateVector:
    """Contract ``<bra|`` against the leading subsystems of ``s``: the inverse of :func:`tensor`.

    Returns the unnormalized residual state on the remaining subsystems;
    its squared norm is the probability of the postselection outcome.
    Projecting away every subsystem yields a dim-1 state holding the
    scalar amplitude.
    """
    lead = len(bra.dims)
    if bra.dims != s.dims[:lead] or bra.labels != s.labels[:lead]:
        raise DimensionMismatch(
            f"bra space {bra.dims}/{bra.labels} is not the leading factor of {s.dims}/{s.labels}"
        )
    residual = bra.amps.conj() @ s.amps.reshape(bra.amps.size, -1)
    if lead == len(s.dims):
        return StateVector((1,), ("scalar",), residual)
    return StateVector(s.dims[lead:], s.labels[lead:], residual)
