"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

States and operators are immutable; every operation is a pure function.
Subsystems are addressed by string labels rather than positional indices
so that path/spin/pointer ordering bugs cannot arise. All spaces here are
tiny, so a dense representation is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DimensionMismatch, ValidationError
from .tolerances import MAX_AMPLITUDES, TOL

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{shape_hint} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
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
        return float(np.linalg.norm(self.amps))

    def _position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DimensionMismatch(f"unknown subsystem label {label!r}; have {self.labels}") from None


@dataclass(frozen=True)
class Operator:
    """Dense square operator on one or more subsystems.

    ``kind`` tags the operator as ``"hermitian"``, ``"unitary"`` or
    ``"general"``; the tagged property is verified at construction.
    """

    dims: tuple[int, ...]
    entries: np.ndarray
    kind: str = "general"

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        side = math.prod(dims)
        entries = _frozen_array(self.entries, "operator matrix")
        if entries.ndim != 2 or entries.shape != (side, side):
            raise DimensionMismatch(
                f"operator matrix has shape {entries.shape}, expected ({side}, {side})"
            )
        if self.kind not in ("hermitian", "unitary", "general"):
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        if self.kind == "hermitian":
            defect = np.max(np.abs(entries - entries.conj().T))
            if defect > TOL.structural:
                raise ValidationError(f"hermitian defect {defect:.3e} exceeds {TOL.structural}")
        if self.kind == "unitary":
            defect = np.max(np.abs(entries @ entries.conj().T - np.eye(side)))
            if defect > TOL.structural:
                raise ValidationError(f"unitarity defect {defect:.3e} exceeds {TOL.structural}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @property
    def side(self) -> int:
        return math.prod(self.dims)


def basis_state(dim: int, index: int, label: str) -> StateVector:
    """Computational basis ket ``|index>`` of a single ``dim``-level subsystem."""
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector((dim,), (label,), amps)


def identity_operator(dims: Sequence[int]) -> Operator:
    side = math.prod(int(d) for d in dims)
    return Operator(tuple(dims), np.eye(side, dtype=complex), kind="unitary")


def normalized(s: StateVector) -> StateVector:
    n = s.norm
    if n == 0.0:
        raise ValidationError("cannot normalize a zero state")
    return StateVector(s.dims, s.labels, s.amps / n)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product ``a (x) b`` with concatenated subsystem labels."""
    if set(a.labels) & set(b.labels):
        raise ValidationError(
            f"tensor factors share labels {sorted(set(a.labels) & set(b.labels))}"
        )
    size = a.amps.size * b.amps.size
    if size > MAX_AMPLITUDES:
        raise CapacityError(f"tensor product needs {size} amplitudes, limit is {MAX_AMPLITUDES}")
    return StateVector(a.dims + b.dims, a.labels + b.labels, np.kron(a.amps, b.amps))


def _target_positions(s: StateVector, targets: Sequence[str] | str) -> tuple[int, ...]:
    if isinstance(targets, str):
        targets = (targets,)
    positions = tuple(s._position(t) for t in targets)
    if len(set(positions)) != len(positions):
        raise ValidationError(f"duplicate target labels {tuple(targets)}")
    return positions


def apply(op: Operator, targets: Sequence[str] | str, s: StateVector) -> StateVector:
    """Apply ``op`` to the targeted subsystems, identity on the rest."""
    positions = _target_positions(s, targets)
    tdims = tuple(s.dims[p] for p in positions)
    if tdims != op.dims:
        raise DimensionMismatch(f"operator dims {op.dims} do not match target dims {tdims}")
    tensor_form = s.amps.reshape(s.dims)
    front = np.moveaxis(tensor_form, positions, range(len(positions)))
    mat = front.reshape(op.side, -1)
    mat = op.entries @ mat
    front = mat.reshape(tdims + tuple(d for i, d in enumerate(s.dims) if i not in positions))
    tensor_form = np.moveaxis(front, range(len(positions)), positions)
    return StateVector(s.dims, s.labels, tensor_form.reshape(-1))


def inner(bra: StateVector, ket: StateVector) -> complex:
    """Inner product ``<bra|ket>``, conjugate-linear in ``bra``."""
    if bra.dims != ket.dims or bra.labels != ket.labels:
        raise DimensionMismatch(
            f"inner product needs identical spaces, got {bra.dims}/{bra.labels} "
            f"vs {ket.dims}/{ket.labels}"
        )
    return complex(np.vdot(bra.amps, ket.amps))


def partial_project(bra: StateVector, targets: Sequence[str] | str, s: StateVector) -> StateVector:
    """Contract ``<bra|`` against the targeted subsystems of ``s``.

    Returns the unnormalized residual state on the remaining subsystems;
    its squared norm is the probability of the postselection outcome.
    Projecting away every subsystem yields a dim-1 state holding the
    scalar amplitude.
    """
    positions = _target_positions(s, targets)
    tdims = tuple(s.dims[p] for p in positions)
    if tdims != bra.dims:
        raise DimensionMismatch(f"bra dims {bra.dims} do not match target dims {tdims}")
    tensor_form = s.amps.reshape(s.dims)
    front = np.moveaxis(tensor_form, positions, range(len(positions)))
    mat = front.reshape(bra.amps.size, -1)
    residual = bra.amps.conj() @ mat
    rest = [(d, lab) for i, (d, lab) in enumerate(zip(s.dims, s.labels)) if i not in positions]
    if not rest:
        return StateVector((1,), ("scalar",), residual.reshape(1))
    rdims = tuple(d for d, _ in rest)
    rlabels = tuple(lab for _, lab in rest)
    return StateVector(rdims, rlabels, residual.reshape(-1))


def state_to_dict(s: StateVector) -> dict:
    """JSON-ready form: dims, labels, and amplitudes as [re, im] pairs."""
    return {
        "dims": list(s.dims),
        "labels": list(s.labels),
        "amps": [[float(z.real), float(z.imag)] for z in s.amps],
    }
