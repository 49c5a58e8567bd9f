"""Weak measurement protocol: preselect, couple, postselect, read out.

The coupling is impulsive: g stands for the time-integrated strength.
It is applied through the spectral decomposition of the observable, so
each eigenbranch translates the pointer exactly and results carry no
weak-coupling or discretization approximation.

A (context, observable) pair reduces to one :class:`BranchTable`. Its
readouts are closed forms in g, evaluated over a whole array of
couplings at once; a single run is the same kernel at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import OrthogonalPostselection, ValidationError
from .pointer import GaussianPointerState, mean_position, superpose, translate, width_power
from .qstate import Operator, StateVector, apply, inner
from .tolerances import TOL


@dataclass(frozen=True)
class Observable:
    """Hermitian observable with its spectral data and target subsystems.

    ``targets`` names the subsystems the operator acts on; eigenvectors
    live on exactly those subsystems. Use :func:`make_observable` to
    build one from a matrix.
    """

    op: Operator
    targets: tuple[str, ...]
    eigvals: tuple[float, ...]
    eigvecs: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        targets = tuple(self.targets)
        entries, side = self.op.entries, self.op.side
        defect = np.max(np.abs(entries - entries.conj().T))
        if defect > TOL.structural:
            raise ValidationError(f"hermitian defect {defect:.3e} exceeds {TOL.structural}")
        vals = tuple(float(v) for v in self.eigvals)
        vecs = tuple(self.eigvecs)
        if len(vals) != side or len(vecs) != side:
            raise ValidationError(f"need {side} eigenpairs, got {len(vals)}/{len(vecs)}")
        for k, vec in enumerate(vecs):
            if vec.dims != self.op.dims or vec.labels != targets:
                raise ValidationError("eigenvector spaces must match the operator targets")
            residual = entries @ vec.amps - vals[k] * vec.amps
            if np.max(np.abs(residual)) > TOL.eigen:
                raise ValidationError(f"eigenpair {k} residual exceeds {TOL.eigen}")
        gram = np.array([[inner(a, b) for b in vecs] for a in vecs])
        if np.max(np.abs(gram - np.eye(side))) > TOL.eigen:
            raise ValidationError("eigenvectors are not orthonormal")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "eigvals", vals)
        object.__setattr__(self, "eigvecs", vecs)


def make_observable(matrix, targets: Sequence[str], dims: Sequence[int] | None = None) -> Observable:
    """Build an :class:`Observable` from a hermitian matrix.

    ``dims`` defaults to one subsystem per target of equal dimension;
    pass it explicitly for unequal subsystem sizes.
    """
    targets = tuple(targets)
    entries = np.asarray(matrix, dtype=complex)
    if dims is None:
        side = entries.shape[0]
        per = round(side ** (1.0 / len(targets)))
        if per ** len(targets) != side:
            raise ValidationError("cannot infer subsystem dims; pass dims explicitly")
        dims = (per,) * len(targets)
    op = Operator(tuple(dims), entries)
    vals, vecs = np.linalg.eigh(op.entries)
    eigvecs = tuple(
        StateVector(op.dims, targets, vecs[:, k]) for k in range(op.side)
    )
    return Observable(op, targets, tuple(float(v) for v in vals), eigvecs)


@dataclass(frozen=True)
class PrePostContext:
    """Preselected state and postselection state, both at the coupling time.

    Any evolution before or after the coupling is folded into the states
    with :func:`~qccsim.qstate.apply`: ``psi_i`` is U_wi|psi>, ``chi_f``
    is U_fw^dagger|chi>. The postselection bra is the adjoint of ``chi_f``.
    """

    psi_i: StateVector
    chi_f: StateVector

    def __post_init__(self) -> None:
        for name, state in (("psi_i", self.psi_i), ("chi_f", self.chi_f)):
            if abs(state.norm - 1.0) > TOL.structural:
                raise ValidationError(f"{name} must be normalized, norm {state.norm!r}")
        if self.psi_i.dims != self.chi_f.dims or self.psi_i.labels != self.chi_f.labels:
            raise ValidationError("psi_i and chi_f must live on the same labeled space")


def elementwise(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """``fn`` entry by entry, e.g. ``math.exp``: it rounds as scalar code does,
    where numpy's vectorized exp, cos and pow can differ in the last bit."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def squared(values: np.ndarray, quantity: str, name: str) -> np.ndarray:
    """``values**2`` entry by entry; an overflow names the quantity and the value."""

    def square(v: float) -> float:
        try:
            return v**2
        except OverflowError:
            raise OverflowError(f"{quantity} overflows: {name}**2 at {name}={v!r}") from None

    return elementwise(square, values)


def pointwise(param, cls, **fields):
    """``cls(**fields)``: array fields over the entries of ``param``, or Python
    scalars when ``param`` is a scalar (one run, not a sweep)."""
    if np.ndim(param) == 0:
        fields = {k: v.item() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    return cls(**fields)


@dataclass(frozen=True)
class WeakMeasurementResult:
    """Outcome of one coupled pre/postselected run.

    ``weak_value`` is None when the postselection overlap is numerically
    orthogonal; the transition element stays defined either way.
    ``postselect_prob_coupled`` is the exact postselection probability
    including the coupling, ``exact_shift`` the exact mean-position
    shift of the postselected pointer (NaN when that probability is 0).
    """

    weak_value: complex | None
    transition_element: complex
    postselect_prob_unperturbed: float
    pointer_final: GaussianPointerState
    g: float
    postselect_prob_coupled: float
    exact_shift: float


@dataclass(frozen=True)
class LinearResponseReport:
    """Exact pointer shift against the first-order law g * Re(A^w)."""

    exact_shift: float
    predicted_shift: float
    abs_error: float
    ratio: float


@dataclass(frozen=True)
class ValidityReport:
    """How deep a coupling sits in the linear-response regime.

    ``margin`` is |g| * |A^w| / (2 sigma), using the Gaussian momentum
    spread 1/(2 sigma); values well below 1 mark the weak regime.
    ``dominance_ratio`` compares the second-order term of the coupled
    overlap expansion, (g^2/2) |(A^2)^w| * ||P^2 phi0||, against the
    first-order one. Fields are arrays over an array of couplings.
    """

    margin: float
    first_order: float
    second_order: float
    dominance_ratio: float


class BranchTable(NamedTuple):
    """One (context, observable) pair, reduced to what every readout needs.

    ``eigvals`` are the distinct eigenvalues a_k in eigenvector order, and
    ``coeffs`` their nonzero branch amplitudes c_k = <chi|a_k><a_k|psi>,
    summed over degenerate eigenvectors as superpose merges them.
    ``transition`` is <chi|A|psi>, a vdot of chi with A|psi>.
    """

    eigvals: tuple[float, ...]
    coeffs: tuple[complex, ...]
    overlap: complex  # <chi|psi>
    transition: complex
    transition_sq: complex

    @property
    def orthogonal(self) -> bool:
        return abs(self.overlap) <= TOL.orthogonal_overlap

    def weak_value(self) -> complex:
        if self.orthogonal:
            raise OrthogonalPostselection(
                f"postselection overlap modulus {abs(self.overlap):.3e} is below "
                f"{TOL.orthogonal_overlap}; weak value undefined"
            )
        return self.transition / self.overlap

    def pointer(self, phi0: GaussianPointerState, g: float) -> GaussianPointerState:
        """The postselected pointer sum_k c_k phi0(x - g a_k), exact at any coupling."""
        if not self.coeffs:
            return GaussianPointerState(phi0.width, ())
        return superpose(translate(phi0, g * a, c) for a, c in zip(self.eigvals, self.coeffs))

    @np.errstate(all="ignore")
    def readout(self, phi0: GaussianPointerState, g):
        """Exact pointer shift and coupled postselection probability at each coupling in ``g``.

        For a freshly prepared ``phi0`` (one unit component at rest), norm^2
        and <x> of :meth:`pointer` are pair sums of c_j^* c_k times the overlap
        e^{-g^2 (a_j - a_k)^2 / 8 sigma^2} (and g (a_j + a_k) / 2 for <x>), taken
        in the order and rounding of ``norm_sq`` and ``mean_position``, so both
        agree bit for bit. Floats for a scalar ``g``, arrays for an array; the
        shift is NaN where the probability is 0.
        """
        gs = np.atleast_1d(np.asarray(g, dtype=float))
        if gs.ndim != 1 or not np.all(np.isfinite(gs)):
            raise ValidationError("coupling strength must be finite")
        comps = phi0.components
        if len(comps) != 1 or comps[0].coeff != 1.0:
            raise ValidationError("the coupled readout needs a freshly prepared pointer")
        s2 = phi0.width * phi0.width
        k_count, rows = len(self.eigvals), np.arange(gs.size)
        x = comps[0].center + gs[:, None] * np.array(self.eigvals).reshape(1, k_count)
        if not np.all(np.isfinite(x)):
            raise ValidationError("translation shift and coefficient must be finite")
        # Branches landing on one center merge into the first, as in superpose (all at g = 0).
        re, im = np.zeros(x.shape), np.zeros(x.shape)
        for k, c in enumerate(self.coeffs):
            first = np.full(gs.size, k)
            for j in range(k - 1, -1, -1):
                first[x[:, j] == x[:, k]] = j
            re[rows, first] += c.real
            im[rows, first] += c.imag
        pairs = [(p, q) for p in range(k_count) for q in range(p, k_count)]
        dc = np.array([x[:, p] - x[:, q] for p, q in pairs]).reshape(len(pairs), gs.size)
        overlaps = dict(zip(pairs, elementwise(math.exp, -dc * dc / (8.0 * s2))))
        norm, position = np.zeros(gs.size), np.zeros(gs.size)
        for p in range(k_count):
            for q in range(k_count):
                e = overlaps[min(p, q), max(p, q)]
                weight = re[:, p] * re[:, q] - (-im[:, p]) * im[:, q]
                norm = norm + weight * e
                position = position + weight * (e * ((x[:, p] + x[:, q]) / 2.0))
        prob = np.maximum(norm, 0.0)
        shift = np.where(prob > 0.0, position / prob, np.nan) - mean_position(phi0)
        return (shift.item(), prob.item()) if np.ndim(g) == 0 else (shift, prob)

    def couple(self, phi0: GaussianPointerState, g: float) -> WeakMeasurementResult:
        """One coupled run: the final pointer and its readout at coupling ``g``."""
        g = float(g)
        shift, prob = self.readout(phi0, g)
        if prob > 0.0 and not math.isfinite(shift):  # (x_p + x_q) / 2 overflows once |g a| nears 9e307
            raise OverflowError(f"pointer shift overflows: exact_shift at g={g!r}")
        return WeakMeasurementResult(
            weak_value=None if self.orthogonal else self.weak_value(),
            transition_element=self.transition,
            postselect_prob_unperturbed=abs(self.overlap) ** 2,
            pointer_final=self.pointer(phi0, g),
            g=g,
            postselect_prob_coupled=prob,
            exact_shift=shift,
        )

    def linear_response(self, result: WeakMeasurementResult) -> LinearResponseReport:
        """A coupled run's exact shift against the linear weak-value law."""
        wv = self.weak_value()
        if result.postselect_prob_coupled <= 0.0:
            raise ValidationError("mean_position undefined for a zero-norm pointer state")
        exact_shift = result.exact_shift
        predicted_shift = result.g * wv.real
        abs_error = abs(exact_shift - predicted_shift)
        ratio = exact_shift / predicted_shift if predicted_shift != 0.0 else math.nan
        return LinearResponseReport(exact_shift, predicted_shift, abs_error, ratio)

    @np.errstate(all="ignore")
    def margin(self, phi0: GaussianPointerState, g):
        """Weak-regime margin |g| |A^w| / (2 sigma) at each coupling in ``g``:
        a float for a scalar ``g``, an array for an array."""
        gs = np.abs(np.atleast_1d(np.asarray(g, dtype=float)))
        margin = gs * (1.0 / (2.0 * phi0.width)) * abs(self.weak_value())
        return margin.item() if np.ndim(g) == 0 else margin

    @np.errstate(all="ignore")
    def validity(self, phi0: GaussianPointerState, g) -> ValidityReport:
        """Weak-regime margin and second-order dominance at each coupling in ``g``."""
        gs = np.abs(np.atleast_1d(np.asarray(g, dtype=float)))
        margin = self.margin(phi0, gs)
        wv_sq = self.transition_sq / self.overlap
        # ||P^2 u|| for a normalized Gaussian wavepacket at rest.
        p2_norm = math.sqrt(3.0 / width_power(phi0.width, 16.0, 4, "validity second order"))
        second_order = squared(gs, "validity second order", "|g|") / 2.0 * abs(wv_sq) * p2_norm
        dominance = np.where(margin > 0.0, second_order / margin, np.where(second_order > 0.0, math.inf, 0.0))
        return pointwise(g, ValidityReport, margin=margin, first_order=margin,
                         second_order=second_order, dominance_ratio=dominance)


def branch_table(ctx: PrePostContext, obs: Observable) -> BranchTable:
    """Reduce a (context, observable) pair to its :class:`BranchTable`."""
    psi, chi = ctx.psi_i, ctx.chi_f
    if obs.targets != psi.labels:
        raise ValidationError(
            f"observable targets {obs.targets} must equal the context labels {psi.labels}"
        )
    merged: dict[float, complex] = {}
    for a, vec in zip(obs.eigvals, obs.eigvecs):
        merged[a] = merged.get(a, 0.0 + 0.0j) + inner(chi, vec) * inner(vec, psi)
    branches = [(a, c) for a, c in merged.items() if c != 0.0]
    a_psi = apply(obs.op, obs.targets, psi)
    return BranchTable(
        eigvals=tuple(a for a, _ in branches),
        coeffs=tuple(c for _, c in branches),
        overlap=inner(chi, psi),
        transition=inner(chi, a_psi),
        transition_sq=inner(chi, apply(obs.op, obs.targets, a_psi)),
    )


def weak_value(ctx: PrePostContext, obs: Observable) -> complex:
    """A^w = <chi|A|psi> / <chi|psi>."""
    return branch_table(ctx, obs).weak_value()


def couple_and_postselect(
    ctx: PrePostContext,
    obs: Observable,
    phi0: GaussianPointerState,
    g: float,
) -> WeakMeasurementResult:
    """Run the full protocol and return the exact postselected pointer.

    The final pointer is the superposition over eigenbranches of the
    initial pointer translated by g times the eigenvalue, weighted by
    <chi|a_k><a_k|psi>; this is exact for any coupling strength.
    """
    return branch_table(ctx, obs).couple(phi0, g)


def linear_response_report(
    ctx: PrePostContext,
    obs: Observable,
    phi0: GaussianPointerState,
    g: float,
) -> LinearResponseReport:
    """Compare the exact mean-position shift with the linear weak-value law."""
    table = branch_table(ctx, obs)
    table.weak_value()  # an orthogonal postselection raises before coupling
    return table.linear_response(table.couple(phi0, g))


@dataclass(frozen=True)
class ExpectationDecomposition:
    """<psi|A|psi> against its postselection-resolved weak-value sum."""

    lhs: float
    rhs: complex
    abs_diff: float
    n_outcomes: int


def expectation_decomposition_check(
    psi: StateVector,
    obs: Observable,
    basis: Observable,
) -> ExpectationDecomposition:
    """Verify <psi|A|psi> = sum_f |<b_f|psi>|^2 A^w_f over the eigenbasis of B.

    Outcomes with numerically orthogonal overlap contribute through the
    transition-element form conj(<b_f|psi>) <b_f|A|psi>, which equals
    the probability-weighted weak value without the 0 * inf ambiguity.
    """
    if basis.targets != psi.labels:
        raise ValidationError(
            "postselection basis must span the full state space: "
            f"targets {basis.targets} vs labels {psi.labels}"
        )
    a_psi = apply(obs.op, obs.targets, psi)
    lhs = inner(psi, a_psi)
    rhs = 0.0 + 0.0j
    for vec in basis.eigvecs:
        amp = inner(vec, psi)
        trans = inner(vec, a_psi)
        if abs(amp) > TOL.orthogonal_overlap:
            rhs += abs(amp) ** 2 * (trans / amp)
        else:
            rhs += amp.conjugate() * trans
    return ExpectationDecomposition(
        lhs=lhs.real,
        rhs=complex(rhs),
        abs_diff=abs(lhs - rhs),
        n_outcomes=len(basis.eigvecs),
    )


def validity_margin(
    ctx: PrePostContext,
    obs: Observable,
    phi0: GaussianPointerState,
    g: float,
) -> ValidityReport:
    """Weak-regime margin and second-order dominance check."""
    return branch_table(ctx, obs).validity(phi0, g)
