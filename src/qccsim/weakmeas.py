"""Weak measurement protocol: preselect, couple, postselect, read out.

The coupling is impulsive: g stands for the time-integrated strength.
It is applied through the spectral decomposition of the observable, so
each eigenbranch translates the pointer exactly and results carry no
weak-coupling or discretization approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import OrthogonalPostselection, ValidationError
from .pointer import (
    GaussianPointerState,
    mean_position,
    norm_sq,
    superpose,
    translate,
)
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
        if self.op.kind != "hermitian":
            raise ValidationError("observable operator must be tagged hermitian")
        side = self.op.side
        vals = tuple(float(v) for v in self.eigvals)
        vecs = tuple(self.eigvecs)
        if len(vals) != side or len(vecs) != side:
            raise ValidationError(f"need {side} eigenpairs, got {len(vals)}/{len(vecs)}")
        for k, vec in enumerate(vecs):
            if vec.dims != self.op.dims or vec.labels != targets:
                raise ValidationError("eigenvector spaces must match the operator targets")
            residual = self.op.entries @ vec.amps - vals[k] * vec.amps
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
    op = Operator(tuple(dims), entries, kind="hermitian")
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


@dataclass(frozen=True)
class WeakMeasurementResult:
    """Outcome of one coupled pre/postselected run.

    ``weak_value`` is None when the postselection overlap is numerically
    orthogonal; the transition element stays defined either way.
    """

    weak_value: complex | None
    transition_element: complex
    postselect_prob_unperturbed: float
    pointer_final: GaussianPointerState
    g: float

    @property
    def postselect_prob_coupled(self) -> float:
        """Exact postselection probability including the coupling."""
        return norm_sq(self.pointer_final)


class _Evaluation(NamedTuple):
    """One (context, observable) pair evaluated at the coupling time."""

    psi: StateVector
    chi: StateVector
    a_psi: StateVector  # A|psi>
    overlap: complex  # <chi|psi>
    transition: complex  # <chi|A|psi>

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


def _evaluate(ctx: PrePostContext, obs: Observable) -> _Evaluation:
    psi, chi = ctx.psi_i, ctx.chi_f
    if obs.targets != psi.labels:
        raise ValidationError(
            f"observable targets {obs.targets} must equal the context labels {psi.labels}"
        )
    a_psi = apply(obs.op, obs.targets, psi)
    return _Evaluation(psi, chi, a_psi, inner(chi, psi), inner(chi, a_psi))


def transition_element(ctx: PrePostContext, obs: Observable) -> complex:
    """<chi|A|psi>; defined even for orthogonal postselections."""
    return _evaluate(ctx, obs).transition


def weak_value(ctx: PrePostContext, obs: Observable) -> complex:
    """A^w = <chi|A|psi> / <chi|psi>."""
    return _evaluate(ctx, obs).weak_value()


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
    return _couple(_evaluate(ctx, obs), obs, phi0, g)


def _couple(ev: _Evaluation, obs: Observable, phi0: GaussianPointerState, g: float) -> WeakMeasurementResult:
    g = float(g)
    if not math.isfinite(g):
        raise ValidationError("coupling strength must be finite")
    # Branch amplitude c_k = <chi|a_k><a_k|psi> per eigenvector a_k.
    branches = [inner(ev.chi, vec) * inner(vec, ev.psi) for vec in obs.eigvecs]
    pointer_final = superpose(translate(phi0, g * a, c) for a, c in zip(obs.eigvals, branches))
    return WeakMeasurementResult(
        weak_value=None if ev.orthogonal else ev.weak_value(),
        transition_element=ev.transition,
        postselect_prob_unperturbed=abs(ev.overlap) ** 2,
        pointer_final=pointer_final,
        g=g,
    )


@dataclass(frozen=True)
class LinearResponseReport:
    """Exact pointer shift against the first-order law g * Re(A^w)."""

    exact_shift: float
    predicted_shift: float
    abs_error: float
    ratio: float


def linear_response_report(
    ctx: PrePostContext,
    obs: Observable,
    phi0: GaussianPointerState,
    g: float,
) -> LinearResponseReport:
    """Compare the exact mean-position shift with the linear weak-value law."""
    ev = _evaluate(ctx, obs)
    ev.weak_value()  # an orthogonal postselection raises before coupling
    result = _couple(ev, obs, phi0, g)
    exact_shift = mean_position(result.pointer_final) - mean_position(phi0)
    predicted_shift = float(g) * result.weak_value.real
    abs_error = abs(exact_shift - predicted_shift)
    ratio = exact_shift / predicted_shift if predicted_shift != 0.0 else math.nan
    return LinearResponseReport(exact_shift, predicted_shift, abs_error, ratio)


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


@dataclass(frozen=True)
class ValidityReport:
    """How deep a coupling sits in the linear-response regime.

    ``margin`` is |g| * |A^w| / (2 sigma), using the Gaussian momentum
    spread 1/(2 sigma); values well below 1 mark the weak regime.
    ``dominance_ratio`` compares the second-order term of the coupled
    overlap expansion, (g^2/2) |(A^2)^w| * ||P^2 phi0||, against the
    first-order one.
    """

    margin: float
    first_order: float
    second_order: float
    dominance_ratio: float


def validity_margin(
    ctx: PrePostContext,
    obs: Observable,
    phi0: GaussianPointerState,
    g: float,
) -> ValidityReport:
    """Weak-regime margin and second-order dominance check."""
    ev = _evaluate(ctx, obs)
    wv = ev.weak_value()
    wv_sq = inner(ev.chi, apply(obs.op, obs.targets, ev.a_psi)) / ev.overlap
    sigma = phi0.width
    k0 = phi0.components[0].momentum_center
    p_scale = 1.0 / (2.0 * sigma)
    # ||P^2 u|| for a normalized Gaussian wavepacket with momentum center k0.
    p2_norm = math.sqrt(k0**4 + 6.0 * k0**2 / (4.0 * sigma**2) + 3.0 / (16.0 * sigma**4))
    g = abs(float(g))
    margin = g * p_scale * abs(wv)
    first_order = margin
    second_order = (g**2 / 2.0) * abs(wv_sq) * p2_norm
    if first_order > 0.0:
        dominance = second_order / first_order
    else:
        dominance = math.inf if second_order > 0.0 else 0.0
    return ValidityReport(margin, first_order, second_order, dominance)
