"""Weak measurement protocol: preselect, couple, postselect, read out.

The coupling is impulsive: g stands for the time-integrated strength.
It is applied through the spectral decomposition of the observable, so
each eigenbranch translates the pointer exactly and results carry no
weak-coupling or discretization approximation.

A context is two amplitude sequences and an observable a checked
:class:`Spectrum`, both Python numbers; a pair reduces to one :class:`BranchTable`.
Its readouts are closed forms in g, over one coupling as Python floats or
over a whole array of couplings at once; numpy loads only for the array.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

from ._record import Record
from .errors import DimensionMismatch, OrthogonalPostselection, ValidationError
from .pointer import GaussianPointerState, mean_position, midpoint, superpose, translate, width_power
from .tolerances import EIGEN, ORTHOGONAL_OVERLAP, STRUCTURAL


def vdot(bra, ket) -> complex:
    """<bra|ket> of two amplitude sequences, summed in order in Python complex
    arithmetic: one rounding on every platform, where a BLAS dot may fuse products."""
    total = 0j
    for b, k in zip(bra, ket):
        total += b.conjugate() * k
    return total


def matvec(rows, vec) -> list[complex]:
    """A|vec> of a matrix's rows and an amplitude sequence, each entry summed in order."""
    return [sum((r * x for r, x in zip(row, vec)), 0j) for row in rows]


def amplitudes(values, what: str) -> tuple[complex, ...]:
    """``values`` as Python complex numbers, each of them finite."""
    amps = tuple(map(complex, values))
    if not all(map(cmath.isfinite, amps)):
        raise ValidationError(f"{what} contains non-finite entries")
    return amps


def hermitian_rows(matrix) -> tuple[tuple[complex, ...], ...]:
    """The rows of a finite, square, hermitian matrix, as Python complex numbers."""
    side = len(matrix)
    shape = (side, *sorted({len(row) for row in matrix if hasattr(row, "__len__")}))
    if shape != (side, side):
        raise DimensionMismatch(f"operator matrix has shape {shape}, expected ({side}, {side})")
    rows = tuple(amplitudes(row, "operator matrix") for row in matrix)
    defect = max(abs(rows[r][c] - rows[c][r].conjugate()) for r in range(side) for c in range(side))
    if defect > STRUCTURAL:
        raise ValidationError(f"hermitian defect {defect:.3e} exceeds {STRUCTURAL}")
    return rows


class Spectrum(Record):
    """A hermitian observable written out: the ``rows`` of its matrix, its ``eigvals``
    and one amplitude sequence per eigenvector, in Python numbers. Building one checks
    it, without numpy: finite entries, hermitian rows, one eigenpair per row with a finite
    eigenvalue, each within ``EIGEN`` of A v = a v, and orthonormal eigenvectors."""

    rows: tuple[tuple[complex, ...], ...]
    eigvals: tuple[float, ...]
    eigvecs: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        rows = hermitian_rows(self.rows)
        side = len(rows)
        vals = tuple(float(v) for v in self.eigvals)
        if len(vals) != side or len(self.eigvecs) != side:
            raise ValidationError(f"need {side} eigenpairs, got {len(vals)}/{len(self.eigvecs)}")
        vecs = tuple(amplitudes(vec, "amplitude vector") for vec in self.eigvecs)
        for k, (a, vec) in enumerate(zip(vals, vecs)):
            if len(vec) != side:
                raise DimensionMismatch(f"amplitude vector has length {len(vec)}, expected {side}")
            require(a, f"eigenvalue {k} must be finite")
            # Written as "not <=" so that a NaN residual or overlap fails the check.
            if not all(abs(av - a * v) <= EIGEN for av, v in zip(matvec(rows, vec), vec)):
                raise ValidationError(f"eigenpair {k} residual exceeds {EIGEN}")
        if not all(abs(vdot(u, v) - (i == j)) <= EIGEN for i, u in enumerate(vecs) for j, v in enumerate(vecs)):
            raise ValidationError("eigenvectors are not orthonormal")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "eigvals", vals)
        object.__setattr__(self, "eigvecs", vecs)


def make_observable(matrix) -> Spectrum:
    """The checked :class:`Spectrum` of a hermitian matrix, from ``np.linalg.eigh``."""
    import numpy as np
    rows = hermitian_rows(np.array(matrix, dtype=complex, ndmin=1).tolist())
    vals, vecs = np.linalg.eigh(np.array(rows))
    return Spectrum(rows, vals.tolist(), vecs.T.tolist())


class PrePostContext(Record):
    """Preselected and postselected amplitudes over one basis, both at the coupling time.

    Any evolution before or after the coupling is folded into them: ``psi_i``
    is U_wi|psi>, ``chi_f`` is U_fw^dagger|chi>. The postselection bra is the
    adjoint of ``chi_f``.
    """

    psi_i: tuple[complex, ...]
    chi_f: tuple[complex, ...]

    def __post_init__(self) -> None:
        for name in ("psi_i", "chi_f"):
            amps = amplitudes(getattr(self, name), "amplitude vector")
            norm = math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in amps))
            if abs(norm - 1.0) > STRUCTURAL:
                raise ValidationError(f"{name} must be normalized, norm {norm!r}")
            object.__setattr__(self, name, amps)
        if len(self.psi_i) != len(self.chi_f):
            raise DimensionMismatch(f"psi_i and chi_f differ in length: {len(self.psi_i)} and {len(self.chi_f)}")


def one_number(values) -> bool:
    """Whether ``values`` is one number (a single run) rather than an array (a sweep)."""
    return isinstance(values, (int, float)) or getattr(values, "ndim", None) == 0


def run_on(values, formula: Callable):
    """``formula(values)`` on a Python float for one number, else on a float64 array with
    numpy's float warnings off. Formulas here guard where a float raises and an array does not."""
    if one_number(values):
        return formula(float(values))
    import numpy as np
    with np.errstate(all="ignore"):
        return formula(np.asarray(values, dtype=float))


def elementwise(fn: Callable[[float], float], values):
    """``fn`` of one number, or entry by entry of an array, e.g. ``math.exp``: it rounds as
    scalar code does, where numpy's vectorized exp, cos and pow can differ in the last bit."""
    if isinstance(values, (int, float, complex)):
        return fn(values)
    import numpy as np
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def squared(values, quantity: str, name: str):
    """``values**2`` entry by entry; an overflow names the quantity and the value."""

    def square(v: float) -> float:
        try:
            return v**2
        except OverflowError:
            raise OverflowError(f"{quantity} overflows: {name}**2 at {name}={v!r}") from None

    return elementwise(square, values)


def select(cond, then: Callable, otherwise: Callable):
    """``then()`` where ``cond`` holds, else ``otherwise()``; for one bool only the chosen side runs."""
    if isinstance(cond, bool):
        return then() if cond else otherwise()
    import numpy as np
    return np.where(cond, then(), otherwise())


def first_failure(ok: Callable, values, *beside):
    """None where ``ok(values)`` holds at every entry; else, as Python numbers, the
    first entry where it fails and the entries of same-shaped ``beside`` there."""
    holds = ok(values)
    if isinstance(holds, bool):
        return None if holds else (values, *beside)
    i = holds.ravel().argmin()
    if holds.flat[i]:
        return None
    return tuple(v.flat[i].item() if hasattr(v, "flat") else v for v in (values, *beside))


def require(values, rule: str, test: Callable = lambda v: True) -> None:
    """State an input rule: ``ValidationError("<rule>, got <value>")`` at the first entry of
    ``values``, one number or an array, that is not finite or fails ``test``."""
    bad = first_failure(lambda v: (abs(v) < math.inf) & test(v), run_on(values, lambda v: v))
    if bad is not None:
        raise ValidationError(f"{rule}, got {bad[0]!r}")


class WeakMeasurementResult(Record):
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


class LinearResponseReport(Record):
    """Exact pointer shift against the first-order law g * Re(A^w)."""

    exact_shift: float
    predicted_shift: float
    abs_error: float
    ratio: float


class ValidityReport(Record):
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
        return abs(self.overlap) <= ORTHOGONAL_OVERLAP

    def weak_value(self) -> complex:
        if self.orthogonal:
            raise OrthogonalPostselection(
                f"postselection overlap modulus {abs(self.overlap):.3e} is below "
                f"{ORTHOGONAL_OVERLAP}; weak value undefined"
            )
        return self.transition / self.overlap

    def pointer(self, phi0: GaussianPointerState, g: float) -> GaussianPointerState:
        """The postselected pointer sum_k c_k phi0(x - g a_k), exact at any coupling."""
        if not self.coeffs:
            return GaussianPointerState(phi0.width, ())
        return superpose(translate(phi0, g * a, c) for a, c in zip(self.eigvals, self.coeffs))

    def readout(self, phi0: GaussianPointerState, g):
        """Exact pointer shift and coupled postselection probability at each coupling in ``g``.

        For a freshly prepared ``phi0`` (one unit component at rest), these are
        ``norm_sq`` and ``mean_position`` of :meth:`pointer`, in their order and
        rounding: pair sums of c_j^* c_k times the overlap e^{-(x_j - x_k)^2 / 8 sigma^2}
        (and their ``midpoint`` for <x>) over the branch centers x_k = x_0 + g a_k. Floats
        for one coupling, arrays for an array; the shift is NaN where the probability is 0.
        """
        comps = phi0.components
        if len(comps) != 1 or comps[0].coeff != 1.0:
            raise ValidationError("the coupled readout needs a freshly prepared pointer")
        require(g, "coupling strength must be finite")

        def pair_sums(gs):
            if getattr(gs, "ndim", 0) > 1:
                raise ValidationError(f"couplings must be one number or a 1-D array, got shape {gs.shape}")
            x = [comps[0].center + gs * a for a in self.eigvals]
            for xk in x:
                require(xk, "branch center x_0 + g a_k must be finite")
            # Branches landing on one center merge into the first, as in superpose (all at g = 0).
            re, im = [], []
            for k, c in enumerate(self.coeffs):
                own = 1.0  # 0 once branch k has merged into an earlier one
                for j in range(k):
                    hit = (x[j] == x[k]) * own
                    re[j], im[j], own = re[j] + hit * c.real, im[j] + hit * c.imag, own - hit
                re.append(own * c.real)
                im.append(own * c.imag)
            s2, pairs = phi0.width * phi0.width, [(p, q) for p in range(len(x)) for q in range(len(x))]
            overlaps = {(p, q): elementwise(math.exp, -(x[p] - x[q]) * (x[p] - x[q]) / (8.0 * s2))
                        for p, q in pairs if p <= q}
            norm = position = 0.0 * abs(gs)  # shaped like gs also for a table with no branches
            for p, q in pairs:
                weight, e = re[p] * re[q] - (-im[p]) * im[q], overlaps[min(p, q), max(p, q)]
                norm = norm + weight * e
                position = position + weight * (e * midpoint(x[p], x[q]))
            prob = select(norm < 0.0, lambda: 0.0, lambda: norm)
            return select(prob > 0.0, lambda: position / prob, lambda: math.nan) - mean_position(phi0), prob

        return run_on(g, pair_sums)

    def couple(self, phi0: GaussianPointerState, g: float) -> WeakMeasurementResult:
        """One coupled run: the final pointer and its readout at coupling ``g``."""
        g = float(g)
        shift, prob = self.readout(phi0, g)
        if prob > 0.0 and not math.isfinite(shift):  # a postselected run has a finite shift
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

    def margin(self, phi0: GaussianPointerState, g):
        """Weak-regime margin |g| |A^w| / (2 sigma) at each coupling in ``g``:
        a float for one coupling, an array for an array."""
        require(g, "coupling strength must be finite")
        return run_on(g, lambda gs: abs(gs) * (1.0 / (2.0 * phi0.width)) * abs(self.weak_value()))

    def validity(self, phi0: GaussianPointerState, g) -> ValidityReport:
        """Weak-regime margin and second-order dominance at each coupling in ``g``."""

        def report(gs) -> ValidityReport:
            margin = self.margin(phi0, gs)
            # ||P^2 u|| = sqrt(3) / (4 sigma^2) for a normalized Gaussian wavepacket at rest.
            p2_norm = math.sqrt(3.0) / width_power(phi0.width, 4.0, 2, "validity second order")
            if p2_norm == math.inf:
                raise OverflowError("validity second order overflows: "
                                    f"sqrt(3)/(4*pointer_width**2) at pointer_width={phi0.width!r}")
            wv_sq = abs(self.transition_sq / self.overlap)
            second_order = squared(abs(gs), "validity second order", "|g|") / 2.0 * wv_sq * p2_norm
            bad = first_failure(lambda s: s < math.inf, second_order, gs)
            if bad is not None:
                raise OverflowError("validity second order overflows: |g|**2/2*|(A^2)^w|*sqrt(3)/(4*pointer_width**2) "
                                    f"at g={bad[1]!r}, pointer_width={phi0.width!r}")
            dominance = select(margin > 0.0, lambda: second_order / margin,
                               lambda: select(second_order > 0.0, lambda: math.inf, lambda: 0.0))
            return ValidityReport(margin, margin, second_order, dominance)

        return run_on(g, report)


def branch_table(ctx: PrePostContext, spectrum: Spectrum) -> BranchTable:
    """Reduce a (context, observable) pair to its :class:`BranchTable`, in Python complex
    arithmetic: the one door to a table, the same whether or not numpy built its inputs."""
    if len(spectrum.rows) != len(ctx.psi_i):
        raise DimensionMismatch(f"observable has {len(spectrum.rows)} rows for a {len(ctx.psi_i)}-level context")
    psi, chi = ctx.psi_i, ctx.chi_f
    merged: dict[float, complex] = {}
    for a, vec in zip(spectrum.eigvals, spectrum.eigvecs):
        merged[a] = merged.get(a, 0.0 + 0.0j) + vdot(chi, vec) * vdot(vec, psi)
    branches = [(a, c) for a, c in merged.items() if c != 0.0]
    a_psi = matvec(spectrum.rows, psi)
    return BranchTable(
        eigvals=tuple(a for a, _ in branches),
        coeffs=tuple(c for _, c in branches),
        overlap=vdot(chi, psi),
        transition=vdot(chi, a_psi),
        transition_sq=vdot(chi, matvec(spectrum.rows, a_psi)),
    )


def weak_value(ctx: PrePostContext, obs: Spectrum) -> complex:
    """A^w = <chi|A|psi> / <chi|psi>."""
    return branch_table(ctx, obs).weak_value()


def couple_and_postselect(ctx: PrePostContext, obs: Spectrum, phi0: GaussianPointerState,
                          g: float) -> WeakMeasurementResult:
    """Run the full protocol and return the exact postselected pointer.

    The final pointer is the superposition over eigenbranches of the
    initial pointer translated by g times the eigenvalue, weighted by
    <chi|a_k><a_k|psi>; this is exact for any coupling strength.
    """
    return branch_table(ctx, obs).couple(phi0, g)


def linear_response_report(ctx: PrePostContext, obs: Spectrum, phi0: GaussianPointerState,
                           g: float) -> LinearResponseReport:
    """Compare the exact mean-position shift with the linear weak-value law."""
    table = branch_table(ctx, obs)
    table.weak_value()  # an orthogonal postselection raises before coupling
    return table.linear_response(table.couple(phi0, g))


def validity_margin(ctx: PrePostContext, obs: Spectrum, phi0: GaussianPointerState, g: float) -> ValidityReport:
    """Weak-regime margin and second-order dominance check."""
    return branch_table(ctx, obs).validity(phi0, g)
