"""Weak measurement protocol: preselect, couple, postselect, read out.

The coupling is impulsive: g stands for the time-integrated strength.
It is applied through the spectral decomposition of the observable, so
each eigenbranch translates the pointer exactly and results carry no
weak-coupling or discretization approximation.

A (context, observable) pair reduces to one :class:`BranchTable`. Its
readouts are closed forms in g, over one coupling as Python floats or
over a whole array of couplings at once; numpy loads only for the array.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from ._record import Record
from .errors import OrthogonalPostselection, ValidationError
from .pointer import GaussianPointerState, mean_position, midpoint, superpose, translate, width_power
from .qstate import Operator, StateVector, inner, vdot
from .tolerances import EIGEN, ORTHOGONAL_OVERLAP, STRUCTURAL


class Observable(Record):
    """Hermitian observable with its spectral data and labeled space.

    ``targets`` labels the subsystems of the whole space the operator acts
    on, and its eigenvectors live on that space. Use :func:`make_observable`
    to build one from a matrix.
    """

    op: Operator
    targets: tuple[str, ...]
    eigvals: tuple[float, ...]
    eigvecs: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        import numpy as np
        targets = tuple(self.targets)
        entries, side = self.op.entries, self.op.side
        defect = np.max(np.abs(entries - entries.conj().T))
        if defect > STRUCTURAL:
            raise ValidationError(f"hermitian defect {defect:.3e} exceeds {STRUCTURAL}")
        vals = tuple(float(v) for v in self.eigvals)
        vecs = tuple(self.eigvecs)
        if len(vals) != side or len(vecs) != side:
            raise ValidationError(f"need {side} eigenpairs, got {len(vals)}/{len(vecs)}")
        for k, vec in enumerate(vecs):
            if vec.dims != self.op.dims or vec.labels != targets:
                raise ValidationError("eigenvector spaces must match the operator targets")
            residual = entries @ vec.amps - vals[k] * vec.amps
            if np.max(np.abs(residual)) > EIGEN:
                raise ValidationError(f"eigenpair {k} residual exceeds {EIGEN}")
        gram = np.array([[inner(a, b) for b in vecs] for a in vecs])
        if np.max(np.abs(gram - np.eye(side))) > EIGEN:
            raise ValidationError("eigenvectors are not orthonormal")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "eigvals", vals)
        object.__setattr__(self, "eigvecs", vecs)


def _operator(matrix, targets: tuple[str, ...]) -> Operator:
    """``matrix`` on the space labeled ``targets``: one subsystem per label, all of equal dimension."""
    import numpy as np
    entries = np.asarray(matrix, dtype=complex)
    side = entries.shape[0] if entries.ndim else 0
    per = round(side ** (1.0 / len(targets))) if targets else 0
    if per < 1 or per ** len(targets) != side:
        raise ValidationError(f"a {side}-row matrix does not split into {len(targets)} equal subsystems")
    return Operator((per,) * len(targets), entries)


class Spectrum(NamedTuple):
    """A hermitian matrix written out with its eigenpairs: the ``rows`` of
    the matrix, its ``eigvals`` and one amplitude sequence per eigenvector."""

    rows: Sequence
    eigvals: Sequence[float]
    eigvecs: Sequence

    def observable(self, targets: Sequence[str]) -> Observable:
        """The :class:`Observable` on the space labeled ``targets``, checked as any other."""
        targets = tuple(targets)
        op = _operator(self.rows, targets)
        vecs = tuple(StateVector(op.dims, targets, v) for v in self.eigvecs)
        return Observable(op, targets, tuple(float(v) for v in self.eigvals), vecs)


def make_observable(matrix, targets: Sequence[str]) -> Observable:
    """Build an :class:`Observable` from a hermitian matrix on the space
    labeled ``targets``: one subsystem per label, all of equal dimension."""
    import numpy as np
    entries = _operator(matrix, tuple(targets)).entries
    vals, vecs = np.linalg.eigh(entries)
    return Spectrum(entries, vals.tolist(), vecs.T).observable(targets)


class PrePostContext(Record):
    """Preselected state and postselection state, both at the coupling time.

    Any evolution before or after the coupling is folded into the states
    with ``apply(U, psi)``: ``psi_i`` is U_wi|psi>, ``chi_f``
    is U_fw^dagger|chi>. The postselection bra is the adjoint of ``chi_f``.
    """

    psi_i: StateVector
    chi_f: StateVector

    def __post_init__(self) -> None:
        for name, state in (("psi_i", self.psi_i), ("chi_f", self.chi_f)):
            if abs(state.norm - 1.0) > STRUCTURAL:
                raise ValidationError(f"{name} must be normalized, norm {state.norm!r}")
        if self.psi_i.dims != self.chi_f.dims or self.psi_i.labels != self.chi_f.labels:
            raise ValidationError("psi_i and chi_f must live on the same labeled space")


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
        return run_on(g, lambda gs: abs(gs) * (1.0 / (2.0 * phi0.width)) * abs(self.weak_value()))

    def validity(self, phi0: GaussianPointerState, g) -> ValidityReport:
        """Weak-regime margin and second-order dominance at each coupling in ``g``."""

        def report(gs) -> ValidityReport:
            gs = abs(gs)
            margin = self.margin(phi0, gs)
            wv_sq = self.transition_sq / self.overlap
            # ||P^2 u|| for a normalized Gaussian wavepacket at rest.
            p2_norm = math.sqrt(3.0 / width_power(phi0.width, 16.0, 4, "validity second order"))
            second_order = squared(gs, "validity second order", "|g|") / 2.0 * abs(wv_sq) * p2_norm
            dominance = select(margin > 0.0, lambda: second_order / margin,
                               lambda: select(second_order > 0.0, lambda: math.inf, lambda: 0.0))
            return ValidityReport(margin, margin, second_order, dominance)

        return run_on(g, report)


def reduce_table(psi: Sequence, chi: Sequence, spectrum: Spectrum) -> BranchTable:
    """The :class:`BranchTable` of amplitudes ``psi`` and ``chi`` and an observable's
    written-out spectrum: the one reduction behind every table, in Python complex
    arithmetic, so a table is the same whether or not numpy built its inputs."""
    psi, chi = [complex(x) for x in psi], [complex(x) for x in chi]
    rows = [[complex(x) for x in row] for row in spectrum.rows]
    merged: dict[float, complex] = {}
    for a, vec in zip(spectrum.eigvals, spectrum.eigvecs):
        vec = [complex(x) for x in vec]
        merged[a] = merged.get(a, 0.0 + 0.0j) + vdot(chi, vec) * vdot(vec, psi)
    branches = [(a, c) for a, c in merged.items() if c != 0.0]
    a_psi = [sum((r * x for r, x in zip(row, psi)), 0j) for row in rows]
    return BranchTable(
        eigvals=tuple(a for a, _ in branches),
        coeffs=tuple(c for _, c in branches),
        overlap=vdot(chi, psi),
        transition=vdot(chi, a_psi),
        transition_sq=vdot(chi, [sum((r * x for r, x in zip(row, a_psi)), 0j) for row in rows]),
    )


def branch_table(ctx: PrePostContext, obs: Observable) -> BranchTable:
    """Reduce a (context, observable) pair to its :class:`BranchTable`."""
    psi, chi = ctx.psi_i, ctx.chi_f
    if obs.targets != psi.labels:
        raise ValidationError(
            f"observable targets {obs.targets} must equal the context labels {psi.labels}"
        )
    vecs = [vec.amps.tolist() for vec in obs.eigvecs]
    return reduce_table(psi.amps.tolist(), chi.amps.tolist(), Spectrum(obs.op.entries.tolist(), obs.eigvals, vecs))


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


def validity_margin(
    ctx: PrePostContext,
    obs: Observable,
    phi0: GaussianPointerState,
    g: float,
) -> ValidityReport:
    """Weak-regime margin and second-order dominance check."""
    return branch_table(ctx, obs).validity(phi0, g)
