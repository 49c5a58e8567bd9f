"""Gaussian quantum pointer states and their exact readouts.

The primary representation is an analytic superposition of shifted
Gaussian components at rest, all of one width: the coupling translation
acts on it exactly, so no discretization error enters the shift laws. A
sampled grid form exists only for export and cross-checks.

Component convention, for width sigma and center c:

    u(x) = (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2))

To first order in g, a coupled pointer's <x> moves by g Re A^w and its
<P> by g Im A^w / (2 sigma^2); the tests check the <P> law against a
quadrature of the final pointer's components.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple

from ._record import Record
from .errors import CapacityError, NumericalError, ValidationError
from .tolerances import GRID_BOUNDARY_DENSITY, GRID_NORM, MAX_AMPLITUDES

GRID_HALF_WIDTHS = 8.0


class GaussianComponent(NamedTuple):
    """One shifted Gaussian wavepacket at rest inside a pointer superposition."""

    coeff: complex
    center: float


def width_power(width: float, scale: float, power: int, quantity: str) -> float:
    """``scale * width**power`` for a pointer width; where that is 0 or inf, a
    ``ZeroDivisionError`` or ``OverflowError`` names the quantity and the width."""
    try:
        value = scale * width**power
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        error, verb = (OverflowError, "overflows") if value else (ZeroDivisionError, "underflows to 0")
        raise error(f"{quantity} {verb}: {scale:g}*pointer_width**{power} at pointer_width={width!r}")
    return value


def check_width(width: float) -> None:
    """The pointer width rule: positive and finite."""
    if not 0.0 < width < math.inf:
        raise ValidationError(f"Gaussian width must be positive and finite, got {width!r}")


class GaussianPointerState(Record):
    """Superposition of Gaussian components at rest, all of one ``width``."""

    width: float
    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        width = float(self.width)
        check_width(width)
        width_power(width, 8.0, 2, "Gaussian pointer")  # the overlap exponent's denominator
        comps = tuple(GaussianComponent(complex(a), float(c)) for a, c in self.components)
        if not all(cmath.isfinite(a) and math.isfinite(c) for a, c in comps):
            raise ValidationError("Gaussian component fields must be finite")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "components", comps)


def make_gaussian(center: float, width: float) -> GaussianPointerState:
    """Freshly prepared pointer: one normalized component at rest."""
    return GaussianPointerState(width, (GaussianComponent(1.0 + 0.0j, center),))


def translate(p: GaussianPointerState, shift: float, coeff: complex = 1.0) -> GaussianPointerState:
    """Shift every component center by ``shift`` and scale all coeffs by ``coeff``:
    the exact action of exp(-i * shift * P) times a scalar, with no discretization."""
    shift, coeff = float(shift), complex(coeff)
    return GaussianPointerState(p.width, tuple((coeff * a, c + shift) for a, c in p.components))


def superpose(states: Iterable[GaussianPointerState]) -> GaussianPointerState:
    """Sum of pointer states of one width; components with identical centers merge."""
    merged: dict[float, complex] = {}
    widths = set()
    for state in states:
        widths.add(state.width)
        for a, c in state.components:
            merged[c] = merged.get(c, 0.0 + 0.0j) + a
    if len(widths) != 1:
        raise ValidationError(f"superpose needs states of one width, got widths {sorted(widths)}")
    return GaussianPointerState(widths.pop(), tuple((a, c) for c, a in merged.items() if a != 0.0))


def component_overlap(a: GaussianComponent, b: GaussianComponent, width: float) -> float:
    """Closed-form <u_a|u_b> between unit-norm components (coefficients ignored)."""
    dc = a.center - b.center
    return math.exp(-dc * dc / (8.0 * (width * width)))


def midpoint(a, b):
    """(a + b) / 2 of finite floats or arrays; a / 2 + b / 2 only where a + b overflows."""
    total = a + b
    if isinstance(total, float):
        return total / 2.0 if abs(total) < math.inf else a / 2.0 + b / 2.0
    import numpy as np
    return np.where(abs(total) < math.inf, total / 2.0, a / 2.0 + b / 2.0)


def moments(p: GaussianPointerState, q: GaussianPointerState, position_read: bool = True) -> tuple[complex, complex]:
    """Closed-form (<p|q>, <p|x|q>) including coefficients, from one pass over the component pairs.
    A sum the caller reads must be finite: <p|x|q> only if ``position_read``."""
    if p.width != q.width:
        raise ValidationError(f"mixed pointer widths {p.width} and {q.width}")
    total = position = 0.0 + 0.0j
    for a in p.components:
        for b in q.components:
            w, e = a.coeff.conjugate() * b.coeff, component_overlap(a, b, p.width)
            total, position = total + w * e, position + w * (e * midpoint(a.center, b.center))
    for quantity, value in (("<p|q>", total), ("<p|x|q>", position))[:1 + position_read]:
        if not cmath.isfinite(value):
            raise OverflowError(f"pointer pair sum overflows: {quantity} is {value!r}")
    return total, position


def overlap(p: GaussianPointerState, q: GaussianPointerState) -> complex:
    """Closed-form <p|q> including coefficients."""
    return moments(p, q, position_read=False)[0]


def norm_sq(p: GaussianPointerState) -> float:
    """Closed-form squared norm; exact up to float rounding."""
    return max(overlap(p, p).real, 0.0)


def mean_position(p: GaussianPointerState) -> float:
    """<x> of the normalized state, from one pass of pairwise closed-form integrals."""
    total, position = moments(p, p)
    if total.real <= 0.0:
        raise ValidationError("mean_position undefined for a zero-norm pointer state")
    return position.real / total.real


def evaluate(p: GaussianPointerState, x: np.ndarray) -> np.ndarray:
    """Amplitude phi(x) of the superposition at the given points."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    s2 = p.width * p.width
    norm = (2.0 * math.pi * s2) ** -0.25
    with np.errstate(over="ignore"):  # far from a center, dx^2 -> inf and the amplitude -> 0 exactly
        for a, c in p.components:
            dx = x - c
            # numpy's complex exp: its real counterpart rounds differently, and the goldens pin these bits
            out += a * norm * np.exp(-dx * dx / (4.0 * s2) + 0j)
    return out


def abs_sq(amps: np.ndarray) -> np.ndarray:
    """|z|^2 as re*re + im*im: bit-equal to the scalar (z.conjugate() * z).real, where
    numpy's vectorized complex product can differ in the last bit."""
    re, im = amps.real, amps.imag
    return re * re + im * im


def density(p: GaussianPointerState, x: np.ndarray) -> np.ndarray:
    """Probability density |phi(x)|^2 (unnormalized)."""
    return abs_sq(evaluate(p, x))


def check_grid_points(n_points: int) -> None:
    """The grid size rule: a power of two >= 2, at most ``MAX_AMPLITUDES`` points."""
    if n_points > MAX_AMPLITUDES:
        raise CapacityError(f"grid of {n_points} points exceeds limit {MAX_AMPLITUDES}")
    if n_points < 2 or n_points & (n_points - 1):
        raise ValidationError(f"point count must be a power of two >= 2, got {n_points}")


def support(p: GaussianPointerState) -> tuple[float, float]:
    """Domain (lo, hi) holding the superposition: its component span +- GRID_HALF_WIDTHS widths.

    Raises ``NumericalError`` when floats near the domain lie more than two
    widths apart, so that no grid there can resolve the pointer."""
    w = p.width
    centers = [c.center for c in p.components]
    lo, hi = min(centers) - GRID_HALF_WIDTHS * w, max(centers) + GRID_HALF_WIDTHS * w
    if math.ulp(max(abs(lo), abs(hi))) > 2.0 * w:
        raise NumericalError(
            f"pointer support [{lo}, {hi}] does not resolve the pointer width {w} in floating point"
        )
    return lo, hi


def to_grid(p: GaussianPointerState, xmin: float, xmax: float,
            n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the superposition on [xmin, xmax] with ``n_points`` points: the grid ``xs``,
    the amplitudes there and their density, |amp|^2 by :func:`abs_sq`.

    The domain must cover the pointer's :func:`support`; the density at the domain's ends
    must be negligible against its peak, and its trapezoidal norm must match the closed form.
    """
    if not p.components:
        raise ValidationError("cannot grid-sample an empty pointer state")
    check_grid_points(int(n_points))
    lo, hi = support(p)
    if xmin > lo or xmax < hi:
        raise ValidationError(
            f"domain [{xmin}, {xmax}] too small: need [{lo}, {hi}] "
            f"(component span +- {GRID_HALF_WIDTHS} widths)"
        )
    if not math.isfinite(xmax - xmin):
        raise ValidationError(f"grid domain [{xmin}, {xmax}] has no finite width")
    exact = norm_sq(p)
    import numpy as np
    xs = np.linspace(xmin, xmax, int(n_points))
    amps = evaluate(p, xs)
    dens = abs_sq(amps)
    peak, edge = float(dens.max()), float(max(dens[0], dens[-1]))
    # Wrap-around guard on the density, so a minimally compliant domain of +-8 widths still passes.
    if peak > 0.0 and edge >= GRID_BOUNDARY_DENSITY * peak:
        raise ValidationError(f"boundary density {edge:.3e} exceeds {GRID_BOUNDARY_DENSITY} of peak {peak:.3e}")
    norm = float(np.trapezoid(dens, xs))
    if abs(norm - exact) > GRID_NORM * max(1.0, exact):
        raise ValidationError(f"grid norm {norm!r} deviates from closed form {exact!r} beyond {GRID_NORM}")
    return xs, amps, dens
