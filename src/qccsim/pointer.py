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


class GaussianPointerState(Record):
    """Superposition of Gaussian components at rest, all of one ``width``."""

    width: float
    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        width = float(self.width)
        if not (width > 0.0 and math.isfinite(width)):
            raise ValidationError(f"Gaussian width must be positive and finite, got {width}")
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


def component_position_element(a: GaussianComponent, b: GaussianComponent, width: float) -> float:
    """Closed-form <u_a|x|u_b> between unit-norm components."""
    return component_overlap(a, b, width) * ((a.center + b.center) / 2.0)


def _pair_sum(p: GaussianPointerState, q: GaussianPointerState, element) -> complex:
    if p.width != q.width:
        raise ValidationError(f"mixed pointer widths {p.width} and {q.width}")
    total = 0.0 + 0.0j
    for a in p.components:
        for b in q.components:
            total += a.coeff.conjugate() * b.coeff * element(a, b, p.width)
    return total


def overlap(p: GaussianPointerState, q: GaussianPointerState) -> complex:
    """Closed-form <p|q> including coefficients."""
    return _pair_sum(p, q, component_overlap)


def position_element(p: GaussianPointerState, q: GaussianPointerState) -> complex:
    """Closed-form <p|x|q> including coefficients."""
    return _pair_sum(p, q, component_position_element)


def norm_sq(p: GaussianPointerState) -> float:
    """Closed-form squared norm; exact up to float rounding."""
    return max(overlap(p, p).real, 0.0)


def mean_position(p: GaussianPointerState) -> float:
    """<x> of the normalized state, from pairwise closed-form integrals."""
    n2 = norm_sq(p)
    if n2 <= 0.0:
        raise ValidationError("mean_position undefined for a zero-norm pointer state")
    return position_element(p, p).real / n2


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


class GridPointerState(Record):
    """Sampled pointer amplitudes on a uniform grid, for export only; one point per amplitude."""

    xmin: float
    xmax: float
    amps: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        xmin = float(self.xmin)
        xmax = float(self.xmax)
        if not (math.isfinite(xmin) and math.isfinite(xmax)) or xmax <= xmin:
            raise ValidationError(f"bad grid domain [{xmin}, {xmax}]")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1:
            raise ValidationError(f"grid amplitudes must be one-dimensional, got shape {amps.shape}")
        check_grid_points(amps.size)
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValidationError("grid amplitudes contain non-finite entries")
        dens = abs_sq(amps)
        peak = float(dens.max(initial=0.0))
        edge = float(max(dens[0], dens[-1]))
        # Wrap-around guard on the density, so a minimally compliant domain of +-8 widths still passes.
        if peak > 0.0 and edge >= GRID_BOUNDARY_DENSITY * peak:
            raise ValidationError(
                f"boundary density {edge:.3e} exceeds {GRID_BOUNDARY_DENSITY} of peak {peak:.3e}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "xmin", xmin)
        object.__setattr__(self, "xmax", xmax)
        object.__setattr__(self, "amps", amps)

    @property
    def xs(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.xmin, self.xmax, self.amps.size)

    @property
    def density(self) -> np.ndarray:
        return abs_sq(self.amps)

    @property
    def trapezoid_norm_sq(self) -> float:
        import numpy as np
        return float(np.trapezoid(self.density, self.xs))


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


def to_grid(p: GaussianPointerState, xmin: float, xmax: float, n_points: int) -> GridPointerState:
    """Sample the superposition on [xmin, xmax] with ``n_points`` points.

    The domain must cover the pointer's :func:`support`; the trapezoidal
    norm is verified against the closed form.
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
    import numpy as np
    grid = GridPointerState(xmin, xmax, evaluate(p, np.linspace(xmin, xmax, int(n_points))))
    exact = norm_sq(p)
    if abs(grid.trapezoid_norm_sq - exact) > GRID_NORM * max(1.0, exact):
        raise ValidationError(
            f"grid norm {grid.trapezoid_norm_sq!r} deviates from closed form {exact!r} "
            f"beyond {GRID_NORM}"
        )
    return grid
