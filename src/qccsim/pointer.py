"""Gaussian quantum pointer states and their exact readouts.

The primary representation is an analytic superposition of shifted
Gaussian components sharing one width: the coupling translation acts on
it exactly, so no discretization error enters the shift laws. A sampled
grid form exists only for export and cross-checks.

Component convention, for width sigma, center c, momentum center k:

    u(x) = (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2) + i k (x - c))

The phase is referenced to the center, so a rigid translation maps a
component to another component with the same k and no extra phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError
from .tolerances import MAX_AMPLITUDES, TOL

GRID_HALF_WIDTHS = 8.0


@dataclass(frozen=True)
class GaussianComponent:
    """One shifted Gaussian wavepacket inside a pointer superposition."""

    coeff: complex
    center: float
    width: float
    momentum_center: float = 0.0

    def __post_init__(self) -> None:
        coeff = complex(self.coeff)
        center = float(self.center)
        width = float(self.width)
        momentum = float(self.momentum_center)
        if not all(
            math.isfinite(v) for v in (coeff.real, coeff.imag, center, width, momentum)
        ):
            raise ValidationError("Gaussian component fields must be finite")
        if width <= 0.0:
            raise ValidationError(f"Gaussian width must be positive, got {width}")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "momentum_center", momentum)


@dataclass(frozen=True)
class GaussianPointerState:
    """Superposition of Gaussian components, all sharing one width."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        widths = {c.width for c in comps}
        if len(widths) > 1:
            raise ValidationError(f"components must share one width, got {sorted(widths)}")
        object.__setattr__(self, "components", comps)

    @property
    def width(self) -> float:
        if not self.components:
            raise ValidationError("empty pointer state has no width")
        return self.components[0].width


def make_gaussian(center: float, width: float) -> GaussianPointerState:
    """Freshly prepared pointer: one normalized component at rest."""
    return GaussianPointerState((GaussianComponent(1.0 + 0.0j, center, width, 0.0),))


def translate(p: GaussianPointerState, shift: float, coeff: complex = 1.0) -> GaussianPointerState:
    """Shift every component center by ``shift`` and scale all coeffs by ``coeff``.

    Realizes the exact action of exp(-i * shift * P) times a scalar; no
    discretization is involved.
    """
    shift = float(shift)
    coeff = complex(coeff)
    if not math.isfinite(shift) or not cmath.isfinite(coeff):
        raise ValidationError("translation shift and coefficient must be finite")
    comps = tuple(
        GaussianComponent(coeff * c.coeff, c.center + shift, c.width, c.momentum_center)
        for c in p.components
    )
    return GaussianPointerState(comps)


def superpose(states: Iterable[GaussianPointerState]) -> GaussianPointerState:
    """Sum of pointer states; components with identical (center, momentum) merge."""
    merged: dict[tuple[float, float], complex] = {}
    order: list[tuple[float, float]] = []
    width = None
    for state in states:
        for c in state.components:
            if width is None:
                width = c.width
            elif c.width != width:
                raise ValidationError("superposed states must share one component width")
            key = (c.center, c.momentum_center)
            if key not in merged:
                merged[key] = 0.0 + 0.0j
                order.append(key)
            merged[key] += c.coeff
    if width is None:
        return GaussianPointerState(())
    comps = tuple(
        GaussianComponent(merged[key], key[0], width, key[1])
        for key in order
        if merged[key] != 0.0
    )
    return GaussianPointerState(comps)


def component_overlap(a: GaussianComponent, b: GaussianComponent) -> complex:
    """Closed-form <u_a|u_b> between unit-norm components (coefficients ignored)."""
    _check_same_width(a, b)
    s2 = a.width * a.width
    dc = a.center - b.center
    dk = b.momentum_center - a.momentum_center
    return cmath.exp(
        -dc * dc / (8.0 * s2)
        - dk * dk * s2 / 2.0
        + 1.0j * (a.momentum_center + b.momentum_center) * dc / 2.0
    )


def component_position_element(a: GaussianComponent, b: GaussianComponent) -> complex:
    """Closed-form <u_a|x|u_b> between unit-norm components."""
    s2 = a.width * a.width
    dk = b.momentum_center - a.momentum_center
    return component_overlap(a, b) * ((a.center + b.center) / 2.0 + 1.0j * dk * s2)


def component_momentum_element(a: GaussianComponent, b: GaussianComponent) -> complex:
    """Closed-form <u_a|P|u_b> between unit-norm components."""
    s2 = a.width * a.width
    ksum = a.momentum_center + b.momentum_center
    dc = a.center - b.center
    return component_overlap(a, b) * (ksum / 2.0 + 1.0j * dc / (4.0 * s2))


def _check_same_width(a: GaussianComponent, b: GaussianComponent) -> None:
    if a.width != b.width:
        raise ValidationError(f"mixed component widths {a.width} and {b.width}")


def _pair_sum(p: GaussianPointerState, q: GaussianPointerState, element) -> complex:
    total = 0.0 + 0.0j
    for a in p.components:
        for b in q.components:
            total += a.coeff.conjugate() * b.coeff * element(a, b)
    return total


def overlap(p: GaussianPointerState, q: GaussianPointerState) -> complex:
    """Closed-form <p|q> including coefficients."""
    return _pair_sum(p, q, component_overlap)


def position_element(p: GaussianPointerState, q: GaussianPointerState) -> complex:
    """Closed-form <p|x|q> including coefficients."""
    return _pair_sum(p, q, component_position_element)


def norm_sq(p: GaussianPointerState) -> float:
    """Closed-form squared norm; exact up to float rounding."""
    value = overlap(p, p).real
    return max(value, 0.0)


def mean_position(p: GaussianPointerState) -> float:
    """<x> of the normalized state, from pairwise closed-form integrals."""
    n2 = norm_sq(p)
    if n2 <= 0.0:
        raise ValidationError("mean_position undefined for a zero-norm pointer state")
    return position_element(p, p).real / n2


def mean_momentum(p: GaussianPointerState) -> float:
    """<P> of the normalized state; diagnostic readout."""
    n2 = norm_sq(p)
    if n2 <= 0.0:
        raise ValidationError("mean_momentum undefined for a zero-norm pointer state")
    return _pair_sum(p, p, component_momentum_element).real / n2


def evaluate(p: GaussianPointerState, x: np.ndarray) -> np.ndarray:
    """Amplitude phi(x) of the superposition at the given points."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    with np.errstate(over="ignore"):  # far from a center, dx^2 -> inf and the amplitude -> 0 exactly
        for c in p.components:
            s2 = c.width * c.width
            norm = (2.0 * math.pi * s2) ** -0.25
            dx = x - c.center
            out += c.coeff * norm * np.exp(-dx * dx / (4.0 * s2) + 1.0j * c.momentum_center * dx)
    return out


def density(p: GaussianPointerState, x: np.ndarray) -> np.ndarray:
    """Probability density |phi(x)|^2 (unnormalized)."""
    amp = evaluate(p, x)
    return (amp.conj() * amp).real


@dataclass(frozen=True)
class GridPointerState:
    """Sampled pointer amplitudes on a uniform grid, for export only."""

    xmin: float
    xmax: float
    n_points: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        xmin = float(self.xmin)
        xmax = float(self.xmax)
        n = int(self.n_points)
        if not (math.isfinite(xmin) and math.isfinite(xmax)) or xmax <= xmin:
            raise ValidationError(f"bad grid domain [{xmin}, {xmax}]")
        check_grid_points(n)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size != n:
            raise ValidationError(f"amplitude array length {amps.size} != n_points {n}")
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValidationError("grid amplitudes contain non-finite entries")
        dens = (amps.conj() * amps).real
        peak = float(dens.max(initial=0.0))
        edge = float(max(dens[0], dens[-1])) if n else 0.0
        # Wrap-around guard on the density, so a minimally compliant
        # domain of +-8 widths still passes.
        if peak > 0.0 and edge >= TOL.grid_boundary_density * peak:
            raise ValidationError(
                f"boundary density {edge:.3e} exceeds {TOL.grid_boundary_density} of peak {peak:.3e}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "xmin", xmin)
        object.__setattr__(self, "xmax", xmax)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "amps", amps)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.n_points)

    @property
    def trapezoid_norm_sq(self) -> float:
        dens = (self.amps.conj() * self.amps).real
        return float(np.trapezoid(dens, self.xs))


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
    grid = GridPointerState(xmin, xmax, int(n_points), evaluate(p, np.linspace(xmin, xmax, int(n_points))))
    exact = norm_sq(p)
    if abs(grid.trapezoid_norm_sq - exact) > TOL.grid_norm * max(1.0, exact):
        raise ValidationError(
            f"grid norm {grid.trapezoid_norm_sq!r} deviates from closed form {exact!r} "
            f"beyond {TOL.grid_norm}"
        )
    return grid
