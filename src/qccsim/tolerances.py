"""Centralized numeric tolerances and capacity limits.

Every module reads its thresholds from one configuration record so that
test expectations and runtime checks cannot drift apart.
"""

from __future__ import annotations

from ._record import Record


class Tolerances(Record):
    """Numeric thresholds shared across the simulator.

    Attributes
    ----------
    structural : float
        Bound for structural checks: normalization, hermiticity,
        unitarity, norm preservation.
    arithmetic : float
        Bound for elementary arithmetic identities such as
        ``inner(s, s) == norm(s)**2``.
    eigen : float
        Bound for eigen-decomposition residuals of observables.
    orthogonal_overlap : float
        Postselection overlaps with modulus at or below this value are
        treated as orthogonal; the weak value is then undefined.
    grid_norm : float
        Allowed mismatch between the closed-form pointer norm and the
        trapezoidal norm of a grid export on a compliant domain.
    grid_boundary_density : float
        Wrap-around guard: the probability density at a grid boundary
        must stay below this fraction of the peak density.
    """

    structural: float = 1e-12
    arithmetic: float = 1e-14
    eigen: float = 1e-10
    orthogonal_overlap: float = 1e-12
    grid_norm: float = 1e-6
    grid_boundary_density: float = 1e-8


TOL = Tolerances()

# Largest amplitude count a tensor product or grid export may allocate.
MAX_AMPLITUDES = 2**20

# Largest trial count one Monte Carlo run may sample.
MAX_TRIALS = 2**24
