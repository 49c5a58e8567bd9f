"""Centralized numeric tolerances, capacity limits, the count rule and the block policy.

Every module reads its thresholds from these constants so that test
expectations and runtime checks cannot drift apart.
"""

from .errors import ValidationError

# Structural checks: normalization and hermiticity; also the spin inference's noise floor.
STRUCTURAL = 1e-12
# Elementary arithmetic identities, such as ratio == i_perturbed / i0.
ARITHMETIC = 1e-14
# Eigen-decomposition residuals and orthonormality of an observable's eigenvectors.
EIGEN = 1e-10
# A postselection overlap at or below this modulus is orthogonal: the weak value is undefined.
ORTHOGONAL_OVERLAP = 1e-12
# Allowed mismatch between the closed-form pointer norm and a grid export's trapezoidal norm.
GRID_NORM = 1e-6
# Wrap-around guard: a grid's boundary density must stay below this fraction of its peak.
GRID_BOUNDARY_DENSITY = 1e-8

# Largest amplitude count a tensor product or grid export may allocate.
MAX_AMPLITUDES = 2**20

# Largest trial count one Monte Carlo run may sample.
MAX_TRIALS = 2**24

# Rows each blocked pass (Philox word tables, sweep and grid tables, trials CSVs) builds at a time,
# dropping a block before the next: memory stays bounded at any length, and a 512 KB table of
# pointer-trial words stays in cache.
BLOCK_ROWS = 2**14


def spans(start: int, stop: int, size: int = BLOCK_ROWS) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of at most ``size`` from ``start`` to ``stop``, in order."""
    return [(first, min(first + size, stop)) for first in range(start, stop, size)]


def check_integer(value, name: str) -> None:
    """A count is a Python or numpy integer: not a bool, a float or NaN."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
