"""Exact state-vector simulator for pre/postselected weak measurements.

Implements the four-step weak measurement protocol with an analytic
Gaussian pointer, the Quantum Cheshire Cat interferometer scenario, the
intensity-based absorber/rotation experiments that emulate it, and
seeded Monte Carlo detection statistics.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DimensionMismatch,
    NegativeRadicand,
    NumericalError,
    OrthogonalPostselection,
    SimulationError,
    ValidationError,
)
from .montecarlo import (
    EstimatorReport,
    IntensityCounts,
    TrialBatch,
    estimate_weak_value,
    sample_intensity_experiment,
    sample_trials,
)
from .neutron import (
    AbsorberConfig,
    IntensityReport,
    MagneticConfig,
    SystematicTermReport,
    infer_projector_weak_value,
    infer_spin_weak_value_modulus,
    infer_weak_value,
    intensity_absorber,
    intensity_magnetic,
    systematic_term_report,
)
from .pointer import (
    GaussianComponent,
    GaussianPointerState,
    GridPointerState,
    make_gaussian,
    mean_momentum,
    mean_position,
    norm_sq,
    overlap,
    superpose,
    to_grid,
    translate,
)
from .qcc import (
    QccConfig,
    QccReport,
    arm_observable,
    arm_table,
    build_prepost,
    run_ideal_qcc,
    run_joint_pointers,
)
from .qstate import (
    Operator,
    StateVector,
    apply,
    basis_state,
    identity_operator,
    inner,
    normalized,
    partial_project,
    tensor,
)
from .weakmeas import (
    BranchTable,
    ExpectationDecomposition,
    LinearResponseReport,
    Observable,
    PrePostContext,
    ValidityReport,
    WeakMeasurementResult,
    branch_table,
    couple_and_postselect,
    expectation_decomposition_check,
    linear_response_report,
    make_observable,
    transition_element,
    validity_margin,
    weak_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
