"""Exact state-vector simulator for pre/postselected weak measurements.

Implements the four-step weak measurement protocol with an analytic
Gaussian pointer, the Quantum Cheshire Cat interferometer scenario, the
intensity-based absorber/rotation experiments that emulate it, and
seeded Monte Carlo detection statistics.

Exports load lazily (PEP 562), so that ``import qccsim`` stays light:
it imports no submodule and no numpy until a name is first used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the names it exports at package level.
_EXPORTS = {
    "errors": (
        "CapacityError",
        "DimensionMismatch",
        "NegativeRadicand",
        "NumericalError",
        "OrthogonalPostselection",
        "SimulationError",
        "ValidationError",
    ),
    "montecarlo": (
        "EstimatorReport",
        "IntensityCounts",
        "estimate_weak_value",
        "sample_intensity_experiment",
        "sample_trials",
    ),
    "neutron": (
        "AbsorberConfig",
        "IntensityReport",
        "MagneticConfig",
        "SystematicTermReport",
        "infer_projector_weak_value",
        "infer_spin_weak_value_modulus",
        "infer_weak_value",
        "intensity_absorber",
        "intensity_magnetic",
        "systematic_term_report",
    ),
    "pointer": (
        "GaussianComponent",
        "GaussianPointerState",
        "make_gaussian",
        "mean_position",
        "norm_sq",
        "overlap",
        "superpose",
        "to_grid",
        "translate",
    ),
    "qcc": (
        "QccReport",
        "arm_observable",
        "arm_table",
        "build_prepost",
        "run_ideal_qcc",
        "run_joint_pointers",
    ),
    "qstate": (
        "Operator",
        "StateVector",
        "apply",
        "inner",
        "partial_project",
        "tensor",
    ),
    "weakmeas": (
        "BranchTable",
        "LinearResponseReport",
        "PrePostContext",
        "Spectrum",
        "ValidityReport",
        "WeakMeasurementResult",
        "branch_table",
        "couple_and_postselect",
        "linear_response_report",
        "make_observable",
        "validity_margin",
        "weak_value",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "serialize", "tolerances"}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__, as an eager import would
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
