"""Intensity-based interferometer experiments: absorber and spin rotation.

One arm is perturbed, the postselected detection intensity is compared
with the unperturbed reference, and weak values are inferred from the
ratio. No pointer appears anywhere in this module: these experiments
replace the pointer readout by intensity ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadicand, ValidationError
from .qcc import ARMS, SYSTEM_LABELS, arm_observable, build_prepost
from .qstate import SIGMA_X, Operator, apply, inner
from .tolerances import TOL
from .weakmeas import transition_element, weak_value


@dataclass(frozen=True)
class AbsorberConfig:
    """Amplitude attenuation e^(-M) on one arm."""

    arm: str
    M: float

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValidationError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if not (math.isfinite(self.M) and self.M >= 0.0):
            raise ValidationError(f"absorption coefficient must be >= 0, got {self.M}")


@dataclass(frozen=True)
class MagneticConfig:
    """Spin rotation exp(i alpha sigma_x / 2) on one arm."""

    arm: str
    alpha: float

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValidationError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if not math.isfinite(self.alpha) or abs(self.alpha) > math.pi:
            raise ValidationError(
                f"precession angle must satisfy |alpha| <= pi, got {self.alpha}"
            )


@dataclass(frozen=True)
class IntensityReport:
    """Reference and perturbed intensities with inference diagnostics.

    ``first_order_prediction`` and ``second_order_prediction`` are the
    intensity-ratio expansions in the perturbation parameter;
    ``expansion_error`` measures the exact ratio against the order the
    experiment's analysis uses (first for the absorber, second for the
    rotation). ``inferred_weak_value`` is NaN when the inversion is
    undefined (zero perturbation).
    """

    i0: float
    i_perturbed: float
    ratio: float
    first_order_prediction: float
    second_order_prediction: float
    inferred_weak_value: float
    expansion_error: float

    def __post_init__(self) -> None:
        if self.i0 <= 0.0:
            raise ValidationError(f"reference intensity must be positive, got {self.i0}")
        if abs(self.ratio - self.i_perturbed / self.i0) > TOL.arithmetic:
            raise ValidationError("ratio field is inconsistent with the intensities")


def _arm_damping(arm: str, M: float) -> Operator:
    factors = [1.0, 1.0]
    factors[ARMS.index(arm)] = math.exp(-M)
    return Operator((2,), np.diag(factors).astype(complex), kind="general")


def _arm_rotation(arm: str, alpha: float) -> Operator:
    rot = math.cos(alpha / 2.0) * np.eye(2, dtype=complex) + 1.0j * math.sin(alpha / 2.0) * SIGMA_X
    full = np.zeros((4, 4), dtype=complex)
    j = ARMS.index(arm)
    other = 1 - j
    full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rot
    full[2 * other : 2 * other + 2, 2 * other : 2 * other + 2] = np.eye(2)
    return Operator((2, 2), full, kind="unitary")


@functools.cache
def reference_intensity() -> float:
    """Unperturbed postselected intensity |<chi_f|psi>|^2, computed once."""
    ctx = build_prepost()
    return abs(inner(ctx.chi_f, ctx.psi_i)) ** 2


@functools.cache
def _projector_weak_value(arm: str) -> float:
    """Ideal Re(Pi_w) of ``arm``, computed once per arm."""
    return weak_value(build_prepost(), arm_observable(arm, "projector")).real


def perturbed_intensity(cfg: AbsorberConfig | MagneticConfig) -> float:
    """Postselected intensity with the configured perturbation applied.

    The perturbed state is never renormalized: the detected intensity
    is the unnormalized squared postselection amplitude.
    """
    ctx = build_prepost()
    if isinstance(cfg, AbsorberConfig):
        psi = apply(_arm_damping(cfg.arm, cfg.M), "path", ctx.psi_i)
    elif isinstance(cfg, MagneticConfig):
        psi = apply(_arm_rotation(cfg.arm, cfg.alpha), SYSTEM_LABELS, ctx.psi_i)
    else:
        raise ValidationError(f"unsupported perturbation config {type(cfg).__name__}")
    return abs(inner(ctx.chi_f, psi)) ** 2


def intensity_absorber(cfg: AbsorberConfig) -> IntensityReport:
    """Exact absorber run against the first-order law 1 - 2 M Pi_w."""
    pi_w = _projector_weak_value(cfg.arm)
    i0 = reference_intensity()
    i_pert = perturbed_intensity(cfg)
    ratio = i_pert / i0
    first = 1.0 - 2.0 * cfg.M * pi_w
    second = first + cfg.M**2 * (pi_w + pi_w**2)
    return IntensityReport(
        i0=i0,
        i_perturbed=i_pert,
        ratio=ratio,
        first_order_prediction=first,
        second_order_prediction=second,
        inferred_weak_value=infer_weak_value(cfg, ratio),
        expansion_error=abs(ratio - first),
    )


def intensity_magnetic(cfg: MagneticConfig) -> IntensityReport:
    """Exact rotation run against 1 + (alpha^2/4)(|sigma_w|^2 - Pi_w)."""
    pi_w = _projector_weak_value(cfg.arm)
    sigma_w = weak_value(build_prepost(), arm_observable(cfg.arm, "sigma_x"))
    i0 = reference_intensity()
    i_pert = perturbed_intensity(cfg)
    ratio = i_pert / i0
    first = 1.0 - cfg.alpha * sigma_w.imag
    second = 1.0 + (cfg.alpha**2 / 4.0) * (abs(sigma_w) ** 2 - pi_w)
    return IntensityReport(
        i0=i0,
        i_perturbed=i_pert,
        ratio=ratio,
        first_order_prediction=first,
        second_order_prediction=second,
        inferred_weak_value=infer_weak_value(cfg, ratio),
        expansion_error=abs(ratio - second),
    )


def infer_weak_value(cfg: AbsorberConfig | MagneticConfig, measured_ratio: float) -> float:
    """Weak value inferred from a measured intensity ratio of ``cfg``'s experiment.

    The absorber yields Pi_w, the rotation |sigma_w| corrected with the
    ideal Pi_w. At zero perturbation the ratio carries no information
    and the result is NaN. Raises :class:`NegativeRadicand` for a
    rotation ratio no spin weak value can reach.
    """
    absorber = isinstance(cfg, AbsorberConfig)
    if (cfg.M if absorber else cfg.alpha) == 0.0:
        return math.nan
    if absorber:
        return infer_projector_weak_value(cfg.arm, cfg.M, measured_ratio)
    pi_w = _projector_weak_value(cfg.arm)
    return infer_spin_weak_value_modulus(cfg.arm, cfg.alpha, measured_ratio, pi_w)


def infer_projector_weak_value(arm: str, M: float, measured_ratio: float) -> float:
    """Invert the first-order absorber law: (1 - ratio) / (2 M).

    ``arm`` only labels which projector the estimate refers to.
    """
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")
    if not (math.isfinite(M) and M > 0.0):
        raise ValidationError(f"inference needs M > 0, got {M}")
    return (1.0 - measured_ratio) / (2.0 * M)


def infer_spin_weak_value_modulus(
    arm: str, alpha: float, measured_ratio: float, pi_w: float
) -> float:
    """Invert the second-order rotation law for |sigma_x weak value|.

    ``pi_w`` is the projector weak value the caller wants to correct
    with: either an experimentally inferred value or the ideal one.

    Radicands within rounding distance of zero (the 4 / alpha^2 factor
    amplifies the ratio's float noise) clamp to zero; only genuinely
    unreachable ratios raise.
    """
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")
    if not (math.isfinite(alpha) and alpha != 0.0):
        raise ValidationError(f"inference needs alpha != 0, got {alpha}")
    radicand = (measured_ratio - 1.0) * 4.0 / alpha**2 + pi_w
    noise_floor = TOL.structural * (4.0 / alpha**2 + abs(pi_w) + 1.0)
    if -noise_floor <= radicand < 0.0:
        return 0.0
    if radicand < 0.0:
        raise NegativeRadicand(
            f"radicand {radicand!r} < 0: ratio {measured_ratio!r} with pi_w {pi_w!r} "
            "is not reachable by any spin weak value"
        )
    return math.sqrt(radicand)


@dataclass(frozen=True)
class SystematicTermReport:
    """Quadratic arm-I intensity deficit despite a zero spin weak value.

    The arm-I rotation reduces the ratio to cos^2(alpha/2) even though
    (sigma_x)_I^w = 0: the identity part of the rotation carries a
    cos(alpha/2) amplitude factor while the sigma_x part is annihilated
    by the postselection. The opposite rotation sign gives the same
    intensities, reported as ``alternate_sign_ratio``.
    """

    alpha: float
    ratio_exact: float
    deviation: float
    quadratic_prediction: float
    deviation_over_quadratic: float
    identity_term_amplitude: float
    identity_term_intensity: float
    sigma_transition_modulus: float
    alternate_sign_ratio: float


def systematic_term_report(alpha: float) -> SystematicTermReport:
    """Quantify the second-order systematic term on arm I."""
    cfg = MagneticConfig("I", alpha)
    ratio = intensity_magnetic(cfg).ratio
    alternate = intensity_magnetic(MagneticConfig("I", -alpha)).ratio
    deviation = ratio - 1.0
    quadratic = -(alpha**2) / 4.0
    sigma_trans = transition_element(build_prepost(), arm_observable("I", "sigma_x"))
    return SystematicTermReport(
        alpha=alpha,
        ratio_exact=ratio,
        deviation=deviation,
        quadratic_prediction=quadratic,
        deviation_over_quadratic=deviation / quadratic if alpha != 0.0 else math.nan,
        identity_term_amplitude=math.cos(alpha / 2.0),
        identity_term_intensity=math.cos(alpha / 2.0) ** 2,
        sigma_transition_modulus=abs(sigma_trans),
        alternate_sign_ratio=alternate,
    )
