"""Intensity-based interferometer experiments: absorber and spin rotation.

One arm is perturbed, the postselected detection intensity is compared
with the unperturbed reference, and weak values are inferred from the
ratio. No pointer appears anywhere in this module: these experiments
replace the pointer readout by intensity ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadicand, ValidationError
from .qcc import ARMS, arm_table, build_prepost
from .tolerances import TOL
from .weakmeas import elementwise, pointwise, squared


@dataclass(frozen=True)
class AbsorberConfig:
    """Amplitude attenuation e^(-M) on one arm; an array ``M`` is a sweep."""

    arm: str
    M: float | np.ndarray

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValidationError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if not np.all(np.isfinite(self.M) & (np.asarray(self.M) >= 0.0)):
            raise ValidationError(f"absorption coefficient must be >= 0, got {self.M}")


@dataclass(frozen=True)
class MagneticConfig:
    """Spin rotation exp(i alpha sigma_x / 2) on one arm; an array ``alpha`` is a sweep."""

    arm: str
    alpha: float | np.ndarray

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValidationError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if not np.all(np.isfinite(self.alpha) & (np.abs(self.alpha) <= math.pi)):
            raise ValidationError(
                f"precession angle must satisfy |alpha| <= pi, got {self.alpha}"
            )


def _param(cfg: AbsorberConfig | MagneticConfig):
    """``cfg``'s perturbation parameter, M or alpha: a scalar, or an array for a sweep."""
    if isinstance(cfg, (AbsorberConfig, MagneticConfig)):
        return cfg.M if isinstance(cfg, AbsorberConfig) else cfg.alpha
    raise ValidationError(f"unsupported perturbation config {type(cfg).__name__}")


@dataclass(frozen=True)
class IntensityReport:
    """Reference and perturbed intensities with inference diagnostics.

    ``first_order_prediction`` and ``second_order_prediction`` are the
    intensity-ratio expansions in the perturbation parameter;
    ``expansion_error`` measures the exact ratio against the order the
    experiment's analysis uses (first for the absorber, second for the
    rotation). ``inferred_weak_value`` is NaN when the inversion is
    undefined (zero perturbation). For a sweep config every field but
    ``i0`` is an array over the swept parameter.
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
        if np.any(np.abs(self.ratio - self.i_perturbed / self.i0) > TOL.arithmetic):
            raise ValidationError("ratio field is inconsistent with the intensities")


def reference_intensity() -> float:
    """Unperturbed postselected intensity |<chi_f|psi>|^2."""
    return abs(arm_table("I", "projector").overlap) ** 2


def _projector_weak_value(arm: str) -> float:
    """Ideal Re(Pi_w) of ``arm``."""
    return arm_table(arm, "projector").weak_value().real


def perturbed_intensity(cfg: AbsorberConfig | MagneticConfig):
    """Postselected intensity with the configured perturbation applied.

    The perturbation acts on the arm's spin block of psi: e^(-M) times
    it, or cos(alpha/2) + i sin(alpha/2) sigma_x on it. The amplitude
    <chi|psi'> is that block's overlap with chi plus the other arm's,
    which matches the dense apply-and-vdot evaluation bit for bit. The
    perturbed state is never renormalized: the detected intensity is the
    unnormalized squared postselection amplitude. An array for a sweep.
    """
    values = np.atleast_1d(np.asarray(_param(cfg), dtype=float))
    ctx = build_prepost()
    psi = ctx.psi_i.amps.reshape(2, 2)  # [path, spin]
    chi = ctx.chi_f.amps.reshape(2, 2).conj()
    j = ARMS.index(cfg.arm)
    if isinstance(cfg, AbsorberConfig):
        block = elementwise(math.exp, -values)[:, None] * psi[j]
    else:
        cos = elementwise(math.cos, values / 2.0)
        i_sin = 1.0j * elementwise(math.sin, values / 2.0)
        up, down = psi[j]
        block = np.stack([cos * up + i_sin * down, i_sin * up + cos * down], axis=1)
    intensity = elementwise(lambda z: abs(z) ** 2, block @ chi[j] + chi[1 - j] @ psi[1 - j])
    return intensity.item() if np.ndim(_param(cfg)) == 0 else intensity


@np.errstate(all="ignore")
def intensity_absorber(cfg: AbsorberConfig) -> IntensityReport:
    """Exact absorber run against the first-order law 1 - 2 M Pi_w."""
    pi_w = _projector_weak_value(cfg.arm)
    M = np.atleast_1d(np.asarray(cfg.M, dtype=float))
    first = 1.0 - 2.0 * M * pi_w
    second = first + squared(M, "second-order absorber prediction", "M") * (pi_w + pi_w**2)
    return _report(cfg, first, second, analysed=first)


@np.errstate(all="ignore")
def intensity_magnetic(cfg: MagneticConfig) -> IntensityReport:
    """Exact rotation run against 1 + (alpha^2/4)(|sigma_w|^2 - Pi_w)."""
    pi_w = _projector_weak_value(cfg.arm)
    sigma_w = arm_table(cfg.arm, "sigma_x").weak_value()
    alpha = np.atleast_1d(np.asarray(cfg.alpha, dtype=float))
    first = 1.0 - alpha * sigma_w.imag
    alpha_sq = squared(alpha, "second-order rotation prediction", "alpha")
    second = 1.0 + (alpha_sq / 4.0) * (abs(sigma_w) ** 2 - pi_w)
    return _report(cfg, first, second, analysed=second)


def _report(cfg, first: np.ndarray, second: np.ndarray, analysed: np.ndarray) -> IntensityReport:
    """A run's intensities, ratio and inference around its two expansions;
    ``analysed`` is the one the experiment's analysis uses."""
    i0 = reference_intensity()
    i_pert = np.atleast_1d(perturbed_intensity(cfg))
    ratio = i_pert / i0
    return pointwise(
        _param(cfg), IntensityReport,
        i0=i0,
        i_perturbed=i_pert,
        ratio=ratio,
        first_order_prediction=first,
        second_order_prediction=second,
        inferred_weak_value=np.atleast_1d(infer_weak_value(cfg, ratio)),
        expansion_error=np.abs(ratio - analysed),
    )


def infer_weak_value(cfg: AbsorberConfig | MagneticConfig, measured_ratio):
    """Weak value inferred from a measured intensity ratio of ``cfg``'s experiment.

    The absorber yields Pi_w, the rotation |sigma_w| corrected with the
    ideal Pi_w. At zero perturbation the ratio carries no information
    and the result is NaN. Raises :class:`NegativeRadicand` for a
    rotation ratio no spin weak value can reach. Elementwise for a sweep.
    """
    param = np.atleast_1d(np.asarray(_param(cfg), dtype=float))
    ratio = np.broadcast_to(np.asarray(measured_ratio, dtype=float), param.shape)
    inferred = np.full(param.shape, math.nan)
    live = param != 0.0
    if np.any(live):
        if isinstance(cfg, AbsorberConfig):
            inferred[live] = infer_projector_weak_value(cfg.arm, param[live], ratio[live])
        else:
            pi_w = _projector_weak_value(cfg.arm)
            inferred[live] = infer_spin_weak_value_modulus(cfg.arm, param[live], ratio[live], pi_w)
    return inferred.item() if np.ndim(_param(cfg)) == 0 else inferred


def infer_projector_weak_value(arm: str, M, measured_ratio):
    """Invert the first-order absorber law: (1 - ratio) / (2 M).

    ``arm`` only labels which projector the estimate refers to.
    """
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")
    if not np.all(np.isfinite(M) & (np.asarray(M) > 0.0)):
        raise ValidationError(f"inference needs M > 0, got {M}")
    with np.errstate(all="ignore"):
        return (1.0 - measured_ratio) / (2.0 * M)


def infer_spin_weak_value_modulus(arm: str, alpha, measured_ratio, pi_w: float):
    """Invert the second-order rotation law for |sigma_x weak value|.

    ``pi_w`` is the projector weak value the caller wants to correct
    with: either an experimentally inferred value or the ideal one.

    Radicands within rounding distance of zero (the 4 / alpha^2 factor
    amplifies the ratio's float noise) clamp to zero; only genuinely
    unreachable ratios raise. Elementwise over arrays of ``alpha`` and ratios.
    """
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")
    if not np.all(np.isfinite(alpha) & (np.asarray(alpha) != 0.0)):
        raise ValidationError(f"inference needs alpha != 0, got {alpha}")
    alpha_sq = squared(np.atleast_1d(np.asarray(alpha, dtype=float)), "spin inference", "alpha")
    if np.any(alpha_sq == 0.0):
        raise ZeroDivisionError("float division by zero")
    ratio = np.broadcast_to(np.asarray(measured_ratio, dtype=float), alpha_sq.shape)
    with np.errstate(all="ignore"):
        radicand = (ratio - 1.0) * 4.0 / alpha_sq + pi_w
        noise_floor = TOL.structural * (4.0 / alpha_sq + abs(pi_w) + 1.0)
    unreachable = radicand < -noise_floor
    if np.any(unreachable):
        i = int(np.argmax(unreachable))
        raise NegativeRadicand(
            f"radicand {radicand[i].item()!r} < 0: ratio {ratio[i].item()!r} with pi_w {pi_w!r} "
            "is not reachable by any spin weak value"
        )
    modulus = np.sqrt(np.maximum(radicand, 0.0))
    return modulus.item() if np.ndim(alpha) == 0 else modulus


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
    ratio, alternate = intensity_magnetic(MagneticConfig("I", np.array([alpha, -alpha]))).ratio.tolist()
    deviation = ratio - 1.0
    quadratic = -(alpha**2) / 4.0
    sigma_trans = arm_table("I", "sigma_x").transition
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
