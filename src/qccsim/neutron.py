"""Intensity-based interferometer experiments: absorber and spin rotation.

One arm is perturbed, the postselected detection intensity is compared
with the unperturbed reference, and weak values are inferred from the
ratio. No pointer appears anywhere in this module: these experiments
replace the pointer readout by intensity ratios.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import NegativeRadicand, ValidationError
from .qcc import ARMS, CHI, PSI, arm_table, check_arm
from .tolerances import ARITHMETIC, STRUCTURAL
from .weakmeas import elementwise, first_failure, one_number, require, run_on, squared, vdot


def check_absorption(M) -> None:
    """The absorption rule, for one M or a sweep's array: finite and >= 0."""
    require(M, "absorption coefficient must be >= 0", lambda M: M >= 0.0)


def check_rotation(alpha) -> None:
    """The rotation rule, for one alpha or a sweep's array: finite and |alpha| <= pi."""
    require(alpha, "precession angle must satisfy |alpha| <= pi", lambda alpha: abs(alpha) <= math.pi)


class AbsorberConfig(Record):
    """Amplitude attenuation e^(-M) on one arm; an array ``M`` is a sweep."""

    arm: str
    M: float | np.ndarray

    def __post_init__(self) -> None:
        check_arm(self.arm)
        check_absorption(self.M)


class MagneticConfig(Record):
    """Spin rotation exp(i alpha sigma_x / 2) on one arm; an array ``alpha`` is a sweep."""

    arm: str
    alpha: float | np.ndarray

    def __post_init__(self) -> None:
        check_arm(self.arm)
        check_rotation(self.alpha)


def _param(cfg: AbsorberConfig | MagneticConfig):
    """``cfg``'s perturbation parameter, M or alpha: a scalar, or an array for a sweep."""
    if isinstance(cfg, (AbsorberConfig, MagneticConfig)):
        return cfg.M if isinstance(cfg, AbsorberConfig) else cfg.alpha
    raise ValidationError(f"unsupported perturbation config {type(cfg).__name__}")


class IntensityReport(Record):
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
        require(self.i0, "reference intensity must be positive", lambda i0: i0 > 0.0)
        if first_failure(lambda d: abs(d) <= ARITHMETIC, self.ratio - self.i_perturbed / self.i0):
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
    <chi|psi'> is a vdot over the whole space, which matches the dense
    apply-and-vdot evaluation bit for bit. The perturbed state is never
    renormalized: the detected intensity is the unnormalized squared
    postselection amplitude. A float for one value, an array for a sweep.
    """

    def intensity(values):
        psi, j = list(PSI), 2 * ARMS.index(cfg.arm)  # the arm's spin block is psi[j:j + 2]
        if isinstance(cfg, AbsorberConfig):
            attenuation = elementwise(math.exp, -values)
            psi[j : j + 2] = attenuation * psi[j], attenuation * psi[j + 1]
        else:
            cos = elementwise(math.cos, values / 2.0)
            i_sin = 1.0j * elementwise(math.sin, values / 2.0)
            up, down = psi[j : j + 2]
            psi[j : j + 2] = cos * up + i_sin * down, i_sin * up + cos * down
        return elementwise(lambda z: abs(z) ** 2, vdot(CHI[False], psi))

    return run_on(_param(cfg), intensity)


def intensity_absorber(cfg: AbsorberConfig) -> IntensityReport:
    """Exact absorber run against the first-order law 1 - 2 M Pi_w."""
    pi_w = _projector_weak_value(cfg.arm)

    def report(M) -> IntensityReport:
        first = 1.0 - 2.0 * M * pi_w
        second = first + squared(M, "second-order absorber prediction", "M") * (pi_w + pi_w**2)
        return _report(cfg, first, second, analysed=first)

    return run_on(cfg.M, report)


def intensity_magnetic(cfg: MagneticConfig) -> IntensityReport:
    """Exact rotation run against 1 + (alpha^2/4)(|sigma_w|^2 - Pi_w)."""
    pi_w = _projector_weak_value(cfg.arm)
    sigma_w = arm_table(cfg.arm, "sigma_x").weak_value()

    def report(alpha) -> IntensityReport:
        first = 1.0 - alpha * sigma_w.imag
        alpha_sq = squared(alpha, "second-order rotation prediction", "alpha")
        second = 1.0 + (alpha_sq / 4.0) * (abs(sigma_w) ** 2 - pi_w)
        return _report(cfg, first, second, analysed=second)

    return run_on(cfg.alpha, report)


def _report(cfg, first, second, analysed) -> IntensityReport:
    """A run's intensities, ratio and inference around its two expansions;
    ``analysed`` is the one the experiment's analysis uses."""
    i0 = reference_intensity()
    i_pert = perturbed_intensity(cfg)
    ratio = i_pert / i0
    return IntensityReport(
        i0=i0,
        i_perturbed=i_pert,
        ratio=ratio,
        first_order_prediction=first,
        second_order_prediction=second,
        inferred_weak_value=infer_weak_value(cfg, ratio),
        expansion_error=abs(ratio - analysed),
    )


def infer_weak_value(cfg: AbsorberConfig | MagneticConfig, measured_ratio):
    """Weak value inferred from a measured intensity ratio of ``cfg``'s experiment.

    The absorber yields Pi_w, the rotation |sigma_w| corrected with the
    ideal Pi_w. At zero perturbation the ratio carries no information
    and the result is NaN. Raises :class:`NegativeRadicand` for a
    rotation ratio no spin weak value can reach. Elementwise for a sweep.
    """
    param = _param(cfg)

    def infer(param, ratio):
        if isinstance(cfg, AbsorberConfig):
            return infer_projector_weak_value(param, ratio)
        return infer_spin_weak_value_modulus(param, ratio, _projector_weak_value(cfg.arm))

    if one_number(param):
        return math.nan if param == 0.0 else infer(float(param), float(measured_ratio))
    import numpy as np
    param = np.asarray(param, dtype=float)
    ratio = np.broadcast_to(np.asarray(measured_ratio, dtype=float), param.shape)
    inferred = np.full(param.shape, math.nan)
    live = param != 0.0
    if np.any(live):
        inferred[live] = infer(param[live], ratio[live])
    return inferred


def infer_projector_weak_value(M, measured_ratio):
    """Invert the first-order absorber law: (1 - ratio) / (2 M). Raises OverflowError where
    a tiny M divides the ratio's deficit past the float range."""
    require(M, "inference needs M > 0", lambda M: M > 0.0)
    require(measured_ratio, "inference needs a finite measured ratio")
    inferred = run_on(M, lambda M: (1.0 - measured_ratio) / (2.0 * M))
    bad = first_failure(lambda v: abs(v) < math.inf, inferred, M)
    if bad is not None:
        raise OverflowError(f"inferred weak value overflows: (1 - ratio) / (2 M) at M={bad[1]!r}")
    return inferred


def infer_spin_weak_value_modulus(alpha, measured_ratio, pi_w: float):
    """Invert the second-order rotation law for |sigma_x weak value|.

    ``pi_w`` is the projector weak value the caller wants to correct
    with: either an experimentally inferred value or the ideal one.

    Radicands within rounding distance of zero (the 4 / alpha^2 factor
    amplifies the ratio's float noise) clamp to zero; only genuinely
    unreachable ratios raise. Raises OverflowError where 4 / alpha^2, or
    (ratio - 1) times it, leaves the float range. Elementwise over arrays
    of ``alpha`` and ratios.
    """
    require(alpha, "inference needs alpha != 0", lambda alpha: alpha != 0.0)
    require(measured_ratio, "inference needs a finite measured ratio")
    require(pi_w, "spin inference needs a finite pi_w")

    def modulus(alpha):
        alpha_sq = squared(alpha, "spin inference", "alpha")
        zero = first_failure(lambda a2: a2 != 0.0, alpha_sq, alpha)
        if zero is not None:
            raise ZeroDivisionError(f"spin inference underflows to 0: alpha**2 at alpha={zero[1]!r}")
        scale, excess = 4.0 / alpha_sq, (measured_ratio - 1.0) * 4.0 / alpha_sq
        for quantity, values in (("4 / alpha**2", scale), ("(ratio - 1) * 4 / alpha**2", excess)):
            bad = first_failure(lambda v: abs(v) < math.inf, values, alpha)
            if bad is not None:  # a subnormal alpha**2, or a huge ratio, leaves the float range
                raise OverflowError(f"spin inference overflows: {quantity} at alpha={bad[1]!r}")
        radicand = excess + pi_w
        noise_floor = STRUCTURAL * (scale + abs(pi_w) + 1.0)
        bad = first_failure(lambda r: r >= -noise_floor, radicand, measured_ratio)
        if bad is not None:
            raise NegativeRadicand(
                f"radicand {bad[0]!r} < 0: ratio {bad[1]!r} with pi_w {pi_w!r} "
                "is not reachable by any spin weak value"
            )
        return _sqrt_clamped(radicand)

    return run_on(alpha, modulus)


def _sqrt_clamped(radicand):
    """sqrt(max(radicand, 0.0)), of one number or of a whole array in one numpy call.

    IEEE sqrt is correctly rounded, so numpy's matches ``math.sqrt`` bit for bit. The
    clamp is ``where``, not ``np.maximum``: like ``max``, it keeps a -0.0 radicand
    (sqrt -0.0, printed "-0"), where ``np.maximum(-0.0, 0.0)`` is +0.0."""
    if one_number(radicand):
        return math.sqrt(max(radicand, 0.0))
    import numpy as np
    return np.sqrt(np.where(radicand < 0.0, 0.0, radicand))


class SystematicTermReport(Record):
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
    """Quantify the second-order systematic term on arm I; its ratios are exact intensities, not reports."""
    check_rotation(alpha)
    quadratic = -(alpha**2) / 4.0
    if alpha != 0.0 and quadratic == 0.0:
        raise ZeroDivisionError(f"systematic term underflows to 0: alpha**2/4 at alpha={alpha!r}")
    ratio, alternate = (perturbed_intensity(MagneticConfig("I", a)) / reference_intensity() for a in (alpha, -alpha))
    deviation = ratio - 1.0
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
