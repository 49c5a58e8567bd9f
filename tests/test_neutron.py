"""Intensity-ratio experiments: absorber, spin rotation, and inference."""

import math
import re

import numpy as np
import pytest

import qccsim.neutron
from qccsim.errors import NegativeRadicand, ValidationError
from qccsim.pointer import make_gaussian
from qccsim.qcc import ARMS, arm_observable, build_prepost
from qccsim.neutron import (
    AbsorberConfig,
    IntensityReport,
    MagneticConfig,
    infer_projector_weak_value,
    infer_spin_weak_value_modulus,
    infer_weak_value,
    intensity_absorber,
    intensity_magnetic,
    perturbed_intensity,
    reference_intensity,
    systematic_term_report,
)
from qccsim.serialize import format_float
from qccsim.weakmeas import vdot

from oracles import (
    SIGMA_X,
    absorber_ratio_arm_I,
    fit_exponent,
    magnetic_ratio_arm_I,
    magnetic_ratio_arm_II,
)

M_GRID = (0.02, 0.05, 0.1, 0.25)
ALPHA_GRID = (0.05, 0.1, 0.3, 0.5)


def dense_intensity(cfg) -> float:
    """|<chi|D psi>|^2 with the perturbation D applied as a dense operator."""
    ctx = build_prepost()
    j = ARMS.index(cfg.arm)
    if isinstance(cfg, AbsorberConfig):
        factors = [1.0, 1.0]
        factors[j] = math.exp(-cfg.M)
        full = np.kron(np.diag(factors), np.eye(2)).astype(complex)
    else:
        full = np.eye(4, dtype=complex)
        full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (
            math.cos(cfg.alpha / 2.0) * np.eye(2, dtype=complex) + 1.0j * math.sin(cfg.alpha / 2.0) * SIGMA_X
        )
    psi = full @ np.array(ctx.psi_i)
    return abs(vdot(ctx.chi_f, psi.tolist())) ** 2


class TestClosedForm:
    @pytest.mark.parametrize("arm", ARMS)
    def test_absorber_array_equals_dense_evaluation_bit_for_bit(self, arm):
        Ms = np.concatenate([np.linspace(0.0, 3.0, 301), [1e-300, 0.7, 40.0, 700.0]])
        intensities = perturbed_intensity(AbsorberConfig(arm, Ms))
        assert intensities.tolist() == [dense_intensity(AbsorberConfig(arm, M)) for M in Ms.tolist()]

    @pytest.mark.parametrize("arm", ARMS)
    def test_rotation_array_equals_dense_evaluation_bit_for_bit(self, arm):
        alphas = np.concatenate([np.linspace(-math.pi, math.pi, 301), [0.0, -0.0, 1e-300, math.pi]])
        intensities = perturbed_intensity(MagneticConfig(arm, alphas))
        assert intensities.tolist() == [dense_intensity(MagneticConfig(arm, a)) for a in alphas.tolist()]

    def test_sweep_report_equals_single_runs(self):
        Ms = np.array([0.0, 0.05, 1.3])
        sweep = intensity_absorber(AbsorberConfig("I", Ms))
        for i, M in enumerate(Ms.tolist()):
            single = intensity_absorber(AbsorberConfig("I", M))
            for field, value in vars(single).items():
                swept = getattr(sweep, field)
                swept = swept if field == "i0" else swept[i].item()
                assert swept == value or (math.isnan(swept) and math.isnan(value)), field

    def test_overflowing_prediction_names_the_parameter(self):
        with pytest.raises(OverflowError, match=r"M\*\*2 at M=1e\+200"):
            intensity_absorber(AbsorberConfig("I", np.array([0.1, 1e200])))


class TestReference:
    def test_unperturbed_intensity_is_one_quarter(self):
        assert reference_intensity() == pytest.approx(0.25, abs=1e-14)

    def test_zero_perturbation_matches_reference(self):
        assert perturbed_intensity(AbsorberConfig("I", 0.0)) == pytest.approx(
            reference_intensity(), abs=1e-15
        )
        assert perturbed_intensity(MagneticConfig("II", 0.0)) == pytest.approx(
            reference_intensity(), abs=1e-15
        )


class TestAbsorber:
    @pytest.mark.parametrize("M", M_GRID)
    def test_empty_arm_is_blind_to_the_absorber(self, M):
        report = intensity_absorber(AbsorberConfig("II", M))
        assert report.ratio == pytest.approx(1.0, abs=1e-15)
        assert report.inferred_weak_value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("M", M_GRID)
    def test_occupied_arm_attenuates_exponentially(self, M):
        report = intensity_absorber(AbsorberConfig("I", M))
        assert report.ratio == pytest.approx(absorber_ratio_arm_I(M), abs=1e-12)

    def test_reference_example(self):
        report = intensity_absorber(AbsorberConfig("I", 0.1))
        assert report.ratio == pytest.approx(math.exp(-0.2), abs=1e-12)
        assert report.first_order_prediction == pytest.approx(0.8, abs=1e-14)

    def test_zero_absorption_is_trivial(self):
        report = intensity_absorber(AbsorberConfig("I", 0.0))
        assert report.ratio == pytest.approx(1.0, abs=1e-15)
        assert math.isnan(report.inferred_weak_value)

    @pytest.mark.parametrize("M", M_GRID)
    def test_first_order_band(self, M):
        report = intensity_absorber(AbsorberConfig("I", M))
        assert report.expansion_error <= 2.0 * M**2

    @pytest.mark.parametrize("M", M_GRID)
    def test_second_order_band(self, M):
        report = intensity_absorber(AbsorberConfig("I", M))
        assert abs(report.ratio - report.second_order_prediction) <= 2.0 * M**3

    @pytest.mark.parametrize("M", M_GRID)
    def test_inference_bias_is_first_order(self, M):
        report = intensity_absorber(AbsorberConfig("I", M))
        assert abs(report.inferred_weak_value - 1.0) <= 2.0 * M


class TestMagnetic:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_spinless_arm_still_loses_intensity(self, alpha):
        report = intensity_magnetic(MagneticConfig("I", alpha))
        assert report.ratio == pytest.approx(magnetic_ratio_arm_I(alpha), abs=1e-12)
        assert report.ratio < 1.0

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_spin_carrying_arm_gains_intensity(self, alpha):
        report = intensity_magnetic(MagneticConfig("II", alpha))
        assert report.ratio == pytest.approx(magnetic_ratio_arm_II(alpha), abs=1e-12)
        assert report.ratio > 1.0

    @pytest.mark.parametrize("arm", ["I", "II"])
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_second_order_prediction_band(self, arm, alpha):
        report = intensity_magnetic(MagneticConfig(arm, alpha))
        assert report.expansion_error <= alpha**4

    @pytest.mark.parametrize("arm", ["I", "II"])
    def test_first_order_is_flat_for_real_weak_values(self, arm):
        report = intensity_magnetic(MagneticConfig(arm, 0.3))
        assert report.first_order_prediction == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_spin_inference_bias_is_quadratic(self, alpha):
        report = intensity_magnetic(MagneticConfig("II", alpha))
        assert abs(report.inferred_weak_value - 1.0) <= alpha**2

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_empty_arm_inference_stays_small(self, alpha):
        report = intensity_magnetic(MagneticConfig("I", alpha))
        assert abs(report.inferred_weak_value) <= alpha

    def test_zero_angle_is_trivial(self):
        report = intensity_magnetic(MagneticConfig("II", 0.0))
        assert report.ratio == pytest.approx(1.0, abs=1e-15)
        assert math.isnan(report.inferred_weak_value)


class TestInference:
    def test_flat_ratio_means_zero_projector(self):
        assert infer_projector_weak_value(0.1, 1.0) == 0.0

    def test_projector_inversion_round_trip(self):
        for pi_w in (0.0, 0.3, 1.0):
            ratio = 1.0 - 2.0 * 0.05 * pi_w
            assert infer_projector_weak_value(0.05, ratio) == pytest.approx(
                pi_w, abs=1e-12
            )

    def test_spin_inversion_round_trip(self):
        alpha = 0.2
        for pi_w, sigma_mod in ((0.0, 1.0), (1.0, 0.5), (0.5, 0.0)):
            ratio = 1.0 + (alpha**2 / 4.0) * (sigma_mod**2 - pi_w)
            assert infer_spin_weak_value_modulus(alpha, ratio, pi_w) == pytest.approx(
                sigma_mod, abs=1e-12
            )

    def test_unreachable_ratio_raises(self):
        with pytest.raises(NegativeRadicand):
            infer_spin_weak_value_modulus(0.1, 0.9, 0.0)

    def test_zero_perturbation_infers_nan(self):
        assert math.isnan(infer_weak_value(AbsorberConfig("I", 0.0), 0.9))
        assert math.isnan(infer_weak_value(MagneticConfig("II", 0.0), 1.1))
        # At zero perturbation the ratio is not read, so any ratio gives the documented NaN.
        assert math.isnan(infer_weak_value(AbsorberConfig("I", 0.0), math.nan))

    @pytest.mark.parametrize("ratio", [math.nan, -math.nan, math.inf, -math.inf])
    def test_a_non_finite_measured_ratio_is_rejected(self, ratio):
        message = r"^inference needs a finite measured ratio, got "
        with pytest.raises(ValidationError, match=message):
            infer_projector_weak_value(0.1, ratio)
        with pytest.raises(ValidationError, match=message):
            infer_spin_weak_value_modulus(0.1, ratio, 1.0)
        with pytest.raises(ValidationError, match=message):
            infer_spin_weak_value_modulus(np.array([0.1, 0.2]), np.array([1.0, ratio]), 1.0)
        with pytest.raises(ValidationError, match=message):
            infer_weak_value(AbsorberConfig("I", np.array([0.0, 0.1])), np.array([1.0, ratio]))

    @pytest.mark.parametrize("pi_w", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_projector_weak_value_is_rejected(self, pi_w):
        with pytest.raises(ValidationError, match=r"^spin inference needs a finite pi_w, got "):
            infer_spin_weak_value_modulus(0.1, 1.0, pi_w)

    def test_an_inference_past_the_float_range_names_M(self):
        message = r"^inferred weak value overflows: \(1 - ratio\) / \(2 M\) at M={}$"
        with pytest.raises(OverflowError, match=message.format("5e-324")):
            infer_projector_weak_value(5e-324, 0.5)
        with pytest.raises(OverflowError, match=message.format("1e-320")):
            infer_projector_weak_value(np.array([0.1, 1e-320, 5e-324]), np.array([0.5, 0.5, 0.5]))
        with pytest.raises(OverflowError, match=message.format("5e-324")):
            infer_weak_value(AbsorberConfig("I", 5e-324), 1.5)
        assert infer_projector_weak_value(5e-324, 1.0) == 0.0  # a flat ratio infers 0 at any M
        assert infer_projector_weak_value(1e-300, 0.5) == pytest.approx(2.5e299, rel=1e-15)

    # (pi_w, [(alpha, ratio), ...]); radicand = (ratio - 1) * 4 / alpha**2 + pi_w.
    SPIN_INFERENCE_CASES = [
        (0.0, [
            (0.5, 1.0),  # +0.0
            (2.0**500, 1.0 + 2.0**-52),  # 2**-1050, subnormal
            (2.0**500, 1.0 - 2.0**-53),  # -2**-1051, subnormal and clamped
            (1.0, 1e300), (1e-150, 2.0),  # 4e300 and 4e300
            (0.2, 1.01), (-0.3, 1.5), (3.0, 1.9),
        ]),
        (-0.0, [(0.5, 1.0)]),  # 0.0 + -0.0 is +0.0
        (-4.999e-12, [(1.0, 1.0), (1.0, 1.0 + 2.0**-52)]),  # just inside the noise floor 5e-12: clamped
        (1e-300, [(1.0, 1.0), (1e10, 1.0)]),
    ]

    @pytest.mark.parametrize("pi_w, cases", SPIN_INFERENCE_CASES, ids=[repr(p) for p, _ in SPIN_INFERENCE_CASES])
    def test_array_spin_inference_is_the_scalar_one_bit_for_bit(self, pi_w, cases):
        alpha, ratio = (np.array(column) for column in zip(*cases))
        array = infer_spin_weak_value_modulus(alpha, ratio, pi_w)
        scalar = np.array([infer_spin_weak_value_modulus(a, r, pi_w) for a, r in cases])
        assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()
        assert [format_float(x) for x in array] == [format_float(x) for x in scalar]

    # (alpha, ratio, the quantity that leaves the float range); 4 / alpha**2 is inf below |alpha| ~ 1.5e-154.
    SPIN_OVERFLOW_CASES = [
        (1e-100, 1e300, "(ratio - 1) * 4 / alpha**2"),
        (1e-160, 1.001, "4 / alpha**2"),
        (-1e-160, 1.0, "4 / alpha**2"),  # a flat ratio too: its noise floor would be inf
    ]

    @pytest.mark.parametrize("alpha, ratio, quantity", SPIN_OVERFLOW_CASES, ids=["huge-ratio", "tiny-alpha", "flat-ratio"])
    def test_a_spin_inference_past_the_float_range_names_alpha(self, alpha, ratio, quantity):
        message = re.escape(f"spin inference overflows: {quantity} at alpha={alpha!r}")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            infer_spin_weak_value_modulus(alpha, ratio, 0.0)
        with pytest.raises(OverflowError, match=f"^{message}$"):
            infer_spin_weak_value_modulus(np.array([0.5, alpha]), np.array([1.0, ratio]), 0.0)

    def test_clamped_sqrt_keeps_a_negative_zero(self):
        # No (ratio, alpha, pi_w) makes the radicand -0.0, so the sqrt step is driven directly.
        radicands = [0.0, -0.0, math.nan, -math.nan, 5e-324, -5e-324, 2.0**-1050, -4.9e-12, 4e300,
                     math.inf, 1.7976931348623157e308, 0.25]
        array = qccsim.neutron._sqrt_clamped(np.array(radicands))
        scalar = np.array([qccsim.neutron._sqrt_clamped(r) for r in radicands])
        assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()
        assert [format_float(x) for x in array][:2] == ["0", "-0"]
        assert [format_float(x) for x in array] == [format_float(x) for x in scalar]

    def test_zero_perturbation_rejected(self):
        with pytest.raises(ValidationError):
            infer_projector_weak_value(0.0, 0.9)
        with pytest.raises(ValidationError):
            infer_spin_weak_value_modulus(0.0, 1.0, 0.0)


class TestValidation:
    def test_bad_arm(self):
        with pytest.raises(ValidationError):
            AbsorberConfig("III", 0.1)
        with pytest.raises(ValidationError):
            MagneticConfig("0", 0.1)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            AbsorberConfig("I", -0.1)
        with pytest.raises(ValidationError):
            MagneticConfig("I", 3.5)

    def test_reference_intensity_must_be_positive(self):
        with pytest.raises(ValidationError, match="^reference intensity must be positive, got 0.0$"):
            IntensityReport(i0=0.0, i_perturbed=0.0, ratio=0.0, first_order_prediction=0.0,
                            second_order_prediction=0.0, inferred_weak_value=0.0, expansion_error=0.0)

    @pytest.mark.parametrize("i0", [math.inf, math.nan])
    def test_a_non_finite_reference_intensity_is_rejected(self, i0):
        with pytest.raises(ValidationError, match=f"^reference intensity must be positive, got {i0!r}$"):
            IntensityReport(i0, 0.2, 0.0, 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("build", [lambda: arm_observable("III", "projector"),
                                       lambda: AbsorberConfig("III", 0.1), lambda: MagneticConfig("III", 0.1)],
                             ids=["arm_observable", "AbsorberConfig", "MagneticConfig"])
    def test_each_arm_check_states_the_one_rule(self, build):
        with pytest.raises(ValidationError, match=r"^arm must be one of \('I', 'II'\), got 'III'$"):
            build()

    def test_a_config_of_another_kind_is_unsupported(self):
        with pytest.raises(ValidationError, match="^unsupported perturbation config GaussianPointerState$"):
            perturbed_intensity(make_gaussian(0.0, 1.0))

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValidationError):
            IntensityReport(
                i0=0.25,
                i_perturbed=0.2,
                ratio=0.9,
                first_order_prediction=0.8,
                second_order_prediction=0.81,
                inferred_weak_value=1.0,
                expansion_error=0.0,
            )


class TestSystematicTerm:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_deviation_closed_form(self, alpha):
        report = systematic_term_report(alpha)
        assert report.deviation == pytest.approx(-math.sin(alpha / 2.0) ** 2, abs=1e-14)
        assert report.deviation < 0.0

    def test_deviation_scales_quadratically(self):
        alphas = np.geomspace(0.02, 0.2, 5)
        deviations = [abs(systematic_term_report(a).deviation) for a in alphas]
        assert fit_exponent(alphas, deviations) == pytest.approx(2.0, abs=0.05)

    def test_small_angle_ratio_approaches_one(self):
        report = systematic_term_report(0.05)
        assert report.deviation_over_quadratic == pytest.approx(1.0, abs=1e-3)

    def test_zero_angle_has_no_deviation(self):
        report = systematic_term_report(0.0)
        assert report.deviation == 0.0
        assert math.isnan(report.deviation_over_quadratic)

    def test_mechanism_is_the_identity_term(self):
        report = systematic_term_report(0.3)
        assert report.sigma_transition_modulus <= 1e-14
        assert report.ratio_exact == pytest.approx(report.identity_term_intensity, abs=1e-14)

    def test_rotation_sign_is_irrelevant(self):
        report = systematic_term_report(0.3)
        assert report.alternate_sign_ratio == pytest.approx(report.ratio_exact, abs=1e-14)

    @pytest.mark.parametrize("alpha", [*ALPHA_GRID, 0.0, math.pi, -math.pi, 1e-8])
    def test_ratios_are_the_intensity_reports_bit_for_bit(self, alpha):
        report = systematic_term_report(alpha)
        for ratio, angle in ((report.ratio_exact, alpha), (report.alternate_sign_ratio, -alpha)):
            assert ratio.hex() == intensity_magnetic(MagneticConfig("I", angle)).ratio.hex()

    def test_an_angle_past_the_spin_inference_range_has_finite_fields(self):
        # 4 / alpha**2 overflows here, so an IntensityReport at this alpha raises; this report infers nothing.
        with pytest.raises(OverflowError, match="^spin inference overflows"):
            intensity_magnetic(MagneticConfig("I", 1e-160))
        report = systematic_term_report(1e-160)
        assert all(math.isfinite(value) for value in report._asdict().values())
        assert (report.deviation, report.quadratic_prediction, report.deviation_over_quadratic) == (0.0, -2.5e-321, 0.0)

    @pytest.mark.parametrize("alpha", [-3e-162, 5e-324])
    def test_an_angle_whose_quadratic_term_underflows_is_named(self, alpha):
        with pytest.raises(ZeroDivisionError, match=rf"^systematic term underflows to 0: alpha\*\*2/4 at alpha={alpha!r}$"):
            systematic_term_report(alpha)


def test_module_never_touches_pointers():
    assert all(
        getattr(value, "__module__", "") != "qccsim.pointer"
        for value in vars(qccsim.neutron).values()
    )
