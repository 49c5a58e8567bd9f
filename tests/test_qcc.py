"""Cheshire Cat configuration: weak-value signature and pointer shifts."""

import itertools
import math

import numpy as np
import pytest

from qccsim.cli import QCC_PARAMS
from qccsim.errors import ValidationError
from qccsim.pointer import GaussianComponent, component_overlap
from qccsim.qcc import (
    OBSERVABLE_TAGS,
    arm_observable,
    arm_table,
    build_prepost,
    run_ideal_qcc,
    run_joint_pointers,
)
from qccsim.weakmeas import vdot

from oracles import component_position_element, fit_exponent, quadrature_mean_position

G_DEFAULT = 0.02
RUNNERS = (run_ideal_qcc, run_joint_pointers)


def qcc_args(**changes) -> dict:
    """A Cheshire Cat run's keyword arguments: the CLI's defaults, with ``changes``."""
    return {"observable_I": "projector", "observable_II": "sigma_x", "g_I": G_DEFAULT, "g_II": G_DEFAULT,
            "pointer_width": 1.0, **changes}


class TestBuildPrepost:
    @pytest.mark.parametrize("swap", [False, True])
    def test_overlap_is_one_half(self, swap):
        ctx = build_prepost(swap)
        assert vdot(ctx.chi_f, ctx.psi_i) == pytest.approx(0.5, abs=1e-14)

    def test_states_are_normalized(self):
        ctx = build_prepost()
        assert np.linalg.norm(ctx.psi_i) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(ctx.chi_f) == pytest.approx(1.0, abs=1e-14)

    def test_constants_are_built_once(self):
        assert build_prepost() is build_prepost(False)
        assert build_prepost(True) is build_prepost(swap_spin_labels=True)
        assert arm_observable("I", "projector") is arm_observable("I", "projector")
        assert arm_table("II", "sigma_x") is arm_table("II", "sigma_x", False)
        with pytest.raises(TypeError):
            build_prepost().psi_i[0] = 0.0
        with pytest.raises(ValidationError):
            arm_observable("III", "projector")
        with pytest.raises(ValidationError):
            arm_observable("I", "sigma_z")

    def test_observable_structure(self):
        obs = arm_observable("II", "sigma_x")
        assert sorted(obs.eigvals) == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-14)
        assert arm_observable("I", "projector").eigvals == pytest.approx(
            sorted([1.0, 1.0, 0.0, 0.0]), abs=1e-14
        )

    def test_arm_observables_annihilate_each_other(self):
        # The joint run's U_I U_II = U_I + U_II - 1 rests on A_I A_II = 0.
        for tag_I, tag_II in itertools.product(OBSERVABLE_TAGS, repeat=2):
            a_I = np.array(arm_observable("I", tag_I).rows)
            a_II = np.array(arm_observable("II", tag_II).rows)
            assert not np.any(a_I @ a_II)
            assert not np.any(a_II @ a_I)

    def test_bad_arm_and_tag_rejected(self):
        with pytest.raises(ValidationError):
            arm_observable("III", "projector")
        with pytest.raises(ValidationError):
            arm_observable("I", "sigma_y")


class TestWeakValueSignature:
    def test_presence_in_arm_one_spin_in_arm_two(self):
        report = run_ideal_qcc(**qcc_args())
        assert report.wv_pi_I == pytest.approx(1.0, abs=1e-12)
        assert report.wv_sigma_I == pytest.approx(0.0, abs=1e-12)
        assert report.wv_pi_II == pytest.approx(0.0, abs=1e-12)
        assert report.wv_sigma_II == pytest.approx(1.0, abs=1e-12)

    def test_swapped_labels_exchange_the_arms(self):
        report = run_ideal_qcc(**qcc_args(), swap_spin_labels=True)
        assert report.wv_pi_I == pytest.approx(0.0, abs=1e-12)
        assert report.wv_sigma_I == pytest.approx(1.0, abs=1e-12)
        assert report.wv_pi_II == pytest.approx(1.0, abs=1e-12)
        assert report.wv_sigma_II == pytest.approx(0.0, abs=1e-12)


class TestIdealRun:
    @pytest.mark.parametrize("name", ["g_I", "g_II"])
    def test_a_non_finite_coupling_is_rejected(self, name):
        with pytest.raises(ValidationError, match=rf"^coupling {name} must be finite, got inf$"):
            run_ideal_qcc(**qcc_args(**{name: math.inf}))

    def test_projector_shift_equals_coupling(self):
        report = run_ideal_qcc(**qcc_args(g_I=G_DEFAULT, g_II=G_DEFAULT))
        assert report.shift_I == pytest.approx(G_DEFAULT, abs=1e-14)

    def test_spin_shift_tracks_coupling_to_cubic_order(self):
        g = G_DEFAULT
        report = run_ideal_qcc(**qcc_args(g_I=g, g_II=g))
        assert report.shift_II == pytest.approx(g * (1.0 - 3.0 * g**2 / 8.0), abs=g**5)

    def test_spin_shift_matches_branch_quadrature(self):
        # (sigma_x)_II branches: weights (1/4, -1/4, 1/2) at centers
        # (g, -g, 0); the mean of that superposition is the shift.
        g = 0.05
        report = run_ideal_qcc(**qcc_args(g_I=g, g_II=g))
        oracle = quadrature_mean_position((0.25, -0.25, 0.5), (g, -g, 0.0), 1.0)
        assert report.shift_II == pytest.approx(oracle, abs=1e-10)

    def test_zero_coupling_is_exactly_unperturbed(self):
        report = run_ideal_qcc(**qcc_args(g_I=0.0, g_II=0.0))
        assert report.shift_I == 0.0
        assert report.shift_II == 0.0
        assert report.postselect_prob_I == pytest.approx(0.25, abs=1e-14)
        assert report.postselect_prob_II == pytest.approx(0.25, abs=1e-14)

    def test_postselection_probability(self):
        report = run_ideal_qcc(**qcc_args())
        assert report.postselect_amp == pytest.approx(0.5, abs=1e-14)
        assert report.postselect_prob == pytest.approx(0.25, abs=1e-14)
        assert report.postselect_prob == pytest.approx(abs(report.postselect_amp) ** 2, abs=1e-16)

    def test_coupled_probabilities_closed_forms(self):
        g = G_DEFAULT
        report = run_ideal_qcc(**qcc_args(g_I=g, g_II=g))
        assert report.postselect_prob_I == pytest.approx(0.25, abs=1e-14)
        assert report.postselect_prob_II == pytest.approx(
            3.0 / 8.0 - math.exp(-(g**2) / 2.0) / 8.0, abs=1e-14
        )

    def test_margin_warning_thresholds(self):
        assert not run_ideal_qcc(**qcc_args()).margin_warning
        assert run_ideal_qcc(**qcc_args(g_I=0.5, g_II=0.5)).margin_warning

    def test_arm_swap_exchanges_shifts(self):
        base = run_ideal_qcc(**qcc_args())
        mirrored = run_ideal_qcc(
            **qcc_args(observable_I="sigma_x", observable_II="projector"),
            swap_spin_labels=True,
        )
        assert mirrored.shift_II == pytest.approx(base.shift_I, abs=1e-14)
        assert mirrored.shift_I == pytest.approx(base.shift_II, abs=1e-14)

    def test_shift_law_error_is_cubic(self):
        gs = np.geomspace(0.01, 0.08, 5)
        errors = []
        for g in gs:
            report = run_ideal_qcc(**qcc_args(g_I=g, g_II=g))
            errors.append(abs(report.shift_II - g * report.wv_sigma_II.real))
        assert fit_exponent(gs, errors) >= 2.0

    def test_probability_perturbation_is_quadratic(self):
        gs = np.geomspace(0.01, 0.08, 5)
        dev_I, dev_II = [], []
        for g in gs:
            report = run_ideal_qcc(**qcc_args(g_I=g, g_II=g))
            dev_I.append(abs(report.postselect_prob_I - 0.25))
            dev_II.append(abs(report.postselect_prob_II - 0.25))
        assert max(dev_I) <= 1e-14
        assert fit_exponent(gs, dev_II) == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("observable_I, observable_II", itertools.product(OBSERVABLE_TAGS, repeat=2))
    @pytest.mark.parametrize("swap", [False, True])
    def test_array_couplings_equal_single_runs(self, observable_I, observable_II, swap):
        g = np.array([0.0, -0.4, 0.02, 1.5])
        sweep = run_ideal_qcc(observable_I=observable_I, observable_II=observable_II, g_I=g, g_II=-2.0 * g,
                              pointer_width=0.6, swap_spin_labels=swap)
        for i, g_i in enumerate(g.tolist()):
            single = run_ideal_qcc(observable_I=observable_I, observable_II=observable_II, g_I=g_i, g_II=-2.0 * g_i,
                                   pointer_width=0.6, swap_spin_labels=swap)
            for field, value in vars(single).items():
                swept = getattr(sweep, field)
                assert (swept[i].item() if isinstance(swept, np.ndarray) else swept) == value, field
        with pytest.raises(ValidationError):
            run_joint_pointers(**qcc_args(g_I=g, g_II=g))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            run_ideal_qcc(**qcc_args(observable_I="sigma_z"))
        with pytest.raises(ValidationError):
            run_ideal_qcc(**qcc_args(g_I=math.inf))
        with pytest.raises(ValidationError):
            run_ideal_qcc(**qcc_args(pointer_width=0.0))

    @pytest.mark.parametrize("build", [lambda: arm_observable("I", "x"),
                                       lambda: run_ideal_qcc(**qcc_args(observable_I="x")),
                                       lambda: run_ideal_qcc(**qcc_args(observable_II="x"))],
                             ids=["arm_observable", "observable_I", "observable_II"])
    def test_each_observable_check_states_the_one_rule(self, build):
        with pytest.raises(ValidationError, match=r"^observable must be one of \('projector', 'sigma_x'\), got 'x'$"):
            build()

    def test_a_coupling_array_of_two_dimensions_names_its_shape(self):
        args = qcc_args(g_I=np.zeros((2, 2)), g_II=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=r"^couplings must be one number or a 1-D array, got shape \(2, 2\)$"):
            run_ideal_qcc(**args)


# One violation per argument, in the order the runners check them.
BAD_ARGUMENTS = (
    ("observable_I", "sigma_z", r"observable must be one of \('projector', 'sigma_x'\), got 'sigma_z'"),
    ("observable_II", "x", r"observable must be one of \('projector', 'sigma_x'\), got 'x'"),
    ("g_I", math.inf, r"coupling g_I must be finite, got inf"),
    ("g_II", math.nan, r"coupling g_II must be finite, got nan"),
    ("pointer_width", 0.0, r"Gaussian width must be positive and finite, got 0\.0"),
)


@pytest.mark.parametrize("runner", RUNNERS)
class TestRunArguments:
    """Both runners check observable_I, observable_II, g_I, g_II, pointer_width on entry, in that order."""

    @pytest.mark.parametrize("name", ["observable_I", "observable_II"])
    def test_an_unknown_observable_is_rejected(self, runner, name):
        with pytest.raises(ValidationError, match=r"^observable must be one of \('projector', 'sigma_x'\), got 'x'$"):
            runner(**qcc_args(**{name: "x"}))

    @pytest.mark.parametrize("name", ["g_I", "g_II"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_coupling_is_rejected(self, runner, name, value):
        with pytest.raises(ValidationError, match=rf"^coupling {name} must be finite, got {value!r}$"):
            runner(**qcc_args(**{name: value}))

    def test_a_non_finite_entry_of_a_coupling_array_is_named(self, runner):
        with pytest.raises(ValidationError, match=r"^coupling g_II must be finite, got -inf$"):
            runner(**qcc_args(g_II=np.array([0.1, -math.inf, math.nan])))

    @pytest.mark.parametrize("width", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_a_width_not_positive_and_finite_is_rejected(self, runner, width):
        with pytest.raises(ValidationError, match=rf"^Gaussian width must be positive and finite, got {width!r}$"):
            runner(**qcc_args(pointer_width=width))

    def test_the_first_violated_rule_is_reported(self, runner):
        bad = {name: value for name, value, _ in BAD_ARGUMENTS}
        for name, _, message in BAD_ARGUMENTS:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                runner(**qcc_args(**bad))
            del bad[name]
        assert runner(**qcc_args()).wv_pi_I == pytest.approx(1.0, abs=1e-12)

    def test_defaults_live_in_the_cli_table(self, runner):
        with pytest.raises(TypeError):
            runner()
        with pytest.raises(TypeError):
            runner("projector", "sigma_x", G_DEFAULT, G_DEFAULT, 1.0)
        resolved = {param.name: param.default for param in QCC_PARAMS}
        assert qcc_args() == {name: resolved[name] if resolved[name] is not None else resolved["g"]
                              for name in ("observable_I", "observable_II", "g_I", "g_II", "pointer_width")}


def joint_oracle(args: dict, reverse: bool, swap: bool = False):
    """Joint two-pointer marginals with the couplings factored in either
    order; commuting couplings must give identical results."""
    ctx = build_prepost(swap)
    psi_w, chi_w = ctx.psi_i, ctx.chi_f
    obs_I = arm_observable("I", args["observable_I"])
    obs_II = arm_observable("II", args["observable_II"])
    branches = []
    for a_val, a_vec in zip(obs_I.eigvals, obs_I.eigvecs):
        for b_val, b_vec in zip(obs_II.eigvals, obs_II.eigvecs):
            if reverse:
                coeff = vdot(chi_w, b_vec) * vdot(b_vec, a_vec) * vdot(a_vec, psi_w)
            else:
                coeff = vdot(chi_w, a_vec) * vdot(a_vec, b_vec) * vdot(b_vec, psi_w)
            branches.append(
                (
                    coeff,
                    GaussianComponent(1.0, args["g_I"] * a_val),
                    GaussianComponent(1.0, args["g_II"] * b_val),
                )
            )
    norm2, x_i, x_ii, width = 0.0, 0.0, 0.0, args["pointer_width"]
    for ca, ua, va in branches:
        for cb, ub, vb in branches:
            w = ca.conjugate() * cb
            o_i, o_ii = component_overlap(ua, ub, width), component_overlap(va, vb, width)
            norm2 += (w * o_i * o_ii).real
            x_i += (w * component_position_element(ua, ub, width) * o_ii).real
            x_ii += (w * o_i * component_position_element(va, vb, width)).real
    return x_i / norm2, x_ii / norm2, norm2


class TestJointRun:
    def test_idle_second_pointer_reproduces_single_run(self):
        args = qcc_args(g_I=G_DEFAULT, g_II=0.0)
        ideal = run_ideal_qcc(**args)
        joint = run_joint_pointers(**args)
        assert joint.shift_I == pytest.approx(ideal.shift_I, abs=1e-12)
        assert joint.shift_II == pytest.approx(0.0, abs=1e-12)

    def test_marginals_agree_with_separate_runs_to_cross_order(self):
        args = qcc_args(g_I=G_DEFAULT, g_II=G_DEFAULT)
        ideal = run_ideal_qcc(**args)
        joint = run_joint_pointers(**args)
        bound = 5.0 * args["g_I"] * args["g_II"]
        assert abs(joint.shift_I - ideal.shift_I) <= bound
        assert abs(joint.shift_II - ideal.shift_II) <= bound

    @pytest.mark.parametrize(
        "observable_I, observable_II, swap, g_I, g_II",
        [
            (*tags, swap, *g)
            for tags in itertools.product(OBSERVABLE_TAGS, repeat=2)
            for swap in (False, True)
            for g in ((0.04, 0.03), (0.5, 0.5), (2.0, -1.3))
        ],
    )
    def test_coupling_order_is_immaterial(self, observable_I, observable_II, swap, g_I, g_II):
        args = qcc_args(observable_I=observable_I, observable_II=observable_II, g_I=g_I, g_II=g_II)
        forward = joint_oracle(args, reverse=False, swap=swap)
        backward = joint_oracle(args, reverse=True, swap=swap)
        assert forward == pytest.approx(backward, abs=1e-12)
        joint = run_joint_pointers(**args, swap_spin_labels=swap)
        assert joint.shift_I == pytest.approx(forward[0], abs=1e-12)
        assert joint.shift_II == pytest.approx(forward[1], abs=1e-12)
        assert joint.postselect_prob_I == pytest.approx(forward[2], abs=1e-14)

    def test_joint_probability_is_shared(self):
        joint = run_joint_pointers(**qcc_args())
        assert joint.postselect_prob_I == joint.postselect_prob_II
        assert joint.postselect_prob_I == pytest.approx(0.25, abs=1e-3)
        assert joint.joint

    def test_weak_values_unchanged_by_protocol(self):
        args = qcc_args()
        ideal = run_ideal_qcc(**args)
        joint = run_joint_pointers(**args)
        for field in ("wv_pi_I", "wv_sigma_I", "wv_pi_II", "wv_sigma_II"):
            assert getattr(joint, field) == getattr(ideal, field)
