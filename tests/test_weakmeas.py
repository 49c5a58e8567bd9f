"""Weak values, exact pointer coupling, and the linear-response law."""

import itertools
import math
import random

import numpy as np
import pytest

from qccsim.cli import CONTEXT_NAMES, PROJECTOR_SPECTRUM, SIGMA_X_SPECTRUM, build_context, context_table
from qccsim.errors import OrthogonalPostselection, ValidationError
from qccsim.pointer import make_gaussian, mean_position, norm_sq, superpose, translate
from qccsim.qcc import ARMS, OBSERVABLE_TAGS, arm_observable, arm_spectrum, arm_table, build_prepost
from qccsim.qstate import StateVector, inner
from qccsim.weakmeas import (
    BranchTable,
    PrePostContext,
    Spectrum,
    branch_table,
    couple_and_postselect,
    linear_response_report,
    make_observable,
    reduce_table,
    validity_margin,
    weak_value,
)

from oracles import (
    EXACT_FLOOR,
    SIGMA_X,
    anomalous_exact_shift,
    anomalous_postselect_prob,
    branch_oracle,
    fit_exponent,
    quadrature_mean_momentum,
    quadrature_readout,
    random_hermitian,
    random_state,
    random_unitary,
    sum_rule_gap,
)

PHI0 = make_gaussian(0.0, 1.0)


def qubit_context(psi_amps, chi_amps, label="spin"):
    return PrePostContext(
        StateVector((2,), (label,), psi_amps),
        StateVector((2,), (label,), chi_amps),
    )


def random_context(rng, dim):
    return PrePostContext(
        StateVector((dim,), ("sys",), random_state(rng, dim)),
        StateVector((dim,), ("sys",), random_state(rng, dim)),
    )


class TestContext:
    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValidationError, match="psi_i must be normalized"):
            qubit_context([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError, match="chi_f must be normalized"):
            qubit_context([1.0, 0.0], [0.0, 2.0])

    @pytest.mark.parametrize(
        "chi", [StateVector((2,), ("path",), [1.0, 0.0]), StateVector((3,), ("spin",), [1.0, 0.0, 0.0])]
    )
    def test_rejects_mismatched_spaces(self, chi):
        with pytest.raises(ValidationError, match="same labeled space"):
            PrePostContext(StateVector((2,), ("spin",), [1.0, 0.0]), chi)

    @pytest.mark.parametrize(
        "matrix, targets",
        [(np.diag([1.0, 0.0]), ("path",)), (np.kron(np.diag([1.0, 0.0]), SIGMA_X), ("spin", "path"))],
        ids=["subset", "reordered"],
    )
    def test_observable_targets_must_equal_context_labels(self, matrix, targets):
        ctx, _ = build_context("qcc-pi-I")
        obs = make_observable(matrix, targets)
        with pytest.raises(ValidationError, match="must equal the context labels"):
            weak_value(ctx, obs)
        with pytest.raises(ValidationError, match="must equal the context labels"):
            couple_and_postselect(ctx, obs, PHI0, 0.05)


class TestObservable:
    def test_rejects_non_hermitian_matrix(self):
        with pytest.raises(ValidationError, match="hermitian defect"):
            make_observable([[0.0, 1.0], [0.0, 0.0]], ("spin",))

    def test_dims_are_one_equal_subsystem_per_label(self):
        assert make_observable(np.eye(8), ("a", "b", "c")).op.dims == (2, 2, 2)
        assert make_observable(np.eye(3), ("sys",)).op.dims == (3,)

    @pytest.mark.parametrize("side, targets", [(3, ("path", "spin")), (6, ("path", "spin")), (2, ())])
    def test_matrix_that_does_not_split_rejected(self, side, targets):
        with pytest.raises(ValidationError, match="does not split"):
            make_observable(np.eye(side), targets)


class TestWeakValue:
    def test_identical_pre_post_gives_expectation(self):
        ctx, obs = build_context("spin-trivial")
        assert weak_value(ctx, obs) == pytest.approx(0.0, abs=1e-14)

    def test_null_projector_weak_value(self):
        ctx, obs = build_context("path-null")
        assert weak_value(ctx, obs) == pytest.approx(0.0, abs=1e-14)

    def test_anomalous_value_exceeds_spectrum(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        wv = weak_value(ctx, obs)
        assert wv == pytest.approx(3.0, abs=1e-12)
        assert wv.real > max(obs.eigvals)

    def test_orthogonal_postselection_raises(self):
        ctx, obs = build_context("orthogonal")
        with pytest.raises(OrthogonalPostselection):
            weak_value(ctx, obs)
        # The transition element stays well defined.
        assert branch_table(ctx, obs).transition == pytest.approx(1.0, abs=1e-14)

    def test_real_linearity_in_the_observable(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ctx = random_context(rng, 3)
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 3)
            alpha, beta = rng.normal(size=2)
            combined = weak_value(ctx, make_observable(alpha * a + beta * b, ("sys",)))
            separate = alpha * weak_value(ctx, make_observable(a, ("sys",))) + beta * weak_value(
                ctx, make_observable(b, ("sys",))
            )
            assert combined == pytest.approx(separate, abs=1e-12)

    def test_anomalous_weak_value_is_tan_theta_at_large_tan_theta(self):
        ctx, obs = build_context("anomalous", tan_theta=1e11)
        assert weak_value(ctx, obs).real == pytest.approx(1e11, rel=1e-12)


class TestTransitionElement:
    def test_identity_observable_gives_overlap(self):
        ctx, _ = build_context("anomalous", tan_theta=3.0)
        obs = make_observable(np.eye(2), ("spin",))
        expected = inner(ctx.chi_f, ctx.psi_i)
        assert branch_table(ctx, obs).transition == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dense_bra_ket_product(self, seed):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, 4)
        matrix = random_hermitian(rng, 4)
        obs = make_observable(matrix, ("sys",))
        dense = np.vdot(ctx.chi_f.amps, matrix @ ctx.psi_i.amps)
        assert branch_table(ctx, obs).transition == pytest.approx(dense, abs=1e-12)

    def test_weak_value_times_overlap_recovers_transition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ctx = random_context(rng, 4)
            obs = make_observable(random_hermitian(rng, 4), ("sys",))
            den = inner(ctx.chi_f, ctx.psi_i)
            assert weak_value(ctx, obs) * den == pytest.approx(
                branch_table(ctx, obs).transition, abs=1e-12
            )


class TestCoupleAndPostselect:
    def test_zero_coupling_leaves_scaled_initial_pointer(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        result = couple_and_postselect(ctx, obs, PHI0, 0.0)
        den = inner(ctx.chi_f, ctx.psi_i)
        assert result.postselect_prob_coupled == pytest.approx(abs(den) ** 2, abs=1e-14)
        assert mean_position(result.pointer_final) == pytest.approx(0.0, abs=1e-14)
        assert len(result.pointer_final.components) == 1

    def test_projector_arm_one_shifts_by_g_exactly(self):
        ctx, obs = build_context("qcc-pi-I")
        g = 0.02
        result = couple_and_postselect(ctx, obs, PHI0, g)
        shift = mean_position(result.pointer_final) - mean_position(PHI0)
        assert shift == pytest.approx(g, abs=1e-14)

    def test_anomalous_shift_matches_closed_form(self):
        g = 0.01
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        result = couple_and_postselect(ctx, obs, PHI0, g)
        shift = mean_position(result.pointer_final)
        assert shift == pytest.approx(anomalous_exact_shift(g, 3.0, 1.0), abs=1e-12)
        assert shift == pytest.approx(3.0 * g, abs=2e-5)
        assert result.postselect_prob_coupled == pytest.approx(
            anomalous_postselect_prob(g, 3.0, 1.0), abs=1e-12
        )

    def test_orthogonal_context_keeps_pointer_but_no_weak_value(self):
        ctx, obs = build_context("orthogonal")
        result = couple_and_postselect(ctx, obs, PHI0, 0.05)
        assert result.weak_value is None
        assert norm_sq(result.pointer_final) > 0.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("theta, phi", [(0.3, 0.7), (1.2, -2.0)])
    def test_mean_momentum_reads_imaginary_weak_value(self, sigma, theta, phi):
        # <P> of the postselected pointer is g Im(A^w) / (2 sigma^2) to first order in g.
        ctx = qubit_context([1.0, 0.0], [math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)])
        obs = make_observable(SIGMA_X, ("spin",))
        g = 1e-4
        pointer = couple_and_postselect(ctx, obs, make_gaussian(0.0, sigma), g).pointer_final
        wv = weak_value(ctx, obs)
        assert abs(wv.imag) > 0.1
        expected = g * wv.imag / (2.0 * sigma**2)
        coeffs, centers = zip(*pointer.components)
        assert quadrature_mean_momentum(coeffs, centers, sigma) == pytest.approx(expected, rel=1e-4)

    def test_rejects_non_finite_coupling(self):
        ctx, obs = build_context("anomalous")
        with pytest.raises(ValidationError):
            couple_and_postselect(ctx, obs, PHI0, math.inf)

    @pytest.mark.parametrize("g", [5e307, 1e308, -1e308])
    def test_shift_at_the_float_limit_is_the_coupling(self, g):
        # x_p + x_q leaves the float range at |g| = 1e308; the midpoint halves each center first there.
        result = couple_and_postselect(*build_context("qcc-pi-I"), PHI0, g)
        assert result.exact_shift == pytest.approx(g, rel=1e-15)
        assert result.postselect_prob_coupled == pytest.approx(0.25, rel=1e-15)

    def test_position_pair_sum_beyond_the_float_range_overflows(self):
        # Centers 8e307 and 1.6e308 are finite, but the branch weights sum the position past the float range.
        table = BranchTable(eigvals=(1.0, 2.0), coeffs=(0.9 + 0j, 0.9 + 0j), overlap=1.8 + 0j,
                            transition=2.7 + 0j, transition_sq=4.5 + 0j)
        with pytest.raises(OverflowError, match=r"^pointer shift overflows: exact_shift at g=8e\+307$"):
            table.couple(PHI0, 8e307)

    @pytest.mark.parametrize("center", [1e308, -1e308])
    def test_far_out_pointer_at_zero_coupling_stays_put(self, center):
        result = arm_table("I", "projector").couple(make_gaussian(center, 1.0), 0.0)
        assert result.exact_shift == 0.0
        assert result.postselect_prob_coupled == pytest.approx(0.25, rel=1e-15)

    def test_zero_probability_keeps_a_nan_shift(self):
        result = couple_and_postselect(*build_context("orthogonal"), PHI0, 0.0)
        assert result.postselect_prob_coupled == 0.0
        assert math.isnan(result.exact_shift)

    @pytest.mark.parametrize(
        "name, tan_theta",
        [(name, 3.0) for name in CONTEXT_NAMES if name != "orthogonal"]
        + [("anomalous", -12.3), ("anomalous", 49.7)],
    )
    def test_result_uses_the_weak_value_formula(self, name, tan_theta):
        ctx, obs = build_context(name, tan_theta)
        result = couple_and_postselect(ctx, obs, PHI0, 0.05)
        assert result.weak_value == weak_value(ctx, obs)
        assert result.transition_element == branch_table(ctx, obs).transition


class TestLinearResponse:
    def test_identity_observable_is_exactly_linear(self):
        ctx, _ = build_context("spin-trivial")
        obs = make_observable(np.eye(2), ("spin",))
        report = linear_response_report(ctx, obs, PHI0, 0.3)
        assert report.exact_shift == pytest.approx(0.3, abs=1e-12)
        assert report.abs_error <= 1e-12
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_weak_value_reports_nan_ratio(self):
        ctx, obs = build_context("qcc-pi-II")
        report = linear_response_report(ctx, obs, PHI0, 0.02)
        assert report.predicted_shift == 0.0
        assert abs(report.exact_shift) <= 1e-12
        assert math.isnan(report.ratio)

    def test_error_vanishes_at_least_quadratically(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        gs = np.geomspace(0.002, 0.02, 5)
        errors = [linear_response_report(ctx, obs, PHI0, g).abs_error for g in gs]
        assert fit_exponent(gs, errors) >= 2.0

    def test_error_halving_ratio_is_eight(self):
        # Momentum-free Gaussian pointers make the exact shift an odd
        # function of g, so the residual is cubic and halving g divides
        # it by 8.
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        coarse = linear_response_report(ctx, obs, PHI0, 0.02).abs_error
        fine = linear_response_report(ctx, obs, PHI0, 0.01).abs_error
        assert 8.0 / 1.5 <= coarse / fine <= 8.0 * 1.5

    def test_purely_imaginary_weak_value_keeps_mean_still(self):
        ctx = qubit_context([1.0, 0.0], [1.0 / math.sqrt(2), 1.0j / math.sqrt(2)])
        obs = make_observable(SIGMA_X, ("spin",))
        assert weak_value(ctx, obs) == pytest.approx(-1.0j, abs=1e-14)
        gs = np.geomspace(0.005, 0.04, 4)
        errors = [linear_response_report(ctx, obs, PHI0, g).abs_error for g in gs]
        assert fit_exponent(gs, errors) >= 2.0

    def test_perturbed_probability_deviates_quadratically(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        p0 = abs(inner(ctx.chi_f, ctx.psi_i)) ** 2
        gs = np.geomspace(0.002, 0.02, 5)
        deltas = [
            abs(couple_and_postselect(ctx, obs, PHI0, g).postselect_prob_coupled - p0)
            for g in gs
        ]
        assert fit_exponent(gs, deltas) == pytest.approx(2.0, abs=0.05)


class TestExpectationDecomposition:
    def test_basis_equal_observable_is_exact(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 4)
        a = random_hermitian(rng, 4)
        assert sum_rule_gap(psi, a, a)[1] <= 1e-12

    def test_identity_observable_sums_to_one(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 2)
        lhs, gap = sum_rule_gap(psi, np.eye(2), random_hermitian(rng, 2))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert gap <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_triples(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(100):
            psi = random_state(rng, dim)
            a = random_hermitian(rng, dim)
            assert sum_rule_gap(psi, a, random_hermitian(rng, dim))[1] <= 1e-10


class TestValidityMargin:
    def test_zero_coupling_has_zero_margin(self):
        ctx, obs = build_context("qcc-pi-I")
        report = validity_margin(ctx, obs, PHI0, 0.0)
        assert report.margin == 0.0
        assert report.second_order == 0.0
        assert report.dominance_ratio == 0.0

    def test_unit_weak_value_margin(self):
        ctx, obs = build_context("qcc-pi-I")
        report = validity_margin(ctx, obs, PHI0, 0.1)
        assert report.margin == pytest.approx(0.05, abs=1e-14)

    def test_linear_error_grows_with_margin(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        gs = np.linspace(0.01, 0.2, 6)
        margins = [validity_margin(ctx, obs, PHI0, g).margin for g in gs]
        errors = [linear_response_report(ctx, obs, PHI0, g).abs_error for g in gs]
        assert all(b > a for a, b in zip(margins, margins[1:]))
        assert all(b > a for a, b in zip(errors, errors[1:]))


def random_spectrum(rng, dim, degenerate=False):
    """The written-out spectrum of a random observable on ``dim`` levels; with
    ``degenerate`` its two lowest eigenvalues are exactly equal."""
    vecs, vals = random_unitary(rng, dim), np.sort(rng.normal(size=dim))
    if degenerate:
        vals[1] = vals[0]
    return Spectrum(((vecs * vals) @ vecs.conj().T).tolist(), vals.tolist(), vecs.T.tolist())


def table_cases():
    """Every named context, the Cheshire Cat ones also with swapped spin labels,
    plus random 2- and 4-level ones, one of them degenerate."""
    named = {name: build_context(name, 3.0) for name in CONTEXT_NAMES}
    cases = [(f"{name}-False", *pair) for name, pair in named.items()]
    cases += [(f"{name}-True", build_prepost(True), obs) for name, (_, obs) in named.items() if name.startswith("qcc-")]
    rng = np.random.default_rng(8)
    for i, dim in enumerate((2, 4, 4)):
        ctx = random_context(rng, dim)
        cases.append((f"random-{dim}-{i}", ctx, make_observable(random_hermitian(rng, dim), ("sys",))))
    cases.append(("random-4-degenerate", random_context(rng, 4), random_spectrum(rng, 4, True).observable(("sys",))))
    return cases


TABLE_CASES = table_cases()


# Zero, signs, subnormal and huge couplings: centers coincide at g = 0 and may overflow their distance.
G_ARRAY = np.array([0.0, -0.0, 0.02, -0.02, 0.3, -1.7, 4.0, 1e-320, 5e-324, 1e100, 1e154, 1e307, -1e307])


class TestBranchTable:
    @pytest.mark.parametrize("name, ctx, obs", TABLE_CASES, ids=[case[0] for case in TABLE_CASES])
    @pytest.mark.parametrize("width", [1e-100, 0.3, 1.0, 3.0, 1e100])
    def test_readout_equals_the_pointer_readouts_bit_for_bit(self, name, ctx, obs, width):
        phi0 = make_gaussian(0.0, width)
        table = branch_table(ctx, obs)
        shifts, probs = table.readout(phi0, G_ARRAY)
        for g, shift, prob in zip(G_ARRAY.tolist(), shifts.tolist(), probs.tolist()):
            # Reference: one branch per eigenvector, merged only by superpose.
            raw = superpose(
                translate(phi0, g * a, inner(ctx.chi_f, vec) * inner(vec, ctx.psi_i))
                for a, vec in zip(obs.eigvals, obs.eigvecs)
            )
            assert table.pointer(phi0, g) == raw
            assert prob == norm_sq(raw)
            assert math.isnan(shift) if prob <= 0.0 else shift == mean_position(raw) - mean_position(phi0)
            # One coupling and an array agree in every bit; float.hex reads every NaN as "nan".
            assert [v.hex() for v in table.readout(phi0, g)] == [shift.hex(), prob.hex()]

    @pytest.mark.parametrize("center", [1e308, -1e308])
    def test_readout_far_out_subtracts_the_prepared_mean(self, center):
        # x_j + x_k overflows here, so the midpoint and mean_position(phi0) halve each center first.
        phi0 = make_gaussian(center, 1.0)
        for _, ctx, obs in TABLE_CASES:
            table = branch_table(ctx, obs)
            for g in (0.0, 0.3, -1.7):
                raw, (shift, prob) = table.pointer(phi0, g), table.readout(phi0, g)
                want = mean_position(raw) - mean_position(phi0) if prob > 0.0 else math.nan
                assert [shift.hex(), prob.hex()] == [want.hex(), norm_sq(raw).hex()]

    @pytest.mark.parametrize("name", ["anomalous", "qcc-sigma-I", "qcc-sigma-II", "path-null"])
    def test_readout_matches_quadrature_over_a_coupling_array(self, name):
        ctx, obs = build_context(name, tan_theta=3.0)
        gs = np.linspace(-1.5, 2.5, 9)
        shifts, probs = branch_table(ctx, obs).readout(make_gaussian(0.0, 0.7), gs)
        want_shifts, want_probs = quadrature_readout(
            ctx.psi_i.amps, ctx.chi_f.amps, obs.op.entries, gs, 0.7
        )
        assert np.max(np.abs(probs - want_probs)) <= 1e-10
        assert np.max(np.abs(shifts - want_shifts)) <= 1e-9

    def test_validity_over_an_array_equals_single_runs(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        table = branch_table(ctx, obs)
        gs = np.array([0.0, -0.3, 0.05, 2.0])
        report = table.validity(PHI0, gs)
        for i, g in enumerate(gs.tolist()):
            single = validity_margin(ctx, obs, PHI0, g)
            assert (report.margin[i], report.second_order[i], report.dominance_ratio[i]) == (
                single.margin, single.second_order, single.dominance_ratio
            )
            assert table.margin(PHI0, g) == single.margin

    def test_overflowing_second_order_names_the_coupling(self):
        table = branch_table(*build_context("anomalous"))
        with pytest.raises(OverflowError, match=r"validity second order overflows: \|g\|\*\*2 at \|g\|=2e\+200"):
            table.validity(PHI0, np.array([0.1, -2e200, 3e200]))

    def test_degenerate_branches_are_merged_and_empty_ones_dropped(self):
        table = branch_table(*build_context("qcc-sigma-II"))
        assert table.eigvals == (-1.0, 0.0, 1.0)
        assert len(table.coeffs) == 3
        table = branch_table(*build_context("qcc-pi-I"))
        assert table.eigvals == (1.0,)

    @pytest.mark.parametrize("g", [np.zeros((2, 2)), [[0.0, 0.1], [0.2, 0.3]]], ids=["array", "nested-list"])
    def test_a_coupling_array_of_two_dimensions_names_its_shape(self, g):
        with pytest.raises(ValidationError, match=r"^couplings must be one number or a 1-D array, got shape \(2, 2\)$"):
            arm_table("I", "projector").readout(PHI0, g)

    def test_readout_needs_a_freshly_prepared_pointer(self):
        table = branch_table(*build_context("anomalous"))
        for phi0 in (translate(PHI0, 0.0, 2.0), superpose([PHI0, translate(PHI0, 1.0)])):
            with pytest.raises(ValidationError):
                table.readout(phi0, 0.1)


ARM_OBSERVABLES = list(itertools.product(ARMS, OBSERVABLE_TAGS))


def arm_matrix(arm, tag):
    """|arm><arm| (x) 1 or |arm><arm| (x) sigma_x on path (x) spin, as a dense matrix."""
    return np.kron(np.diag([arm == "I", arm == "II"]), SIGMA_X if tag == "sigma_x" else np.eye(2))


class TestWrittenOutData:
    @pytest.mark.parametrize("name", ["sigma_x", "path-projector", *(" ".join(k) for k in ARM_OBSERVABLES)])
    def test_spectrum_equals_eigh_bit_for_bit(self, name):
        if name == "sigma_x":
            spectrum, matrix = SIGMA_X_SPECTRUM, SIGMA_X
        elif name == "path-projector":
            spectrum, matrix = PROJECTOR_SPECTRUM, np.diag([1.0, 0.0])
        else:
            arm, tag = name.split()
            spectrum, matrix = arm_spectrum(arm, tag), arm_matrix(arm, tag)
        matrix = np.asarray(matrix, dtype=complex)
        vals, vecs = np.linalg.eigh(matrix)
        assert np.asarray(spectrum.rows, dtype=complex).tobytes() == matrix.tobytes()
        assert np.asarray(spectrum.eigvals, dtype=float).tobytes() == vals.tobytes()
        assert np.asarray(spectrum.eigvecs, dtype=complex).T.tobytes() == vecs.tobytes()

    def test_tables_from_data_equal_branch_tables_bit_for_bit(self):
        rng = random.Random(1703)
        tans = [rng.uniform(-10.0, 10.0) for _ in range(1000)] + [0.0, -0.0, 5e-324, 1e-300, 1e200, -1e308]
        cases = [(name, 3.0) for name in CONTEXT_NAMES] + [("anomalous", t) for t in tans]
        for name, tan_theta in cases:
            assert repr(context_table(name, tan_theta)) == repr(branch_table(*build_context(name, tan_theta)))
        for (arm, tag), swap in itertools.product(ARM_OBSERVABLES, (False, True)):
            expected = branch_table(build_prepost(swap), arm_observable(arm, tag))
            assert repr(arm_table(arm, tag, swap)) == repr(expected)


_H = 1.0 / math.sqrt(2.0)
# Over |I,+z>, |I,-z>, |II,+z>, |II,-z>: pre (|I> + |II>)|+z>, post |I>|+z> + |II>|-z>, or with spins swapped.
QCC_PSI = (_H, 0.0, _H, 0.0)
QCC_CHI = {False: (_H, 0.0, 0.0, _H), True: (0.0, _H, _H, 0.0)}


def dense_context(name, tan_theta):
    """(psi, chi, matrix) of a named context, written out from its definition."""
    if name.startswith("qcc-"):
        _, short, arm = name.split("-")
        return QCC_PSI, QCC_CHI[False], arm_matrix(arm, "projector" if short == "pi" else "sigma_x")
    theta = math.atan(tan_theta)
    return {
        "spin-trivial": ((1.0, 0.0), (1.0, 0.0), SIGMA_X),
        "path-null": ((_H, _H), (0.0, 1.0), np.diag([1.0, 0.0])),
        "orthogonal": ((1.0, 0.0), (0.0, 1.0), SIGMA_X),
        "anomalous": ((1.0, 0.0), (math.cos(theta), math.sin(theta)), SIGMA_X),
    }[name]


def assert_table_matches_oracle(table, psi, chi, matrix):
    """Every branch of ``table`` is one oracle branch within 1e-12, the oracle branches
    it lacks are 0 within 1e-12, and so are the gaps of the three matrix elements."""
    branches, overlap, transition, transition_sq = branch_oracle(psi, chi, matrix)
    for got, want in ((table.overlap, overlap), (table.transition, transition), (table.transition_sq, transition_sq)):
        assert abs(got - want) <= 1e-12
    assert len(set(table.eigvals)) == len(table.eigvals)
    for a, c in zip(table.eigvals, table.coeffs):
        (match,) = [branch for branch in branches if abs(branch[0] - a) <= 1e-9]
        assert abs(match[0] - a) <= 1e-12 and abs(match[1] - c) <= 1e-12
        branches.remove(match)
    assert all(abs(c) <= 1e-12 for _, c in branches)


class TestReduceTableAgainstDenseOracle:
    @pytest.mark.parametrize(
        "name, tan_theta",
        [(name, 3.0) for name in CONTEXT_NAMES] + [("anomalous", t) for t in (0.0, -12.3, 49.7, 1e-300, 1e11)],
    )
    def test_named_contexts(self, name, tan_theta):
        assert_table_matches_oracle(context_table(name, tan_theta), *dense_context(name, tan_theta))

    @pytest.mark.parametrize("arm, tag", ARM_OBSERVABLES)
    @pytest.mark.parametrize("swap", [False, True])
    def test_arm_tables(self, arm, tag, swap):
        assert_table_matches_oracle(arm_table(arm, tag, swap), QCC_PSI, QCC_CHI[swap], arm_matrix(arm, tag))

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_random_tables(self, dim, degenerate):
        rng = np.random.default_rng(1703 + dim)
        for _ in range(50):
            psi, chi = random_state(rng, dim), random_state(rng, dim)
            spectrum = random_spectrum(rng, dim, degenerate)
            table = reduce_table(psi.tolist(), chi.tolist(), spectrum)
            assert len(table.eigvals) == dim - degenerate
            assert_table_matches_oracle(table, psi, chi, spectrum.rows)
