"""Weak values, exact pointer coupling, and the linear-response law."""

import itertools
import math
import re

import numpy as np
import pytest

from qccsim.cli import CONTEXT_NAMES, PROJECTOR_SPECTRUM, SIGMA_X_SPECTRUM, build_context
from qccsim.errors import DimensionMismatch, OrthogonalPostselection, ValidationError
from qccsim.pointer import GaussianPointerState, make_gaussian, mean_position, norm_sq, superpose, translate
from qccsim.qcc import ARMS, OBSERVABLE_TAGS, SIGMA_X_ROWS, arm_observable, arm_table, build_prepost
from qccsim.weakmeas import (
    BranchTable,
    PrePostContext,
    Spectrum,
    branch_table,
    couple_and_postselect,
    linear_response_report,
    make_observable,
    validity_margin,
    vdot,
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


def random_context(rng, dim):
    return PrePostContext(random_state(rng, dim), random_state(rng, dim))


class TestContext:
    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValidationError, match="psi_i must be normalized"):
            PrePostContext([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError, match="chi_f must be normalized"):
            PrePostContext([1.0, 0.0], [0.0, 2.0])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatch, match=r"^psi_i and chi_f differ in length: 2 and 3$"):
            PrePostContext([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_observable_must_act_on_the_context_dimension(self):
        ctx, _ = build_context("qcc-pi-I")
        obs = make_observable(np.diag([1.0, 0.0]))
        message = r"^observable has 2 rows for a 4-level context$"
        with pytest.raises(DimensionMismatch, match=message):
            weak_value(ctx, obs)
        with pytest.raises(DimensionMismatch, match=message):
            couple_and_postselect(ctx, obs, PHI0, 0.05)

    def test_amplitudes_are_kept_as_python_complex_numbers(self):
        ctx = PrePostContext(np.array([1.0, 0.0]), [0.6, 0.8j])
        assert ctx.psi_i == (1 + 0j, 0j) and ctx.chi_f == (0.6 + 0j, 0.8j)
        assert all(type(x) is complex for x in ctx.psi_i + ctx.chi_f)


_H = 1.0 / math.sqrt(2.0)
SIGMA_X_PAIRS = ((-_H, _H), (_H, _H))

# Each check a context or an observable runs, with the exact message it raises: the
# messages the labeled PrePostContext, make_observable and Observable raised for these inputs.
CHECKS = {
    "psi-unnormalized": (lambda: PrePostContext((1.0, 1.0), (1.0, 0.0)),
                         ValidationError, "psi_i must be normalized, norm 1.4142135623730951"),
    "chi-unnormalized": (lambda: PrePostContext((1.0, 0.0), (0.0, 2.0)),
                         ValidationError, "chi_f must be normalized, norm 2.0"),
    "psi-nan": (lambda: PrePostContext((math.nan, 0.0), (1.0, 0.0)),
                ValidationError, "amplitude vector contains non-finite entries"),
    "chi-inf": (lambda: PrePostContext((1.0, 0.0), (complex(0.0, math.inf), 1.0)),
                ValidationError, "amplitude vector contains non-finite entries"),
    "matrix-nan": (lambda: make_observable([[math.nan, 0.0], [0.0, 1.0]]),
                   ValidationError, "operator matrix contains non-finite entries"),
    "matrix-2x3": (lambda: make_observable([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                   DimensionMismatch, "operator matrix has shape (2, 3), expected (2, 2)"),
    "matrix-1d": (lambda: make_observable([1.0, 0.0]),
                  DimensionMismatch, "operator matrix has shape (2,), expected (2, 2)"),
    "non-hermitian": (lambda: make_observable([[0.0, 1.0], [0.0, 0.0]]),
                      ValidationError, "hermitian defect 1.000e+00 exceeds 1e-12"),
    "complex-non-hermitian": (lambda: make_observable([[1.0, 1j], [1j, 0.0]]),
                              ValidationError, "hermitian defect 2.000e+00 exceeds 1e-12"),
    "spectrum-rows-inf": (lambda: Spectrum(((math.inf, 0.0), (0.0, 1.0)), (0.0, 1.0), ((1.0, 0.0), (0.0, 1.0))),
                          ValidationError, "operator matrix contains non-finite entries"),
    "spectrum-non-hermitian": (lambda: Spectrum(((0.0, 2.0), (0.0, 0.0)), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))),
                               ValidationError, "hermitian defect 2.000e+00 exceeds 1e-12"),
    "one-eigenvalue": (lambda: Spectrum(SIGMA_X_ROWS, (-1.0,), SIGMA_X_PAIRS),
                       ValidationError, "need 2 eigenpairs, got 1/2"),
    "one-eigenvector": (lambda: Spectrum(SIGMA_X_ROWS, (-1.0, 1.0), SIGMA_X_PAIRS[:1]),
                        ValidationError, "need 2 eigenpairs, got 2/1"),
    "eigenvector-length": (lambda: Spectrum(SIGMA_X_ROWS, (-1.0, 1.0), ((-_H, _H, 0.0), (_H, _H, 0.0))),
                           DimensionMismatch, "amplitude vector has length 3, expected 2"),
    "eigenvector-nan": (lambda: Spectrum(SIGMA_X_ROWS, (-1.0, 1.0), ((-_H, math.nan), (_H, _H))),
                        ValidationError, "amplitude vector contains non-finite entries"),
    "residual": (lambda: Spectrum(SIGMA_X_ROWS, (1.0, -1.0), SIGMA_X_PAIRS),
                 ValidationError, "eigenpair 0 residual exceeds 1e-10"),
    "residual-second": (lambda: Spectrum(SIGMA_X_ROWS, (-1.0, 1.0 + 1e-9), SIGMA_X_PAIRS),
                        ValidationError, "eigenpair 1 residual exceeds 1e-10"),
    "not-orthogonal": (lambda: Spectrum(((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0), ((1.0, 0.0), (1.0, 0.0))),
                       ValidationError, "eigenvectors are not orthonormal"),
    "not-normalized": (lambda: Spectrum(((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0), ((2.0, 0.0), (0.0, 1.0))),
                       ValidationError, "eigenvectors are not orthonormal"),
}


class TestObservable:
    @pytest.mark.parametrize("name", CHECKS)
    def test_each_check_keeps_its_message(self, name):
        build, error, message = CHECKS[name]
        with pytest.raises(error) as caught:
            build()
        assert (type(caught.value), str(caught.value)) == (error, message)

    @pytest.mark.parametrize(
        "rows, eigvals, eigvecs, message",
        [
            (SIGMA_X_ROWS, (math.nan, 1.0), SIGMA_X_PAIRS, "eigenvalue 0 must be finite, got nan"),
            # A v overflows and the residual inf - inf is NaN; the table's weak value was inf+nanj.
            (((1.5e308,) * 2,) * 2, (0.0, math.inf), ((_H, -_H), (_H, _H)), "eigenvalue 1 must be finite, got inf"),
        ],
        ids=["nan", "inf"],
    )
    def test_a_non_finite_eigenvalue_is_rejected(self, rows, eigvals, eigvecs, message):
        with pytest.raises(ValidationError) as caught:
            Spectrum(rows, eigvals, eigvecs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("matrix", [[], 5.0], ids=["empty", "scalar"])
    def test_a_matrix_without_rows_names_its_shape(self, matrix):
        with pytest.raises(DimensionMismatch, match=r"^operator matrix has shape \((0|1),\), expected"):
            make_observable(matrix)

    def test_rejects_non_hermitian_matrix(self):
        with pytest.raises(ValidationError, match="hermitian defect"):
            make_observable([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("side", [3, 6, 8])
    def test_any_square_hermitian_matrix_is_an_observable(self, side):
        rng = np.random.default_rng(side)
        ctx, matrix = random_context(rng, side), random_hermitian(rng, side)
        obs = make_observable(matrix)
        assert np.asarray(obs.rows).tobytes() == matrix.astype(complex).tobytes()
        dense = np.vdot(ctx.chi_f, matrix @ np.array(ctx.psi_i)) / np.vdot(ctx.chi_f, ctx.psi_i)
        assert weak_value(ctx, obs) == pytest.approx(dense, abs=1e-12)

    def test_written_out_spectra_are_python_numbers(self):
        obs = make_observable(SIGMA_X)
        assert obs == Spectrum(SIGMA_X_ROWS, (-1.0, 1.0), SIGMA_X_PAIRS)
        assert all(type(x) is complex for row in obs.rows + obs.eigvecs for x in row)
        assert all(type(a) is float for a in obs.eigvals)


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
            combined = weak_value(ctx, make_observable(alpha * a + beta * b))
            separate = alpha * weak_value(ctx, make_observable(a)) + beta * weak_value(ctx, make_observable(b))
            assert combined == pytest.approx(separate, abs=1e-12)

    def test_anomalous_weak_value_is_tan_theta_at_large_tan_theta(self):
        ctx, obs = build_context("anomalous", tan_theta=1e11)
        assert weak_value(ctx, obs).real == pytest.approx(1e11, rel=1e-12)


class TestTransitionElement:
    def test_identity_observable_gives_overlap(self):
        ctx, _ = build_context("anomalous", tan_theta=3.0)
        obs = make_observable(np.eye(2))
        expected = vdot(ctx.chi_f, ctx.psi_i)
        assert branch_table(ctx, obs).transition == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dense_bra_ket_product(self, seed):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, 4)
        matrix = random_hermitian(rng, 4)
        obs = make_observable(matrix)
        dense = np.vdot(ctx.chi_f, matrix @ np.array(ctx.psi_i))
        assert branch_table(ctx, obs).transition == pytest.approx(dense, abs=1e-12)

    def test_weak_value_times_overlap_recovers_transition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ctx = random_context(rng, 4)
            obs = make_observable(random_hermitian(rng, 4))
            den = vdot(ctx.chi_f, ctx.psi_i)
            assert weak_value(ctx, obs) * den == pytest.approx(
                branch_table(ctx, obs).transition, abs=1e-12
            )


class TestCoupleAndPostselect:
    def test_zero_coupling_leaves_scaled_initial_pointer(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        result = couple_and_postselect(ctx, obs, PHI0, 0.0)
        den = vdot(ctx.chi_f, ctx.psi_i)
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
        ctx = PrePostContext([1.0, 0.0], [math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)])
        obs = make_observable(SIGMA_X)
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
        obs = make_observable(np.eye(2))
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
        ctx = PrePostContext([1.0, 0.0], [1.0 / math.sqrt(2), 1.0j / math.sqrt(2)])
        obs = make_observable(SIGMA_X)
        assert weak_value(ctx, obs) == pytest.approx(-1.0j, abs=1e-14)
        gs = np.geomspace(0.005, 0.04, 4)
        errors = [linear_response_report(ctx, obs, PHI0, g).abs_error for g in gs]
        assert fit_exponent(gs, errors) >= 2.0

    def test_perturbed_probability_deviates_quadratically(self):
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        p0 = abs(vdot(ctx.chi_f, ctx.psi_i)) ** 2
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

    def test_non_finite_coupling_has_no_validity_report(self):
        # At the parent this returned margin=nan and dominance_ratio=0.0.
        with pytest.raises(ValidationError, match=r"^coupling strength must be finite, got nan$"):
            validity_margin(*build_context("anomalous"), PHI0, math.nan)

    @pytest.mark.parametrize("g", [math.inf, -math.inf, np.array([0.1, math.inf])])
    def test_non_finite_coupling_has_no_margin(self, g):
        # At the parent a margin at an infinite coupling was nan.
        bad = float(np.ravel(g)[-1])
        table = arm_table("I", "sigma_x")
        for check in (table.margin, table.validity):
            with pytest.raises(ValidationError, match=rf"^coupling strength must be finite, got {bad!r}$"):
                check(PHI0, g)

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
        cases.append((f"random-{dim}-{i}", ctx, make_observable(random_hermitian(rng, dim))))
    cases.append(("random-4-degenerate", random_context(rng, 4), random_spectrum(rng, 4, True)))
    return cases


TABLE_CASES = table_cases()


# Zero, signs, subnormal and huge couplings: centers coincide at g = 0 and may overflow their distance.
G_ARRAY = np.array([0.0, -0.0, 0.02, -0.02, 0.3, -1.7, 4.0, 1e-320, 5e-324, 1e100, 1e154, 1e307, -1e307])


class TestBranchTable:
    def test_a_non_finite_coupling_has_no_readout(self):
        with pytest.raises(ValidationError, match=r"^coupling strength must be finite, got inf$"):
            arm_table("I", "projector").readout(PHI0, math.inf)

    def test_a_branch_center_beyond_the_float_range_is_rejected(self):
        # g = 1e308 is finite, but the one branch, at eigenvalue 2, sits at 2e308.
        spectrum = Spectrum(((2, 0), (0, -2)), (-2, 2), ((0, 1), (1, 0)))
        table = branch_table(PrePostContext([1.0, 0.0], [0.6, 0.8]), spectrum)
        assert table.eigvals == (2.0,)
        with pytest.raises(ValidationError, match=r"^branch center x_0 \+ g a_k must be finite, got inf$"):
            table.readout(PHI0, 1e308)

    def test_a_zero_probability_run_has_no_linear_response(self):
        table = arm_table("I", "projector")
        blank = table.couple(PHI0, 0.1)._replace(postselect_prob_coupled=0.0)
        with pytest.raises(ValidationError, match="^mean_position undefined for a zero-norm pointer state$"):
            table.linear_response(blank)

    @pytest.mark.parametrize("tan_theta, g", [(3.0, 1e308), (1e4, 5e307)])
    def test_a_prediction_beyond_the_float_range_overflows(self, tan_theta, g):
        # The exact shift is finite, but g Re(A^w) is not.
        with pytest.raises(OverflowError, match=f"^linear response overflows: predicted_shift at g={re.escape(repr(g))}$"):
            linear_response_report(*build_context("anomalous", tan_theta), PHI0, g)

    def test_an_error_beyond_the_float_range_overflows(self):
        # A^w = -4/3 at a shift of +1.06e308: the prediction is finite, their distance is not.
        table = BranchTable(eigvals=(1.0, 2.0), coeffs=(1.0 + 0j, -0.7 + 0j), overlap=0.3 + 0j,
                            transition=-0.4 + 0j, transition_sq=-1.8 + 0j)
        with pytest.raises(OverflowError, match=r"^linear response overflows: abs_error at g=8e\+307$"):
            table.linear_response(table.couple(PHI0, 8e307))

    @pytest.mark.parametrize("name, ctx, obs", TABLE_CASES, ids=[case[0] for case in TABLE_CASES])
    @pytest.mark.parametrize("width", [1e-100, 0.3, 1.0, 3.0, 1e100])
    def test_readout_equals_the_pointer_readouts_bit_for_bit(self, name, ctx, obs, width):
        phi0 = make_gaussian(0.0, width)
        table = branch_table(ctx, obs)
        shifts, probs = table.readout(phi0, G_ARRAY)
        for g, shift, prob in zip(G_ARRAY.tolist(), shifts.tolist(), probs.tolist()):
            # Reference: one branch per eigenvector, merged only by superpose.
            raw = superpose(
                translate(phi0, g * a, vdot(ctx.chi_f, vec) * vdot(vec, ctx.psi_i))
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
            np.array(ctx.psi_i), np.array(ctx.chi_f), np.array(obs.rows), gs, 0.7
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

    @pytest.mark.parametrize("width, g", [(0.01, 1e153), (1e-100, 1e60), (0.01, np.array([0.1, 1e153, 2e153]))],
                             ids=["one-coupling", "narrowest-width", "array"])
    def test_overflowing_second_order_product_names_g_and_the_width(self, width, g):
        # At the parent |g|**2 and the width quotient were finite, their product inf: a null in the record.
        first = float(np.ravel(g)[np.ravel(g) > 1.0][0])
        message = ("validity second order overflows: |g|**2/2*|(A^2)^w|*sqrt(3)/(4*pointer_width**2) "
                   f"at g={first!r}, pointer_width={width!r}")
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            branch_table(*build_context("anomalous")).validity(make_gaussian(0.0, width), g)

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

    def test_a_table_with_no_branches_couples_to_nothing(self):
        # chi = |1> is orthogonal to every branch of |0><0| on psi = |0>: no amplitude survives.
        table = branch_table(PrePostContext((1.0, 0.0), (0.0, 1.0)), PROJECTOR_SPECTRUM)
        assert (table.eigvals, table.coeffs, table.overlap, table.transition) == ((), (), 0j, 0j)
        assert table.pointer(PHI0, 0.1) == GaussianPointerState(1.0, ())
        result = table.couple(PHI0, 0.1)
        assert (result.weak_value, result.postselect_prob_coupled) == (None, 0.0)
        assert math.isnan(result.exact_shift)

    def test_unknown_context_rejected(self):
        with pytest.raises(ValidationError, match="^unknown context 'nope'; choose from "):
            build_context("nope")

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
            spectrum, matrix = arm_observable(arm, tag), arm_matrix(arm, tag)
        matrix = np.asarray(matrix, dtype=complex)
        vals, vecs = np.linalg.eigh(matrix)
        assert np.asarray(spectrum.rows, dtype=complex).tobytes() == matrix.tobytes()
        assert np.asarray(spectrum.eigvals, dtype=float).tobytes() == vals.tobytes()
        assert np.asarray(spectrum.eigvecs, dtype=complex).T.tobytes() == vecs.tobytes()

    def test_tables_from_data_equal_branch_tables_bit_for_bit(self):
        for (arm, tag), swap in itertools.product(ARM_OBSERVABLES, (False, True)):
            expected = branch_table(build_prepost(swap), arm_observable(arm, tag))
            assert repr(arm_table(arm, tag, swap)) == repr(expected)


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
        assert_table_matches_oracle(branch_table(*build_context(name, tan_theta)), *dense_context(name, tan_theta))

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
            table = branch_table(PrePostContext(psi.tolist(), chi.tolist()), spectrum)
            assert len(table.eigvals) == dim - degenerate
            assert_table_matches_oracle(table, psi, chi, spectrum.rows)
