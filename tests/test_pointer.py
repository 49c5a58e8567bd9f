"""Gaussian pointer closed forms against quadrature and grid sampling."""

import cmath
import math
import re

import numpy as np
import pytest

from qccsim.errors import CapacityError, NumericalError, ValidationError
from qccsim.pointer import (
    GaussianComponent,
    GaussianPointerState,
    component_overlap,
    density,
    evaluate,
    make_gaussian,
    mean_position,
    midpoint,
    moments,
    norm_sq,
    overlap,
    superpose,
    support,
    to_grid,
    translate,
)

from oracles import (
    component_position_element,
    gaussian_amplitude,
    pair_sum,
    quadrature_grid,
    quadrature_mean_position,
    quadrature_norm_sq,
)


def two_component(coeffs, centers, width=1.0):
    return GaussianPointerState(width, tuple(GaussianComponent(a, c) for a, c in zip(coeffs, centers)))


class TestMakeGaussian:
    def test_symmetric_mean(self):
        assert mean_position(make_gaussian(0.0, 1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_translated_mean(self):
        assert mean_position(make_gaussian(2.5, 1.0)) == pytest.approx(2.5, abs=1e-14)

    def test_unit_norm(self):
        assert norm_sq(make_gaussian(0.3, 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValidationError):
            make_gaussian(0.0, 0.0)
        with pytest.raises(ValidationError):
            make_gaussian(0.0, -1.0)

    @pytest.mark.parametrize("component", [(math.inf, 0.0), (1.0, math.nan), (complex(0.0, -math.inf), 1.0)])
    def test_rejects_non_finite_component(self, component):
        with pytest.raises(ValidationError, match="^Gaussian component fields must be finite$"):
            GaussianPointerState(1.0, [component])

    @pytest.mark.parametrize("width, error", [(1e154, OverflowError), (1e-170, ZeroDivisionError)])
    def test_width_beyond_float_range_names_the_width(self, width, error):
        with pytest.raises(error) as exc:
            make_gaussian(0.0, width)
        assert str(exc.value).endswith(f": 8*pointer_width**2 at pointer_width={width!r}")


class TestTranslate:
    def test_identity(self):
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        assert translate(p, 0.0, 1.0) == p

    def test_rigid_shift_moves_mean(self):
        p = make_gaussian(0.0, 1.0)
        shift = 0.05 * 2.0
        assert mean_position(translate(p, shift)) == pytest.approx(shift, abs=1e-14)

    def test_superposition_mean_matches_quadrature(self):
        p = superpose([translate(make_gaussian(0.0, 1.0), 0.0, 0.7),
                       translate(make_gaussian(0.0, 1.0), 0.4, 0.3j)])
        oracle = quadrature_mean_position((0.7, 0.3j), (0.0, 0.4), 1.0)
        assert mean_position(p) == pytest.approx(oracle, abs=1e-10)

    def test_additive_composition_is_exact(self):
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        assert translate(translate(p, 0.125), 0.375) == translate(p, 0.5)

    def test_unimodular_coeff_preserves_norm(self):
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        q = translate(p, 1.2, complex(math.cos(0.4), math.sin(0.4)))
        assert norm_sq(q) == pytest.approx(norm_sq(p), abs=1e-12)

    def test_mean_shifts_by_translation(self):
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        assert mean_position(translate(p, 0.9)) == pytest.approx(
            mean_position(p) + 0.9, abs=1e-12
        )


class TestMeanPosition:
    def test_single_component_at_center(self):
        assert mean_position(make_gaussian(-1.7, 0.5)) == pytest.approx(-1.7, abs=1e-14)

    def test_equal_weights_at_opposite_centers(self):
        p = two_component((0.5, 0.5), (-0.8, 0.8))
        assert mean_position(p) == pytest.approx(0.0, abs=1e-14)

    def test_complex_superposition_matches_quadrature(self):
        # Cross terms are imaginary-coefficient times real element here,
        # so the exact value is 0.64*0 + 0.36*0.3 = 0.108.
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        oracle = quadrature_mean_position((0.8, 0.6j), (0.0, 0.3), 1.0)
        value = mean_position(p)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(0.108, abs=1e-13)

    def test_zero_norm_rejected(self):
        empty = GaussianPointerState(1.0, ())
        with pytest.raises(ValidationError):
            mean_position(empty)

    @pytest.mark.parametrize("center", [1e308, -1e308, 1.7976931348623157e308])
    def test_far_out_center_is_its_own_mean(self, center):
        assert mean_position(make_gaussian(center, 1.0)) == center


class TestMidpoint:
    A = [1e308, -1e308, 1e308, 1.7976931348623157e308, 0.3, 5e-324, -0.0, 1e308]
    B = [1e308, -1e308, -1e308, 1.7976931348623157e308, 0.7, 5e-324, -0.0, 8e307]

    def test_halves_first_only_where_the_sum_overflows(self):
        want = [(a + b) / 2.0 if math.isfinite(a + b) else a / 2.0 + b / 2.0 for a, b in zip(self.A, self.B)]
        assert want[5] == 5e-324 and want[0] == 1e308 and math.copysign(1.0, want[6]) == -1.0
        assert [midpoint(a, b).hex() for a, b in zip(self.A, self.B)] == [w.hex() for w in want]
        with np.errstate(over="ignore"):
            assert [m.hex() for m in midpoint(np.array(self.A), np.array(self.B)).tolist()] == [w.hex() for w in want]


class TestPositionElement:
    def test_cross_element_matches_quadrature(self):
        p_args = ((0.6, 0.8j), (-0.7, 1.1), 1.0)
        q_args = ((1.0 - 0.5j, 0.4), (0.2, 2.0), 1.0)
        xs = quadrature_grid(p_args[1] + q_args[1], 1.0)
        f_p = gaussian_amplitude(xs, *p_args)
        f_q = gaussian_amplitude(xs, *q_args)
        expected = np.trapezoid(f_p.conj() * xs * f_q, xs)
        p, q = two_component(*p_args), two_component(*q_args)
        assert abs(expected) > 0.1
        assert moments(p, q)[1] == pytest.approx(expected, abs=1e-10)
        assert moments(q, p)[1] == pytest.approx(expected.conjugate(), abs=1e-10)


def random_pointer(rng, width):
    """1-4 complex components: centers at mixed scales, the float limits among them, and a
    -0.0 coefficient now and then."""
    n = int(rng.integers(1, 5))
    scales = rng.choice([1e-3, 1.0, 1e3, 1e150], size=n)
    centers = [float(c) for c in rng.normal(size=n) * scales]
    for i in range(n):
        if rng.random() < 0.25:
            centers[i] = float(rng.choice([1e308, -1e308, -0.0]))
    coeffs = [complex(*rng.normal(size=2)) for _ in range(n)]
    if rng.random() < 0.3:
        coeffs[0] = complex(-0.0, float(rng.choice([0.0, -0.0])))
    return GaussianPointerState(width, tuple(zip(coeffs, centers)))


def hexes(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestMoments:
    WIDTHS = [1e-100, 1e-8, 0.3, 1.0, 7.0, 1e8, 1e100]

    @pytest.mark.parametrize("seed", range(40))
    def test_both_sums_are_the_per_pair_sums_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        width = self.WIDTHS[seed % len(self.WIDTHS)]
        for _ in range(10):
            p, q = random_pointer(rng, width), random_pointer(rng, width)
            want = pair_sum(p, q, component_overlap), pair_sum(p, q, component_position_element)
            if not all(map(cmath.isfinite, want)):
                quantity = "<p|q>" if not cmath.isfinite(want[0]) else "<p|x|q>"
                with pytest.raises(OverflowError, match=f"^pointer pair sum overflows: {re.escape(quantity)} is "):
                    moments(p, q)
                if quantity == "<p|x|q>":  # overlap reads <p|q> alone
                    assert hexes(overlap(p, q)) == hexes(want[0])
                continue
            got = moments(p, q)
            assert [hexes(z) for z in got] == [hexes(z) for z in want]
            assert overlap(p, q) == got[0]
            total, position = pair_sum(p, p, component_overlap), pair_sum(p, p, component_position_element)
            if cmath.isfinite(total) and cmath.isfinite(position) and total.real > 0.0:
                assert mean_position(p).hex() == (position.real / max(total.real, 0.0)).hex()

    def test_a_negative_zero_coefficient_keeps_its_signs(self):
        p = GaussianPointerState(1.0, ((complex(-0.0, 0.0), 0.5), (complex(-0.0, -0.0), -0.5)))
        q = make_gaussian(0.0, 1.0)
        for pair in ((p, q), (q, p), (p, p)):
            want = pair_sum(*pair, component_overlap), pair_sum(*pair, component_position_element)
            assert [hexes(z) for z in moments(*pair)] == [hexes(z) for z in want]

    def test_a_norm_beyond_the_float_range_overflows(self):
        # |1e155|^2 = 1e310: at the parent, norm_sq read inf and mean_position nan.
        p = GaussianPointerState(1.0, ((1e155, 0.0),))
        for readout in (norm_sq, mean_position, lambda p: overlap(p, p)):
            with pytest.raises(OverflowError, match=r"^pointer pair sum overflows: <p\|q> is \(inf\+nanj\)$"):
                readout(p)
        with pytest.raises(OverflowError, match=r"^pointer pair sum overflows: <p\|q> is "):
            to_grid(p, -10.0, 10.0, 1024)

    def test_a_position_beyond_the_float_range_overflows(self):
        # <p|p> is 2.25, but <p|x|p> = 2.25 * 1e308 leaves the float range.
        p = GaussianPointerState(1.0, ((1.5, 1e308),))
        assert pair_sum(p, p, component_overlap) == 2.25
        for readout in (mean_position, lambda p: moments(p, p)):
            with pytest.raises(OverflowError, match=r"^pointer pair sum overflows: <p\|x\|q> is \(inf\+0j\)$"):
                readout(p)

    def test_the_norm_is_read_without_the_position(self):
        # <p|x|p> leaves the float range, but overlap and norm_sq read <p|q> alone.
        p = GaussianPointerState(1.0, ((1.5, 1e308),))
        assert norm_sq(p) == 2.25
        assert overlap(p, p) == 2.25
        assert overlap(p, make_gaussian(1e308, 1.0)) == 1.5


class TestClosedFormNorm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        centers = rng.uniform(-1.5, 1.5, size=3)
        width = rng.uniform(0.5, 2.0)
        p = GaussianPointerState(width, tuple(GaussianComponent(a, c) for a, c in zip(coeffs, centers)))
        assert norm_sq(p) == pytest.approx(quadrature_norm_sq(coeffs, centers, width), rel=1e-10)

    def test_overlap_hermitian(self):
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        q = two_component((0.5, -0.2j), (0.1, -0.6))
        assert overlap(p, q) == pytest.approx(overlap(q, p).conjugate(), abs=1e-14)

    def test_mixed_widths_rejected(self):
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.0, 2.0)
        with pytest.raises(ValidationError):
            overlap(p, q)
        with pytest.raises(ValidationError):
            superpose([p, q])


class TestSuperpose:
    def test_merges_identical_centers(self):
        p = make_gaussian(0.0, 1.0)
        out = superpose([translate(p, 0.0, 0.25), translate(p, 0.0, 0.25)])
        assert len(out.components) == 1
        assert out.components[0].coeff == 0.5

    def test_empty_sum_rejected(self):
        with pytest.raises(ValidationError):
            superpose([])

    def test_distinct_centers_kept(self):
        p = make_gaussian(0.0, 1.0)
        out = superpose([translate(p, 0.0, 0.5), translate(p, 0.3, 0.5)])
        assert len(out.components) == 2


def trapezoid_norm_sq(grid) -> float:
    """The trapezoidal norm of a ``to_grid`` result, as its grid-norm check integrates it."""
    xs, _, dens = grid
    return float(np.trapezoid(dens, xs))


class TestToGrid:
    def test_standard_gaussian_norm(self):
        grid = to_grid(make_gaussian(0.0, 1.0), -8.0, 8.0, 1024)
        assert trapezoid_norm_sq(grid) == pytest.approx(1.0, abs=1e-6)

    def test_argmax_bin_near_center(self):
        xs, amps, _ = to_grid(make_gaussian(1.3, 1.0), -12.0, 12.0, 2048)
        peak_x = xs[int(np.argmax(np.abs(amps)))]
        assert abs(peak_x - 1.3) <= xs[1] - xs[0]

    def test_superposition_density_matches_closed_form(self):
        p = two_component((0.8, 0.6j), (0.0, 0.3))
        xs, amps, _ = to_grid(p, -10.0, 10.0, 1024)
        sample = np.linspace(-2.0, 2.0, 10)
        idx = [int(np.argmin(np.abs(xs - s))) for s in sample]
        dens_grid = (amps.conj() * amps).real[idx]
        f = gaussian_amplitude(xs[idx], (0.8, 0.6j), (0.0, 0.3), 1.0)
        np.testing.assert_allclose(dens_grid, (f.conj() * f).real, atol=1e-10)
        np.testing.assert_allclose(dens_grid, density(p, xs[idx]), atol=1e-12)

    def test_domain_must_cover_eight_widths(self):
        with pytest.raises(ValidationError):
            to_grid(make_gaussian(0.0, 1.0), -7.5, 8.0, 1024)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            to_grid(make_gaussian(0.0, 1.0), -8.0, 8.0, 2**21)

    def test_domain_without_finite_width_is_rejected_before_sampling(self):
        with pytest.raises(ValidationError, match="no finite width"):
            to_grid(make_gaussian(0.0, 1.0), -1e308, 1e308, 1024)

    def test_far_tails_sample_to_zero_without_warnings(self):
        # dx^2 overflows at |x| ~ 1e307; the amplitude there is exactly 0.
        with np.errstate(all="raise"):
            amps = evaluate(make_gaussian(0.0, 1.0), np.array([-1e307, 1e307]))
        assert not np.any(amps)

    @pytest.mark.parametrize("center", [1e17, 1e150])
    def test_support_beyond_float_resolution_is_a_numerical_error(self, center):
        with pytest.raises(NumericalError, match="does not resolve the pointer width"):
            support(make_gaussian(center, 1.0))

    def test_support_at_float_resolution_is_kept(self):
        # Floats near 8e15 are 1 apart: a width-1 pointer still samples to its closed-form norm.
        p = make_gaussian(8e15, 1.0)
        assert trapezoid_norm_sq(to_grid(p, *support(p), 1024)) == pytest.approx(1.0, abs=1e-6)

    def test_an_empty_pointer_is_not_sampled(self):
        with pytest.raises(ValidationError, match="^cannot grid-sample an empty pointer state$"):
            to_grid(GaussianPointerState(1.0, ()), -8.0, 8.0, 1024)

    def test_boundary_guard_rejects_wrapped_domain(self):
        # A domain barely covering +-8 widths passes at 1024 points; at two points the
        # grid is only its ends, whose density is its peak, and the guard trips.
        message = r"^boundary density 5\.052e-15 exceeds 1e-08 of peak 5\.052e-15$"
        with pytest.raises(ValidationError, match=message):
            to_grid(make_gaussian(0.0, 1.0), -8.0, 8.0, 2)

    def test_trapezoid_norm_tracks_closed_form(self):
        p = two_component((0.7, 0.55j), (-0.4, 0.9), 0.8)
        grid = to_grid(p, -9.0, 9.0, 512)
        assert trapezoid_norm_sq(grid) == pytest.approx(norm_sq(p), abs=1e-6)
