"""Labeled tensor-product linear algebra against brute-force oracles."""

import math

import numpy as np
import pytest

from qccsim.errors import CapacityError, DimensionMismatch, ValidationError
from qccsim.qstate import (
    Operator,
    StateVector,
    apply,
    inner,
    partial_project,
    tensor,
)

from oracles import (
    SIGMA_X,
    inner_sum_oracle,
    kron_oracle,
    random_state,
    random_unitary,
)

KET_PLUS_Z = [1.0, 0.0]
KET_MINUS_Z = [0.0, 1.0]


def spin(amps, label="spin"):
    return StateVector((2,), (label,), amps)


class TestStateVector:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateVector((2, 2), ("a", "b"), [1.0, 0.0])
        with pytest.raises(ValidationError, match=r"^subsystem dimensions must be >= 1, got \(0,\)$"):
            StateVector((0,), ("a",), [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            spin([float("nan"), 0.0])
        with pytest.raises(ValidationError):
            spin([complex(0, float("inf")), 0.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            StateVector((2, 2), ("a", "a"), [1, 0, 0, 0])
        with pytest.raises(ValidationError, match="^2 labels for 1 subsystems$"):
            StateVector((2,), ("a", "b"), [1, 0])

    def test_amps_read_only(self):
        s = spin(KET_PLUS_Z)
        with pytest.raises(ValueError):
            s.amps[0] = 5.0


class TestOperator:
    def test_square_shape_required(self):
        with pytest.raises(DimensionMismatch):
            Operator((2,), np.ones((2, 3)))


class TestTensor:
    def test_basis_kets(self):
        out = tensor(spin(KET_PLUS_Z, "a"), spin(KET_MINUS_Z, "b"))
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.amps, [0, 1, 0, 0])

    def test_norm_multiplicative(self):
        a = spin([0.6, 0.8j], "a")
        b = spin([1.0, 0.0], "b")
        assert math.isclose(tensor(a, b).norm, a.norm * b.norm, rel_tol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = StateVector((2,), ("a",), random_state(rng, 2))
        b = StateVector((3,), ("b",), random_state(rng, 3))
        np.testing.assert_allclose(tensor(a, b).amps, kron_oracle(a.amps, b.amps), atol=1e-15)

    def test_duplicate_labels_rejected(self):
        a = spin(KET_PLUS_Z, "x")
        with pytest.raises(ValidationError):
            tensor(a, spin(KET_MINUS_Z, "x"))

    def test_capacity_limit(self):
        big = StateVector((2**12,), ("a",), np.ones(2**12) / 2**6)
        other = StateVector((2**12,), ("b",), np.ones(2**12) / 2**6)
        with pytest.raises(CapacityError):
            tensor(big, other)


class TestApply:
    def test_identity_returns_same_amplitudes(self):
        rng = np.random.default_rng(5)
        s = StateVector((2, 3), ("a", "b"), random_state(rng, 6))
        out = apply(Operator((2, 3), np.eye(6)), s)
        np.testing.assert_array_equal(out.amps, s.amps)

    def test_sigma_x_flips_spin(self):
        op = Operator((2,), SIGMA_X)
        out = apply(op, spin(KET_PLUS_Z))
        np.testing.assert_allclose(out.amps, KET_MINUS_Z, atol=1e-15)

    def test_matches_matrix_vector_product(self):
        rng = np.random.default_rng(37)
        s = StateVector((2, 2, 2), ("a", "b", "c"), random_state(rng, 8))
        u = random_unitary(rng, 8)
        out = apply(Operator((2, 2, 2), u), s)
        assert (out.dims, out.labels) == (s.dims, s.labels)
        np.testing.assert_allclose(out.amps, u @ s.amps, atol=1e-12)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(7)
        s = StateVector((2, 2), ("a", "b"), random_state(rng, 4))
        op = Operator((2, 2), random_unitary(rng, 4))
        assert abs(apply(op, s).norm - s.norm) <= 1e-12

    def test_dim_mismatch(self):
        s = StateVector((3,), ("a",), [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            apply(Operator((2,), np.eye(2)), s)

    def test_same_size_other_split_rejected(self):
        s = StateVector((4,), ("a",), random_state(np.random.default_rng(41), 4))
        with pytest.raises(DimensionMismatch):
            apply(Operator((2, 2), np.eye(4)), s)

    def test_tensor_then_apply_commutes_with_apply_then_tensor(self):
        rng = np.random.default_rng(23)
        a = StateVector((2,), ("a",), random_state(rng, 2))
        b = StateVector((3,), ("b",), random_state(rng, 3))
        u = random_unitary(rng, 2)
        left = apply(Operator((2, 3), np.kron(u, np.eye(3))), tensor(a, b))
        right = tensor(apply(Operator((2,), u), a), b)
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-12)


class TestInner:
    def test_normalization(self):
        s = spin(KET_PLUS_Z)
        assert inner(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        assert inner(spin(KET_MINUS_Z), spin(KET_PLUS_Z)) == 0.0

    def test_matches_sum_oracle(self):
        rng = np.random.default_rng(3)
        a = StateVector((4,), ("a",), random_state(rng, 4))
        b = StateVector((4,), ("a",), random_state(rng, 4))
        assert inner(a, b) == pytest.approx(inner_sum_oracle(a.amps, b.amps), abs=1e-14)

    def test_self_inner_is_squared_norm(self):
        rng = np.random.default_rng(9)
        s = StateVector((2, 2), ("a", "b"), 2.5 * random_state(rng, 4))
        val = inner(s, s)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(s.norm**2, abs=1e-14)

    def test_conjugate_linear_in_bra(self):
        rng = np.random.default_rng(13)
        a = StateVector((2,), ("a",), random_state(rng, 2))
        b = StateVector((2,), ("a",), random_state(rng, 2))
        scaled = StateVector((2,), ("a",), (0.3 + 0.4j) * a.amps)
        assert inner(scaled, b) == pytest.approx((0.3 - 0.4j) * inner(a, b), abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner(spin(KET_PLUS_Z), StateVector((3,), ("spin",), [1, 0, 0]))


class TestPartialProject:
    def test_product_state_passes_through(self):
        rng = np.random.default_rng(17)
        phi = StateVector((5,), ("pointer",), random_state(rng, 5))
        s = tensor(spin(KET_PLUS_Z, "path"), phi)
        out = partial_project(spin(KET_PLUS_Z, "path"), s)
        np.testing.assert_allclose(out.amps, phi.amps, atol=1e-15)

    def test_orthogonal_branch_gives_zero(self):
        rng = np.random.default_rng(19)
        phi = StateVector((5,), ("pointer",), random_state(rng, 5))
        s = tensor(spin(KET_PLUS_Z, "path"), phi)
        out = partial_project(spin(KET_MINUS_Z, "path"), s)
        np.testing.assert_array_equal(out.amps, np.zeros(5))

    def test_undoes_tensor_up_to_the_bra_norm(self):
        rng = np.random.default_rng(43)
        a = StateVector((2, 2), ("path", "spin"), 1.3 * random_state(rng, 4))
        b = StateVector((3,), ("pointer",), random_state(rng, 3))
        out = partial_project(a, tensor(a, b))
        assert (out.dims, out.labels) == (b.dims, b.labels)
        np.testing.assert_allclose(out.amps, inner(a, a) * b.amps, atol=1e-14)

    def test_cheshire_postselection_halves_the_pointer(self):
        # (|I>+|II>)|+z>/sqrt2 (x) phi, projected on (|I,+z>+|II,-z>)/sqrt2,
        # leaves phi/2 on the pointer subsystem.
        rng = np.random.default_rng(21)
        r = 1.0 / math.sqrt(2.0)
        psi_sys = StateVector((2, 2), ("path", "spin"), [r, 0.0, r, 0.0])
        chi = StateVector((2, 2), ("path", "spin"), [r, 0.0, 0.0, r])
        phi = StateVector((7,), ("pointer",), random_state(rng, 7))
        out = partial_project(chi, tensor(psi_sys, phi))
        np.testing.assert_allclose(out.amps, 0.5 * phi.amps, atol=1e-14)

    def test_projecting_all_subsystems_yields_scalar_state(self):
        rng = np.random.default_rng(29)
        s = StateVector((2, 2), ("a", "b"), random_state(rng, 4))
        bra = StateVector((2, 2), ("a", "b"), random_state(rng, 4))
        out = partial_project(bra, s)
        assert (out.dims, out.labels) == ((1,), ("scalar",))
        assert out.amps[0] == pytest.approx(inner(bra, s), abs=1e-14)

    def test_probabilities_sum_over_complete_basis(self):
        rng = np.random.default_rng(31)
        s = StateVector((2, 3), ("a", "b"), 1.7 * random_state(rng, 6))
        u = random_unitary(rng, 2)
        total = 0.0
        for k in range(2):
            bra = StateVector((2,), ("a",), u[:, k])
            total += partial_project(bra, s).norm ** 2
        assert total == pytest.approx(s.norm**2, abs=1e-12)

    @pytest.mark.parametrize(
        "bra",
        [
            StateVector((2,), ("b",), [1.0, 0.0]),  # a trailing factor
            StateVector((3,), ("a",), [1.0, 0.0, 0.0]),  # leading label, other dim
            StateVector((2, 2), ("b", "a"), [1.0, 0.0, 0.0, 0.0]),  # leading dims, other label order
        ],
    )
    def test_bra_off_the_leading_factor_rejected(self, bra):
        s = StateVector((2, 2, 3), ("a", "b", "c"), np.ones(12) / math.sqrt(12))
        with pytest.raises(DimensionMismatch):
            partial_project(bra, s)
