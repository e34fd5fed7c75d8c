"""Tests for the dense linear-algebra core."""

import math

import numpy as np
import pytest

from qmet.errors import DegenerateSpectrum, DimensionMismatch, NonHermitianInput
from qmet.linalg import (
    _require_density_spectrum,
    eig_hermitian,
    eigh_nondegenerate,
    expm_unitary,
    fix_phases,
    operator_variance,
    as_matrix,
    partial_trace,
    require_density,
    require_hermitian,
    require_nondegenerate,
    require_state,
    require_unitary,
    spectral_gap,
    tensor,
)
from qmet.selftest import popoviciu_suite

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


class TestValidators:
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0), (2, 2, 3)])
    def test_as_matrix_rejects_a_non_square_input(self, shape):
        with pytest.raises(DimensionMismatch, match="square"):
            as_matrix(np.zeros(shape))

    def test_require_unitary(self):
        assert np.array_equal(require_unitary(SX), SX)
        with pytest.raises(DimensionMismatch, match="unitarity defect"):
            require_unitary(np.diag([1.0, 1.0 + 1e-9]))
        with pytest.raises(DimensionMismatch, match="unitarity defect is NaN"):
            require_unitary(np.diag([1.0, math.nan]))  # a NaN defect fails the check

    def test_require_density_negative_eigenvalue(self):
        with pytest.raises(DimensionMismatch, match="negative eigenvalue"):
            require_density(np.diag([1.2, -0.2]))  # unit trace

    def test_require_density_trace(self):
        with pytest.raises(DimensionMismatch, match="trace"):
            require_density(np.diag([0.5, 0.6]))

    def test_a_nan_density_spectrum_fails(self):
        with pytest.raises(DimensionMismatch, match="has a NaN"):
            _require_density_spectrum(np.array([math.nan, 1.0]), 1.0)
        with pytest.raises(DimensionMismatch, match="trace nan"):
            _require_density_spectrum(np.array([0.0, 1.0]), math.nan)

    @pytest.mark.parametrize("entry", [(0, 0, math.nan), (0, 1, math.inf), (1, 0, -math.inf)])
    def test_require_hermitian_rejects_a_non_finite_entry(self, entry):
        """A NaN defect fails the strict test, and so does an infinite one."""
        j, k, value = entry
        A = np.eye(2, dtype=complex)
        A[j, k] = value
        with pytest.raises(NonHermitianInput, match="NaN or infinite entry"):
            require_hermitian(A)
        with pytest.raises(NonHermitianInput, match="NaN or infinite entry"):
            require_hermitian(np.stack([np.eye(2), A]))

    def test_require_hermitian_rejects_a_mirrored_infinite_entry(self):
        """inf - inf makes the defect NaN; NumPy's warning for that is switched off here."""
        A = np.array([[0.0, math.inf], [math.inf, 1.0]], dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(NonHermitianInput):
            require_hermitian(A)

    def test_require_state(self):
        assert np.array_equal(require_state([[0.6], [0.8j]]), np.array([0.6, 0.8j]))
        with pytest.raises(DimensionMismatch, match="state norm"):
            require_state([1.0, 1e-5])  # norm 1 + 5e-11
        with pytest.raises(DimensionMismatch, match="state norm nan"):
            require_state([math.nan, 0.0])


class TestEigHermitian:
    def test_diagonal_matrix_is_reordered(self):
        es = eig_hermitian(np.diag([0.0, 3.0, 1.0]))
        assert np.allclose(es.eigenvalues, [3.0, 1.0, 0.0])

    def test_sigma_x_spectrum_and_gauge(self):
        """Eigenvalues (1, -1); eigenvectors (1, +-1)/sqrt(2) with first entry positive."""
        es = eig_hermitian(SX)
        assert np.allclose(es.eigenvalues, [1.0, -1.0])
        assert np.allclose(es.eigenvectors[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(es.eigenvectors[:, 1], [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_field_direction_hamiltonian_matches_closed_form_rows(self):
        """At theta = pi/3, omega = 1: eigenvalues +-1 and the explicit 2x2 diagonalizer.

        Closed form for the ascending-order eigenvectors: ground
        (-sin(theta/2), cos(theta/2)), excited (cos(theta/2), sin(theta/2));
        both have their largest entry positive here so the phase-fixed gauge
        reproduces them exactly.
        """
        theta = math.pi / 3
        H = math.cos(theta) * SZ + math.sin(theta) * SX
        es = eig_hermitian(H)
        assert np.allclose(es.eigenvalues, [1.0, -1.0], atol=1e-12)
        excited = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        ground = np.array([-math.sin(theta / 2), math.cos(theta / 2)])
        assert np.allclose(es.eigenvectors[:, 0], excited, atol=1e-12)
        assert np.allclose(es.eigenvectors[:, 1], ground, atol=1e-12)

    def test_reconstruction_over_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            M = random_hermitian(rng, d)
            es = eig_hermitian(M)
            V = es.eigenvectors  # sum of lambda_k |v_k><v_k|
            assert np.max(np.abs((V * es.eigenvalues) @ V.conj().T - M)) <= 1e-9
            assert np.all(np.diff(es.eigenvalues) <= 1e-12)
            # pairwise orthonormality
            gram = es.eigenvectors.conj().T @ es.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpmUnitary:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(rng, 4)
        assert np.max(np.abs(expm_unitary(H, 0.0) - np.eye(4))) <= 1e-12

    def test_diagonal_phase(self):
        U = expm_unitary(SZ, math.pi / 2)
        assert np.allclose(U, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]))

    def test_xcomponent_closed_form_block(self):
        """exp(-i t (-w sz + q sx)) has entries A = cos(Wt) + i w sin(Wt)/W, B = -i q sin(Wt)/W."""
        w, q, t = 1.0, 0.7, 1.3
        Om = math.hypot(w, q)
        A = math.cos(Om * t) + 1j * w * math.sin(Om * t) / Om
        B = -1j * q * math.sin(Om * t) / Om
        expected = np.array([[A, B], [B, A.conjugate()]])
        U = expm_unitary(-w * SZ + q * SX, t)
        assert np.max(np.abs(U - expected)) <= 1e-9

    def test_group_law(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            H = random_hermitian(rng, 3)
            t1, t2 = rng.uniform(-2, 2, size=2)
            left = expm_unitary(H, t1) @ expm_unitary(H, t2)
            assert np.max(np.abs(left - expm_unitary(H, t1 + t2))) <= 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(rng, 5)
        U = expm_unitary(H, 0.83)
        assert np.max(np.abs(U @ U.conj().T - np.eye(5))) <= 1e-10

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(13)
        stack = np.stack([[random_hermitian(rng, 3) for _ in range(4)] for _ in range(2)])
        U = expm_unitary(stack, 0.6)
        assert U.shape == (2, 4, 3, 3)
        for idx in np.ndindex(2, 4):
            assert np.max(np.abs(U[idx] - expm_unitary(stack[idx], 0.6))) <= 1e-13

    def test_stack_hermiticity_is_checked_per_matrix(self):
        """A tiny non-Hermitian matrix is not excused by a large one beside it."""
        small = np.array([[0.0, 1e-3], [0.0, 0.0]])
        with pytest.raises(NonHermitianInput):
            require_hermitian(np.stack([1e9 * SZ, small]))
        require_hermitian(np.stack([1e9 * SZ, SX]))


class TestSpectralGap:
    def test_identity_has_zero_gap(self):
        assert spectral_gap(np.eye(4)) == 0.0

    def test_diagonal(self):
        assert spectral_gap(np.diag([3.0, 1.0, 0.0])) == pytest.approx(3.0)

    def test_antisymmetric_generator_gap(self):
        """The 2x2 matrix (0, -i/2; i/2, 0) has eigenvalues +-1/2, gap 1."""
        g = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        assert spectral_gap(g) == pytest.approx(1.0, abs=1e-12)

    def test_matches_max_pairwise_difference(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            M = random_hermitian(rng, d)
            ev = np.linalg.eigvalsh(M)
            assert spectral_gap(M) == pytest.approx(np.max(ev[:, None] - ev[None, :]))


class TestTensorAndPartialTrace:
    def test_identity_tensor(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_tensor_identity(self):
        assert np.allclose(tensor(SZ, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_controlled_block_structure(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        gate = tensor(p0, SX) + tensor(p1, np.eye(2))
        assert np.allclose(gate[:2, :2], SX)
        assert np.allclose(gate[2:, 2:], np.eye(2))

    def test_partial_trace_recovers_factors(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dA, dB = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            A = random_hermitian(rng, dA)
            B = random_hermitian(rng, dB)
            M = tensor(A, B)
            assert np.allclose(partial_trace(M, (dA, dB), "first"), A * np.trace(B))
            assert np.allclose(partial_trace(M, (dA, dB), "second"), B * np.trace(A))
            assert np.trace(partial_trace(M, (dA, dB), "first")) == pytest.approx(
                np.trace(M).real, abs=1e-12
            )

    def test_maximally_entangled_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, (2, 2), "first"), np.eye(2) / 2)
        assert np.allclose(partial_trace(rho, (2, 2), "second"), np.eye(2) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(6), (2, 2), "first")

    @pytest.mark.parametrize("keep", ["A", "b", "third"])
    def test_unknown_factor_name_rejected(self, keep):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), keep)


class TestOperatorVariance:
    def test_eigenvector_has_zero_variance(self):
        assert operator_variance([1.0, 0.0], SZ) == 0.0

    def test_balanced_superposition_of_sigma_z(self):
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        assert operator_variance(psi, SZ) == pytest.approx(1.0)

    def test_popoviciu_saturation(self):
        """Balanced superposition of extremal eigenvectors of diag(3,1,0): (3-0)^2/4."""
        O = np.diag([3.0, 1.0, 0.0])
        psi = np.zeros(3)
        psi[0] = psi[2] = 1 / math.sqrt(2)
        assert operator_variance(psi, O) == pytest.approx(2.25, abs=1e-12)

    def test_popoviciu_bound_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            O = random_hermitian(rng, d)
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = z / np.linalg.norm(z)
            assert operator_variance(psi, O) <= spectral_gap(O) ** 2 / 4 + 1e-10

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_eigenvectors_have_zero_variance_at_any_scale(self, scale):
        """The rounding floor scales with <psi|O^2|psi>: an eigenvector of 1e3 (X + Z)
        rounds to a variance of -2.3e-10, below an absolute -1e-12."""
        rng = np.random.default_rng(1)
        operators = [scale * (SX + SZ)] + [scale * random_hermitian(rng, d) for d in (2, 3, 5)]
        for O in operators:
            for psi in np.linalg.eigh(O)[1].T:
                var = operator_variance(psi, O)
                assert 0.0 <= var <= 16 * np.finfo(float).eps * np.linalg.norm(O @ psi) ** 2

    def test_the_popoviciu_suite_is_unchanged(self):
        assert popoviciu_suite() == ("popoviciu", True,
                                     "max Var - gap^2/4 = -7.473e-04 over 200 draws")

    def test_a_nan_variance_raises(self):
        """<psi|O^2|psi> overflows to inf and the difference is NaN."""
        with pytest.raises(ArithmeticError, match="variance is NaN"):
            operator_variance([1.0, 0.0], 1e200 * SZ)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            operator_variance([1.0, 0.0, 0.0], SZ)


class TestDegeneracyGate:
    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            require_nondegenerate(np.array([1.0, 1.0 + 1e-12, 2.0]))

    def test_well_separated_passes(self):
        require_nondegenerate(np.array([0.0, 1.0, 2.0]))

    def test_a_range_beyond_the_float_range_does_not_overflow(self):
        """Halved eigenvalues decide the test; no overflow warning (an error in tier-1)."""
        require_nondegenerate(np.array([-1e308, 0.0, 1e308]))
        with pytest.raises(DegenerateSpectrum):
            require_nondegenerate(np.array([-1e308, 1e308 - 1e299, 1e308]))


class TestEighNondegenerate:
    def test_ascending_and_reconstructs(self):
        rng = np.random.default_rng(31)
        H = random_hermitian(rng, 4)
        ev, W = eigh_nondegenerate(H)
        assert np.all(np.diff(ev) > 0)
        assert np.allclose((W * ev) @ W.conj().T, H, atol=1e-12)

    def test_non_hermitian_raises(self):
        with pytest.raises(NonHermitianInput):
            eigh_nondegenerate(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_stack_with_one_degenerate_matrix_raises(self, where):
        stack = np.stack([np.diag([0.0, 1.0, 2.0]), np.diag([5.0, 6.0, 7.0]),
                          np.diag([-1.0, 3.0, 4.0])]).astype(complex)
        stack[where] = np.diag([1.0, 1.0 + 1e-12, 2.0])
        with pytest.raises(DegenerateSpectrum):
            eigh_nondegenerate(stack)

    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_gaps_are_per_matrix(self, d):
        """Spacing 1e-3 passes against its own range, not a shared or another row's 1e7."""
        narrow = np.diag(1e-3 * np.arange(d)).astype(complex)
        wide = np.diag(1e7 * np.arange(d)).astype(complex)
        for stack in (np.stack([narrow, wide]), np.stack([wide, narrow]),
                      np.stack([wide, narrow, wide])):
            ev, W = eigh_nondegenerate(stack)
            assert ev.shape == stack.shape[:-1] and W.shape == stack.shape
        with pytest.raises(DegenerateSpectrum):  # the same spacing is degenerate at range 1e7
            eigh_nondegenerate(np.diag(np.concatenate([1e-3 * np.arange(d), [1e7]])))


def loop_fix_phases(V):
    """The column-by-column gauge fix, one matrix at a time (the reference for fix_phases)."""
    W = np.array(V, dtype=complex, copy=True)
    for k in range(W.shape[1]):
        mags = np.abs(W[:, k])
        top = mags.max()
        j = int(np.argmax(mags > top * (1.0 - 1e-12)))
        entry = W[j, k]
        if abs(entry) > 0:
            W[:, k] *= entry.conjugate() / abs(entry)
    return W


class TestFixPhases:
    @staticmethod
    def random_matrix(rng, shape):
        V = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        d = shape[-1]
        V[..., int(rng.integers(d))] *= rng.integers(2)  # a zero column half of the time
        V[..., 1, 0] = V[..., 0, 0] * np.exp(1j * rng.uniform(0, 2 * math.pi))  # modulus tie
        return V

    def test_matches_the_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            V = self.random_matrix(rng, (int(rng.integers(2, 7)),) * 2)
            assert fix_phases(V).tobytes() == loop_fix_phases(V).tobytes()

    @pytest.mark.parametrize("stack", [(1,), (5,), (2, 3)])
    def test_stack_matches_matrix_by_matrix(self, stack):
        rng = np.random.default_rng(12)
        for d in (2, 3, 18):
            V = self.random_matrix(rng, stack + (d, d))
            expected = np.stack([loop_fix_phases(M) for M in V.reshape(-1, d, d)])
            assert fix_phases(V).tobytes() == expected.reshape(V.shape).tobytes()

    def test_gauge_and_ties(self):
        V = np.array([[1j, 0.0, 0.0], [1.0, 0.0, 3.0], [0.5, 0.0, -4j]])
        W = fix_phases(V)
        assert np.array_equal(W[:, 0], [1.0, -1j, -0.5j])  # the tie goes to the lowest index
        assert np.array_equal(W[:, 1], np.zeros(3))  # a zero column is left alone
        assert np.array_equal(W[:, 2], [0.0, 3j, 4.0])
        rng = np.random.default_rng(13)
        W = fix_phases(rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6)))
        top = np.take_along_axis(W, np.abs(W).argmax(axis=-2)[:, None, :], axis=-2)
        assert np.all(np.abs(top.imag) <= 1e-15 * top.real)  # real up to rounding
