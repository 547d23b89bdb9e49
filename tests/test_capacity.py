import math

import numpy as np
import pytest

from densecode import (
    CapacityReport,
    DensityMatrix,
    dense_coding_capacity,
    g_state,
    ghz4,
    holevo_bound,
    ket_from_bits,
    orthogonal_orbit_count,
    pure_density,
    s_state,
    von_neumann_entropy,
)

from conftest import partial_trace, random_ket


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(pure_density(ket_from_bits([0]))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_two_qubits(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) == pytest.approx(2.0, abs=1e-12)

    def test_one_bit_of_mixing(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(2))  # trace 2

    def test_rejects_a_negative_eigenvalue(self):
        # Hermitian with unit trace, so a valid DensityMatrix
        with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_a_near_hermitian_input_converges(self):
        # the sweeps run on the exact Hermitian part, which they can diagonalise
        rho = DensityMatrix([[0.5, 1e-11], [0.0, 0.5]])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_on_random_density_matrices(self):
        rng = np.random.default_rng(17)
        for dim in (2, 4, 8):
            for _ in range(10):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = a @ a.conj().T
                rho /= np.trace(rho).real
                s = von_neumann_entropy(DensityMatrix(rho))
                assert -1e-12 <= s <= math.log2(dim) + 1e-9


class TestHolevoBound:
    def test_values(self):
        assert holevo_bound(16) == pytest.approx(4.0)
        assert holevo_bound(2) == pytest.approx(1.0)
        assert holevo_bound(1) == pytest.approx(0.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            holevo_bound(0)


class TestDenseCodingCapacity:
    def test_g1_reaches_four_bits(self):
        report = dense_coding_capacity(pure_density(g_state(1)), 4, 4)
        assert report.chi == pytest.approx(4.0, abs=1e-9)
        assert report.entropy_B == pytest.approx(2.0, abs=1e-9)
        assert report.entropy_AB == pytest.approx(0.0, abs=1e-9)
        assert report.holevo == pytest.approx(4.0, abs=1e-12)

    def test_ghz_caps_at_three_bits(self):
        report = dense_coding_capacity(pure_density(ghz4()), 4, 4)
        assert report.chi == pytest.approx(3.0, abs=1e-9)

    def test_product_state_gives_one_bit(self):
        report = dense_coding_capacity(pure_density(ket_from_bits([0, 0])), 2, 2)
        assert report.entropy_B == pytest.approx(0.0, abs=1e-9)
        assert report.chi == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense_coding_capacity(pure_density(g_state(1)), 8, 4)

    def test_a_validated_near_hermitian_matrix_gives_a_report(self):
        """Skews within NORM_TOL of each entry could add past it in rho_B's
        partial trace; a DensityMatrix keeps its exact Hermitian part, and so
        every partial trace of it is exactly Hermitian."""
        rng = np.random.default_rng(11)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        rho += np.triu(np.full((16, 16), 3e-11), 1)
        report = dense_coding_capacity(DensityMatrix(rho), 4, 4)
        assert 0.0 <= report.entropy_B <= 2.0
        assert report.chi == pytest.approx(2.0 + report.entropy_B - report.entropy_AB, abs=1e-9)

    def test_report_consistency_and_json(self):
        report = dense_coding_capacity(pure_density(g_state(6)), 4, 4)
        assert report.chi == pytest.approx(
            math.log2(report.d_A) + report.entropy_B - report.entropy_AB, abs=1e-9
        )
        assert report.chi <= report.holevo + 1e-9
        data = report.to_dict()
        assert set(data) == {"d_A", "S_B", "S_AB", "chi", "holevo"}
        assert CapacityReport.from_dict(data) == report

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_every_basis_state_meets_holevo(self, n_pairs):
        d = 2**n_pairs
        for j in range(4**n_pairs):
            report = dense_coding_capacity(pure_density(s_state(j, n_pairs)), d, d)
            assert report.chi == pytest.approx(2 * n_pairs, abs=1e-9)

    def test_schmidt_symmetry_on_random_pure_states(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = random_ket(rng, 4)
            s_a = von_neumann_entropy(partial_trace(k, {0, 1}))
            s_b = von_neumann_entropy(partial_trace(k, {2, 3}))
            assert abs(s_a - s_b) < 1e-9

    @pytest.mark.parametrize("num_qubits", range(2, 9))
    def test_ket_path_matches_density_path(self, num_qubits):
        rng = np.random.default_rng(31 + num_qubits)
        k = random_ket(rng, num_qubits)
        rho = pure_density(k)
        dim = 2**num_qubits
        for d_a in (2**j for j in range(num_qubits + 1)):
            fast = dense_coding_capacity(k, d_a, dim // d_a)
            slow = dense_coding_capacity(rho, d_a, dim // d_a)
            assert fast.entropy_AB == 0.0
            assert fast.d_A == slow.d_A and fast.holevo == slow.holevo
            assert abs(fast.entropy_B - slow.entropy_B) < 1e-9
            assert abs(fast.chi - slow.chi) < 1e-9

    def test_ket_dimension_mismatch(self):
        with pytest.raises(ValueError, match="bipartition"):
            dense_coding_capacity(g_state(1), 8, 4)
        with pytest.raises(ValueError, match="bipartition"):
            dense_coding_capacity(g_state(1), 0, 16)

    @pytest.mark.parametrize("state", [g_state(1), pure_density(g_state(1))], ids=["ket", "rho"])
    @pytest.mark.parametrize(
        "d_a, bob_dims, refused", [(4.0, 4, "d_a"), (True, 16, "d_a"), (4, 4.0, "bob_dims")]
    )
    def test_sizes_must_be_integers(self, state, d_a, bob_dims, refused):
        """Refused by name, not by a numpy TypeError from a reshape."""
        want = rf"^{refused} must be an integer in \[1, 16\] \(bipartition of dimension 16\)"
        with pytest.raises(ValueError, match=want):
            dense_coding_capacity(state, d_a, bob_dims)

    def test_consistency_on_random_pure_states(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = random_ket(rng, 2)
            report = dense_coding_capacity(pure_density(k), 2, 2)
            assert report.chi == pytest.approx(
                1.0 + report.entropy_B - report.entropy_AB, abs=1e-9
            )


class TestOrthogonalOrbitCount:
    def test_g1_reaches_all_sixteen(self):
        assert orthogonal_orbit_count(g_state(1), 2) == 16

    def test_ghz_reaches_only_eight(self):
        assert orthogonal_orbit_count(ghz4(), 2) == 8

    def test_product_basis_state_reaches_four(self):
        assert orthogonal_orbit_count(ket_from_bits([0, 0, 0, 0]), 2) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            orthogonal_orbit_count(ket_from_bits([0, 0]), 2)

    def test_orbit_count_lower_bounds_capacity(self):
        for state in (g_state(1), ghz4()):
            count = orthogonal_orbit_count(state, 2)
            chi = dense_coding_capacity(pure_density(state), 4, 4).chi
            assert math.log2(count) <= chi + 1e-9
