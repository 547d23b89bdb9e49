import numpy as np
import pytest
from hypothesis import given, strategies as st

from densecode import (
    DensityMatrix,
    IDENTITY,
    Ket,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ZX,
    apply_single_qubit,
    bell,
    equal_up_to_global_phase,
    g_state,
    hermitian_eigenvalues,
    inner,
    ket_from_bits,
    one_qubit_gate,
    partial_trace,
    permute_qubits,
    pure_density,
    tensor,
)
from densecode.bellbasis import BellLabel

from conftest import ket_strategy, random_ket


class TestKet:
    def test_basis_states(self):
        assert np.allclose(ket_from_bits([0, 0]).amplitudes, [1, 0, 0, 0])
        assert np.allclose(ket_from_bits([1, 1]).amplitudes, [0, 0, 0, 1])
        amps = ket_from_bits([0, 1, 0, 1]).amplitudes
        assert amps[5] == 1 and np.count_nonzero(amps) == 1 and amps.size == 16

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ket_from_bits([])
        with pytest.raises(ValueError):
            ket_from_bits([0, 2])
        with pytest.raises(ValueError):
            Ket(2, np.array([1.0, 0.0]))  # wrong length
        with pytest.raises(ValueError):
            Ket(1, np.array([1.0, 1.0]))  # not normalized
        with pytest.raises(ValueError):
            Ket(27, np.zeros(2**27))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Ket(1, [bad, 0])

    def test_amplitudes_are_read_only(self):
        k = ket_from_bits([0])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.5

    def test_json_roundtrip(self):
        k = bell(BellLabel.PSI_MINUS)
        again = Ket.from_dict(k.to_dict())
        assert again.num_qubits == 2
        assert np.array_equal(again.amplitudes, k.amplitudes)


class TestTensor:
    def test_basis_product(self):
        k = tensor(ket_from_bits([0]), ket_from_bits([1]))
        assert np.allclose(k.amplitudes, ket_from_bits([0, 1]).amplitudes)

    def test_two_bell_pairs_permute_to_g1(self):
        pair = tensor(bell(BellLabel.PHI_PLUS), bell(BellLabel.PHI_PLUS))
        assert np.allclose(
            permute_qubits(pair, (0, 2, 1, 3)).amplitudes, g_state(1).amplitudes, atol=1e-12
        )

    @given(ket_strategy(2))
    def test_tensor_preserves_norm(self, k):
        t = tensor(k, ket_from_bits([0]))
        assert abs(np.linalg.norm(t.amplitudes) - 1.0) < 1e-10


class TestApplySingleQubit:
    def test_bit_flip(self):
        flipped = apply_single_qubit(ket_from_bits([0, 0]), 0, PAULI_X)
        assert np.allclose(flipped.amplitudes, ket_from_bits([1, 0]).amplitudes)

    def test_z_on_first_sender_qubit_gives_g2(self):
        assert np.allclose(
            apply_single_qubit(g_state(1), 0, PAULI_Z).amplitudes, g_state(2).amplitudes
        )

    def test_x_on_second_sender_qubit_gives_g5(self):
        assert np.allclose(
            apply_single_qubit(g_state(1), 1, PAULI_X).amplitudes, g_state(5).amplitudes
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_single_qubit(ket_from_bits([0]), 1, PAULI_X)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            one_qubit_gate([[1, 0], [0, 2]])

    @given(
        ket_strategy(3),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, ZX]),
    )
    def test_unitarity_preserves_norm(self, k, qubit, gate):
        out = apply_single_qubit(k, qubit, gate)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


class TestInner:
    def test_normalization(self):
        assert inner(g_state(1), g_state(1)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        assert inner(g_state(3), g_state(7)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_component(self):
        value = inner(ket_from_bits([0, 0]), bell(BellLabel.PHI_PLUS))
        assert value == pytest.approx(2**-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(ket_from_bits([0]), ket_from_bits([0, 0]))

    @given(ket_strategy(1), ket_strategy(1), ket_strategy(1), ket_strategy(1))
    def test_tensor_inner_compatibility(self, a, b, c, d):
        lhs = inner(tensor(a, b), tensor(c, d))
        rhs = inner(a, c) * inner(b, d)
        assert abs(lhs - rhs) < 1e-10


class TestPartialTrace:
    def test_g1_receiver_side_is_maximally_mixed(self):
        rho = partial_trace(g_state(1), {2, 3})
        assert np.allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_product_state(self):
        rho = partial_trace(ket_from_bits([0, 0]), {1})
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_bell_pair_reduction(self):
        rho = partial_trace(bell(BellLabel.PHI_PLUS), {1})
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_rejects_empty_and_full_keep(self):
        with pytest.raises(ValueError):
            partial_trace(bell(BellLabel.PHI_PLUS), set())
        with pytest.raises(ValueError):
            partial_trace(bell(BellLabel.PHI_PLUS), {0, 1})

    @given(ket_strategy(3), st.sets(st.integers(min_value=0, max_value=2), min_size=1, max_size=2))
    def test_unit_trace(self, k, keep):
        rho = partial_trace(k, keep)
        assert abs(np.trace(rho.entries).real - 1.0) < 1e-10


class TestPermuteQubits:
    def test_identity(self):
        k = g_state(6)
        assert np.array_equal(permute_qubits(k, (0, 1, 2, 3)).amplitudes, k.amplitudes)

    def test_g1_factorizes(self):
        swapped = permute_qubits(g_state(1), (0, 2, 1, 3))
        pair = tensor(bell(BellLabel.PHI_PLUS), bell(BellLabel.PHI_PLUS))
        assert np.allclose(swapped.amplitudes, pair.amplitudes, atol=1e-12)

    def test_g5_factorizes(self):
        swapped = permute_qubits(g_state(5), (0, 2, 1, 3))
        pair = tensor(bell(BellLabel.PHI_PLUS), bell(BellLabel.PSI_PLUS))
        assert np.allclose(swapped.amplitudes, pair.amplitudes, atol=1e-12)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_qubits(g_state(1), (0, 0, 1, 2))

    @given(ket_strategy(3), st.permutations(range(3)))
    def test_invertibility_is_exact(self, k, perm):
        inverse = [0] * 3
        for old, new in enumerate(perm):
            inverse[new] = old
        back = permute_qubits(permute_qubits(k, perm), inverse)
        assert np.array_equal(back.amplitudes, k.amplitudes)


class TestHermitianEigenvalues:
    def test_scalar_matrix(self):
        eigs = hermitian_eigenvalues(DensityMatrix(np.eye(4) / 4))
        assert np.allclose(eigs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_rank_one_projector(self):
        eigs = hermitian_eigenvalues(pure_density(ket_from_bits([0])))
        assert np.allclose(eigs, [1.0, 0.0], atol=1e-12)

    def test_reduced_g1(self):
        eigs = hermitian_eigenvalues(partial_trace(g_state(1), {2, 3}))
        assert np.allclose(eigs, [0.25] * 4, atol=1e-9)

    def test_matches_numpy_on_random_density_matrices(self):
        rng = np.random.default_rng(42)
        for dim in (2, 4, 8, 16):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            mine = hermitian_eigenvalues(DensityMatrix(rho))
            ref = np.sort(np.linalg.eigvalsh(rho))[::-1]
            assert np.max(np.abs(mine - ref)) < 1e-9
            assert abs(mine.sum() - 1.0) < 1e-9

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        eigs = hermitian_eigenvalues(DensityMatrix(rho))
        assert np.all(np.diff(eigs) <= 1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.5, 1.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.array([[bad, 0], [0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(m)

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T  # Hermitian, arbitrary trace
        eigs = hermitian_eigenvalues(h)
        assert abs(eigs.sum() - np.trace(h).real) < 1e-9


class TestEqualUpToGlobalPhase:
    def test_pure_phase(self):
        k = bell(BellLabel.PSI_PLUS)
        shifted = Ket(2, np.exp(1j * np.pi / 3) * k.amplitudes)
        assert equal_up_to_global_phase(k, shifted, 1e-10)

    def test_orthogonal_states_differ(self):
        assert not equal_up_to_global_phase(g_state(1), g_state(2), 1e-10)

    def test_zx_matches_iy(self):
        assert np.allclose(ZX, 1j * PAULI_Y, atol=1e-15)
        via_zx = apply_single_qubit(bell(BellLabel.PHI_PLUS), 0, ZX)
        via_iy = apply_single_qubit(bell(BellLabel.PHI_PLUS), 0, 1j * np.asarray(PAULI_Y))
        assert equal_up_to_global_phase(via_zx, via_iy, 1e-10)
        assert np.allclose(via_zx.amplitudes, bell(BellLabel.PSI_MINUS).amplitudes, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(ket_from_bits([0]), bell(BellLabel.PHI_PLUS))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_json_roundtrip(self):
        rho = partial_trace(g_state(9), {0, 1})
        again = DensityMatrix.from_dict(rho.to_dict())
        assert np.array_equal(again.entries, rho.entries)


@pytest.mark.parametrize("count", [True, 2.0, "2"])
def test_from_dict_takes_only_json_integers(count):
    rho = {"dim": count, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
    with pytest.raises(ValueError, match="dim must be the JSON integer 2"):
        DensityMatrix.from_dict(rho)
    ket = {"num_qubits": count, "amplitudes": [[1, 0]] + [[0, 0]] * 3}
    with pytest.raises(ValueError, match="num_qubits must be an integer in"):
        Ket.from_dict(ket)


def test_random_kets_stay_normalized_through_gate_chains():
    rng = np.random.default_rng(11)
    k = random_ket(rng, 4)
    for _ in range(32):
        gate = [IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, ZX][rng.integers(5)]
        k = apply_single_qubit(k, int(rng.integers(4)), gate)
    assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-10
