import numpy as np
import pytest
from hypothesis import given, strategies as st

from densecode import (
    DensityMatrix,
    Ket,
    PAULI_X,
    PAULI_Z,
    apply_single_qubit,
    bell,
    equal_up_to_global_phase,
    g_state,
    hermitian_eigenvalues,
    ket_from_bits,
    permute_qubits,
    pure_density,
    tensor,
)
from densecode.bellbasis import BellLabel

from conftest import ket_strategy, partial_trace, random_ket

IDENTITY = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
ZX = PAULI_Z @ PAULI_X  # X then Z; equals i*PAULI_Y
GATES = [IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, ZX]


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

    @pytest.mark.parametrize("amps", [[1e308, 1e308, 0, 0], [1e308 + 1e308j, 0, 0, 1]])
    def test_rejects_a_norm_past_float64_range_without_a_warning(self, amps):
        with pytest.raises(ValueError, match="^amplitudes are not normalized$"):
            Ket(2, amps)

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

    @given(ket_strategy(1), ket_strategy(1), ket_strategy(1), ket_strategy(1))
    def test_tensor_inner_compatibility(self, a, b, c, d):
        lhs = np.vdot(tensor(a, b).amplitudes, tensor(c, d).amplitudes)
        rhs = np.vdot(a.amplitudes, c.amplitudes) * np.vdot(b.amplitudes, d.amplitudes)
        assert abs(lhs - rhs) < 1e-10

    def test_checks_the_qubit_count_before_the_product(self, monkeypatch):
        def kron(*args):
            raise AssertionError("np.kron called before the qubit count was checked")

        a = Ket(14, np.eye(1, 2**14)[0])
        b = Ket(13, np.eye(1, 2**13)[0])
        monkeypatch.setattr(np, "kron", kron)
        with pytest.raises(ValueError, match=r"^num_qubits must be in \[1, 26\] \(MAX_QUBITS\), got 27$"):
            tensor(a, b)


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

    @given(
        ket_strategy(3),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(GATES),
    )
    def test_unitarity_preserves_norm(self, k, qubit, gate):
        out = apply_single_qubit(k, qubit, gate)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


class TestPartialTrace:
    """The reference in conftest, which other tests use as an oracle."""

    def test_g1_receiver_side_is_maximally_mixed(self):
        rho = partial_trace(g_state(1), {2, 3})
        assert np.allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_product_state(self):
        rho = partial_trace(ket_from_bits([0, 0]), {1})
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_bell_pair_reduction(self):
        rho = partial_trace(bell(BellLabel.PHI_PLUS), {1})
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

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

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="must be square"):
            hermitian_eigenvalues(np.ones((2, 4)))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match=r"^matrix must be square and nonempty, got shape \(0, 0\)$"):
            hermitian_eigenvalues(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.array([[bad, 0], [0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(m)

    def test_rejects_a_norm_past_float64_range_without_a_warning(self):
        with pytest.raises(ValueError, match="^matrix norm is past float64's range$"):
            hermitian_eigenvalues(np.array([[1e308, 1e308], [1e308, 1e308]]))
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            hermitian_eigenvalues(np.array([[0.5, 1e308], [-1e308, 0.5]]))

    @pytest.mark.parametrize("scale", [1e-20, 1e-9, 1.0, 1e3, 1e150])
    def test_tolerances_scale_with_the_matrix(self, scale):
        a = np.random.default_rng(0).normal(size=(8, 8))
        h = (a + a.T) * scale
        ref = np.linalg.eigvalsh(h)[::-1]
        assert np.max(np.abs(hermitian_eigenvalues(h) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_tiny_off_diagonal_entries_are_rotated(self):
        eigs = hermitian_eigenvalues(np.array([[1e-20, 1e-20], [1e-20, 0.0]]))
        golden = (1 + 5**0.5) / 2
        assert np.allclose(eigs, [golden * 1e-20, (1 - golden) * 1e-20], rtol=1e-13, atol=0)

    def test_zero_matrix_gives_zeros(self):
        assert np.array_equal(hermitian_eigenvalues(np.zeros((4, 4))), np.zeros(4))

    def test_a_tiny_skew_fails_the_check_scaled_to_the_matrix(self):
        # 1e-20 is below NORM_TOL but the whole of this matrix
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            hermitian_eigenvalues(np.array([[0.0, 1e-20], [0.0, 0.0]]))

    def test_a_near_hermitian_matrix_sweeps_its_hermitian_part(self):
        eigs = hermitian_eigenvalues(np.array([[1.0, 1e-11], [0.0, 1.0]]))
        assert eigs.shape == (2,)
        assert np.max(np.abs(eigs - 1.0)) <= 1e-10

    def test_one_by_one_matrices_take_the_sweep_path(self):
        assert np.array_equal(hermitian_eigenvalues(np.array([[3.0]])), [3.0])
        with pytest.raises(ValueError, match="^matrix norm is past float64's range$"):
            hermitian_eigenvalues(np.array([[1e200]]))

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
        assert equal_up_to_global_phase(k, shifted)

    def test_orthogonal_states_differ(self):
        assert not equal_up_to_global_phase(g_state(1), g_state(2))

    def test_zx_matches_iy(self):
        assert np.allclose(ZX, 1j * PAULI_Y, atol=1e-15)
        via_zx = apply_single_qubit(bell(BellLabel.PHI_PLUS), 0, ZX)
        via_iy = apply_single_qubit(bell(BellLabel.PHI_PLUS), 0, 1j * np.asarray(PAULI_Y))
        assert equal_up_to_global_phase(via_zx, via_iy)
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

    @pytest.mark.parametrize("entries", [np.ones((2, 4)) / 2, np.ones(4) / 4])
    def test_rejects_a_non_square_matrix(self, entries):
        with pytest.raises(ValueError, match="square matrix"):
            DensityMatrix(entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_rejects_a_trace_past_float64_range_without_a_warning(self):
        with pytest.raises(ValueError, match=r"^trace must be 1, got \(inf\+0j\)$"):
            DensityMatrix([[1e308, 1e308], [1e308, 1e308]])
        with pytest.raises(ValueError, match="^entries are not Hermitian$"):
            DensityMatrix([[0.5, 1e308], [-1e308, 0.5]])

    def test_rejects_a_trace_that_overflows_to_nan(self):
        """Partial sums of +inf and -inf make the trace NaN, which compares
        false with everything: the check must still fail."""
        diagonal = np.zeros(16)
        diagonal[[0, 8]] = 1e308
        diagonal[[1, 9]] = -1e308
        diagonal[2] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.diag(diagonal).astype(complex).trace())
        with pytest.raises(ValueError, match=r"^trace must be 1, got \(nan\+0j\)$"):
            DensityMatrix(np.diag(diagonal))

    def test_keeps_the_exact_hermitian_part_of_a_near_hermitian_array(self):
        rng = np.random.default_rng(5)
        for scale in (1.0, 1e-6, 1e-12):
            a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            a = (a + a.conj().T) * scale
            a += 1e-11 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
            a += np.eye(16) * (1 - np.trace(a).real) / 16
            entries = DensityMatrix(a).entries
            assert np.array_equal(entries, entries.conj().T)
            # halving is exact, so a/2 + a^H/2 rounds what (a + a^H) / 2 rounds
            assert np.array_equal(entries, (a + a.conj().T) / 2)

    def test_keeps_a_hermitian_array_as_it_is(self):
        g = np.random.default_rng(6).normal(size=(8, 8, 2)) @ [1, 1j]
        a = np.eye(8) + (g + g.conj().T) / 100
        a /= np.trace(a).real
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(DensityMatrix(a).entries, a)

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


@pytest.mark.parametrize(
    "amplitudes",
    [
        [["1", "0"], ["0", "0"]],  # numeric strings are not numbers
        [[1, 0], [0]],  # ragged pairs
        [[1, 0, 0], [0, 0, 0]],  # not pairs
        [1, 0],  # not nested
        [[[1, 0]], [[0, 0]]],  # nested too deep
        [[None, 0], [0, 0]],
        [[10**400, 0], [0, 0]],  # no float holds it
        [],
    ],
)
def test_ket_from_dict_rejects_malformed_amplitudes(amplitudes):
    with pytest.raises((TypeError, ValueError)):
        Ket.from_dict({"num_qubits": 1, "amplitudes": amplitudes})


@pytest.mark.parametrize(
    "pair", [[True, False], [False, False], [1, True], [0.0, False]]
)
def test_from_dict_rejects_bools_as_amplitudes(pair):
    # a bool is an int in Python and would load as 1.0 or 0.0
    ket = {"num_qubits": 1, "amplitudes": [[1, 0], pair]}
    with pytest.raises(ValueError, match="got true or false"):
        Ket.from_dict(ket)
    rho = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], pair]]}
    with pytest.raises(ValueError, match="got true or false"):
        DensityMatrix.from_dict(rho)


def test_from_dict_still_takes_zeros_and_ones_as_numbers():
    k = Ket.from_dict({"num_qubits": 1, "amplitudes": [[1, 0], [0.0, -0.0]]})
    assert np.array_equal(k.amplitudes, [1, 0])
    rho = {"dim": 2, "entries": [[[1.0, 0], [0, 0]], [[0, 0], [0, 0.0]]]}
    assert DensityMatrix.from_dict(rho).to_dict() == rho


def test_from_dict_keeps_every_bit_of_each_pair():
    # str, not ==, so the sign of each zero counts
    k = Ket.from_dict({"num_qubits": 1, "amplitudes": [[-0.0, 0.6], [0.8, -0.0]]})
    assert str(k.to_dict()["amplitudes"]) == "[[-0.0, 0.6], [0.8, -0.0]]"
    rho = {"dim": 2, "entries": [[[0.5, 0], [0, -0.5]], [[0, 0.5], [0.5, 0]]]}
    assert DensityMatrix.from_dict(rho).to_dict() == rho


def test_random_kets_stay_normalized_through_gate_chains():
    rng = np.random.default_rng(11)
    k = random_ket(rng, 4)
    for _ in range(32):
        gate = GATES[rng.integers(len(GATES))]
        k = apply_single_qubit(k, int(rng.integers(4)), gate)
    assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-10
