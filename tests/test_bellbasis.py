import numpy as np
import pytest

from densecode import (
    PAULI_X,
    PAULI_Z,
    apply_pauli_string,
    apply_single_qubit,
    basis_matrix,
    bell,
    equal_up_to_global_phase,
    factorize,
    factorize_report,
    factorize_s0,
    g_group,
    g_state,
    g_to_s_map,
    ghz4,
    ghz_family,
    interleave_permutation,
    pauli_string,
    permute_qubits,
    s0,
    s_state,
    s_to_g_map,
    tensor,
)
from densecode.bellbasis import BellLabel, GhzLabel, PauliString
from densecode.transform import message_bits, pauli_masks

from conftest import partial_trace

# Frozen expectations for the four Bell states: (basis index, sign) terms,
# coefficient magnitude 1/sqrt(2).
BELL_TABLE = {
    BellLabel.PHI_PLUS: (("00", 1), ("11", 1)),
    BellLabel.PHI_MINUS: (("00", 1), ("11", -1)),
    BellLabel.PSI_PLUS: (("01", 1), ("10", 1)),
    BellLabel.PSI_MINUS: (("01", 1), ("10", -1)),
}

# Frozen expectations for all 16 g-states: (bitstring, sign) terms,
# coefficient magnitude 1/2.
G_TABLE = {
    1: (("0000", 1), ("0101", 1), ("1010", 1), ("1111", 1)),
    2: (("0000", 1), ("0101", 1), ("1010", -1), ("1111", -1)),
    3: (("0000", 1), ("0101", -1), ("1010", 1), ("1111", -1)),
    4: (("0000", 1), ("0101", -1), ("1010", -1), ("1111", 1)),
    5: (("0001", 1), ("0100", 1), ("1011", 1), ("1110", 1)),
    6: (("0001", 1), ("0100", 1), ("1011", -1), ("1110", -1)),
    7: (("0001", 1), ("0100", -1), ("1011", 1), ("1110", -1)),
    8: (("0001", 1), ("0100", -1), ("1011", -1), ("1110", 1)),
    9: (("0010", 1), ("0111", 1), ("1000", 1), ("1101", 1)),
    10: (("0010", 1), ("0111", 1), ("1000", -1), ("1101", -1)),
    11: (("0010", 1), ("0111", -1), ("1000", 1), ("1101", -1)),
    12: (("0010", 1), ("0111", -1), ("1000", -1), ("1101", 1)),
    13: (("0011", 1), ("0110", 1), ("1001", 1), ("1100", 1)),
    14: (("0011", 1), ("0110", 1), ("1001", -1), ("1100", -1)),
    15: (("0011", 1), ("0110", -1), ("1001", 1), ("1100", -1)),
    16: (("0011", 1), ("0110", -1), ("1001", -1), ("1100", 1)),
}

# Local operations turning g1 into each g-state, written left to right as
# operator products (so the rightmost factor applies first); qubits 1-indexed.
TABLE1_OPS = {
    1: (),
    2: (("z", 1),),
    3: (("z", 2),),
    4: (("z", 2), ("z", 1)),
    5: (("x", 2),),
    6: (("z", 1), ("x", 2)),
    7: (("z", 2), ("x", 2)),
    8: (("z", 2), ("z", 1), ("x", 2)),
    9: (("x", 1),),
    10: (("z", 1), ("x", 1)),
    11: (("z", 2), ("x", 1)),
    12: (("z", 2), ("z", 1), ("x", 1)),
    13: (("x", 2), ("x", 1)),
    14: (("z", 1), ("x", 2), ("x", 1)),
    15: (("z", 2), ("x", 2), ("x", 1)),
    16: (("z", 2), ("z", 1), ("x", 2), ("x", 1)),
}

# Bell-pair decomposition of each g-state after swapping qubits 1 and 2.
TABLE3_PAIRS = {
    1: ("Phi+", "Phi+"), 2: ("Phi-", "Phi+"), 3: ("Phi+", "Phi-"), 4: ("Phi-", "Phi-"),
    5: ("Phi+", "Psi+"), 6: ("Phi-", "Psi+"), 7: ("Phi+", "Psi-"), 8: ("Phi-", "Psi-"),
    9: ("Psi+", "Phi+"), 10: ("Psi-", "Phi+"), 11: ("Psi+", "Phi-"), 12: ("Psi-", "Phi-"),
    13: ("Psi+", "Psi+"), 14: ("Psi-", "Psi+"), 15: ("Psi+", "Psi-"), 16: ("Psi-", "Psi-"),
}

# GHZ-orbit states: (bitstring, sign) terms, coefficient magnitude 1/sqrt(2).
GHZ_TABLE = {
    GhzLabel.GHZ_PLUS: (("0000", 1), ("1111", 1)),
    GhzLabel.GHZ_MINUS: (("0000", 1), ("1111", -1)),
    GhzLabel.G_PLUS: (("0100", 1), ("1011", 1)),
    GhzLabel.G_MINUS: (("0100", 1), ("1011", -1)),
    GhzLabel.H_PLUS: (("1000", 1), ("0111", 1)),
    GhzLabel.H_MINUS: (("1000", 1), ("0111", -1)),
    GhzLabel.Z_PLUS: (("1100", 1), ("0011", 1)),
    GhzLabel.Z_MINUS: (("1100", 1), ("0011", -1)),
}

# Derived by matching both constructions state by state: entry j is the
# g-index of the state encoding message j.
S_TO_G_EXPECTED = (1, 2, 9, 10, 3, 4, 11, 12, 5, 6, 13, 14, 7, 8, 15, 16)


def _state_from_terms(num_qubits, terms, magnitude):
    amps = np.zeros(2**num_qubits, dtype=complex)
    for bits, sign in terms:
        amps[int(bits, 2)] = sign * magnitude
    return amps


class TestBell:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_amplitudes(self, label):
        expected = _state_from_terms(2, BELL_TABLE[label], 2**-0.5)
        assert np.allclose(bell(label).amplitudes, expected, atol=1e-12)

    def test_orthonormal(self):
        states = np.array([bell(label).amplitudes for label in BellLabel])
        gram = states.conj() @ states.T
        assert np.allclose(gram, np.eye(4), atol=1e-12)


class TestGStates:
    @pytest.mark.parametrize("i", range(1, 17))
    def test_amplitudes(self, i):
        expected = _state_from_terms(4, G_TABLE[i], 0.5)
        assert np.allclose(g_state(i).amplitudes, expected, atol=1e-12)

    def test_gram_is_identity(self):
        states = np.array([g_state(i).amplitudes for i in range(1, 17)])
        gram = states.conj() @ states.T
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_groups(self):
        assert [g_group(i) for i in (1, 4, 5, 8, 9, 12, 13, 16)] == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_index_range(self):
        with pytest.raises(ValueError):
            g_state(0)
        with pytest.raises(ValueError):
            g_state(17)

    @pytest.mark.parametrize("i", range(1, 17))
    def test_local_operations_from_g1(self, i):
        state = g_state(1)
        for kind, qubit in reversed(TABLE1_OPS[i]):
            gate = PAULI_Z if kind == "z" else PAULI_X
            state = apply_single_qubit(state, qubit - 1, gate)
        assert equal_up_to_global_phase(state, g_state(i))


class TestS0:
    def test_one_pair_is_phi_plus(self):
        assert np.allclose(s0(1).amplitudes, bell(BellLabel.PHI_PLUS).amplitudes, atol=1e-12)

    def test_two_pairs_is_g1(self):
        assert np.allclose(s0(2).amplitudes, g_state(1).amplitudes, atol=1e-12)

    def test_three_pairs_enumerated(self):
        amps = s0(3).amplitudes
        for index in range(64):
            sender, receiver = index >> 3, index & 0b111
            expected = 2**-1.5 if sender == receiver else 0.0
            assert amps[index] == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        with pytest.raises(ValueError):
            s0(0)
        with pytest.raises(ValueError):
            s0(14)


class TestPauliString:
    def test_identity_string(self):
        ps = pauli_string(0, 3)
        assert (ps.n, ps.z, ps.x) == (3, 0, 0)
        assert ps.tokens() == ""

    def test_a_string_longer_than_the_ket_is_refused(self):
        with pytest.raises(ValueError, match="longer than the ket"):
            apply_pauli_string(bell(BellLabel.PHI_PLUS), pauli_string(63, 3))

    def test_message_two_flips_first_qubit(self):
        ps = pauli_string(2, 2)
        assert (ps.z, ps.x) == (0b00, 0b10)
        assert ps.tokens() == "X1"
        assert equal_up_to_global_phase(apply_pauli_string(s0(2), ps), g_state(9))

    def test_message_three_is_zx_on_first_qubit(self):
        ps = pauli_string(3, 2)
        assert (ps.z, ps.x) == (0b10, 0b10)
        assert ps.tokens() == "Z1 X1"
        assert equal_up_to_global_phase(apply_pauli_string(s0(2), ps), g_state(10))

    def test_bit_layout_roundtrip(self):
        for message in range(64):
            ps = pauli_string(message, 3)
            rebuilt = sum(
                (ps.z >> (2 - k) & 1) << (2 * k) | (ps.x >> (2 - k) & 1) << (2 * k + 1)
                for k in range(3)
            )
            assert rebuilt == message

    @pytest.mark.parametrize("n", range(1, 9))
    def test_message_bits_invert_pauli_masks(self, n):
        bits = message_bits(n)
        z, x = np.meshgrid(np.arange(2**n), np.arange(2**n), indexing="ij")
        got_z, got_x = pauli_masks(bits[z] | bits[x] << 1, n)
        assert np.array_equal(got_z, z) and np.array_equal(got_x, x)

    def test_range(self):
        with pytest.raises(ValueError):
            pauli_string(16, 2)
        with pytest.raises(ValueError):
            pauli_string(-1, 2)

    def test_invalid_factors(self):
        with pytest.raises(ValueError, match=r"z must be in \[0, 3\]"):
            PauliString(2, 4, 0)
        with pytest.raises(ValueError, match=r"x must be in \[0, 1\]"):
            PauliString(1, 0, 2)


class TestSStates:
    @pytest.mark.parametrize("j,i", [(0, 1), (1, 2), (2, 9), (3, 10)])
    def test_low_message_correspondence(self, j, i):
        assert equal_up_to_global_phase(s_state(j, 2), g_state(i))

    def test_full_correspondence_matches_frozen_mapping(self):
        assert s_to_g_map() == S_TO_G_EXPECTED
        # re-derive with a direct overlap check, independent of the cached path
        for j, i in enumerate(S_TO_G_EXPECTED):
            overlap = abs(np.vdot(g_state(i).amplitudes, s_state(j, 2).amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_inverse_mapping(self):
        forward = s_to_g_map()
        backward = g_to_s_map()
        assert all(forward[backward[i - 1]] == i for i in range(1, 17))

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4])
    def test_orthonormality(self, n_pairs):
        states = basis_matrix(n_pairs)
        gram = states.conj() @ states.T
        assert np.max(np.abs(gram - np.eye(4**n_pairs))) < 1e-10

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_completeness(self, n_pairs):
        states = basis_matrix(n_pairs)
        resolution = states.T @ states.conj()
        assert np.max(np.abs(resolution - np.eye(4**n_pairs))) < 1e-10

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_sender_side_is_maximally_mixed(self, n_pairs):
        receiver = set(range(n_pairs, 2 * n_pairs))
        for j in range(4**n_pairs):
            rho = partial_trace(s_state(j, n_pairs), receiver)
            assert np.max(np.abs(rho.entries - np.eye(2**n_pairs) / 2**n_pairs)) < 1e-10

    def test_basis_cap(self):
        with pytest.raises(ValueError):
            basis_matrix(7)


class TestGhzFamily:
    @pytest.mark.parametrize("label", list(GhzLabel))
    def test_amplitudes(self, label):
        expected = _state_from_terms(4, GHZ_TABLE[label], 2**-0.5)
        assert np.allclose(ghz_family(label).amplitudes, expected, atol=1e-12)

    def test_orthonormal(self):
        states = np.array([ghz_family(label).amplitudes for label in GhzLabel])
        gram = states.conj() @ states.T
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    def test_local_orbit_stays_in_family_span(self):
        family = np.array([ghz_family(label).amplitudes for label in GhzLabel])
        for j in range(16):
            moved = apply_pauli_string(ghz4(), pauli_string(j, 2)).amplitudes
            overlaps = np.abs(family.conj() @ moved)
            # lands exactly on one family member, up to global phase
            assert np.max(overlaps) == pytest.approx(1.0, abs=1e-10)


class TestFactorize:
    @pytest.mark.parametrize("i", range(1, 17))
    def test_matches_frozen_pairs(self, i):
        first, second = factorize(i)
        assert (first.value, second.value) == TABLE3_PAIRS[i]

    @pytest.mark.parametrize("i", range(1, 17))
    def test_reconstruction(self, i):
        first, second = factorize(i)
        product = tensor(bell(first), bell(second))
        swapped = permute_qubits(g_state(i), (0, 2, 1, 3))
        assert equal_up_to_global_phase(product, swapped)

    def test_report_fields(self):
        report = factorize_report(8)
        assert report["g_index"] == 8
        assert (report["first"], report["second"]) == ("Phi-", "Psi-")
        assert report["max_deviation"] <= 1e-10


class TestFactorizeS0:
    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 5])
    def test_interleaved_resource_is_bell_pairs(self, n_pairs):
        report = factorize_s0(n_pairs)
        assert report.passed
        assert report.max_deviation <= 1e-10

    def test_permutation_layout(self):
        assert interleave_permutation(3) == (0, 2, 4, 1, 3, 5)

    def test_range(self):
        with pytest.raises(ValueError):
            factorize_s0(0)
        with pytest.raises(ValueError):
            factorize_s0(7)


def test_pauli_string_orbit_regenerates_whole_basis():
    # applying every encoding to the shared state must reproduce the basis rows
    states = basis_matrix(2)
    for j in range(16):
        direct = apply_pauli_string(s0(2), pauli_string(j, 2))
        assert np.allclose(direct.amplitudes, states[j], atol=1e-12)


def test_g_states_cover_all_sixteen_basis_kets_once():
    used = [bits for i in range(1, 17) for bits, _ in G_TABLE[i]]
    assert len(used) == 64
    for i in range(1, 17):
        nonzero = np.nonzero(np.abs(g_state(i).amplitudes) > 1e-12)[0]
        assert sorted(f"{v:04b}" for v in nonzero) == sorted(b for b, _ in G_TABLE[i])
