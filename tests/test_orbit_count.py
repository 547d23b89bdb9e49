"""orthogonal_orbit_count against the gate-by-gate greedy pass it replaces.

The oracle applies every local Pauli string with apply_pauli_string and keeps
a candidate when its overlap with every kept state stays below the tolerance;
the library reads the same overlaps off one Pauli transform of the sender's
reduced state.  Both visit the strings in ascending index.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import (
    Ket,
    apply_pauli_string,
    bell,
    bellbasis,
    capacity,
    g_state,
    ghz4,
    ket_from_bits,
    orthogonal_orbit_count,
    pauli_string,
    permute_qubits,
    s0,
    tensor,
)
from densecode.bellbasis import BellLabel
from densecode.capacity import ORTHOGONALITY_TOL
from densecode.cli import main

from conftest import random_ket


def gate_by_gate_count(k: Ket, alice_qubits: int) -> int:
    kept: list[np.ndarray] = []
    for j in range(4**alice_qubits):
        candidate = apply_pauli_string(k, pauli_string(j, alice_qubits)).amplitudes
        if all(abs(np.vdot(other, candidate)) < ORTHOGONALITY_TOL for other in kept):
            kept.append(candidate)
    return len(kept)


_HAAR = np.random.default_rng(61)


@pytest.mark.parametrize(
    "state, alice_qubits, expected",
    [
        (g_state(1), 2, 16),
        (ghz4(), 2, 8),
        (ket_from_bits([0, 0, 0, 0]), 2, 4),
        (random_ket(_HAAR, 4), 2, 1),
        (random_ket(_HAAR, 6), 3, 1),
    ],
    ids=["g1", "ghz", "0000", "haar4", "haar6"],
)
def test_transform_matches_the_gate_by_gate_pass(state, alice_qubits, expected):
    assert gate_by_gate_count(state, alice_qubits) == expected
    assert orthogonal_orbit_count(state, alice_qubits) == expected


_Y_PLUS = Ket(2, np.array([1, 0, 1j, 0]) * 2**-0.5)  # (|0> + i|1>)|0> / sqrt(2)
_PAIRS = (
    *(bell(label) for label in BellLabel),
    ket_from_bits([0, 0]),
    ket_from_bits([1, 0]),
    Ket(2, np.array([1, 1, 0, 0]) * 2**-0.5),  # |0>|+>
    Ket(2, np.array([1, 0, 1, 0]) * 2**-0.5),  # |+>|0>
    _Y_PLUS,
)


def _pairs_to_sender_first(pairs) -> Ket:
    """Tensor of two-qubit (sender, receiver) pairs, with all sender qubits
    first: pair k's qubits land on k and N + k."""
    k = pairs[0]
    for pair in pairs[1:]:
        k = tensor(k, pair)
    n = len(pairs)
    return permute_qubits(k, [q // 2 + (q % 2) * n for q in range(2 * n)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(_PAIRS))), min_size=2, max_size=3))
def test_mixes_of_bell_and_product_pairs_match_the_oracle(choice):
    k = _pairs_to_sender_first([_PAIRS[i] for i in choice])
    n = len(choice)
    assert orthogonal_orbit_count(k, n) == gate_by_gate_count(k, n)


def test_pair_layout_puts_partners_n_apart():
    k = _pairs_to_sender_first([bell(BellLabel.PHI_PLUS)] * 3)
    assert np.allclose(k.amplitudes, s0(3).amplitudes, rtol=0, atol=1e-15)


def test_overlap_tolerance_applies_to_the_modulus():
    # tr(rho_A Z) = cos 2t = 1e-6: above the tolerance, its square below it
    t = np.arccos(1e-6) / 2
    k = Ket(2, np.array([np.cos(t), 0, 0, np.sin(t)]))
    assert gate_by_gate_count(k, 1) == 2
    assert orthogonal_orbit_count(k, 1) == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_shared_state_reaches_all_four_to_the_n(n):
    # the paper's claim: 4^N mutually orthogonal states by sender-local Paulis
    assert orthogonal_orbit_count(s0(n), n) == 4**n


def test_orbit_count_never_applies_gates(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("apply_pauli_string called")

    # the second patch also catches a caller that imported apply_pauli_string
    # by name, since its gates resolve apply_single_qubit in bellbasis
    monkeypatch.setattr(bellbasis, "apply_pauli_string", refuse)
    monkeypatch.setattr(bellbasis, "apply_single_qubit", refuse)
    assert orthogonal_orbit_count(g_state(1), 2) == 16
    assert capacity.orthogonal_orbit_count(ghz4(), 2) == 8
    assert main(["ghz-compare"]) == 0
    assert '"orbit": 16' in capsys.readouterr().out
