"""Oracles for the structured Bell measurement that do not go through it.

Pauli strings compose by XOR of their (z, x) exponents up to a phase, so an
extra Pauli e on the sender's qubits of encode(m) must decode to m ^ e.  On
s0, (A ⊗ I)|s0> = (I ⊗ A^T)|s0>, and Z, X are their own transposes up to
sign, so the same holds for e applied to the receiver's qubits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import (
    PAULI_X,
    PAULI_Z,
    Ket,
    apply_pauli_string,
    apply_single_qubit,
    basis_matrix,
    decode,
    encode,
    outcome_probabilities,
    pauli_string,
    s0,
    s_state,
)


@st.composite
def frames(draw):
    """(n_pairs, message, extra Pauli index) for every size the protocol allows."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=4**n - 1))
    e = draw(st.integers(min_value=0, max_value=4**n - 1))
    return n, m, e


def _apply_on_receiver(k: Ket, e: int, n: int) -> Ket:
    ps = pauli_string(e, n)
    for qubit in range(n):
        if ps.x >> (n - 1 - qubit) & 1:
            k = apply_single_qubit(k, n + qubit, PAULI_X)
        if ps.z >> (n - 1 - qubit) & 1:
            k = apply_single_qubit(k, n + qubit, PAULI_Z)
    return k


@settings(max_examples=60, deadline=None)
@given(frames())
def test_sender_pauli_frame_xors_the_message(frame):
    n, m, e = frame
    assert decode(apply_pauli_string(encode(m, n), pauli_string(e, n)), n) == m ^ e


@settings(max_examples=60, deadline=None)
@given(frames())
def test_receiver_pauli_frame_xors_the_message(frame):
    n, m, e = frame
    assert decode(_apply_on_receiver(encode(m, n), e, n), n) == m ^ e


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_probabilities_match_dense_basis_on_haar_kets(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
    k = Ket(2 * n, amps / np.linalg.norm(amps))
    dense = np.abs(basis_matrix(n).conj() @ k.amplitudes) ** 2
    np.testing.assert_allclose(outcome_probabilities(k, n), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_s_state_equals_gate_by_gate_encoding(n):
    """Every message up to N = 4; above, the first, the last and six seeded."""
    shared = s0(n)
    if n <= 4:
        messages = range(4**n)
    else:
        messages = [0, 4**n - 1, *np.random.default_rng(n).integers(0, 4**n, size=6).tolist()]
    for m in messages:
        reference = apply_pauli_string(shared, pauli_string(m, n))
        np.testing.assert_array_equal(s_state(m, n).amplitudes, reference.amplitudes)
