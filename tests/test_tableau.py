"""The protocol against a stabilizer tableau (tests/tableau.py), which shares
no code with the package's mask layout, at every N up to MAX_PAIRS; and the
orbit count of stabilizer states against a rank read off their tableaux."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import (
    Ket,
    bell,
    ghz4,
    interleave_permutation,
    ket_from_bits,
    orthogonal_orbit_count,
    s0,
    session,
    tensor,
)
from densecode.bellbasis import BellLabel
from densecode.limits import MAX_PAIRS

from tableau import Tableau, apply_row, run_step, s0_tableau


@pytest.mark.parametrize("n", range(1, MAX_PAIRS + 1))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_session_steps_agree_with_the_tableau(n, data):
    messages = data.draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=5))
    seed = data.draw(st.integers(0, 2**64))
    for step in session(n, messages, seed).to_dict()["steps"]:
        assert run_step(n, step["pauli"]) == step["outcome"] == step["message"]


@pytest.mark.parametrize("n", range(1, MAX_PAIRS + 1))
def test_interleaved_s0_has_the_stabilizers_of_n_bell_pairs(n):
    """factorize_s0's claim, past the sizes a ket allows."""
    shared = s0_tableau(n)
    shared.permute(interleave_permutation(n))
    pairs = Tableau(2 * n)
    for k in range(n):
        pairs.h(2 * k)
        pairs.cnot(2 * k, 2 * k + 1)
    assert np.array_equal(shared.stabilizers(), pairs.stabilizers())


@pytest.mark.parametrize("n", range(1, 5))
def test_the_tableau_prepares_the_packages_s0(n):
    """Each canonical stabilizer of the tableau's s0 fixes s0(n)'s amplitudes."""
    amplitudes = s0(n).amplitudes
    for row in s0_tableau(n).stabilizers():
        np.testing.assert_allclose(apply_row(amplitudes, row), amplitudes, atol=1e-15)


def _gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix, eliminating its rows read as integers."""
    basis = []  # reduced rows with distinct leading bits, descending
    for row in rows:
        v = int("".join(map(str, row)), 2)
        for b in basis:
            v = min(v, v ^ b)  # clears b's leading bit when v has it
        if v:
            basis = sorted(basis + [v], reverse=True)
    return len(basis)


def _ghz_tableau(n: int) -> Tableau:
    t = Tableau(n)
    t.h(0)
    for q in range(1, n):
        t.cnot(0, q)
    return t


def _phi_plus_then_zeros() -> Tableau:
    t = Tableau(4)
    t.h(0)
    t.cnot(0, 1)
    return t


_STABILIZER_STATES = {
    **{f"s0({n})": (s0(n), s0_tableau(n), 4**n) for n in range(1, 7)},
    "ghz 2+2": (ghz4(), _ghz_tableau(4), 8),
    "ghz 3+3": (Ket(6, np.array([1] + [0] * 62 + [1]) / 2**0.5), _ghz_tableau(6), 16),
    "|0000>": (ket_from_bits([0] * 4), Tableau(4), 4),
    "phi+ x |00>": (
        tensor(bell(BellLabel.PHI_PLUS), ket_from_bits([0, 0])),
        _phi_plus_then_zeros(),
        4,
    ),
}


@pytest.mark.parametrize("name", _STABILIZER_STATES)
def test_orbit_count_of_a_stabilizer_state(name):
    """4^N_A over the 2^(n - r) sender Paulis that fix the state up to phase,
    r the GF(2) rank of the stabilizer generators' receiver columns (x and z)."""
    k, tableau, expected = _STABILIZER_STATES[name]
    n, n_a = k.num_qubits, k.num_qubits // 2
    stabilizers = tableau.stabilizers()
    for row in stabilizers:  # the tableau holds the ket
        np.testing.assert_allclose(apply_row(k.amplitudes, row), k.amplitudes, atol=1e-15)
    r = _gf2_rank(np.hstack([stabilizers[:, n_a:n], stabilizers[:, n + n_a : 2 * n]]))
    assert 4**n_a == expected * 2 ** (n - r)
    assert orthogonal_orbit_count(k, n_a) == expected
