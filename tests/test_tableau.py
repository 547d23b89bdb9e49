"""The protocol against a stabilizer tableau (tests/tableau.py), which shares
no code with the package's mask layout, at every N up to MAX_PAIRS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import interleave_permutation, s0, session
from densecode.limits import MAX_PAIRS

from tableau import Tableau, apply_row, run_step, s0_tableau


@pytest.mark.parametrize("n", range(1, MAX_PAIRS + 1))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_session_steps_agree_with_the_tableau(n, data):
    messages = data.draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=5))
    seed = data.draw(st.integers(0, 2**64))
    for step in session(n, messages, seed).steps:
        assert run_step(n, step.pauli) == step.outcome == step.message


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
