"""The Walsh–Hadamard transform of the Bell measurement at its stage
boundaries, and the real-valued encoder that feeds it.

outcome_probabilities transforms over 2^N points as products with Hadamard
matrices of at most 2**STAGE_BITS rows, and the encoder builds each live row
from factors of at most STAGE_BITS bits.  With the width patched down to 1 or
2 bits, N = 3..6 runs two to six stages and factors, so every boundary
between them is exercised at sizes where a dense oracle is cheap.
"""

import numpy as np
import pytest

from densecode import (
    Ket,
    apply_pauli_string,
    basis_matrix,
    decode,
    encode,
    encoded_amplitudes,
    outcome_probabilities,
    pauli_string,
    s_state,
)
from densecode import protocol, transform
from densecode.transform import pauli_masks

from conftest import assert_signed_parities, random_ket


@pytest.fixture(params=[1, 2], ids=["1-bit stages", "2-bit stages"])
def narrow_stages(request, monkeypatch):
    """The transform's stages and the encoder's factors at STAGE_BITS =
    request.param, the encoder's cached tables rebuilt for it and dropped
    after the test."""
    transform.encoding_tables.cache_clear()
    monkeypatch.setattr(transform, "STAGE_BITS", request.param)
    yield request.param
    transform.encoding_tables.cache_clear()


def _dense_probabilities(k: Ket, n: int, messages) -> np.ndarray:
    """|<s_m|k>|^2 by direct overlaps with the encoded rows, in row blocks."""
    out = [
        np.abs(encoded_amplitudes(messages[i : i + 256], n) @ k.amplitudes) ** 2
        for i in range(0, len(messages), 256)
    ]
    return np.concatenate(out)


@pytest.mark.parametrize(
    "bits,n,stages",
    [(6, 1, 1), (6, 6, 1), (6, 7, 2), (6, 12, 2), (6, 13, 3), (2, 5, 3), (1, 6, 6)],
)
def test_stage_widths_cover_every_bit_within_the_cap(monkeypatch, bits, n, stages):
    monkeypatch.setattr(transform, "STAGE_BITS", bits)
    widths = transform._stage_bits(n)
    assert len(widths) == stages
    assert sum(widths) == n
    assert max(widths) <= bits
    assert max(widths) - min(widths) <= 1


def test_hadamard_matrix_entries():
    for bits in range(4):
        h = transform._hadamard(bits)
        i = np.arange(2**bits)
        parity = np.array([[bin(a & b).count("1") % 2 for b in i] for a in i])
        assert np.array_equal(h, 1 - 2 * parity)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_narrow_stages_match_the_dense_basis(narrow_stages, n):
    assert len(transform._stage_bits(n)) >= 2
    k = random_ket(np.random.default_rng(n), 2 * n)
    dense = np.abs(basis_matrix(n).conj() @ k.amplitudes) ** 2
    np.testing.assert_allclose(outcome_probabilities(k, n), dense, rtol=0, atol=1e-12)


def test_narrow_stages_match_direct_overlaps_at_n6(narrow_stages):
    n = 6
    k = random_ket(np.random.default_rng(6), 2 * n)
    dense = _dense_probabilities(k, n, np.arange(4**n))
    np.testing.assert_allclose(outcome_probabilities(k, n), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_narrow_stages_keep_the_pauli_frame(narrow_stages, n):
    rng = np.random.default_rng(100 + n)
    for m, e in rng.integers(0, 4**n, size=(8, 2)):
        m, e = int(m), int(e)
        assert decode(apply_pauli_string(encode(m, n), pauli_string(e, n)), n) == m ^ e


@pytest.mark.parametrize("n", range(1, 9))
def test_narrow_factors_give_signed_parities_bit_for_bit(narrow_stages, n):
    assert len(transform.encoding_tables(n)[2]) == -(-n // narrow_stages)
    assert_signed_parities(n)


def test_narrow_stages_round_trip(narrow_stages):
    assert protocol.roundtrip_all(4).failures == ()


def test_two_default_stages_match_direct_overlaps_at_n7():
    n = 7
    assert len(transform._stage_bits(n)) == 2
    rng = np.random.default_rng(7)
    k = random_ket(rng, 2 * n)
    sampled = np.sort(rng.choice(4**n, size=200, replace=False))
    rows = encoded_amplitudes(sampled, n)
    direct = np.array([abs(np.vdot(row, k.amplitudes)) ** 2 for row in rows])
    np.testing.assert_allclose(outcome_probabilities(k, n)[sampled], direct, rtol=0, atol=1e-12)
    assert decode(encode(int(sampled[-1]), n), n) == sampled[-1]


def test_a_ket_spanning_four_blocks_matches_direct_overlaps_at_n9():
    """A complex ket is gathered one block of x-rows at a time, its real and
    imaginary parts side by side: at N = 9 its 512 x-rows span 4 blocks."""
    n = 9
    rows = transform.BLOCK_AMPLITUDES // (2 * 2**n)  # x-rows per block
    assert 2**n // rows == 4
    rng = np.random.default_rng(9)
    k = random_ket(rng, 2 * n)
    sampled = np.sort(rng.choice(4**n, size=64, replace=False))
    assert set(pauli_masks(sampled, n)[1] // rows) == {0, 1, 2, 3}
    direct = [abs(np.vdot(s_state(int(m), n).amplitudes, k.amplitudes)) ** 2 for m in sampled]
    np.testing.assert_allclose(outcome_probabilities(k, n)[sampled], direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 9])
def test_encoded_amplitudes_are_real(n):
    messages = np.arange(min(4**n, 64))
    rows = encoded_amplitudes(messages, n)
    assert rows.dtype == np.float64
    for m in (0, int(messages[-1])):
        assert s_state(m, n).amplitudes.dtype == np.complex128
        assert encode(m, n).amplitudes.dtype == np.complex128
        assert np.array_equal(s_state(m, n).amplitudes, rows[m])


@pytest.mark.parametrize("n", range(1, 8))
def test_real_ket_probabilities_match_the_complex_cast(n):
    """A real array reaches the transform only as its complex cast, which
    every Ket holds: bell_squares refuses it by its dtype, and the cast's
    probabilities are the squared real overlaps with the encoded states."""
    rng = np.random.default_rng(50 + n)
    amps = rng.normal(size=(3, 4**n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    sampled = np.sort(rng.choice(4**n, size=min(4**n, 64), replace=False))
    states = encoded_amplitudes(sampled, n)
    refusal = "^psi must be a complex128 array, got dtype float64$"
    for row in amps:
        with pytest.raises(ValueError, match=refusal):
            transform.bell_squares(row, n)
        cast = outcome_probabilities(Ket(2 * n, row), n)
        np.testing.assert_allclose(cast[sampled], (states @ row) ** 2, rtol=0, atol=1e-15)
