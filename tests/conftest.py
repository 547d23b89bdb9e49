import numpy as np
from hypothesis import strategies as st

from densecode import DensityMatrix, Ket
from densecode.bellbasis import encoded_live_rows
from densecode.transform import pauli_masks

_finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def ket_strategy(num_qubits: int):
    """Random normalized kets with the given qubit count."""
    dim = 2**num_qubits

    def build(pairs):
        amps = np.array([complex(re, im) for re, im in pairs])
        norm = float(np.linalg.norm(amps))
        if norm < 1e-3:
            return None
        return Ket(num_qubits, amps / norm)

    return (
        st.lists(st.tuples(_finite, _finite), min_size=dim, max_size=dim)
        .map(build)
        .filter(lambda k: k is not None)
    )


def random_ket(rng: np.random.Generator, num_qubits: int) -> Ket:
    """Seeded random normalized ket (for loops where hypothesis is overkill)."""
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return Ket(num_qubits, amps / np.linalg.norm(amps))


def partial_trace(k: Ket, keep) -> DensityMatrix:
    """Reference reduced density matrix over the kept qubits, in ascending
    qubit order; it checks no arguments."""
    n = k.num_qubits
    kept = sorted(keep)
    traced = [q for q in range(n) if q not in kept]
    psi = k.amplitudes.reshape([2] * n).transpose(kept + traced).reshape(2 ** len(kept), -1)
    return DensityMatrix(psi @ psi.conj().T)


def assert_signed_parities(n: int) -> None:
    """Live rows built from the factor tables are exactly (1 - 2·parity(z & c))·
    2^{-N/2}, sign bits included, and an empty block keeps its shape however
    many factors N has."""
    messages = np.random.default_rng(n).integers(0, 4**n, size=40)
    x, rows = encoded_live_rows(messages, n)
    z, want_x = pauli_masks(messages, n)
    masked = z[:, None] & np.arange(2**n)
    parity = np.zeros_like(masked)
    for k in range(n):
        parity ^= (masked >> k) & 1
    want = (1 - 2 * parity) * (2**n) ** -0.5
    assert np.array_equal(x, want_x)
    assert np.array_equal(rows.view(np.int64), want.view(np.int64))
    x, rows = encoded_live_rows([], n)
    assert x.shape == (0,) and rows.shape == (0, 2**n)
