"""Dense complex state-vector and density-matrix kernel.

Convention used throughout: qubit 0 is the leftmost symbol in ket notation
and the most significant bit of the amplitude index, so ``|01>`` is the
2-qubit state with amplitude 1 at index 1.  All operations are pure
functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limits import MAX_QUBITS, check

NORM_TOL = 1e-10
_JACOBI_OFFDIAG_TOL = 1e-12
_JACOBI_SWEEPS = 100  # sweeps before giving up


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized pure state of ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.num_qubits
        if type(n) is not int or not 1 <= n <= MAX_QUBITS:
            n = check("num_qubits", n, "MAX_QUBITS")
            object.__setattr__(self, "num_qubits", n)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**n:
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.size}")
        check_amplitudes(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_dict(self) -> dict:
        """JSON-ready form: {"num_qubits": n, "amplitudes": [[re, im], ...]}."""
        return {
            "num_qubits": self.num_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> Ket:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return cls(data["num_qubits"], amps)


def check_amplitudes(amps: np.ndarray) -> None:
    """The checks a Ket applies to its amplitudes, on one ket or on every row
    of a (B, 2**n) stack: every entry finite, and each row's norm within
    NORM_TOL of 1."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite, got NaN or infinity")
    norms = (np.abs(amps) ** 2).sum(axis=-1)
    if (abs(norms - 1.0) > NORM_TOL).any():
        raise ValueError("amplitudes are not normalized")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over a power-of-two dimension."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must form a square matrix")
        d = m.shape[0]
        if d < 1 or d & (d - 1):
            raise ValueError(f"dimension must be a power of two, got {d}")
        if not np.isfinite(m).all():
            raise ValueError("entries must be finite, got NaN or infinity")
        if float(np.max(np.abs(m - m.conj().T))) > NORM_TOL:
            raise ValueError("entries are not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr.real - 1.0) > NORM_TOL or abs(tr.imag) > NORM_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready form: {"dim": d, "entries": [[[re, im], ...], ...]} row-major."""
        return {
            "dim": self.dim,
            "entries": [[[float(v.real), float(v.imag)] for v in row] for row in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> DensityMatrix:
        entries = np.array(
            [[complex(re, im) for re, im in row] for row in data["entries"]]
        )
        m = cls(entries)
        dim = data["dim"]
        if type(dim) is not int or dim != m.dim:
            raise ValueError(f"dim must be the JSON integer {m.dim}, got {dim!r}")
        return m


def one_qubit_gate(entries) -> np.ndarray:
    """Validate a 2x2 unitary and return it as a read-only array."""
    g = np.array(entries, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("a one-qubit gate must be 2x2")
    if float(np.max(np.abs(g.conj().T @ g - np.eye(2)))) > NORM_TOL:
        raise ValueError("gate is not unitary")
    g.setflags(write=False)
    return g


IDENTITY = one_qubit_gate([[1, 0], [0, 1]])
PAULI_X = one_qubit_gate([[0, 1], [1, 0]])
PAULI_Y = one_qubit_gate([[0, -1j], [1j, 0]])
PAULI_Z = one_qubit_gate([[1, 0], [0, -1]])
ZX = one_qubit_gate(PAULI_Z @ PAULI_X)  # X then Z; equals i*PAULI_Y


def ket_from_bits(bits) -> Ket:
    """Computational basis state; bits[0] addresses qubit 0, the most significant bit."""
    bits = list(bits)
    if not bits:
        raise ValueError("bits must be nonempty")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[index] = 1.0
    return Ket(len(bits), amps)


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product with a's qubits more significant than b's."""
    return Ket(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def apply_single_qubit(k: Ket, qubit: int, gate: np.ndarray) -> Ket:
    """Apply a one-qubit gate at the given qubit position."""
    n = k.num_qubits
    check("qubit", qubit, f"{n}-qubit ket", 0, n - 1)
    psi = k.amplitudes.reshape([2] * n)
    psi = np.tensordot(np.asarray(gate, dtype=complex), psi, axes=([1], [qubit]))
    psi = np.moveaxis(psi, 0, qubit)
    return Ket(n, psi.reshape(-1))


def inner(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in a."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("kets have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_trace(k: Ket, keep) -> DensityMatrix:
    """Reduced density matrix over the kept qubits, in ascending qubit order."""
    n = k.num_qubits
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep must be nonempty")
    if any(not 0 <= q < n for q in kept):
        raise ValueError("keep contains out-of-range qubits")
    if len(kept) == n:
        raise ValueError("keep must be a proper subset of the qubits")
    traced = [q for q in range(n) if q not in kept]
    psi = k.amplitudes.reshape([2] * n)
    psi = np.transpose(psi, kept + traced).reshape(2 ** len(kept), -1)
    return DensityMatrix(psi @ psi.conj().T)


def permute_qubits(k: Ket, perm) -> Ket:
    """Relabel qubits: qubit i of the input becomes qubit perm[i] of the output."""
    n = k.num_qubits
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the qubit positions")
    inverse = [0] * n
    for old, new in enumerate(perm):
        inverse[new] = old
    psi = k.amplitudes.reshape([2] * n).transpose(inverse)
    return Ket(n, psi.reshape(-1))


def pure_density(k: Ket) -> DensityMatrix:
    """Rank-1 density matrix |k><k|."""
    return DensityMatrix(np.outer(k.amplitudes, k.amplitudes.conj()))


def hermitian_eigenvalues(m: DensityMatrix | np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, descending.

    Uses cyclic Jacobi rotations, sweeping until the off-diagonal Frobenius
    norm drops below 1e-12.  Each rotation annihilates one off-diagonal
    entry: the complex phase is absorbed first, then a real plane rotation
    is applied.
    """
    a = m.entries if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite, got NaN or infinity")
    if float(np.max(np.abs(a - a.conj().T))) > NORM_TOL:
        raise ValueError("matrix is not Hermitian")
    a = np.array(a, dtype=complex)
    d = a.shape[0]
    if d == 1:
        return np.array([a[0, 0].real])

    for _ in range(_JACOBI_SWEEPS):
        # norm of the off-diagonal part, summed directly to avoid cancellation
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off < _JACOBI_OFFDIAG_TOL:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                r = abs(apq)
                if r < 1e-15:
                    continue
                phase = apq / r
                theta = 0.5 * math.atan2(2.0 * r, (a[q, q] - a[p, p]).real)
                c = math.cos(theta)
                s = math.sin(theta)
                # unitary on the (p, q) plane: [[c, s], [-conj(phase)*s, conj(phase)*c]]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - np.conj(phase) * s * col_q
                a[:, q] = s * col_p + np.conj(phase) * c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - phase * s * row_q
                a[q, :] = s * row_p + phase * c * row_q
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return np.sort(np.diag(a).real)[::-1]


def equal_up_to_global_phase(a: Ket, b: Ket, tol: float = 1e-10) -> bool:
    """True when the two states differ only by an unobservable unit phase factor."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("kets have different qubit counts")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)
