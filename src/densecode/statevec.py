"""Dense complex state-vector and density-matrix kernel.

Convention used throughout: qubit 0 is the leftmost symbol in ket notation
and the most significant bit of the amplitude index, so ``|01>`` is the
2-qubit state with amplitude 1 at index 1.  All operations are pure
functions on immutable values.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .limits import MAX_QUBITS, check

NORM_TOL = 1e-10
PHASE_TOL = 1e-10  # |<a|b>| >= 1 - PHASE_TOL: equal up to global phase
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
        n = _json_field(data, "num_qubits")
        return cls(n, _complex_from_pairs(_json_field(data, "amplitudes")))


def _complex_from_pairs(pairs) -> np.ndarray:
    """A JSON array of [re, im] number pairs as a complex array, converted in
    one pass: a string or null raises TypeError, anything but a pair, or a
    true or false, ValueError."""
    if set(map(len, pairs)) - {2}:
        raise ValueError("expected [re, im] number pairs")
    try:
        parts = array("d", chain.from_iterable(pairs))
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    flat = np.frombuffer(parts)
    # a JSON true or false converts to 1.0 or 0.0, so only then look for one
    if ((flat == 0) | (flat == 1)).any() and bool in map(type, chain.from_iterable(pairs)):
        raise ValueError("expected [re, im] number pairs, got true or false")
    return flat.view(complex)


_JSON_TYPES = {int: "integer", bool: "true or false", float: "number", str: "string"}


def _json_field(data: dict, key: str):
    """data[key], or a ValueError naming the key when it is missing."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{key} is missing") from None


def json_value(data: dict, key: str, kind: type):
    """data[key] when its JSON type is ``kind`` (int, bool, float or str),
    else a ValueError naming the key: no coercion, a bool is not an integer,
    and a float also takes a JSON integer."""
    value = _json_field(data, key)
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ValueError(f"{key} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")


def check_amplitudes(amps: np.ndarray) -> None:
    """The checks a Ket applies to its amplitudes, on one ket or on every row
    of a (B, 2**n) stack: every entry finite, and each row's norm within
    NORM_TOL of 1.  A norm past float64's range is inf, and fails."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite, got NaN or infinity")
    with np.errstate(over="ignore"):
        norms = (np.abs(amps) ** 2).sum(axis=-1)
    if (abs(norms - 1.0) > NORM_TOL).any():
        raise ValueError("amplitudes are not normalized")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over a power-of-two dimension, kept exactly Hermitian."""

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
        # past float64's range a difference is inf and a trace inf or NaN
        # (inf - inf), and either fails its check
        with np.errstate(over="ignore", invalid="ignore"):
            if float(np.max(np.abs(m - m.conj().T))) > NORM_TOL:
                raise ValueError("entries are not Hermitian")
            m /= 2  # an entry and its mirror add the same two halves, which cannot overflow
            m += m.conj().T
            tr = complex(np.trace(m))
        if not (abs(tr.real - 1.0) <= NORM_TOL and abs(tr.imag) <= NORM_TOL):
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
        m = cls(np.array([_complex_from_pairs(row) for row in _json_field(data, "entries")]))
        dim = _json_field(data, "dim")
        if type(dim) is not int or dim != m.dim:
            raise ValueError(f"dim must be the JSON integer {m.dim}, got {dim!r}")
        return m


# the sender's two gates (apply_pauli_string), read-only
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_X.setflags(write=False)
PAULI_Z.setflags(write=False)


def ket_from_bits(bits) -> Ket:
    """Computational basis state; bits[0] addresses qubit 0, the most significant bit."""
    bits = [check("bit", b, "basis state", 0, 1) for b in bits]
    check("bit count", len(bits), "MAX_QUBITS")  # before 2^count amplitudes are allocated
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[index] = 1.0
    return Ket(len(bits), amps)


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product with a's qubits more significant than b's; the qubit
    count is checked before the product is allocated."""
    n = check("num_qubits", a.num_qubits + b.num_qubits, "MAX_QUBITS")
    return Ket(n, np.kron(a.amplitudes, b.amplitudes))


def apply_single_qubit(k: Ket, qubit: int, gate: np.ndarray) -> Ket:
    """Apply a one-qubit gate at the given qubit position."""
    n = k.num_qubits
    check("qubit", qubit, f"{n}-qubit ket", 0, n - 1)
    psi = k.amplitudes.reshape([2] * n)
    psi = np.tensordot(np.asarray(gate, dtype=complex), psi, axes=([1], [qubit]))
    psi = np.moveaxis(psi, 0, qubit)
    return Ket(n, psi.reshape(-1))


def permute_qubits(k: Ket, perm) -> Ket:
    """Relabel qubits: qubit i of the input becomes qubit perm[i] of the output."""
    n = k.num_qubits
    perm = [check("perm", q, f"{n}-qubit ket", 0, n - 1) for q in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the qubit positions")
    psi = k.amplitudes.reshape([2] * n).transpose(np.argsort(perm))
    return Ket(n, psi.reshape(-1))


def pure_density(k: Ket) -> DensityMatrix:
    """Rank-1 density matrix |k><k|."""
    return DensityMatrix(np.outer(k.amplitudes, k.amplitudes.conj()))


def hermitian_eigenvalues(m: DensityMatrix | np.ndarray) -> np.ndarray:
    """All real eigenvalues of a DensityMatrix, descending.

    An array is read as a DensityMatrix, whose checks it must pass.  Cyclic
    Jacobi rotations are swept over the exactly Hermitian entries until the
    off-diagonal Frobenius norm is at most 1e-12 of the matrix's (tolerances
    scale with it).  Each rotation annihilates one off-diagonal entry: the
    complex phase is absorbed first, then a real plane rotation is applied.
    """
    a = (m if isinstance(m, DensityMatrix) else DensityMatrix(m)).entries.copy()
    with np.errstate(over="ignore"):  # past float64's range a sum of squares is inf
        norm = np.linalg.norm(a)
    if not np.isfinite(norm):  # the sweeps' norms would overflow
        raise ValueError("matrix norm is past float64's range")

    for _ in range(_JACOBI_SWEEPS):
        # norm of the off-diagonal part, summed directly to avoid cancellation
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= _JACOBI_OFFDIAG_TOL * norm:
            break
        for p in range(len(a) - 1):
            for q in range(p + 1, len(a)):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-15 * norm:
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


def equal_up_to_global_phase(a: Ket, b: Ket) -> bool:
    """True when the two states differ only by an unobservable unit phase factor."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("kets have different qubit counts")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - PHASE_TOL)
