"""Bell states, the sixteen 4-qubit generalized Bell states, their 2N-qubit
generalization, the GHZ family, and Bell-pair factorizations.

A 2N-qubit state here always splits as ``|AA..BB..>``: the sender (Alice)
holds qubits 0..N-1 and the receiver (Bob) holds qubits N..2N-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import limits
from .statevec import (
    Ket,
    PAULI_X,
    PAULI_Z,
    PHASE_TOL,
    apply_single_qubit,
    equal_up_to_global_phase,
    permute_qubits,
    tensor,
)
from .transform import live_rows_into, message_masks, pauli_masks

_SQRT_HALF = 2.0**-0.5


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "Phi+"
    PHI_MINUS = "Phi-"
    PSI_PLUS = "Psi+"
    PSI_MINUS = "Psi-"


class GhzLabel(enum.Enum):
    """The eight orthogonal entangled 4-qubit states reachable from GHZ
    by operating on the first two qubits."""

    GHZ_PLUS = "GHZ+"
    GHZ_MINUS = "GHZ-"
    G_PLUS = "G+"
    G_MINUS = "G-"
    H_PLUS = "H+"
    H_MINUS = "H-"
    Z_PLUS = "Z+"
    Z_MINUS = "Z-"


# (basis index, sign) pairs; every coefficient is sign / sqrt(2)
_BELL_TERMS = {
    BellLabel.PHI_PLUS: ((0b00, 1), (0b11, 1)),
    BellLabel.PHI_MINUS: ((0b00, 1), (0b11, -1)),
    BellLabel.PSI_PLUS: ((0b01, 1), (0b10, 1)),
    BellLabel.PSI_MINUS: ((0b01, 1), (0b10, -1)),
}

# the four basis kets carrying each group of four g-states
_G_GROUP_KETS = (
    (0b0000, 0b0101, 0b1010, 0b1111),
    (0b0001, 0b0100, 0b1011, 0b1110),
    (0b0010, 0b0111, 0b1000, 0b1101),
    (0b0011, 0b0110, 0b1001, 0b1100),
)
# sign pattern of the four members within a group
_G_SIGNS = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)

_GHZ_TERMS = {
    GhzLabel.GHZ_PLUS: ((0b0000, 1), (0b1111, 1)),
    GhzLabel.GHZ_MINUS: ((0b0000, 1), (0b1111, -1)),
    GhzLabel.G_PLUS: ((0b0100, 1), (0b1011, 1)),
    GhzLabel.G_MINUS: ((0b0100, 1), (0b1011, -1)),
    GhzLabel.H_PLUS: ((0b1000, 1), (0b0111, 1)),
    GhzLabel.H_MINUS: ((0b1000, 1), (0b0111, -1)),
    GhzLabel.Z_PLUS: ((0b1100, 1), (0b0011, 1)),
    GhzLabel.Z_MINUS: ((0b1100, 1), (0b0011, -1)),
}


def bell(label: BellLabel) -> Ket:
    """One of the four Bell states, with the conventional signs."""
    amps = np.zeros(4, dtype=complex)
    for index, sign in _BELL_TERMS[label]:
        amps[index] = sign * _SQRT_HALF
    return Ket(2, amps)


def g_state(i: int) -> Ket:
    """The i-th generalized Bell state on 4 qubits, i in 1..16.

    Each state is an equal-weight (+-1/2) superposition of the four basis
    kets of its group; the sign pattern cycles ++++, ++--, +-+-, +--+
    within a group.
    """
    limits.check("g-state index", i, "g1..g16", high=16)
    group, member = divmod(i - 1, 4)
    amps = np.zeros(16, dtype=complex)
    for index, sign in zip(_G_GROUP_KETS[group], _G_SIGNS[member]):
        amps[index] = 0.5 * sign
    return Ket(4, amps)


def g_group(i: int) -> int:
    """Group number (1..4) of a g-state index."""
    limits.check("g-state index", i, "g1..g16", high=16)
    return (i - 1) // 4 + 1


def ghz_family(label: GhzLabel) -> Ket:
    """One of the eight orthogonal 4-qubit states in the GHZ local orbit."""
    amps = np.zeros(16, dtype=complex)
    for index, sign in _GHZ_TERMS[label]:
        amps[index] = sign * _SQRT_HALF
    return Ket(4, amps)


def ghz4() -> Ket:
    """The 4-qubit GHZ state (|0000> + |1111>)/sqrt(2)."""
    return ghz_family(GhzLabel.GHZ_PLUS)


def s0(n_pairs: int) -> Ket:
    """Shared resource state for ``n_pairs`` transmitted qubits.

    2N qubits in the uniform superposition pairing every sender bit
    pattern with the identical receiver pattern; for one pair this is
    Phi+ and for two pairs it is g1.
    """
    limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    d = 2**n_pairs
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * d + np.arange(d)] = d**-0.5
    return Ket(2 * n_pairs, amps)


@dataclass(frozen=True)
class PauliString:
    """Exponent masks z and x on the first n qubits: bit n-1-k is qubit k (pauli_masks).

    On each qubit, X applies before Z (the operator reads Z^z X^x).
    """

    n: int
    z: int
    x: int

    def __post_init__(self):
        n = limits.check("n", self.n, "MAX_QUBITS")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", limits.check("z", self.z, "2**n - 1", 0, 2**n - 1))
        object.__setattr__(self, "x", limits.check("x", self.x, "2**n - 1", 0, 2**n - 1))

    def tokens(self) -> str:
        """Space-separated 'Z<k>'/'X<k>' tokens, 1-indexed, Z before X per qubit."""
        parts = []
        for k in range(1, self.n + 1):
            if self.z >> (self.n - k) & 1:
                parts.append(f"Z{k}")
            if self.x >> (self.n - k) & 1:
                parts.append(f"X{k}")
        return " ".join(parts)


def pauli_string(message: int, n_pairs: int) -> PauliString:
    """Sender-side encoding operation for a 2N-bit message.

    Counting bits of the message from the right, bit 2k-2 is the Z exponent
    and bit 2k-1 the X exponent on (1-indexed) qubit k (pauli_masks).
    """
    n_pairs = limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    return PauliString(n_pairs, *pauli_masks(limits.check_message(message, n_pairs), n_pairs))


def apply_pauli_string(k: Ket, ps: PauliString) -> Ket:
    """Apply the string to the first ps.n qubits of k."""
    if ps.n > k.num_qubits:
        raise ValueError("Pauli string is longer than the ket")
    out = k
    for qubit in range(ps.n):
        if ps.x >> (ps.n - 1 - qubit) & 1:
            out = apply_single_qubit(out, qubit, PAULI_X)
        if ps.z >> (ps.n - 1 - qubit) & 1:
            out = apply_single_qubit(out, qubit, PAULI_Z)
    return out


def encoded_live_rows(messages, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Each message's encoding as its live row after the receiver's CNOTs
    (see densecode.transform): (x, rows), where x[b] is message b's X-mask
    (int64, shape (B,)) and rows[b] its live row, a (B, 2**n_pairs) float64
    array, B = len(messages).  Checks both arguments, and returns fresh
    arrays: the measurement writes the same rows into its block buffers.
    """
    size = np.size(messages) * 2 ** limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    masks = message_masks(messages, n_pairs)
    return masks[1], live_rows_into(masks, n_pairs, np.empty(size), np.empty(size))


def encoded_amplitudes(messages, n_pairs: int) -> np.ndarray:
    """Amplitudes of the generalized Bell state of each message, one row each:
    a (len(messages), 4**n_pairs) float64 array.  The rows of
    encoded_live_rows are scattered back through the CNOTs, to Ψ_b[c, c⊕x_b]
    at c·2^N + (c⊕x_b), without applying gates one by one."""
    x, rows = encoded_live_rows(messages, n_pairs)
    c = np.arange(2**n_pairs)
    amps = np.zeros((len(rows), 4**n_pairs))
    np.put_along_axis(amps, c * 2**n_pairs + (c ^ x[:, None]), rows, axis=1)
    return amps


def s_state(message: int, n_pairs: int) -> Ket:
    """Generalized Bell state indexed by a 2N-bit message: the sender's Pauli
    string applied to s0 (see encoded_live_rows)."""
    n_pairs = limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    message = limits.check_message(message, n_pairs)
    return Ket(2 * n_pairs, encoded_amplitudes([message], n_pairs)[0])


@cache
def basis_matrix(n_pairs: int) -> np.ndarray:
    """All 4**n_pairs generalized Bell states as rows, message index ascending.

    A dense reference for tests: the protocol measures without it.
    """
    limits.check("n_pairs", n_pairs, "MAX_BASIS_PAIRS")
    d = 4**n_pairs
    rows = np.empty((d, d), dtype=complex)
    for j in range(d):
        rows[j] = s_state(j, n_pairs).amplitudes
    rows.setflags(write=False)
    return rows


@cache
def s_to_g_map() -> tuple[int, ...]:
    """g-state index encoded by each 4-bit message, matched numerically.

    Entry j is the unique i with s_state(j, 2) equal to g_state(i) up to
    global phase.
    """
    mapping = []
    for j in range(16):
        sj = s_state(j, 2)
        matches = [i for i in range(1, 17) if equal_up_to_global_phase(sj, g_state(i))]
        if len(matches) != 1:
            raise RuntimeError(f"message {j} matched g-states {matches}")
        mapping.append(matches[0])
    if sorted(mapping) != list(range(1, 17)):
        raise RuntimeError("message/g-state correspondence is not a bijection")
    return tuple(mapping)


@cache
def g_to_s_map() -> tuple[int, ...]:
    """Message encoding each g-state: entry i-1 is the message for g_i."""
    forward = s_to_g_map()
    return tuple(forward.index(i) for i in range(1, 17))


def factorize(i: int) -> tuple[BellLabel, BellLabel]:
    """Bell-pair decomposition of a g-state after interleaving the middle qubits."""
    target = permute_qubits(g_state(i), interleave_permutation(2))
    for first in BellLabel:
        for second in BellLabel:
            if equal_up_to_global_phase(target, tensor(bell(first), bell(second))):
                return first, second
    raise RuntimeError(f"no Bell-pair factorization found for g{i}")


def factorize_report(i: int) -> dict:
    """JSON-ready factorization record with its reconstruction deviation."""
    first, second = factorize(i)
    target = permute_qubits(g_state(i), interleave_permutation(2))
    product = tensor(bell(first), bell(second))
    phase = complex(np.vdot(product.amplitudes, target.amplitudes))
    phase /= abs(phase)
    deviation = float(np.max(np.abs(target.amplitudes - phase * product.amplitudes)))
    return {
        "g_index": i,
        "first": first.value,
        "second": second.value,
        "max_deviation": deviation,
    }


def interleave_permutation(n_pairs: int) -> tuple[int, ...]:
    """Moves each sender qubit next to its receiver partner: A_k -> 2k, B_k -> 2k+1."""
    limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    perm = [0] * (2 * n_pairs)
    for k in range(n_pairs):
        perm[k] = 2 * k
        perm[n_pairs + k] = 2 * k + 1
    return tuple(perm)


@dataclass(frozen=True)
class InterleaveReport:
    """Outcome of checking s0 against a product of Bell pairs."""

    n_pairs: int
    passed: bool
    max_deviation: float


def factorize_s0(n_pairs: int) -> InterleaveReport:
    """Verify that the shared resource equals one Phi+ pair per transmitted qubit."""
    limits.check("n_pairs", n_pairs, "MAX_BASIS_PAIRS")
    state = permute_qubits(s0(n_pairs), interleave_permutation(n_pairs))
    product = bell(BellLabel.PHI_PLUS)
    for _ in range(n_pairs - 1):
        product = tensor(product, bell(BellLabel.PHI_PLUS))
    deviation = float(np.max(np.abs(state.amplitudes - product.amplitudes)))
    return InterleaveReport(n_pairs, deviation <= PHASE_TOL, deviation)
