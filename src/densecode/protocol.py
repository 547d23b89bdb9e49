"""Superdense coding engine: message encoding, generalized Bell measurement,
deterministic decoding, bit conventions, and session transcripts.

Messages are integers in [0, 2^(2N) - 1]; every round trip moves 2N
classical bits while only the sender's N qubits change hands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import limits
from .bellbasis import encoded_amplitudes, pauli_masks, pauli_string, s_state
from .statevec import Ket, check_amplitudes

DECODE_TOL = 1e-8
# Messages are encoded and measured in blocks of this many amplitudes (128 KiB
# of float64 per array), so numpy's per-call overhead is paid once per block.
BLOCK_AMPLITUDES = 2**14
# The Walsh–Hadamard transform over 2^N points is done as products with ±1
# Hadamard matrices of at most 2**STAGE_BITS rows: one gemm for N <= 6.
STAGE_BITS = 6


class NotABasisStateError(ValueError):
    """The ket is not (up to global phase) a generalized Bell basis state."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """Sampled basis index together with its outcome probability."""

    index: int
    probability: float


# Fixed 4-bit labels the two parties agree on for g1..g16 (convention
# "table2"); entry i-1 labels g_i.  This is the only hard-coded table in
# the package; everything else is computed.
_TABLE2_BITS = (
    "0000", "0001", "0010", "0100",
    "1000", "0011", "0110", "1100",
    "0101", "1001", "1010", "0111",
    "1011", "1101", "1110", "1111",
)


def encode(message: int, n_pairs: int) -> Ket:
    """Sender-side encoding: the local Pauli string applied to the shared state."""
    return s_state(message, n_pairs)


def _blocks(count: int, n_pairs: int):
    """Slices cutting ``count`` messages into blocks of BLOCK_AMPLITUDES // 4**N
    rows (at least one row per block)."""
    rows = max(1, BLOCK_AMPLITUDES >> 2 * n_pairs)
    return (slice(start, start + rows) for start in range(0, count, rows))


def _checked_encoding(messages, n_pairs: int) -> np.ndarray:
    """encoded_amplitudes of a block, put through the checks a Ket applies."""
    amps = encoded_amplitudes(messages, n_pairs)
    check_amplitudes(amps)
    return amps


@cache
def _measurement_tables(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables for _pauli_coefficients, one integer per amplitude each.

    gather[x, c] is the flat position of Ψ[c, c⊕x] in a 2N-qubit ket;
    order[m] is the flat position of outcome (x, z) in the transformed
    x-by-z array for message m.
    """
    d = 2**n_pairs
    c = np.arange(d)
    gather = c * d + (c ^ c[:, None])
    z, x = pauli_masks(np.arange(d * d), n_pairs)
    order = x * d + z
    gather.setflags(write=False)
    order.setflags(write=False)
    return gather, order


@cache
def _hadamard(bits: int) -> np.ndarray:
    """The unnormalised ±1 Hadamard matrix H[i, j] = (-1)^popcount(i & j)."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _stage_bits(n_pairs: int) -> list[int]:
    """Bit widths of the transform stages: as few as STAGE_BITS allows, as even
    as possible, most significant bits first."""
    stages = -(-n_pairs // STAGE_BITS)
    return [n_pairs // stages + (i < n_pairs % stages) for i in range(stages)]


def _pauli_coefficients(amps: np.ndarray, n_pairs: int) -> np.ndarray:
    """Signed, unnormalised coefficients Σ_c (-1)^popcount(z & c) Ψ_b[c, c⊕x]
    for every Pauli mask pair (x, z) and every row ψ_b of a (B, 4**n_pairs)
    stack of real or complex arrays, in the transform's x-major order x·2^N + z.

    The result has shape (parts, B, 4**n_pairs): one part for real input, and
    the real and imaginary parts for complex input, so every product is a
    float64 gemm.  With a ket read as a 2^N x 2^N matrix Ψ (sender qubits
    index rows) the coefficient of (x, z) is 2^{N/2} <s_m|ψ> for the message
    with those masks; with a matrix ρ it is ±tr(ρ Z^z X^x).  One gather
    G[b, x, c] = Ψ_b[c, c⊕x] followed by a Walsh–Hadamard transform over c
    yields them all, with no 4^N x 4^N basis.  The transform is a product
    with H_{2^N} = ⊗ H_{2^k} over groups of k <= STAGE_BITS bits of c, one
    matrix product per group: O(4^N·Σ 2^k) time per row, run by BLAS.  This
    is the CNOT + Hadamard Bell measurement carried out on amplitudes.
    """
    d = 2**n_pairs
    gather = _measurement_tables(n_pairs)[0]
    parts = np.array((amps.real, amps.imag)) if np.iscomplexobj(amps) else amps[None]
    g = np.take(parts, gather, axis=2)
    inner = d
    for bits in _stage_bits(n_pairs):
        inner >>= bits
        if inner == 1:
            g = g.reshape(-1, 2**bits) @ _hadamard(bits)
        else:
            g = _hadamard(bits) @ g.reshape(-1, 2**bits, inner)
    return g.reshape(len(parts), len(amps), d * d)


def _outcome_squares(amps: np.ndarray, n_pairs: int) -> np.ndarray:
    """|<s|ψ_b>|^2 for every outcome, in the transform's x-major order."""
    coef = _pauli_coefficients(amps, n_pairs)
    probs = np.square(coef[0])
    if len(coef) > 1:
        probs += np.square(coef[1])
    probs *= 1 / 2**n_pairs  # exact: a power of two
    return probs


def _bell_probabilities(amps: np.ndarray, n_pairs: int) -> np.ndarray:
    """|<s_j|ψ_b>|^2 for every message j (columns, ascending) and every row ψ_b
    of a (B, 4**n_pairs) stack of real or complex kets (see _pauli_coefficients)."""
    order = _measurement_tables(n_pairs)[1]
    return np.take(_outcome_squares(amps, n_pairs), order, axis=1)


def outcome_probabilities(k: Ket, n_pairs: int) -> np.ndarray:
    """|<s_j|k>|^2 for every message j, ascending (see _bell_probabilities)."""
    if k.num_qubits != 2 * n_pairs:
        raise ValueError(f"expected {2 * n_pairs} qubits, got {k.num_qubits}")
    return _bell_probabilities(k.amplitudes[None], n_pairs)[0]


def _inverse_cdf_sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(probs)
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(probs) - 1))


def _sample_outcome(probs: np.ndarray, seed: int) -> MeasurementOutcome:
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total}; input is not normalized")
    rng = np.random.default_rng(seed)
    index = _inverse_cdf_sample(probs, rng)
    return MeasurementOutcome(index, float(probs[index]))


def measure_generalized_bell(k: Ket, n_pairs: int, seed: int) -> MeasurementOutcome:
    """Projective measurement in the generalized Bell basis.

    Sampling is inverse-CDF over outcomes in ascending index order from a
    seeded 64-bit PRNG, so a fixed seed and input give a fixed outcome.
    """
    return _sample_outcome(outcome_probabilities(k, n_pairs), seed)


def sample_measurements(k: Ket, n_pairs: int, shots: int, seed: int) -> np.ndarray:
    """``shots`` independent measurement outcomes drawn from one seeded stream."""
    probs = outcome_probabilities(k, n_pairs)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(probs)
    u = rng.random(shots) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(probs) - 1)


def decode(k: Ket, n_pairs: int) -> int:
    """Deterministic readout of a basis state; no sampling involved."""
    probs = outcome_probabilities(k, n_pairs)
    best = int(np.argmax(probs))
    if probs[best] < 1.0 - DECODE_TOL:
        raise NotABasisStateError(
            f"best overlap probability {probs[best]:.9f} is below {1.0 - DECODE_TOL}"
        )
    return best


def table2_encode(bits: str) -> int:
    """g-state index (1..16) for a 4-bit string under the agreed convention."""
    if not isinstance(bits, str) or len(bits) != 4 or any(c not in "01" for c in bits):
        raise ValueError(f"expected a 4-bit string, got {bits!r}")
    return _TABLE2_BITS.index(bits) + 1


def table2_decode(i: int) -> str:
    """4-bit string for a g-state index under the agreed convention."""
    limits.check("g-state index", i, "g1..g16", high=16)
    return _TABLE2_BITS[i - 1]


@dataclass(frozen=True)
class RoundTripReport:
    """Exhaustive encode->decode audit over every message."""

    n_pairs: int
    message_count: int
    qubits_per_message: int
    bits_per_qubit: float
    failures: tuple[int, ...]


def roundtrip_all(n_pairs: int) -> RoundTripReport:
    """Encode and decode every message; a noiseless channel must never fail.

    Messages go through in blocks of BLOCK_AMPLITUDES amplitudes.  A message
    that decodes to another one, or to no basis state with certainty, is
    listed in ``failures``.
    """
    limits.check("n_pairs", n_pairs, "MAX_PROTOCOL_PAIRS")
    messages = np.arange(4**n_pairs)
    best = np.empty_like(messages)
    p = np.empty(messages.size)
    for block in _blocks(messages.size, n_pairs):
        amps = _checked_encoding(messages[block], n_pairs)
        probs = _outcome_squares(amps, n_pairs)
        best[block] = probs.argmax(axis=1)
        p[block] = probs.max(axis=1)
    # best is a position in the transform's order; message m decodes right
    # when it is order[m]
    order = _measurement_tables(n_pairs)[1]
    failures = np.flatnonzero((best != order) | (p < 1.0 - DECODE_TOL))
    return RoundTripReport(
        n_pairs=n_pairs,
        message_count=4**n_pairs,
        qubits_per_message=n_pairs,
        bits_per_qubit=2.0,
        failures=tuple(failures.tolist()),
    )


@dataclass(frozen=True)
class TranscriptStep:
    """One message: encoding applied, qubits handed over, measured index."""

    message: int
    pauli: str
    qubits_sent: int
    outcome: int
    success: bool

    def to_dict(self) -> dict:
        return {
            "message": self.message,
            "pauli": self.pauli,
            "outcome": self.outcome,
            "success": self.success,
        }


@dataclass(frozen=True)
class Transcript:
    """Ordered record of a simulated sender->receiver session."""

    n_pairs: int
    seed: int
    steps: tuple[TranscriptStep, ...]

    def to_dict(self) -> dict:
        return {
            "N": self.n_pairs,
            "seed": self.seed,
            "steps": [step.to_dict() for step in self.steps],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> Transcript:
        n_pairs = int(data["N"])
        steps = tuple(
            TranscriptStep(
                message=int(s["message"]),
                pauli=str(s["pauli"]),
                qubits_sent=n_pairs,
                outcome=int(s["outcome"]),
                success=bool(s["success"]),
            )
            for s in data["steps"]
        )
        return cls(n_pairs, int(data["seed"]), steps)

    @classmethod
    def from_json(cls, text: str) -> Transcript:
        return cls.from_dict(json.loads(text))


def session(n_pairs: int, messages, seed: int) -> Transcript:
    """Simulate one sender->receiver run per message over a noiseless channel.

    Every step consumes a fresh shared resource state.  "Sending" the N
    qubits is a custody change only: a single process holds the joint
    state, so the transcript records the handover count instead of moving
    data.  Messages are encoded and measured in blocks of BLOCK_AMPLITUDES
    amplitudes; per-step measurement seeds come from one master PRNG, in
    message order, keeping whole transcripts reproducible from the session
    seed.  encoded_amplitudes checks every message.
    """
    limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    messages = list(messages)
    rng = np.random.default_rng(seed)
    steps = []
    for block in _blocks(len(messages), n_pairs):
        sent = messages[block]
        probs = _bell_probabilities(_checked_encoding(sent, n_pairs), n_pairs)
        for m, row in zip(sent, probs):
            step_seed = int(rng.integers(0, 2**63))
            outcome = _sample_outcome(row, step_seed)
            steps.append(
                TranscriptStep(
                    message=m,
                    pauli=pauli_string(m, n_pairs).tokens(),
                    qubits_sent=n_pairs,
                    outcome=outcome.index,
                    success=outcome.index == m,
                )
            )
    return Transcript(n_pairs, seed, tuple(steps))
