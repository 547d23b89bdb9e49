"""Superdense coding engine: message encoding, generalized Bell measurement,
deterministic decoding, bit conventions, and session transcripts.

Messages are integers in [0, 2^(2N) - 1]; every round trip moves 2N
classical bits while only the sender's N qubits change hands.  roundtrip_all
and session measure messages in blocks, each message on its live row (see
densecode.transform), whose 2^N outcomes are all the message can give.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .bellbasis import PauliString, s_state
from .statevec import Ket, json_value
from .transform import (
    bell_squares,
    blocks,
    encoding_tables,
    live_row_cdfs,
    live_row_squares,
    message_bits,
    message_masks,
)

DECODE_TOL = 1e-8


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


def outcome_probabilities(k: Ket, n_pairs: int) -> np.ndarray:
    """|<s_j|k>|^2 for every message j, ascending: bell_squares scaled by the exact 2^-N."""
    limits.check("n_pairs", n_pairs, "MAX_MEASURE_PAIRS")
    if k.num_qubits != 2 * n_pairs:
        raise ValueError(f"expected {2 * n_pairs} qubits, got {k.num_qubits}")
    probs = bell_squares(k.amplitudes, n_pairs)
    probs *= 2.0**-n_pairs
    return probs


def _inverse_cdf_sample(cdf: np.ndarray, draws: float | np.ndarray):
    """Outcome indices for uniform draws in [0, 1), by inverse CDF: a draw
    below 1 times the positive total cdf[-1] stays below it, so in range."""
    return np.searchsorted(cdf, draws * cdf[-1], side="right")


def measure_generalized_bell(k: Ket, n_pairs: int, seed: int) -> MeasurementOutcome:
    """Projective measurement in the generalized Bell basis.

    Sampling is inverse-CDF over outcomes in ascending index order from a
    seeded 64-bit PRNG, so a fixed seed and input give a fixed outcome.
    """
    seed = limits.check("seed", seed, "PRNG seed", 0, math.inf)
    probs = outcome_probabilities(k, n_pairs)
    index = int(_inverse_cdf_sample(np.cumsum(probs), np.random.default_rng(seed).random()))
    return MeasurementOutcome(index, float(probs[index]))


def sample_measurements(k: Ket, n_pairs: int, shots: int, seed: int) -> np.ndarray:
    """``shots`` independent measurement outcomes drawn from one seeded stream."""
    shots = limits.check("shots", shots, "MAX_SHOTS", 0)
    seed = limits.check("seed", seed, "PRNG seed", 0, math.inf)
    cdf = np.cumsum(outcome_probabilities(k, n_pairs))
    return _inverse_cdf_sample(cdf, np.random.default_rng(seed).random(shots))


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

    Messages go through in blocks of whole rows of their high N bits (2N <=
    log2 BLOCK_AMPLITUDES up to MAX_PROTOCOL_PAIRS), so one broadcast OR of
    the encoder's low and high tables gives a block's stacked (z, x) masks,
    and they are measured on their live rows (live_row_squares).  Message m
    decodes right when the unscaled square at its own outcome (x, z) reaches
    (1 - DECODE_TOL)·2^N and bits[x] << 1 | bits[z] = m (message_bits).  A
    row's squares sum to 2^N within NORM_TOL·2^N, so no other square in it
    can reach that threshold, and reading one square per message gives what
    a dense argmax would.  A message that decodes to another one, or to no
    basis state with certainty, is listed in ``failures``.
    """
    limits.check("n_pairs", n_pairs, "MAX_PROTOCOL_PAIRS")
    d = 2**n_pairs
    bits = message_bits(n_pairs)
    low, high = encoding_tables(n_pairs)[:2]
    decoded = np.empty(d * d, dtype=bool)
    sure = (1.0 - DECODE_TOL) * d
    for h in blocks(d, 2 * n_pairs):
        block = slice(h.start * d, h.stop * d)
        masks = (low[:, None, :] | high[:, h, None]).reshape(2, -1)
        z, x = masks
        squares = live_row_squares(masks, n_pairs)
        own = np.take(squares, np.arange(0, squares.size, d) + z)  # each square at (x, z)
        messages = np.arange(block.start, block.stop)
        decoded[block] = (own >= sure) & (bits[x] << 1 | bits[z] == messages)
    failures = np.flatnonzero(~decoded)
    return RoundTripReport(
        n_pairs=n_pairs,
        message_count=d * d,
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
        n_pairs = json_value(data, "N", int)
        steps = tuple(
            TranscriptStep(
                message=json_value(s, "message", int),
                pauli=json_value(s, "pauli", str),
                qubits_sent=n_pairs,
                outcome=json_value(s, "outcome", int),
                success=json_value(s, "success", bool),
            )
            for s in data["steps"]
        )
        return cls(n_pairs, json_value(data, "seed", int), steps)

    @classmethod
    def from_json(cls, text: str) -> Transcript:
        return cls.from_dict(json.loads(text))


def session(n_pairs: int, messages, seed: int) -> Transcript:
    """Simulate one sender->receiver run per message over a noiseless channel.

    Every step consumes a fresh shared resource state.  "Sending" the N
    qubits is a custody change only: a single process holds the joint
    state, so the transcript records the handover count instead of moving
    data.  Messages are encoded from their masks (message_masks), checked
    and measured in blocks, on their live rows, as in roundtrip_all, whose
    Parseval check serves as the sampler's.  A step samples the outcomes
    bits[x] << 1 | bits[z] of its live row x in ascending order (z in
    argsort(bits)) from the block's CDFs (live_row_cdfs); every other
    outcome has probability exactly 0, so the draw is the dense one over all
    4^N.  The CDFs accumulate unscaled squares, and the inverse-CDF target
    draw·cdf[-1] scales with them, so the search picks the same outcome.
    Per-step measurement seeds come from one master PRNG, in message order,
    keeping whole transcripts reproducible from the seed.
    """
    limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    messages = list(messages)
    limits.check("session length", len(messages), "MAX_SESSION_STEPS", 0)
    seed = limits.check("seed", seed, "PRNG seed", 0, math.inf)
    bits = message_bits(n_pairs)
    ascending = np.argsort(bits)
    rng = np.random.default_rng(seed)
    steps = []
    for block in blocks(len(messages), n_pairs):
        sent = messages[block]
        masks = message_masks(sent, n_pairs)
        cdfs = live_row_cdfs(masks, n_pairs, ascending)
        for m, z, x, row in zip(map(int, sent), *masks.tolist(), cdfs):
            step_seed = int(rng.integers(0, 2**63))
            k = _inverse_cdf_sample(row, np.random.default_rng(step_seed).random())
            outcome = int(bits[x] << 1 | bits[ascending[k]])
            steps.append(
                TranscriptStep(
                    message=m,
                    pauli=PauliString(n_pairs, z, x).tokens(),
                    qubits_sent=n_pairs,
                    outcome=outcome,
                    success=outcome == m,
                )
            )
    return Transcript(n_pairs, seed, tuple(steps))
