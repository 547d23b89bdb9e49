"""Superdense coding engine: message encoding, generalized Bell measurement,
deterministic decoding, bit conventions, and session transcripts.

Messages are integers in [0, 2^(2N) - 1]; every round trip moves 2N
classical bits while only the sender's N qubits change hands.  roundtrip_all
and session measure messages in blocks.  After the receiver's CNOTs a basis
message's encoding is nonzero on one row of 2^N amplitudes, at its X-mask, so
the encoder emits that row only (encoded_live_rows), the receiver's Hadamards
transform that row only, and its 2^N outcomes are all the message can give.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import limits
from .bellbasis import (
    STAGE_BITS,
    _encoding_tables,
    _hadamard,
    _live_rows_into,
    _message_bits,
    _message_masks,
    pauli_string,
    s_state,
)
from .statevec import NORM_TOL, Ket, check_amplitudes, json_value

DECODE_TOL = 1e-8
# Messages are encoded and measured in blocks whose arrays hold at most this
# many float64s (1 MiB), so numpy's per-call overhead is paid once per block:
# 2^N per message, one live row each.
# The live-row arrays of a block are views of per-thread buffers this size.
BLOCK_AMPLITUDES = 2**17


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


def _blocks(count: int, row_bits: int):
    """Slices cutting ``count`` rows of 2^row_bits float64s into blocks of at
    most BLOCK_AMPLITUDES floats (at least one row): every blocked loop's rule."""
    rows = max(1, BLOCK_AMPLITUDES >> row_bits)
    return (slice(start, min(start + rows, count)) for start in range(0, count, rows))


def _stage_bits(n_pairs: int) -> list[int]:
    """Bit widths of the transform stages: as few as STAGE_BITS allows, as even
    as possible, most significant bits first."""
    stages = -(-n_pairs // STAGE_BITS)
    return [n_pairs // stages + (i < n_pairs % stages) for i in range(stages)]


def _walsh_hadamard(g: np.ndarray, n_pairs: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of float64 rows G[..., c] of 2^N
    entries: entry [..., z] of the result, a view of out shaped like g, is
    Σ_c (-1)^popcount(z & c) G[..., c].

    The transform is a product with H_{2^N} = ⊗ H_{2^k} over groups of
    k <= STAGE_BITS bits of c, one BLAS matrix product per group and chunk of
    _chunk_rows(N) rows: the receiver's Hadamards, on the x-rows after its
    CNOTs.  A chunk's stages alternate between spare and the flat float64
    buffer out, ending in out (g.size entries each), so g is never written.
    """
    stages = _stage_bits(n_pairs)
    step = _chunk_rows(n_pairs) << n_pairs
    for start in range(0, g.size, step):
        chunk = g.reshape(-1)[start : start + step]
        inner = 2**n_pairs
        for i, bits in enumerate(stages):
            inner >>= bits
            view = (-1, 2**bits) if inner == 1 else (-1, 2**bits, inner)
            dest = (out, spare)[(len(stages) - 1 - i) % 2][start : start + chunk.size].reshape(view)
            if inner == 1:
                chunk = np.matmul(chunk.reshape(view), _hadamard(bits), out=dest)
            else:
                chunk = np.matmul(_hadamard(bits), chunk.reshape(view), out=dest)
    return out[: g.size].reshape(g.shape)


def _squares(coef: np.ndarray, n_pairs: int) -> np.ndarray:
    """|<s|ψ_b>|^2 for every outcome and row from a (parts, B, 2^N) transform
    (the real and imaginary parts of complex input are two parts), computed
    in place: the result is a view of coef[0]."""
    np.square(coef, out=coef)
    probs = coef[0]
    for part in coef[1:]:
        probs += part
    probs *= 1 / 2**n_pairs  # exact: a power of two
    return probs


_buffers = threading.local()


def _block_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This thread's flat block buffers, BLOCK_AMPLITUDES entries each and
    allocated on first use: an int64 index (a ket's gather and scatter
    positions), the x-rows (live or gathered, then session's CDFs), the
    transform's product (squared in place) and the spare its stages alternate
    with (before them, the encoder's scratch or a gather's second operand).

    A block takes views of them, so a warm Bell measurement allocates no
    block-sized array.  (glibc hands a freed array of this size back to the
    kernel, and the next call's array is faulted in again as zero-filled
    pages.)  Each thread has its own, since numpy's matmul releases the GIL.
    """
    if not hasattr(_buffers, "arrays"):
        _buffers.arrays = (
            np.empty(BLOCK_AMPLITUDES, dtype=np.int64),
            *(np.empty(BLOCK_AMPLITUDES) for _ in range(3)),
        )
    return _buffers.arrays


def _chunk_rows(n_pairs: int) -> int:
    """x-rows per transform call.  The call's last stage is then a
    (rows·2^N / 2^k, 2^k) @ H_{2^k} gemm with M·K·N = rows·2^N·2^k <= 2^19
    (k = N for N <= STAGE_BITS, so rows <= 2^19 / 4^N), which OpenBLAS runs
    on one thread; the stages before it are far smaller gemms.  A second
    thread gains nothing on these sizes and spins after every call."""
    return max(1, 2**19 >> (n_pairs + _stage_bits(n_pairs)[-1]))


@np.errstate(invalid="ignore", over="ignore")  # a faulty row fails the check below
def _block_squares(masks: np.ndarray, n_pairs: int) -> np.ndarray:
    """Unscaled squares 2^N·|<s|ψ_b>|^2 for every outcome on the live row of
    each of a block's encodings, given their stacked (z, x) masks of shape
    (2, B) (_message_masks), with the checks a Ket applies: squares[b, z] is
    2^N times the probability of outcome (x_b, z) of message b.  Every other
    row of the measurement's layout is zero.

    The transform is orthonormal up to the exact factor 2^N, so by Parseval
    the squares of a message's live row sum to 2^N times its encoding's
    squared norm, and a NaN or infinity reaches that sum.  Only when a sum is
    off by more than NORM_TOL·2^N do the rows go through check_amplitudes,
    which names the fault.  Every comparison is then the scaled one times an
    exact power of two, so it comes out the same.

    The rows, the transform and the squares are views of _block_buffers, so
    squares is valid until this thread's next block.
    """
    rows, product, spare = _block_buffers()[1:]
    rows = _live_rows_into(masks, n_pairs, spare, rows)
    squares = _walsh_hadamard(rows, n_pairs, product, spare)
    np.square(squares, out=squares)
    if not (abs(np.einsum("ij->i", squares) - 2**n_pairs) <= NORM_TOL * 2**n_pairs).all():
        check_amplitudes(rows)
    return squares


@cache
def _gather_tables(n_pairs: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, shifts) for _bell_squares, 2^N entries per part: float
    diagonal[p, 0, c] ⊕ shifts[x] is part p of Ψ[c, c⊕x], which is entry
    c·2^N + (c⊕x) = c·(2^N + 1) ⊕ x of a matrix with ``parts`` (1 or 2)
    float64 parts per entry."""
    c = np.arange(2**n_pairs)
    tables = c * ((2**n_pairs + 1) * parts) + np.arange(parts)[:, None, None], c * parts
    for table in tables:
        table.setflags(write=False)
    return tables


def _bell_squares(psi: np.ndarray, n_pairs: int) -> np.ndarray:
    """|Σ_c (-1)^popcount(z & c) Ψ[c, c⊕x]|^2 / 2^N for every mask pair (x, z)
    of a C-contiguous real or complex array of 4^N entries read as a 2^N x 2^N
    matrix Ψ (sender qubits index rows), at position bits[x] << 1 | bits[z]
    of a fresh 4^N float64 array: |<s_m|ψ>|^2 for a ket, |tr(ρ Z^z X^x)|^2 /
    2^N for a matrix ρ.  Blocks of x-rows G[x, c] = Ψ[c, c⊕x] (the CNOTs) are
    gathered into this thread's block buffers, a complex entry as two float64
    parts (take's "clip" mode writes in place, and every position is in
    range), transformed (the Hadamards), squared and scattered: no index
    array holds more than a block.
    """
    d = 2**n_pairs
    flat = psi.reshape(-1).view(np.float64)
    parts = flat.size // psi.size
    diagonal, shifts = _gather_tables(n_pairs, parts)
    bits = _message_bits(n_pairs)
    index, rows, product, spare = _block_buffers()
    probs = np.empty(d * d)
    for x in _blocks(d, n_pairs + parts - 1):
        size = parts * d * (x.stop - x.start)
        at = index[:size].reshape(parts, -1, d)
        # each ufunc's operands are copied to full size first, the second into
        # the spare, since a broadcasting ufunc allocates a buffer of its own
        operand = spare[:size].view(np.int64).reshape(at.shape)
        np.copyto(at, diagonal)
        np.copyto(operand, shifts[x, None])
        np.bitwise_xor(at, operand, out=at)
        g = np.take(flat, at, out=rows[:size].reshape(at.shape), mode="clip")
        squares = _squares(_walsh_hadamard(g, n_pairs, product, spare), n_pairs)
        np.copyto(at[0], bits[x, None] << 1)
        np.copyto(operand[0], bits)
        np.bitwise_or(at[0], operand[0], out=at[0])
        probs[at[0]] = squares
    return probs


def outcome_probabilities(k: Ket, n_pairs: int) -> np.ndarray:
    """|<s_j|k>|^2 for every message j, ascending (see _bell_squares)."""
    limits.check("n_pairs", n_pairs, "MAX_MEASURE_PAIRS")
    if k.num_qubits != 2 * n_pairs:
        raise ValueError(f"expected {2 * n_pairs} qubits, got {k.num_qubits}")
    return _bell_squares(k.amplitudes, n_pairs)


def _inverse_cdf_sample(cdf: np.ndarray, draws: float | np.ndarray):
    """Outcome indices for uniform draws in [0, 1), by inverse CDF: a draw
    below 1 times the positive total cdf[-1] stays below it, so in range."""
    return np.searchsorted(cdf, draws * cdf[-1], side="right")


def measure_generalized_bell(k: Ket, n_pairs: int, seed: int) -> MeasurementOutcome:
    """Projective measurement in the generalized Bell basis.

    Sampling is inverse-CDF over outcomes in ascending index order from a
    seeded 64-bit PRNG, so a fixed seed and input give a fixed outcome.
    """
    probs = outcome_probabilities(k, n_pairs)
    index = int(_inverse_cdf_sample(np.cumsum(probs), np.random.default_rng(seed).random()))
    return MeasurementOutcome(index, float(probs[index]))


def sample_measurements(k: Ket, n_pairs: int, shots: int, seed: int) -> np.ndarray:
    """``shots`` independent measurement outcomes drawn from one seeded stream."""
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
    and they are measured on their live rows (_block_squares).  Message m
    decodes right when the unscaled square at its own outcome (x, z) reaches
    (1 - DECODE_TOL)·2^N and bits[x] << 1 | bits[z] = m (_message_bits).  A
    row's squares sum to 2^N within NORM_TOL·2^N, so no other square in it
    can reach that threshold, and reading one square per message gives what
    a dense argmax would.  A message that decodes to another one, or to no
    basis state with certainty, is listed in ``failures``.
    """
    limits.check("n_pairs", n_pairs, "MAX_PROTOCOL_PAIRS")
    d = 2**n_pairs
    bits = _message_bits(n_pairs)
    low, high = _encoding_tables(n_pairs)[:2]
    messages = np.arange(d * d)
    decoded = np.empty(messages.size, dtype=bool)
    sure = (1.0 - DECODE_TOL) * d
    index = _block_buffers()[0]
    for h in _blocks(d, 2 * n_pairs):
        block = slice(h.start * d, h.stop * d)
        masks = index[: 2 * (block.stop - block.start)].reshape(2, -1)
        np.bitwise_or(low[:, None, :], high[:, h, None], out=masks.reshape(2, -1, d))
        z, x = masks
        squares = _block_squares(masks, n_pairs)
        own = np.take(squares, np.arange(0, squares.size, d) + z)  # each square at (x, z)
        decoded[block] = (own >= sure) & (bits[x] << 1 | bits[z] == messages[block])
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
    data.  Messages are encoded from their masks (_message_masks), checked
    and measured in blocks, on their live rows, as in roundtrip_all, whose
    Parseval check serves as the sampler's.  A step samples the outcomes
    bits[x] << 1 | bits[z] of its live row x in ascending order (z in
    argsort(bits)) from the block's CDFs; every other outcome has
    probability exactly 0, so the draw is the dense one over all 4^N.  The
    CDFs accumulate the unscaled squares, exactly 2^N times the
    probabilities', and the inverse-CDF target draw·cdf[-1] scales with
    them, so the search picks the same outcome.  Per-step measurement seeds
    come from one master PRNG, in message order, keeping whole transcripts
    reproducible from the seed.
    """
    limits.check("n_pairs", n_pairs, "MAX_PAIRS")
    messages = list(messages)
    limits.check("session length", len(messages), "MAX_SESSION_STEPS", 0)
    bits = _message_bits(n_pairs)
    ascending = np.argsort(bits)
    rng = np.random.default_rng(seed)
    steps = []
    for block in _blocks(len(messages), n_pairs):
        sent = messages[block]
        masks = _message_masks(sent, n_pairs)
        squares = _block_squares(masks, n_pairs)
        cdf = _block_buffers()[1][: squares.size].reshape(squares.shape)
        np.take(squares, ascending, axis=1, out=cdf, mode="clip")
        np.cumsum(cdf, axis=1, out=cdf)
        for m, mask, row in zip(map(int, sent), masks[1], cdf):
            step_seed = int(rng.integers(0, 2**63))
            k = _inverse_cdf_sample(row, np.random.default_rng(step_seed).random())
            outcome = int(bits[mask] << 1 | bits[ascending[k]])
            steps.append(
                TranscriptStep(
                    message=m,
                    pauli=pauli_string(m, n_pairs).tokens(),
                    qubits_sent=n_pairs,
                    outcome=outcome,
                    success=outcome == m,
                )
            )
    return Transcript(n_pairs, seed, tuple(steps))
