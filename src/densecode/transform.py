"""The generalized Bell measurement: the encoder of each message's live row,
the receiver's transform, and the blocks both run in.

A 2N-qubit array of 4^N entries is read as a 2^N x 2^N matrix Ψ, sender
qubits indexing rows.  The receiver's CNOTs (sender qubit k controls receiver
qubit k) move Ψ[c, c⊕x] to the x-row G[x, c], and its Hadamards transform
each x-row: Σ_c (-1)^popcount(z & c) G[x, c] is outcome (x, z), message
bits[x] << 1 | bits[z] (message_bits).  s0 encoded by the message with masks
(z, x) (pauli_masks) is nonzero on x-row x only, its live row, with entries
(-1)^popcount(z & c) / 2^{N/2}.

The transform is orthonormal up to the exact factor 2^N, and every squares
function here returns unscaled squares, 2^N times each outcome's probability.
"""

from __future__ import annotations

import threading
from functools import cache

import numpy as np

from . import limits
from .statevec import NORM_TOL, check_amplitudes

# bits of the widest ±1 Hadamard matrix the encoder and the transform use
STAGE_BITS = 6
# the most float64s a block's arrays hold (1 MiB): numpy's per-call overhead
# is paid once per block of 2^N floats per message, one live row each
BLOCK_AMPLITUDES = 2**17


def pauli_masks(message, n_pairs: int):
    """(z, x) exponent masks of a message's Pauli string over the sender's rows.

    Bit N-1-k of each mask is the exponent on qubit k (qubit 0 is the most
    significant bit of a 2^N row index).  Works elementwise on integer arrays.
    """
    z = x = 0
    for k in range(n_pairs):
        z |= ((message >> (2 * k)) & 1) << (n_pairs - 1 - k)
        x |= ((message >> (2 * k + 1)) & 1) << (n_pairs - 1 - k)
    return z, x


@cache
def message_bits(n_pairs: int) -> np.ndarray:
    """The inverse of pauli_masks, 2**n_pairs int64 entries: bits[v] puts the
    bits of mask v at a message's even positions, so the message with masks
    (z, x) is bits[x] << 1 | bits[z]."""
    v = np.arange(2**n_pairs)
    bits = np.zeros_like(v)
    for k in range(n_pairs):
        bits |= ((v >> (n_pairs - 1 - k)) & 1) << (2 * k)
    bits.setflags(write=False)
    return bits


@cache
def _hadamard(bits: int) -> np.ndarray:
    """The unnormalised ±1 Hadamard matrix H[i, j] = (-1)^popcount(i & j)."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


@cache
def encoding_tables(n_pairs: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Lookup tables for the encoder: (low, high, factors).

    low[:, v] and high[:, v] (2**n_pairs entries each) are the stacked (z, x)
    masks contributed by a message's low and high N bits equal to v, so a
    message's masks are low[:, m & (d-1)] | high[:, m >> N].  A live row is
    the Kronecker product of row z_i of each H_{2^k} in factors, z_i the bits
    of z in group i of at most STAGE_BITS bits, the remainder first (7 is 1 +
    6): only the first table is scaled, by 2^{-N/2}, the others are ±1.
    """
    d = 2**n_pairs
    half = np.arange(d)
    low = np.array(pauli_masks(half, n_pairs))
    high = np.array(pauli_masks(half << n_pairs, n_pairs))
    rest, first = divmod(n_pairs - 1, STAGE_BITS)
    factors = (_hadamard(first + 1) * d**-0.5, *[_hadamard(STAGE_BITS)] * rest)
    for table in (low, high, factors[0]):
        table.setflags(write=False)
    return low, high, factors


def message_masks(messages, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, x) masks of each message (see pauli_masks), after checking the
    messages (callers check n_pairs): int64 arrays of shape (len(messages),)."""
    messages = np.asarray(messages)
    if messages.ndim != 1:
        raise ValueError(f"messages must be a 1-d sequence, got shape {messages.shape}")
    if messages.size:
        if messages.dtype.kind not in "iu":
            raise ValueError(f"messages must be integers, got dtype {messages.dtype}")
        if messages.min() < 0 or messages.max() >= 4**n_pairs:
            bad = (messages < 0) | (messages >= 4**n_pairs)
            limits.check_message(int(messages[bad][0]), n_pairs)
    messages = messages.astype(np.int64, copy=False)
    low, high = encoding_tables(n_pairs)[:2]
    low = np.take(low, messages & (2**n_pairs - 1), axis=1)
    return low | np.take(high, messages >> n_pairs, axis=1)


def live_rows_into(masks, n_pairs: int, scratch: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The live rows for stacked (z, x) masks, shape (2, B) (message_masks),
    written into flat float64 buffers of at least B·2^N entries: a (B,
    2**n_pairs) view of rows.  A row depends on z only.

    The partial products of the factor rows (see encoding_tables) alternate
    between rows and scratch, the last in rows, and each factor row is taken
    right after the product it multiplies, so every intermediate fits in
    B·2^N floats for any STAGE_BITS.  The encoder keeps its own grouping, the
    widest factor innermost, not the transform's even split (_stage_bits),
    which made a block at N = 7 or 8 take 15–40% longer on a 2-core box.  Every z_i is in
    range, and "clip" lets take write straight into its out.  einsum, unlike
    a broadcasting ufunc, allocates no buffer of its own."""
    z = masks[0]
    tables = encoding_tables(n_pairs)[2]
    count, shift, product = len(z), n_pairs, None
    for i, table in enumerate(tables):
        width = len(table)
        shift -= width.bit_length() - 1
        here, other = (rows, scratch) if (len(tables) - i) % 2 else (scratch, rows)
        if product is None:
            row = here[: count * width].reshape(count, width)
        else:
            size = product.shape[1]
            row = other[count * size : count * (size + width)].reshape(count, width)
        np.take(table, (z >> shift) & (width - 1), axis=0, out=row, mode="clip")
        if product is not None:
            out = here[: count * size * width].reshape(count, size, width)
            row = np.einsum("bi,bj->bij", product, row, out=out).reshape(count, size * width)
        product = row
    return product


def blocks(count: int, row_bits: int):
    """Slices cutting ``count`` rows of 2^row_bits float64s into blocks of at
    most BLOCK_AMPLITUDES floats (at least one row): every blocked loop's rule."""
    rows = max(1, BLOCK_AMPLITUDES >> row_bits)
    return (slice(start, min(start + rows, count)) for start in range(0, count, rows))


def _stage_bits(n_pairs: int) -> list[int]:
    """Bit widths of the transform stages: as few as STAGE_BITS allows, as even
    as possible, most significant bits first."""
    stages = -(-n_pairs // STAGE_BITS)
    return [n_pairs // stages + (i < n_pairs % stages) for i in range(stages)]


def _chunk_rows(n_pairs: int) -> int:
    """x-rows per transform call.  The call's last stage is then a
    (rows·2^N / 2^k, 2^k) @ H_{2^k} gemm with M·K·N = rows·2^N·2^k <= 2^19
    (k = N for N <= STAGE_BITS, so rows <= 2^19 / 4^N), which OpenBLAS runs
    on one thread; the stages before it are far smaller gemms.  A second
    thread gains nothing on these sizes and spins after every call."""
    return max(1, 2**19 >> (n_pairs + _stage_bits(n_pairs)[-1]))


def _walsh_hadamard(g: np.ndarray, n_pairs: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of float64 rows G[..., c] of 2^N
    entries: entry [..., z] of the result, a view of out shaped like g, is
    Σ_c (-1)^popcount(z & c) G[..., c].

    The transform is a product with H_{2^N} = ⊗ H_{2^k} over groups of
    k <= STAGE_BITS bits of c, one BLAS matrix product per group and chunk of
    _chunk_rows(N) rows.  A chunk's stages alternate between spare and the
    flat float64 buffer out, ending in out (g.size entries each), so g is
    never written.
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


_buffers = threading.local()


def _block_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This thread's flat block buffers, BLOCK_AMPLITUDES entries each and
    allocated on first use: an int64 index (a ket's gather and scatter
    positions), the x-rows (live or gathered, then live_row_cdfs' sums), the
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


@np.errstate(invalid="ignore", over="ignore")  # a faulty row fails the check below
def live_row_squares(masks: np.ndarray, n_pairs: int) -> np.ndarray:
    """Squares of every outcome on the live row of each of a block's
    encodings, given their stacked (z, x) masks of shape (2, B)
    (message_masks), with the checks a Ket applies: squares[b, z] is outcome
    (x_b, z) of message b.

    By Parseval a live row's squares sum to 2^N times its encoding's squared
    norm, and a NaN or infinity reaches that sum.  Only when a sum is off by
    more than NORM_TOL·2^N do the rows go through check_amplitudes, which
    names the fault.  Every comparison is the scaled one times an exact power
    of two, so it comes out the same.

    The rows, the transform and the squares are views of _block_buffers, so
    squares is valid until this thread's next block.
    """
    rows, product, spare = _block_buffers()[1:]
    rows = live_rows_into(masks, n_pairs, spare, rows)
    squares = _walsh_hadamard(rows, n_pairs, product, spare)
    np.square(squares, out=squares)
    if not (abs(np.einsum("ij->i", squares) - 2**n_pairs) <= NORM_TOL * 2**n_pairs).all():
        check_amplitudes(rows)
    return squares


def live_row_cdfs(masks: np.ndarray, n_pairs: int, order: np.ndarray) -> np.ndarray:
    """Cumulative sums along each row of live_row_squares(masks, n_pairs),
    its columns taken in ``order`` (a permutation of range(2**n_pairs)),
    built in the spent x-rows buffer: valid until this thread's next block."""
    squares = live_row_squares(masks, n_pairs)
    cdfs = _block_buffers()[1][: squares.size].reshape(squares.shape)
    np.take(squares, order, axis=1, out=cdfs, mode="clip")
    return np.cumsum(cdfs, axis=1, out=cdfs)


@cache
def _gather_tables(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, shifts) for bell_squares, 2^N entries per part: float
    diagonal[p, 0, c] ⊕ shifts[x] is part p (real, imaginary) of Ψ[c, c⊕x],
    which is entry c·2^N + (c⊕x) = c·(2^N + 1) ⊕ x of a complex matrix."""
    c = np.arange(2**n_pairs)
    tables = c * ((2**n_pairs + 1) * 2) + np.arange(2)[:, None, None], c * 2
    for table in tables:
        table.setflags(write=False)
    return tables


def bell_squares(psi: np.ndarray, n_pairs: int) -> np.ndarray:
    """Squares of every outcome of a C-contiguous complex128 array of 4^N
    entries, in message order in a fresh float64 array: 2^N·|<s_m|ψ>|^2 for a
    ket, |tr(ρ Z^z X^x)|^2 for a matrix ρ.  Blocks of x-rows are gathered
    into this thread's block buffers, an entry as its two float64 parts
    (take's "clip" mode writes in place, and every position is in range),
    transformed, squared and scattered: no index array holds more than a block.
    """
    if psi.dtype != np.complex128:
        raise ValueError(f"psi must be a complex128 array, got dtype {psi.dtype}")
    d = 2**n_pairs
    flat = psi.reshape(-1).view(np.float64)
    diagonal, shifts = _gather_tables(n_pairs)
    bits = message_bits(n_pairs)
    index, rows, product, spare = _block_buffers()
    result = np.empty(d * d)
    for x in blocks(d, n_pairs + 1):
        size = 2 * d * (x.stop - x.start)
        at = index[:size].reshape(2, -1, d)
        # each ufunc's operands are copied to full size first, the second into
        # the spare, since a broadcasting ufunc allocates a buffer of its own
        operand = spare[:size].view(np.int64).reshape(at.shape)
        np.copyto(at, diagonal)
        np.copyto(operand, shifts[x, None])
        np.bitwise_xor(at, operand, out=at)
        g = np.take(flat, at, out=rows[:size].reshape(at.shape), mode="clip")
        squares = _walsh_hadamard(g, n_pairs, product, spare)
        np.square(squares, out=squares)
        squares[0] += squares[1]
        np.copyto(at[0], bits[x, None] << 1)
        np.copyto(operand[0], bits)
        np.bitwise_or(at[0], operand[0], out=at[0])
        result[at[0]] = squares[0]
    return result
