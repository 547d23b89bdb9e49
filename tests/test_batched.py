"""The batched encoder and Bell-measurement kernel against their one-row views.

roundtrip_all and session push messages through the encoder of
encoded_live_rows (transform.live_rows_into, from stacked (z, x) masks) and
transform._walsh_hadamard in blocks, transforming only each message's live
row and checking it by Parseval; session samples each message from its live
row.
Each block must give exactly what the per-message functions give, for a
single block (N = 1) and for many blocks with a ragged last one (N = 6), the
live row of each message must be its one nonzero row of the dense layout
after the CNOTs (_after_cnots) and give exactly the dense transform's
squares, and a faulty block must raise what a Ket raises.  A block's squares
are unscaled, 2^N times each outcome's probability, and tests scale them
back by the exact 2^-N.  Faults are built on a dense _after_cnots block,
within each message's one x-row, and handed to the measurement as its live rows
(_live_rows), found by any nonzero, NaN or infinite entry, through the
encoder it calls (live_rows_into), which recovers each row's message from
its masks as bits[x] << 1 | bits[z].  A block's arrays are views of buffers
each thread keeps, so a warm block allocates no block-sized array and
threads do not share them.
"""

import json
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from densecode import (
    Ket,
    apply_pauli_string,
    encode,
    encoded_amplitudes,
    measure_generalized_bell,
    outcome_probabilities,
    pauli_string,
    roundtrip_all,
    s0,
    s_state,
    session,
)
from densecode import limits, protocol, transform
from densecode.bellbasis import encoded_live_rows
from densecode.cli import main
from densecode.statevec import check_amplitudes
from densecode.transform import message_bits, message_masks, pauli_masks

from conftest import assert_signed_parities


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rows", [1, 3, 17])
def test_stacked_kernel_equals_per_ket_probabilities(n, rows):
    """A block of messages measured on their live rows gives what each
    message's Ket gives when it is measured alone, up to rounding: 2^{-N/2}
    is inexact for odd N, and a one-row product is a gemv, not a gemm."""
    messages = np.random.default_rng(1000 * n + rows).integers(0, 4**n, size=rows)
    masks = message_masks(messages, n)
    x, probs = masks[1], transform.live_row_squares(masks, n) * 2.0**-n
    assert np.array_equal(x, pauli_masks(messages, n)[1])
    bits = message_bits(n)
    for m, mask, row in zip(messages, x, probs):
        dense = np.zeros(4**n)
        dense[bits[mask] << 1 | bits] = row
        want = outcome_probabilities(s_state(int(m), n), n)
        np.testing.assert_allclose(dense, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 5))
def test_encoded_rows_equal_s_state_and_gate_by_gate(n):
    rows = encoded_amplitudes(np.arange(4**n), n)
    assert rows.shape == (4**n, 4**n)
    shared = s0(n)
    for m, row in enumerate(rows):
        assert np.array_equal(row, s_state(m, n).amplitudes)
        gates = apply_pauli_string(shared, pauli_string(m, n))
        assert np.array_equal(row, gates.amplitudes)


def test_encoded_amplitudes_rejects_out_of_range_messages():
    with pytest.raises(ValueError, match="message must be in"):
        encoded_amplitudes([0, 16], 2)
    with pytest.raises(ValueError, match="message must be in"):
        encoded_amplitudes([-1], 1)
    assert encoded_amplitudes([], 2).shape == (0, 16)


def _after_cnots(messages, n):
    """G[b, x, c] = Ψ_b[c, c⊕x], flattened: the encodings after the CNOT layer."""
    c = np.arange(2**n)
    return encoded_amplitudes(messages, n)[:, (c * 2**n + (c ^ c[:, None])).ravel()]


def _live_rows(g, n):
    """Each message's x-row of a block in the measurement's layout with a
    nonzero, NaN or infinite entry (row 0 when there is none), as
    encoded_live_rows gives them: (x, rows).  A message may have only one."""
    rows = g.reshape(len(g), 2**n, 2**n)
    live = (rows != 0).any(axis=2)
    assert (live.sum(axis=1) <= 1).all(), "an encoding on several x-rows"
    x = live.argmax(axis=1)
    return x, rows[np.arange(len(g)), x]


@pytest.mark.parametrize("n", range(1, 9))
def test_live_rows_are_the_nonzero_rows_of_the_dense_layout(n):
    rng = np.random.default_rng(n)
    lists = [
        [],
        [4**n - 1, 0, 2],  # unsorted, a ragged length
        [1, 1, 0, 1],  # duplicates
        np.array([3, 2], dtype=np.uint8),
        rng.integers(0, 4**n, size=min(4**n, 41)),
    ]
    for messages in lists:
        x, rows = encoded_live_rows(messages, n)
        assert x.dtype == np.int64 and rows.dtype == np.float64
        assert x.shape == (len(messages),) and rows.shape == (len(messages), 2**n)
        dense = _after_cnots(messages, n).reshape(len(messages), 2**n, 2**n)
        b = np.arange(len(messages))
        assert np.array_equal(dense[b, x], rows)
        dense[b, x] = 0
        assert not dense.any()


@pytest.mark.parametrize("n", range(1, 14))
def test_live_rows_are_signed_parities_bit_for_bit(n):
    """Across the factor boundaries 6/7 and 12/13 (see assert_signed_parities)."""
    assert_signed_parities(n)


def test_the_public_encoder_returns_fresh_arrays():
    first = encoded_live_rows([3, 1, 0], 2)
    kept = [a.copy() for a in first]
    second = encoded_live_rows([5, 2, 7], 2)
    roundtrip_all(2)  # fills this thread's block buffers
    for a in first:
        for b in (*second, *transform._block_buffers()):
            assert not np.shares_memory(a, b)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "messages", [[0, 16], [-1], [2, 3, 99], [1.5], np.array([0.0, 1.0]), [True]]
)
def test_both_encoders_reject_bad_messages_alike(messages):
    """Both encoders in the measurement's layout raise what encoded_amplitudes
    raises."""
    with pytest.raises(ValueError) as expected:
        encoded_amplitudes(messages, 2)
    for encoder in (_after_cnots, encoded_live_rows):
        with pytest.raises(ValueError) as got:
            encoder(messages, 2)
        assert str(got.value) == str(expected.value)
    assert re.match("message must be in|messages must be integers", str(got.value))


def test_non_integer_messages_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="message must be an integer"):
        s_state(1.5, 1)
    with pytest.raises(ValueError, match="messages must be integers"):
        encoded_amplitudes([1.5], 1)
    with pytest.raises(ValueError, match="messages must be integers"):
        encoded_amplitudes(np.array([0.0, 1.0]), 1)
    # a uint8 message must not overflow when its masks are shifted up to bit 8
    small = np.array([1], dtype=np.uint8)
    assert np.array_equal(encoded_amplitudes(small, 9)[0], s_state(1, 9).amplitudes)


@pytest.mark.parametrize(
    "call,shape",
    [(lambda: session(2, [[2]], 1), (1, 1)), (lambda: encoded_amplitudes([[1, 2]], 2), (1, 2))],
    ids=["session", "encoded_amplitudes"],
)
def test_nested_messages_are_refused_not_flattened(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be a 1-d sequence, got shape {shape}")):
        call()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_blocks_cover_every_message_once(n):
    rows = max(1, transform.BLOCK_AMPLITUDES >> n)
    count = 2 * rows + 3  # a ragged last block
    blocks = list(transform.blocks(count, n))
    covered = [i for block in blocks for i in range(count)[block]]
    assert covered == list(range(count))
    assert all(len(range(count)[block]) <= rows for block in blocks)


@pytest.mark.parametrize("n", range(1, limits.MAX_PROTOCOL_PAIRS + 1))
def test_a_roundtrip_block_holds_whole_rows_of_high_message_bits(n):
    """roundtrip_all ORs a block's masks from whole rows of its messages' high
    N bits, which needs the 2^17 / 2^N messages of a block to be a multiple
    of 2^N: raising MAX_PROTOCOL_PAIRS or shrinking BLOCK_AMPLITUDES fails
    here by name.  Its blocks are then those of one message per row."""
    assert (transform.BLOCK_AMPLITUDES >> n) % 2**n == 0
    d = 2**n
    high_rows = [slice(h.start * d, h.stop * d) for h in transform.blocks(d, 2 * n)]
    assert high_rows == list(transform.blocks(d * d, n))


def test_roundtrip_sizes_span_one_block_to_many():
    # test_protocol's roundtrip_all(1) and roundtrip_all(6) cover both ends;
    # roundtrip_all's blocks hold 2^N floats per message
    assert len(list(transform.blocks(4**1, 1))) == 1
    assert len(list(transform.blocks(4**6, 6))) > 1


def test_an_n6_block_holds_more_than_four_messages():
    assert len(range(4**6)[next(transform.blocks(4**6, 6))]) > 4


def _transform(g, n):
    """_walsh_hadamard of g in one call, into fresh buffers."""
    return transform._walsh_hadamard(g, n, np.empty(g.size), np.empty(g.size))


def _squares(coef, n):
    """|<s|ψ_b>|^2 from a (parts, B, 2^N) transform: the parts' squares summed
    and scaled by the exact 2^-N."""
    return np.square(coef).sum(axis=0) * 2.0**-n


def _assert_live_rows_give_the_dense_squares(g, n, x, probs):
    """Squares of each message's live row x[b] of g against the transform of
    every row, whose other rows must square to 0; returns each message's
    count of nonzero x-rows.  No square is -0.0, so equality with NaNs equal
    is equality bit for bit up to NaN payloads."""
    dense = _squares(_transform(g[None], n), n).reshape(len(g), 2**n, 2**n)
    b = np.arange(len(g))
    assert np.array_equal(dense[b, x], probs, equal_nan=True)
    counts = (g.reshape(dense.shape) != 0).any(axis=2).sum(axis=1)
    dense[b, x] = 0
    assert not dense.any()
    return counts


@pytest.mark.parametrize("n", range(1, 8))
def test_live_rows_give_the_dense_squares_on_encoder_output(n):
    rows = transform.BLOCK_AMPLITUDES >> n
    lists = [
        np.random.default_rng(n).integers(0, 4**n, size=rows + 3),  # a ragged last block
        [1, 1, 0, 1],  # duplicates
        np.array([3, 2], dtype=np.uint8),
    ]
    for messages in lists:
        for block in transform.blocks(len(messages), n):
            sent = messages[block]
            masks = message_masks(sent, n)
            x, probs = masks[1], transform.live_row_squares(masks, n) * 2.0**-n
            # the dense reference takes the block 64 messages at a time
            for i in range(0, len(sent), 64):
                part = slice(i, i + 64)
                g = _after_cnots(sent[part], n)
                counts = _assert_live_rows_give_the_dense_squares(g, n, x[part], probs[part])
                assert (counts == 1).all()


def test_chunk_rows_keep_each_live_row_gemm_within_2_to_the_19():
    chunks = {n: transform._chunk_rows(n) for n in range(1, 9)}
    assert chunks == {1: 2**17, 2: 2**15, 3: 2**13, 4: 2**11, 5: 512, 6: 128, 7: 512, 8: 128}
    for n, rows in chunks.items():
        last = transform._stage_bits(n)[-1]
        assert rows * 2**n * 2**last <= 2**19  # M·K·N of the last stage's gemm


@pytest.mark.parametrize("n", range(1, 9))
def test_a_chunked_block_equals_one_transform_of_its_rows(n):
    count = min(4**n, transform.BLOCK_AMPLITUDES >> n)  # one block of roundtrip_all
    messages = np.random.default_rng(n).integers(0, 4**n, size=count)
    masks = message_masks(messages, n)
    x, probs = masks[1], transform.live_row_squares(masks, n) * 2.0**-n
    want_x, rows = encoded_live_rows(messages, n)
    assert np.array_equal(x, want_x)
    want = _squares(_transform(rows[None], n), n)
    assert np.array_equal(probs, want)


@pytest.mark.parametrize("n", [5, 7, 8])
def test_a_warm_roundtrip_allocates_no_block_array(n):
    """After warm-up a block's arrays are views of this thread's buffers, so
    the allocation peak stays under one block array of live rows."""
    block_bytes = min(4**n * 2**n, transform.BLOCK_AMPLITUDES) * 8  # 256 KiB at N = 5
    for _ in range(2):
        roundtrip_all(n)
    tracemalloc.start()
    try:
        assert roundtrip_all(n).failures == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block_bytes


def test_a_warm_roundtrip_allocates_no_message_array():
    """Each block's decoded messages are compared with the block's own range,
    so a warm roundtrip_all(8) makes no array of all 4^8 messages (512 KiB)."""
    for _ in range(2):
        roundtrip_all(8)
    tracemalloc.start()
    try:
        assert roundtrip_all(8).failures == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_a_warm_session_block_of_two_factors_allocates_no_block_array():
    """At N = 12 each live row is the product of two 6-bit factor rows, which
    are made in this thread's block buffers, as the product is."""
    messages = range(transform.BLOCK_AMPLITUDES >> 12)  # one block
    for _ in range(2):
        session(12, messages, seed=0)
    tracemalloc.start()
    try:
        assert all(s.outcome == s.message for s in session(12, messages, seed=0).steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < transform.BLOCK_AMPLITUDES * 8


def test_a_session_at_the_pair_cap_allocates_no_4_to_the_n_array():
    """session reads each message's live row of 2^13 outcomes; one dense row of
    squares at N = 13 would be 512 MiB."""
    assert session(13, range(5), seed=0) == session(13, range(5), seed=0)
    tracemalloc.start()
    try:
        assert all(s.outcome == s.message for s in session(13, range(5), seed=0).steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_threads_measure_with_their_own_buffers():
    jobs = [
        lambda: roundtrip_all(5),
        lambda: roundtrip_all(7),
        lambda: session(3, range(64), seed=1),
    ]
    serial = [job() for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [(i, pool.submit(jobs[i])) for _ in range(4) for i in range(len(jobs))]
            results = [(i, future.result(timeout=120)) for i, future in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, result in results:
        assert result == serial[i]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize(
    "fault, live_rows",
    [
        ("superposed", [1, 1, 1, 1]),  # messages 3 and 2 share their X-mask
        ("zero", [1, 1, 0, 1]),
        ("nan", [1, 1, 1, 1]),  # at a nonzero entry: in the live row
        ("inf", [1, 1, 1, 1]),
    ],
)
def test_live_rows_give_the_dense_squares_on_faulty_blocks(n, fault, live_rows):
    g = _after_cnots([3, 1, 0, 3], n)
    if fault == "superposed":
        g[0] = (g[0] + _after_cnots([2], n)[0]) * 2**-0.5
    elif fault == "zero":
        g[2] = 0
    else:
        g[1, np.flatnonzero(g[1])[0]] = np.nan if fault == "nan" else np.inf
    x, rows = _live_rows(g, n)
    with np.errstate(invalid="ignore", over="ignore"):
        probs = _squares(_transform(rows[None], n), n)
        assert _assert_live_rows_give_the_dense_squares(g, n, x, probs).tolist() == live_rows


def _messages_of(masks, n):
    """The message of each stacked (z, x) mask pair: bits[x] << 1 | bits[z]."""
    bits = message_bits(n)
    return bits[masks[1]] << 1 | bits[masks[0]]


def _corrupt_the_encoder(monkeypatch, corrupt):
    """Make the encoder the measurement uses (live_rows_into) emit the live rows of
    corrupt(G), G the dense _after_cnots block of its masks' messages."""

    def corrupted(masks, n_pairs, *buffers):
        return _live_rows(corrupt(_after_cnots(_messages_of(masks, n_pairs), n_pairs)), n_pairs)[1]

    monkeypatch.setattr(transform, "live_rows_into", corrupted)


def _encode_message_3_as_5(monkeypatch):
    original = transform.live_rows_into

    def swapped(masks, n_pairs, *buffers):
        messages = _messages_of(masks, n_pairs)
        masks = message_masks(np.where(messages == 3, 5, messages), n_pairs)
        return original(masks, n_pairs, *buffers)

    monkeypatch.setattr(transform, "live_rows_into", swapped)


@pytest.mark.parametrize("n", [2, 5])
def test_a_message_decoding_to_another_counts_as_a_failure(monkeypatch, n):
    _encode_message_3_as_5(monkeypatch)
    assert roundtrip_all(n).failures == (3,)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("table, a, b", [(0, 1, 2), (1, 0, 3)])
def test_encoding_tables_at_odds_with_message_bits_fail_their_messages(monkeypatch, n, table, a, b):
    """Swap columns a and b of the low (0) or high (1) mask table: each
    message whose low or high N bits are a or b gets its neighbour's masks,
    so its own-outcome square is sure but bits[x] << 1 | bits[z] names the
    neighbour.  roundtrip_all lists exactly those messages."""
    tables = list(transform.encoding_tables(n))
    order = np.arange(2**n)
    order[[a, b]] = b, a
    tables[table] = tables[table][:, order]
    monkeypatch.setattr(protocol, "encoding_tables", lambda n_pairs: tuple(tables))
    want = tuple(m for m in range(4**n) if (m >> n * table) % 2**n in (a, b))
    assert roundtrip_all(n).failures == want


def _session_one_message_at_a_time(n, messages, seed):
    """session as a loop over the one-row views: encode, then measure."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for m in messages:
        step_seed = int(rng.integers(0, 2**63))
        outcomes.append(measure_generalized_bell(encode(m, n), n, step_seed).index)
    return outcomes


@pytest.mark.parametrize("n", [-1, 0, 14])
def test_session_rejects_pair_counts_out_of_range_even_without_messages(n):
    with pytest.raises(ValueError, match="n_pairs must be in"):
        session(n, [], seed=0)


@pytest.mark.parametrize("n,count", [(1, 4), (3, 40), (5, 64), (6, 9), (8, 6)])
def test_session_matches_the_per_message_path(n, count):
    messages = [int(m) for m in np.random.default_rng(n).integers(0, 4**n, size=count)]
    transcript = session(n, messages, seed=31)
    assert [s.outcome for s in transcript.steps] == _session_one_message_at_a_time(
        n, messages, 31
    )
    assert [s.message for s in transcript.steps] == messages
    assert all(s.outcome == s.message for s in transcript.steps)


def _corrupt_message_3(monkeypatch, share=0.5):
    """Make the encoder the measurement uses (live_rows_into) send √(1 - share)·s_3 +
    √share·s_2 for message 3.  Message 2 has its X-mask, so the sum stays on
    one live row; the gather into the measurement's layout is linear, so it
    commutes with the sum."""

    def corrupted(masks, n_pairs, *buffers):
        messages = _messages_of(masks, n_pairs)

        def corrupt(amps):
            for i, m in enumerate(messages):
                if m == 3:
                    two = _after_cnots([2], n_pairs)[0]
                    amps[i] = amps[i] * (1 - share) ** 0.5 + two * share**0.5
            return amps

        return _live_rows(corrupt(_after_cnots(messages, n_pairs)), n_pairs)[1]

    monkeypatch.setattr(transform, "live_rows_into", corrupted)


def test_non_basis_state_counts_as_a_failure(monkeypatch):
    _corrupt_message_3(monkeypatch)
    assert roundtrip_all(2).failures == (3,)


@pytest.mark.parametrize("share, failures", [(0.1, (3,)), (1e-9, ())])
def test_an_unsure_decode_counts_as_a_failure(monkeypatch, share, failures):
    """Message 3 sent with a share of s_2 still peaks at outcome 3, and fails
    only when that peak is below 1 - DECODE_TOL = 1 - 1e-8."""
    _corrupt_message_3(monkeypatch, share)
    assert roundtrip_all(2).failures == failures


def test_session_samples_a_superposed_live_row(monkeypatch):
    """Message 3 sent as (s_3 + s_2)/√2 lies on one live row, so session samples
    it as a Ket of that state is sampled alone: outcome 3 or 2."""
    messages = [5, *[3] * 40, 1]
    half = 0.5**0.5
    superposed = Ket(4, s_state(3, 2).amplitudes * half + s_state(2, 2).amplitudes * half)
    rng = np.random.default_rng(4)
    want = []
    for m in messages:
        k = superposed if m == 3 else encode(m, 2)
        want.append(measure_generalized_bell(k, 2, int(rng.integers(0, 2**63))).index)
    _corrupt_message_3(monkeypatch)
    steps = session(2, messages, seed=4).to_dict()["steps"]
    assert [s["outcome"] for s in steps] == want
    assert {s["outcome"] for s in steps[1:-1]} == {2, 3}
    assert [s["success"] for s in steps] == [s["outcome"] == s["message"] for s in steps]


def test_failed_roundtrip_exits_1(monkeypatch, capsys):
    _corrupt_message_3(monkeypatch)
    assert main(["roundtrip", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith(", 1 failures\n")
    assert captured.err == ""


def test_blocks_get_the_checks_a_ket_gets(monkeypatch):
    _double_the_encoding(monkeypatch)
    with pytest.raises(ValueError, match="not normalized"):
        roundtrip_all(2)


def test_clean_blocks_are_never_put_back(monkeypatch):
    """A clean block passes its Parseval sums, so neither roundtrip_all nor
    session makes a second pass over its rows."""

    def never(*args):
        raise AssertionError("a clean block went through check_amplitudes")

    monkeypatch.setattr(transform, "check_amplitudes", never)
    assert all(s.outcome == s.message for s in session(3, range(64), seed=1).steps)
    for n in (1, 5, 7):
        assert roundtrip_all(n).failures == ()


def test_check_amplitudes_on_stacks_matches_ket():
    good = encoded_amplitudes([0, 1, 2], 1)
    check_amplitudes(good)
    for bad, phrase in (
        (np.nan, "finite"),
        (np.inf, "finite"),
        (0.5, "not normalized"),
    ):
        amps = good.copy()
        amps[1, 0] = bad
        with pytest.raises(ValueError, match=phrase):
            check_amplitudes(amps)
        with pytest.raises(ValueError, match=phrase):
            Ket(2, amps[1])
    # on either side of NORM_TOL = 1e-10 in the squared norm
    check_amplitudes(good * (1 + 1e-11))
    Ket(2, good[1] * (1 + 1e-11))
    with pytest.raises(ValueError, match="not normalized"):
        check_amplitudes(good * (1 + 1e-9))
    with pytest.raises(ValueError, match="not normalized"):
        Ket(2, good[1] * (1 + 1e-9))


def _fault(kind, position):
    """A corruption of an encoded block: a NaN or an infinity in row 1, at
    its first nonzero entry (position "nonzero", in its live row), row 1
    zeroed, or the whole block scaled."""

    def corrupt(amps):
        amps = amps.copy()
        if kind == "zero":
            amps[1] = 0
            return amps
        if kind in ("nan", "inf"):
            row = amps[1]
            spot = np.flatnonzero(row)[0]
            row[spot] = np.nan if kind == "nan" else np.inf
            return amps
        return amps * {"2x": 2.0, "1e-9": 1 + 1e-9, "1e-11": 1 + 1e-11}[kind]

    return corrupt


_FINITE = "amplitudes must be finite, got NaN or infinity"
_NORM = "amplitudes are not normalized"
_FAULTS = [
    ("nan", "nonzero", _FINITE),
    ("inf", "nonzero", _FINITE),
    ("zero", None, _NORM),
    ("2x", None, _NORM),
    ("1e-9", None, _NORM),
    ("1e-11", None, None),  # within NORM_TOL, as for a Ket
]
_BLOCK_RUNS = {
    "roundtrip_all": lambda: roundtrip_all(2),
    "session": lambda: session(2, [5, 1, 9, 1], seed=4),
}


@pytest.mark.parametrize("run", sorted(_BLOCK_RUNS))
@pytest.mark.parametrize("kind, position, message", _FAULTS)
def test_block_faults_raise_what_a_ket_raises(monkeypatch, run, kind, position, message):
    corrupt = _fault(kind, position)
    row = corrupt(encoded_amplitudes([5, 1], 2))[1]
    clean = _BLOCK_RUNS[run]()
    _corrupt_the_encoder(monkeypatch, corrupt)
    if message is None:
        Ket(4, row)
        assert _BLOCK_RUNS[run]() == clean
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Ket(4, row)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _BLOCK_RUNS[run]()


def test_size_cap_is_one_protocol_constant(capsys):
    cap = limits.MAX_PROTOCOL_PAIRS
    assert cap == 8
    assert main(["roundtrip", "--n", str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --n must be in [1, {cap}] (MAX_PROTOCOL_PAIRS), got {cap + 1}\n"


def test_session_takes_n_up_to_max_pairs(capsys):
    """A session step costs O(2^N), so session --n is bounded by one ket, as
    protocol.session is, not by the run-time cap of roundtrip."""
    cap = limits.MAX_PAIRS
    assert cap == 13
    assert main(["session", "--n", str(cap), "--random", "2"]) == 0
    assert all(s["success"] for s in json.loads(capsys.readouterr().out)["steps"])
    assert main(["session", "--n", str(cap + 1), "--random", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n must be in [1, {cap}] (MAX_PAIRS), got {cap + 1}\n"


def _double_the_encoding(monkeypatch):
    _corrupt_the_encoder(monkeypatch, lambda amps: 2 * amps)


@pytest.mark.parametrize(
    "argv", [["roundtrip", "--n", "2"], ["session", "--n", "2", "1", "2"]]
)
def test_fault_after_argument_checks_exits_1(monkeypatch, capsys, argv):
    _double_the_encoding(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: amplitudes are not normalized\n"


@pytest.mark.parametrize(
    "argv", [["session", "--n", "2", "16"], ["session", "--n", "1", "-1"], ["roundtrip", "--n", "0"]]
)
def test_bad_arguments_still_exit_2_with_a_faulty_encoder(monkeypatch, capsys, argv):
    _double_the_encoding(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_session_message_range_error_names_the_message(capsys):
    assert main(["session", "--n", "1", "0", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: message must be in [0, 3] (4**N - 1 for N = 1), got 4\n"
    )

