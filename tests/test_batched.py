"""The batched encoder and Bell-measurement kernel against their one-row views.

roundtrip_all and session push messages through encoded_amplitudes and
_bell_probabilities in blocks of BLOCK_AMPLITUDES amplitudes.  Each block
must give exactly what the per-message functions give, for a single block
(N = 1) and for many blocks with a ragged last one (N = 6).
"""

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
from densecode import limits, protocol
from densecode.cli import main
from densecode.statevec import check_amplitudes

from conftest import random_ket


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rows", [1, 3, 17])
def test_stacked_kernel_equals_per_ket_probabilities(n, rows):
    rng = np.random.default_rng(1000 * n + rows)
    kets = [random_ket(rng, 2 * n) for _ in range(rows)]
    stacked = protocol._bell_probabilities(np.array([k.amplitudes for k in kets]), n)
    assert stacked.shape == (rows, 4**n)
    for k, row in zip(kets, stacked):
        assert np.array_equal(row, outcome_probabilities(k, n))


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


def test_non_integer_messages_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="messages must be integers"):
        s_state(1.5, 1)
    with pytest.raises(ValueError, match="messages must be integers"):
        encoded_amplitudes([1.5], 1)
    with pytest.raises(ValueError, match="messages must be integers"):
        encoded_amplitudes(np.array([0.0, 1.0]), 1)
    # a uint8 message must not overflow when its masks are shifted up to bit 8
    small = np.array([1], dtype=np.uint8)
    assert np.array_equal(encoded_amplitudes(small, 9)[0], s_state(1, 9).amplitudes)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_blocks_cover_every_message_once(n):
    count = 4**n + 3  # a ragged last block
    rows = max(1, protocol.BLOCK_AMPLITUDES // 4**n)
    blocks = list(protocol._blocks(count, n))
    covered = [i for block in blocks for i in range(count)[block]]
    assert covered == list(range(count))
    assert all(len(range(count)[block]) <= rows for block in blocks)


def test_roundtrip_sizes_span_one_block_to_many():
    # test_protocol's roundtrip_all(1) and roundtrip_all(6) cover both ends
    assert len(list(protocol._blocks(4**1, 1))) == 1
    assert len(list(protocol._blocks(4**6, 6))) > 1


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


@pytest.mark.parametrize("n,count", [(1, 4), (6, 9)])
def test_session_matches_the_per_message_path(n, count):
    messages = [int(m) for m in np.random.default_rng(n).integers(0, 4**n, size=count)]
    transcript = session(n, messages, seed=31)
    assert [s.outcome for s in transcript.steps] == _session_one_message_at_a_time(
        n, messages, 31
    )
    assert [s.message for s in transcript.steps] == messages
    assert all(s.success for s in transcript.steps)


def _corrupt_message_3(monkeypatch):
    """Make the encoder protocol uses send (s_3 + s_5)/√2 for message 3."""
    original = protocol.encoded_amplitudes

    def corrupted(messages, n_pairs):
        amps = original(messages, n_pairs)
        for i, m in enumerate(np.asarray(messages).reshape(-1)):
            if m == 3:
                amps[i] = (amps[i] + original([5], n_pairs)[0]) * 2**-0.5
        return amps

    monkeypatch.setattr(protocol, "encoded_amplitudes", corrupted)


def test_non_basis_state_counts_as_a_failure(monkeypatch):
    _corrupt_message_3(monkeypatch)
    assert roundtrip_all(2).failures == (3,)


def test_failed_roundtrip_exits_1(monkeypatch, capsys):
    _corrupt_message_3(monkeypatch)
    assert main(["roundtrip", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith(", 1 failures\n")
    assert captured.err == ""


def test_blocks_get_the_checks_a_ket_gets(monkeypatch):
    original = protocol.encoded_amplitudes
    monkeypatch.setattr(protocol, "encoded_amplitudes", lambda m, n: 2 * original(m, n))
    with pytest.raises(ValueError, match="not normalized"):
        roundtrip_all(2)


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


@pytest.mark.parametrize("command", [["roundtrip"], ["session", "--random", "1"]])
def test_size_cap_is_one_protocol_constant(capsys, command):
    cap = limits.MAX_PROTOCOL_PAIRS
    assert cap == 6
    assert main([*command, "--n", str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --n must be in [1, {cap}] (MAX_PROTOCOL_PAIRS), got {cap + 1}\n"


def _double_the_encoding(monkeypatch):
    original = protocol.encoded_amplitudes
    monkeypatch.setattr(protocol, "encoded_amplitudes", lambda m, n: 2 * original(m, n))


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

