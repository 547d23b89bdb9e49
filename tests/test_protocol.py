import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import (
    CapacityReport,
    NotABasisStateError,
    Transcript,
    decode,
    encode,
    g_state,
    g_to_s_map,
    ket_from_bits,
    measure_generalized_bell,
    outcome_probabilities,
    pauli_string,
    roundtrip_all,
    s0,
    s_state,
    s_to_g_map,
    sample_measurements,
    session,
    table2_decode,
    table2_encode,
)
from densecode.limits import MAX_PAIRS

from conftest import random_ket

# The agreed 4-bit labels for g1..g16.
TABLE2 = {
    1: "0000", 2: "0001", 3: "0010", 4: "0100",
    5: "1000", 6: "0011", 7: "0110", 8: "1100",
    9: "0101", 10: "1001", 11: "1010", 12: "0111",
    13: "1011", 14: "1101", 15: "1110", 16: "1111",
}


class TestEncode:
    def test_zero_message_is_shared_state(self):
        for n_pairs in (1, 2, 3):
            assert np.allclose(encode(0, n_pairs).amplitudes, s0(n_pairs).amplitudes)

    def test_message_two_gives_g9(self):
        overlap = abs(np.vdot(g_state(9).amplitudes, encode(2, 2).amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_all_encodings_mutually_orthogonal(self):
        states = np.array([encode(j, 2).amplitudes for j in range(16)])
        gram = states.conj() @ states.T
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_range(self):
        with pytest.raises(ValueError):
            encode(16, 2)


class TestMeasurement:
    def test_basis_state_is_certain(self):
        target = g_to_s_map()[7 - 1]  # message encoding g7
        outcome = measure_generalized_bell(g_state(7), 2, seed=123)
        assert outcome.index == target
        assert outcome.probability == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**62])
    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_any_seed_reads_any_basis_state(self, seed, n_pairs):
        for j in range(4**n_pairs):
            outcome = measure_generalized_bell(s_state(j, n_pairs), n_pairs, seed)
            assert outcome.index == j
            assert outcome.probability == pytest.approx(1.0, abs=1e-10)

    def test_product_state_probabilities(self):
        probs = outcome_probabilities(ket_from_bits([0, 0, 0, 0]), 2)
        support = set(np.nonzero(probs > 1e-12)[0])
        assert support == {0, 1, 4, 5}
        assert np.allclose(probs[[0, 1, 4, 5]], 0.25, atol=1e-12)

    def test_deterministic_given_seed(self):
        k = ket_from_bits([0, 0, 0, 0])
        first = measure_generalized_bell(k, 2, seed=314)
        second = measure_generalized_bell(k, 2, seed=314)
        assert first == second

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measure_generalized_bell(ket_from_bits([0, 0]), 2, seed=0)

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4])
    def test_one_measurement_is_the_first_sampled_shot(self, n_pairs):
        """A validated Ket is normalized, so a single measurement samples what
        sample_measurements samples, with no check of its own."""
        rng = np.random.default_rng(n_pairs)
        for _ in range(20):
            k = random_ket(rng, 2 * n_pairs)
            seed = int(rng.integers(0, 2**63))
            want = int(sample_measurements(k, n_pairs, 1, seed)[0])
            assert measure_generalized_bell(k, n_pairs, seed).index == want

    def test_probabilities_normalize_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            probs = outcome_probabilities(random_ket(rng, 4), 2)
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_sampling_frequencies(self):
        outcomes = sample_measurements(ket_from_bits([0, 0, 0, 0]), 2, shots=4000, seed=2024)
        assert set(np.unique(outcomes)) <= {0, 1, 4, 5}
        for j in (0, 1, 4, 5):
            frequency = float(np.mean(outcomes == j))
            assert abs(frequency - 0.25) < 0.05


class TestDecode:
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_roundtrip_identity(self, n_pairs):
        for message in range(4**n_pairs):
            assert decode(encode(message, n_pairs), n_pairs) == message

    def test_decode_g1_is_zero(self):
        assert decode(g_state(1), 2) == 0

    def test_rejects_non_basis_state(self):
        with pytest.raises(NotABasisStateError):
            decode(ket_from_bits([0, 0, 0, 0]), 2)


class TestTable2:
    @pytest.mark.parametrize("i,bits", sorted(TABLE2.items()))
    def test_frozen_mapping(self, i, bits):
        assert table2_decode(i) == bits
        assert table2_encode(bits) == i

    def test_bijection(self):
        decoded = {table2_decode(i) for i in range(1, 17)}
        assert len(decoded) == 16
        for value in range(16):
            bits = f"{value:04b}"
            assert table2_decode(table2_encode(bits)) == bits

    def test_composes_with_canonical_correspondence(self):
        # 4-bit string -> g-state -> message must also be a bijection
        messages = {g_to_s_map()[table2_encode(f"{v:04b}") - 1] for v in range(16)}
        assert messages == set(range(16))

    def test_malformed_input(self):
        for bad in ("012", "00000", "01a0", 7):
            with pytest.raises(ValueError):
                table2_encode(bad)
        for bad in (0, 17):
            with pytest.raises(ValueError):
                table2_decode(bad)


class TestRoundTripAll:
    def test_single_pair_case(self):
        report = roundtrip_all(1)
        assert report.message_count == 4
        assert report.qubits_per_message == 1
        assert report.bits_per_qubit == 2.0
        assert report.failures == ()

    def test_two_pair_case(self):
        report = roundtrip_all(2)
        assert report.message_count == 16
        assert report.failures == ()

    def test_six_pair_case(self):
        report = roundtrip_all(6)
        assert report.message_count == 4096
        assert report.failures == ()

    def test_range(self):
        with pytest.raises(ValueError):
            roundtrip_all(0)
        with pytest.raises(ValueError):
            roundtrip_all(9)


class TestSession:
    def test_three_messages(self):
        transcript = session(2, [5, 0, 15], seed=42)
        assert [s.message for s in transcript.steps] == [5, 0, 15]
        assert [s.outcome for s in transcript.steps] == [5, 0, 15]
        assert all(s.outcome == s.message for s in transcript.steps)
        assert transcript.n_pairs == 2

    def test_single_pair_protocol_run(self):
        transcript = session(1, [0, 1, 2, 3], seed=9)
        assert [s.outcome for s in transcript.steps] == [0, 1, 2, 3]
        paulis = [s["pauli"] for s in transcript.to_dict()["steps"]]
        assert paulis == ["", "Z1", "X1", "Z1 X1"]

    def test_empty_message_list(self):
        assert session(2, [], seed=0).steps == ()

    def test_message_out_of_range(self):
        with pytest.raises(ValueError):
            session(2, [16], seed=0)

    def test_deterministic_for_fixed_seed(self):
        a = session(2, list(range(16)), seed=77)
        b = session(2, list(range(16)), seed=77)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_json_roundtrip(self):
        transcript = session(2, [3, 14, 7], seed=1234)
        assert Transcript.from_json(transcript.to_json()) == transcript

    @pytest.mark.parametrize(
        "messages",
        [np.arange(3), [np.int64(m) for m in range(3)], np.arange(3, dtype=np.uint8)],
    )
    def test_numpy_integer_messages_round_trip_through_json(self, messages):
        transcript = session(2, messages, seed=0)
        assert Transcript.from_json(transcript.to_json()) == transcript
        assert transcript == session(2, [0, 1, 2], seed=0)
        for step, written in zip(transcript.steps, transcript.to_dict()["steps"]):
            assert type(step.message) is int and type(written["success"]) is bool

    def test_numpy_integer_seed_round_trips_through_json(self):
        transcript = session(1, [0], np.int64(5))
        assert type(transcript.seed) is int
        assert Transcript.from_json(transcript.to_json()) == transcript
        assert transcript == session(1, [0], 5)

    def test_json_shape(self):
        data = session(1, [2], seed=8).to_dict()
        assert set(data) == {"N", "seed", "steps"}
        assert set(data["steps"][0]) == {"message", "pauli", "outcome", "success"}


_GOOD = {
    Transcript: {
        "N": 1,
        "seed": 2,
        "steps": [{"message": 3, "pauli": "Z1 X1", "outcome": 3, "success": True}],
    },
    CapacityReport: {"d_A": 4, "S_B": 2.0, "S_AB": 0, "chi": 4.0, "holevo": 4.0},
}


@pytest.mark.parametrize(
    "cls, path, bad",
    [
        (Transcript, ("N",), True),
        (Transcript, ("N",), 1.0),
        (Transcript, ("seed",), 2.9),
        (Transcript, ("seed",), "2"),
        (Transcript, ("steps", 0, "message"), "3"),
        (Transcript, ("steps", 0, "message"), False),
        (Transcript, ("steps", 0, "pauli"), 5),
        (Transcript, ("steps", 0, "outcome"), 1.7),
        (Transcript, ("steps", 0, "success"), "false"),
        (Transcript, ("steps", 0, "success"), 0),
        (CapacityReport, ("d_A",), 4.0),
        (CapacityReport, ("d_A",), True),
        (CapacityReport, ("S_B",), "2.0"),
        (CapacityReport, ("S_AB",), None),
        (CapacityReport, ("chi",), True),
        (CapacityReport, ("holevo",), [4.0]),
        (Transcript, ("steps",), "ab"),
        (Transcript, ("steps",), {"message": 1}),
        (Transcript, ("steps",), [5]),
    ],
)
def test_from_dict_takes_only_json_types(cls, path, bad):
    data = copy.deepcopy(_GOOD[cls])
    cls.from_dict(data)  # the record loads before the one field is spoiled
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValueError, match=f"^{path[-1]} must be a JSON "):
        cls.from_dict(data)


@pytest.mark.parametrize(
    "cls, path, bad, entry",
    [
        (Transcript, ("N",), -1, r"[1, 13] (MAX_PAIRS)"),
        (Transcript, ("seed",), -3, r"[0, inf] (PRNG seed)"),
        (Transcript, ("steps", 0, "message"), 99, r"[0, 3] (4**N - 1 for N = 1)"),
        (Transcript, ("steps", 0, "outcome"), -1, r"[0, 3] (4**N - 1 for N = 1)"),
        (CapacityReport, ("d_A",), -4, r"[1, inf] (dimension)"),
    ],
)
def test_from_dict_refuses_out_of_range_values_by_name(cls, path, bad, entry):
    data = copy.deepcopy(_GOOD[cls])
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValueError) as raised:
        cls.from_dict(data)
    assert str(raised.value) == f"{path[-1]} must be in {entry}, got {bad}"


@pytest.mark.parametrize(
    "cls, path",
    [(Transcript, ("N",)), (Transcript, ("steps", 0, "outcome")), (CapacityReport, ("S_B",))],
)
def test_from_dict_names_a_missing_field(cls, path):
    data = copy.deepcopy(_GOOD[cls])
    target = data
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(ValueError, match=f"^{path[-1]} is missing$"):
        cls.from_dict(data)


def test_from_dict_refuses_a_transcript_without_steps():
    data = copy.deepcopy(_GOOD[Transcript])
    del data["steps"]
    with pytest.raises(ValueError, match=r"^steps must be a JSON array of objects, got None$"):
        Transcript.from_dict(data)


def test_a_transcript_that_contradicts_itself_is_refused():
    text = (
        '{"N": 1, "seed": 0, "steps": '
        '[{"message": 3, "pauli": "Q7", "outcome": 1, "success": true}]}'
    )
    with pytest.raises(ValueError) as raised:
        Transcript.from_json(text)
    assert str(raised.value) == (
        "steps[0].pauli must be 'Z1 X1' for message 3 and outcome 1, got 'Q7'"
    )
    data = copy.deepcopy(_GOOD[Transcript])
    data["steps"][0]["success"] = False
    with pytest.raises(ValueError) as raised:
        Transcript.from_dict(data)
    assert str(raised.value) == (
        "steps[0].success must be True for message 3 and outcome 3, got False"
    )


@pytest.mark.parametrize("n", range(1, MAX_PAIRS + 1))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_transcript_reads_back_only_as_written(n, data):
    """A seeded session reads back byte for byte, and so does a failed step;
    one step's pauli taken from another message, or its success flipped, is
    refused by the step's index and field."""
    messages = data.draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=5))
    text = session(n, messages, data.draw(st.integers(0, 2**64))).to_json()
    assert Transcript.from_json(text).to_json() == text
    i = data.draw(st.integers(0, len(messages) - 1))
    step = json.loads(text)["steps"][i]
    other = data.draw(st.integers(0, 4**n - 1).filter(lambda m: m != step["message"]))
    spoils = {"pauli": pauli_string(other, n).tokens(), "success": not step["success"]}
    for key, value in spoils.items():
        spoiled = json.loads(text)
        spoiled["steps"][i][key] = value
        with pytest.raises(ValueError, match=rf"^steps\[{i}\]\.{key} must be {step[key]!r} "):
            Transcript.from_dict(spoiled)
    failed = json.loads(text)
    failed["steps"][i].update(outcome=other, success=False)
    assert Transcript.from_dict(failed).to_dict() == failed


def test_pauli_tokens_z_before_x_per_qubit():
    transcript = session(2, [15], seed=0)
    assert transcript.to_dict()["steps"][0]["pauli"] == "Z1 X1 Z2 X2"


def test_mapping_consistency_between_modules():
    # decoding a g-state recovers the message that encodes it
    forward = s_to_g_map()
    for j, i in enumerate(forward):
        assert decode(g_state(i), 2) == j
