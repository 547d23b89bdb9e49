"""The limits table: values derived from the byte budget, the one checker's
error text, and no size limit defined anywhere else in the package."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from densecode import (
    Ket,
    PauliString,
    Transcript,
    basis_matrix,
    decode,
    dense_coding_capacity,
    factorize_s0,
    g_state,
    holevo_bound,
    interleave_permutation,
    ket_from_bits,
    limits,
    measure_generalized_bell,
    orthogonal_orbit_count,
    outcome_probabilities,
    pauli_string,
    permute_qubits,
    roundtrip_all,
    s0,
    s_state,
    sample_measurements,
    session,
)
from densecode.cli import main

from conftest import random_ket

SRC = Path(limits.__file__).parent


def test_derived_values():
    assert limits.BYTE_BUDGET == 2**30
    assert limits.MAX_QUBITS == 26
    assert limits.MAX_PAIRS == 13
    assert limits.MAX_BASIS_PAIRS == 6
    assert limits.MAX_CAPACITY_PAIRS == 12
    assert limits.MAX_MEASURE_PAIRS == 12
    assert limits.MAX_ORBIT_PAIRS == 12
    assert limits.MAX_SESSION_STEPS == 2**19
    assert limits.MAX_SHOTS == 2**26
    assert limits.MAX_EMIT_PAIRS == 4
    assert limits.MAX_PROTOCOL_PAIRS == 8
    assert set(limits.CAPS) == {
        "MAX_QUBITS",
        "MAX_PAIRS",
        "MAX_BASIS_PAIRS",
        "MAX_CAPACITY_PAIRS",
        "MAX_MEASURE_PAIRS",
        "MAX_ORBIT_PAIRS",
        "MAX_SESSION_STEPS",
        "MAX_SHOTS",
        "MAX_EMIT_PAIRS",
        "MAX_PROTOCOL_PAIRS",
    }


def test_the_readme_limits_table_is_the_caps_table():
    """Every row of the README's Limits table names a cap and its value as
    limits.CAPS holds them, and every cap has a row."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Limits\n", 1)[1].split("\n| --- ", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ")[:2] for line in table.splitlines()[1:]]
    caps = {name.strip("| `"): int(value.replace(",", "")) for name, value in rows}
    assert len(caps) == len(rows)
    assert caps == limits.CAPS


@pytest.mark.parametrize(
    "cap, cost",
    [
        (limits.MAX_QUBITS, lambda q: 16 * 2**q),
        (limits.MAX_BASIS_PAIRS, lambda n: 16 * 16**n),
        (limits.MAX_CAPACITY_PAIRS, lambda n: 3 * 16 * 4**n),
        pytest.param(limits.MAX_MEASURE_PAIRS, lambda n: (16 + 8) * 4**n, id="measure"),
        pytest.param(limits.MAX_ORBIT_PAIRS, lambda n: (2 * 16 + 8 + 2) * 4**n, id="orbit"),
    ],
)
def test_each_memory_cap_is_the_largest_that_fits_the_budget(cap, cost):
    assert cost(cap) <= limits.BYTE_BUDGET < cost(cap + 1)


def test_check_returns_integers_and_names_the_entry():
    assert limits.check("n_pairs", 13, "MAX_PAIRS") == 13
    assert type(limits.check("n_pairs", np.int64(3), "MAX_PAIRS")) is int
    assert limits.check("steps", 0, "MAX_SESSION_STEPS", low=0) == 0
    with pytest.raises(ValueError) as info:
        limits.check("n_pairs", 14, "MAX_PAIRS")
    assert str(info.value) == "n_pairs must be in [1, 13] (MAX_PAIRS), got 14"
    for bad in (True, 2.0, "2", None):
        with pytest.raises(ValueError) as info:
            limits.check("n_pairs", bad, "MAX_PAIRS")
        assert str(info.value) == f"n_pairs must be an integer in [1, 13] (MAX_PAIRS), got {bad!r}"
    with pytest.raises(ValueError) as info:
        limits.check_message(16, 2)
    assert str(info.value) == "message must be in [0, 15] (4**N - 1 for N = 2), got 16"


@pytest.mark.parametrize(
    "call, entry",
    [
        (lambda: Ket(27, np.zeros(2)), "(MAX_QUBITS), got 27"),
        (lambda: Ket(True, [1, 0]), "(MAX_QUBITS), got True"),
        (lambda: s0(14), "(MAX_PAIRS), got 14"),
        (lambda: session(14, [], 0), "(MAX_PAIRS), got 14"),
        (lambda: basis_matrix(7), "(MAX_BASIS_PAIRS), got 7"),
        (lambda: factorize_s0(7), "(MAX_BASIS_PAIRS), got 7"),
        (lambda: roundtrip_all(9), "(MAX_PROTOCOL_PAIRS), got 9"),
        # checked before the ket is read, so a 26-qubit ket needs no more
        (lambda: outcome_probabilities(s0(1), 13), "(MAX_MEASURE_PAIRS), got 13"),
        (lambda: decode(s0(1), 13), "(MAX_MEASURE_PAIRS), got 13"),
        (lambda: measure_generalized_bell(s0(1), 13, 0), "(MAX_MEASURE_PAIRS), got 13"),
        (lambda: sample_measurements(s0(1), 13, 1, 0), "(MAX_MEASURE_PAIRS), got 13"),
        (lambda: sample_measurements(s0(1), 1, -1, 0), "(MAX_SHOTS), got -1"),
        (lambda: sample_measurements(s0(1), 1, True, 0), "(MAX_SHOTS), got True"),
        (lambda: sample_measurements(s0(1), 1, 1.5, 0), "(MAX_SHOTS), got 1.5"),
        (
            lambda: sample_measurements(s0(1), 1, limits.MAX_SHOTS + 1, 0),
            f"(MAX_SHOTS), got {limits.MAX_SHOTS + 1}",
        ),
        (lambda: orthogonal_orbit_count(s0(1), 13), "(MAX_ORBIT_PAIRS), got 13"),
        (lambda: interleave_permutation(0), "(MAX_PAIRS), got 0"),
        (lambda: interleave_permutation(-1), "(MAX_PAIRS), got -1"),
        # every integer argument, not only sizes, goes through limits.check
        (
            lambda: pauli_string(3, 2.0),
            "n_pairs must be an integer in [1, 13] (MAX_PAIRS), got 2.0",
        ),
        (lambda: pauli_string(0, 14), "n_pairs must be in [1, 13] (MAX_PAIRS), got 14"),
        (
            lambda: pauli_string(3, True),
            "n_pairs must be an integer in [1, 13] (MAX_PAIRS), got True",
        ),
        (
            lambda: PauliString(True, 0, 0),
            "n must be an integer in [1, 26] (MAX_QUBITS), got True",
        ),
        (
            lambda: PauliString(1, True, 1),
            "z must be an integer in [0, 1] (2**n - 1), got True",
        ),
        (
            lambda: PauliString(1, 1, 1.0),
            "x must be an integer in [0, 1] (2**n - 1), got 1.0",
        ),
        (
            lambda: s_state(1, None),
            "n_pairs must be an integer in [1, 13] (MAX_PAIRS), got None",
        ),
        (
            lambda: s_state([2], 2),
            "message must be an integer in [0, 15] (4**N - 1 for N = 2), got [2]",
        ),
        (lambda: holevo_bound(2.5), "d must be an integer in [1, inf] (dimension), got 2.5"),
        (lambda: holevo_bound(True), "d must be an integer in [1, inf] (dimension), got True"),
        (
            lambda: permute_qubits(s0(2), [0, 1, 2, 3.0]),
            "perm must be an integer in [0, 3] (4-qubit ket), got 3.0",
        ),
        (
            lambda: permute_qubits(s0(2), [0, 2, 3, True]),
            "perm must be an integer in [0, 3] (4-qubit ket), got True",
        ),
        (
            lambda: ket_from_bits([1.0, 0]),
            "bit must be an integer in [0, 1] (basis state), got 1.0",
        ),
        # refused before its 2^64 amplitudes are allocated
        (lambda: ket_from_bits([0] * 64), "bit count must be in [1, 26] (MAX_QUBITS), got 64"),
        (
            lambda: measure_generalized_bell(s0(2), 2, 1.5),
            "seed must be an integer in [0, inf] (PRNG seed), got 1.5",
        ),
        (
            lambda: measure_generalized_bell(s0(2), 2, -1),
            "seed must be in [0, inf] (PRNG seed), got -1",
        ),
        (
            lambda: sample_measurements(s0(1), 1, 1, -1),
            "seed must be in [0, inf] (PRNG seed), got -1",
        ),
        (
            lambda: session(1, [0], True),
            "seed must be an integer in [0, inf] (PRNG seed), got True",
        ),
    ],
)
def test_library_sites_use_the_table(call, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        call()


_MEASURING = {
    # entry point: (call, limits entry, largest peak per amplitude as a share
    # of the ket's 16 B)
    "outcome_probabilities": (outcome_probabilities, "MAX_MEASURE_PAIRS", 0.75),
    "decode": (decode, "MAX_MEASURE_PAIRS", 0.75),
    "measure_generalized_bell": (
        lambda k, n: measure_generalized_bell(k, n, 0),
        "MAX_MEASURE_PAIRS",
        1.25,
    ),
    "sample_measurements": (
        lambda k, n: sample_measurements(k, n, 16, 0),
        "MAX_MEASURE_PAIRS",
        1.25,
    ),
    "orthogonal_orbit_count": (orthogonal_orbit_count, "MAX_ORBIT_PAIRS", 1.75),
}


@pytest.mark.parametrize("name", sorted(_MEASURING))
def test_measuring_keeps_to_the_byte_budget_at_its_cap(name):
    """The tracemalloc peak of a call beyond its ket, fitted as a·4^N + b at
    N = 7 and 9, plus the ket, stays within BYTE_BUDGET at the entry's cap.
    (The orbit count's sieve steps through all 4^N strings in Python, which
    tracemalloc slows tenfold, so N = 10 would take seconds.)"""
    call, entry, share = _MEASURING[name]
    outcome_probabilities(s0(1), 1)  # allocates this thread's block buffers
    peaks = {}
    for n in (7, 9):
        if name == "decode":
            k = s_state(4**n - 1, n)
        else:
            k = random_ket(np.random.default_rng(n), 2 * n)
        tracemalloc.start()
        try:
            call(k, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    a = (peaks[9] - peaks[7]) / (4**9 - 4**7)
    b = peaks[7] - a * 4**7
    assert a <= share * limits.AMPLITUDE_BYTES
    cap = limits.CAPS[entry]
    assert a * 4**cap + b + limits.AMPLITUDE_BYTES * 4**cap <= limits.BYTE_BUDGET


def test_a_warm_ket_measurement_allocates_only_its_outcomes():
    """Beyond its 8·4^N-byte outcome vector, a warm measurement of a ket
    allocates no block-sized array: each block's gather and scatter positions
    are built in this thread's block buffers (128 KiB each at N = 10 if a
    broadcasting ufunc built them)."""
    n = 10
    k = random_ket(np.random.default_rng(n), 2 * n)
    want = outcome_probabilities(k, n)  # allocates the block buffers and tables
    tracemalloc.start()
    try:
        got = outcome_probabilities(k, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak - limits.OUTCOME_BYTES * 4**n < 32 * 1024


def test_session_length_is_checked_in_the_library(monkeypatch):
    monkeypatch.setitem(limits.CAPS, "MAX_SESSION_STEPS", 2)
    assert len(session(1, [0, 3], 0).steps) == 2
    with pytest.raises(ValueError) as info:
        session(1, [0, 3, 1], 0)
    assert str(info.value) == "session length must be in [0, 2] (MAX_SESSION_STEPS), got 3"


def test_transcript_length_is_checked_as_session_checks_it(monkeypatch):
    monkeypatch.setitem(limits.CAPS, "MAX_SESSION_STEPS", 2)
    text = session(1, [0, 3], 0).to_json()
    assert Transcript.from_json(text).to_json() == text
    data = json.loads(text)
    data["steps"].append(data["steps"][0])
    with pytest.raises(ValueError) as info:
        Transcript.from_dict(data)
    assert str(info.value) == "session length must be in [0, 2] (MAX_SESSION_STEPS), got 3"


def test_too_many_explicit_session_messages_are_a_usage_error(monkeypatch, capsys):
    """The command counts explicit messages before it checks each one."""
    monkeypatch.setitem(limits.CAPS, "MAX_SESSION_STEPS", 2)
    assert main(["session", "--n", "1", "0", "3", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: session length must be in [0, 2] (MAX_SESSION_STEPS), got 3\n"
    assert main(["session", "--n", "1", "0", "3"]) == 0


def test_capacity_of_a_ket_is_checked_in_the_library_and_the_cli(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(limits.CAPS, "MAX_CAPACITY_PAIRS", 1)
    err = "pair count must be in [1, 1] (MAX_CAPACITY_PAIRS), got 2"
    assert dense_coding_capacity(s0(1), 2, 2).chi == 2.0
    with pytest.raises(ValueError, match=re.escape(err)):
        dense_coding_capacity(g_state(1), 4, 4)
    # an odd qubit count rounds up: three qubits need two pairs
    with pytest.raises(ValueError, match=re.escape(err)):
        dense_coding_capacity(Ket(3, [1, 0, 0, 0, 0, 0, 0, 0]), 2, 4)
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(g_state(1).to_dict()))
    assert main(["capacity", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_ket_takes_numpy_integer_counts_as_int():
    k = Ket(np.int64(1), [1, 0])
    assert type(k.num_qubits) is int
    assert k.to_dict()["num_qubits"] == 1


def test_limits_are_defined_in_the_limits_module_only():
    definition = re.compile(r"^[A-Z_]*MAX[A-Z_]* =", re.MULTILINE)
    for path in SRC.glob("*.py"):
        found = definition.findall(path.read_text())
        if path.name == "limits.py":
            assert len(found) == len(limits.CAPS)
        else:
            assert found == [], path.name
    source = (SRC / "limits.py").read_text()
    assert re.search(r"^\s*(from \.|import densecode|from densecode)", source, re.MULTILINE) is None
