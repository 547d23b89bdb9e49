"""The limits table: values derived from the byte budget, the one checker's
error text, and no size limit defined anywhere else in the package."""

import re
from pathlib import Path

import numpy as np
import pytest

from densecode import Ket, basis_matrix, factorize_s0, limits, roundtrip_all, s0, session

SRC = Path(limits.__file__).parent


def test_derived_values():
    assert limits.BYTE_BUDGET == 2**30
    assert limits.MAX_QUBITS == 26
    assert limits.MAX_PAIRS == 13
    assert limits.MAX_BASIS_PAIRS == 6
    assert limits.MAX_CAPACITY_PAIRS == 12
    assert limits.MAX_SESSION_STEPS == 2**19
    assert limits.MAX_EMIT_PAIRS == 4
    assert limits.MAX_PROTOCOL_PAIRS == 6
    assert set(limits.CAPS) == {
        "MAX_QUBITS",
        "MAX_PAIRS",
        "MAX_BASIS_PAIRS",
        "MAX_CAPACITY_PAIRS",
        "MAX_SESSION_STEPS",
        "MAX_EMIT_PAIRS",
        "MAX_PROTOCOL_PAIRS",
    }


@pytest.mark.parametrize(
    "cap, cost",
    [
        (limits.MAX_QUBITS, lambda q: 16 * 2**q),
        (limits.MAX_BASIS_PAIRS, lambda n: 16 * 16**n),
        (limits.MAX_CAPACITY_PAIRS, lambda n: 3 * 16 * 4**n),
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
        (lambda: roundtrip_all(7), "(MAX_PROTOCOL_PAIRS), got 7"),
    ],
)
def test_library_sites_use_the_table(call, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        call()


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
