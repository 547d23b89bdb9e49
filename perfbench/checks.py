"""Output checks that do not use the package's dense Bell basis.

Each check takes what a command produced and returns True when it is
correct.  References come from bit arithmetic (Pauli tokens), a Schmidt
decomposition by numpy SVD (pure-state capacities) or numpy.linalg.eigvalsh
(mixed-state capacities), never from ``densecode`` itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

CAPACITY_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-12  # same zero rule as the package's entropy

# `densecode ghz-compare` as documented in the README, byte for byte
GHZ_COMPARE_TEXT = (
    json.dumps({"g1": {"orbit": 16, "chi": 4.0}, "ghz": {"orbit": 8, "chi": 3.0}}, indent=2)
    + "\n"
)


def roundtrip_line(n_pairs: int) -> str:
    """The exact summary `densecode roundtrip --n N` prints when nothing fails."""
    return (
        f"{2 * n_pairs} bits via {n_pairs} qubits: {4**n_pairs} messages round-tripped, "
        "2.0 bits per qubit, 0 failures\n"
    )


def check_roundtrip(n_pairs: int, text: str) -> bool:
    return text == roundtrip_line(n_pairs)


def pauli_tokens(message: int, n_pairs: int) -> str:
    """'Z<k>'/'X<k>' tokens: bit 2k-2 of the message is Z, bit 2k-1 is X on qubit k."""
    parts = []
    for k in range(1, n_pairs + 1):
        if (message >> (2 * k - 2)) & 1:
            parts.append(f"Z{k}")
        if (message >> (2 * k - 1)) & 1:
            parts.append(f"X{k}")
    return " ".join(parts)


def check_session(n_pairs: int, seed: int, count: int, text: str) -> bool:
    """Every step decodes to its own message and names that message's Pauli string."""
    try:
        data = json.loads(text)
        steps = data["steps"]
        if data["N"] != n_pairs or data["seed"] != seed or len(steps) != count:
            return False
        return all(
            0 <= s["message"] < 4**n_pairs
            and s["outcome"] == s["message"]
            and s["success"] is True
            and s["pauli"] == pauli_tokens(s["message"], n_pairs)
            for s in steps
        )
    except (ValueError, KeyError, TypeError):
        return False


def entropy_bits(eigenvalues: np.ndarray) -> float:
    return max(0.0, -sum(float(p) * math.log2(p) for p in eigenvalues if p > EIGENVALUE_FLOOR))


def pure_reference(amplitudes: np.ndarray, d_a: int) -> dict:
    """Capacity of a pure state from its Schmidt coefficients; S_AB is 0."""
    d_b = amplitudes.size // d_a
    schmidt = np.linalg.svd(amplitudes.reshape(d_a, d_b), compute_uv=False)
    s_b = entropy_bits(schmidt**2)
    return {"d_A": d_a, "S_B": s_b, "S_AB": 0.0, "chi": math.log2(d_a) + s_b,
            "holevo": math.log2(amplitudes.size)}


def mixed_reference(rho: np.ndarray, d_a: int, d_b: int) -> dict:
    """Capacity of a density matrix from numpy's Hermitian eigensolver."""
    rho_b = np.einsum("ijik->jk", rho.reshape(d_a, d_b, d_a, d_b))
    s_b = entropy_bits(np.linalg.eigvalsh(rho_b))
    s_ab = entropy_bits(np.linalg.eigvalsh(rho))
    return {"d_A": d_a, "S_B": s_b, "S_AB": s_ab, "chi": math.log2(d_a) + s_b - s_ab,
            "holevo": math.log2(d_a * d_b)}


def check_capacity(reference: dict, report: dict) -> bool:
    """A capacity report (the JSON `capacity` prints) agrees with a reference."""
    try:
        if report["d_A"] != reference["d_A"]:
            return False
        return all(
            abs(float(report[key]) - reference[key]) <= CAPACITY_TOL
            for key in ("S_B", "S_AB", "chi", "holevo")
        )
    except (KeyError, TypeError, ValueError):
        return False


def check_capacity_text(reference: dict, text: str) -> bool:
    try:
        return check_capacity(reference, json.loads(text))
    except ValueError:
        return False
