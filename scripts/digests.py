"""Print one ``name sha256`` line per output family of the package, so that
two builds can be compared bit for bit: run this on each and diff the lines.

Families: Bell-measurement probabilities, samples and single outcomes of
seeded kets at N = 1..7; capacity reports and orbit counts of those kets, of
s0(1..8), g1 and GHZ; roundtrip_all(1..8); 300-message sessions at N = 1, 2,
5 and 13; and the Pauli tokens of every message at N <= 4.

A seeded ket is normalised by np.sqrt of a plain sum, not np.linalg.norm,
which OpenBLAS threads for long inputs, so the lines of one build must not
depend on the number of BLAS threads either.  Only public names are used.

Run from the repository root: PYTHONPATH=src python scripts/digests.py
"""

import hashlib
import json

import numpy as np

from densecode import (
    Ket,
    dense_coding_capacity,
    g_state,
    ghz4,
    measure_generalized_bell,
    orthogonal_orbit_count,
    outcome_probabilities,
    pauli_string,
    roundtrip_all,
    s0,
    sample_measurements,
    session,
)

KET_PAIRS = range(1, 8)


def seeded_ket(n_pairs: int) -> Ket:
    re, im = np.random.default_rng(n_pairs).normal(size=(2, 4**n_pairs))
    a = re + 1j * im
    return Ket(2 * n_pairs, a / np.sqrt((abs(a) ** 2).sum()))


def families():
    """(name, parts) pairs, each part a str or bytes in a fixed order."""
    kets = {n: seeded_ket(n) for n in KET_PAIRS}
    yield "outcome_probabilities", (outcome_probabilities(k, n).tobytes() for n, k in kets.items())
    yield "sample_measurements", (
        sample_measurements(k, n, 1000, n).astype(np.int64).tobytes() for n, k in kets.items()
    )
    yield "measure_generalized_bell", (
        repr(measure_generalized_bell(k, n, seed)) for n, k in kets.items() for seed in range(8)
    )
    states = [*kets.items(), *((n, s0(n)) for n in range(1, 9)), (2, g_state(1)), (2, ghz4())]
    yield "dense_coding_capacity", (
        json.dumps(dense_coding_capacity(k, 2**n, 2**n).to_dict()) for n, k in states
    )
    yield "orthogonal_orbit_count", (str(orthogonal_orbit_count(k, n)) for n, k in states)
    yield "roundtrip_all", (repr(roundtrip_all(n)) for n in range(1, 9))
    yield "session", (
        session(n, np.random.default_rng(n).integers(0, 4**n, 300).tolist(), n).to_json()
        for n in (1, 2, 5, 13)
    )
    yield "pauli_string_tokens", (
        f"{n} {m} {pauli_string(m, n).tokens()}\n" for n in range(1, 5) for m in range(4**n)
    )


def main():
    for name, parts in families():
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part if isinstance(part, bytes) else part.encode())
        print(name, digest.hexdigest())


if __name__ == "__main__":
    main()
