"""Informational size sweep; never part of a gated run.

    python3 perfbench/sweep.py

Times ``s_state``, ``basis_matrix`` (cache cleared first), the dense
``outcome_probabilities`` and ``hermitian_eigenvalues`` once each for
N = 1..6 transmitted qubits, after one warm-up pass at N = 1 and 2, and
prints one JSON line per measurement.  ``s_state`` sends the all-ones
message (every Pauli factor applied); ``hermitian_eigenvalues`` gets a
full-rank Ginibre density matrix of dimension 2**N (64 x 64 at N = 6),
since the 4**N-dimensional one is out of the Jacobi solver's reach.
``basis_matrix`` also reports the bytes it caches and the growth of the
process's peak RSS.  Needs about 300 MB at N = 6.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

from run import load_package, provenance

SIZES = range(1, 7)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _density(n: int) -> np.ndarray:
    d = 2**n
    rng = np.random.default_rng(n)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def sweep_size(n: int, emit) -> None:
    from densecode import bellbasis, protocol, statevec

    seconds, _ = _timed(bellbasis.s_state, 4**n - 1, n)
    emit("bellbasis.s_state", n, seconds)
    bellbasis.basis_matrix.cache_clear()
    rss = _peak_rss_mb()
    seconds, basis = _timed(bellbasis.basis_matrix, n)
    emit("bellbasis.basis_matrix", n, seconds, bytes=basis.nbytes, peak_rss_growth_mb=_peak_rss_mb() - rss)
    ket = bellbasis.s_state(0, n)
    seconds, _ = _timed(protocol.outcome_probabilities, ket, n)
    emit("protocol.outcome_probabilities", n, seconds, bytes_computed=basis.nbytes)
    rho = _density(n)
    seconds, _ = _timed(statevec.hermitian_eigenvalues, rho)
    emit("statevec.hermitian_eigenvalues", n, seconds, dim=rho.shape[0])


def main() -> int:
    load_package()
    print(json.dumps({"provenance": provenance(seed=0)}))
    for n in (1, 2):
        sweep_size(n, lambda *args, **kwargs: None)
    for n in SIZES:
        sweep_size(n, lambda fn, n, seconds, **extra: print(
            json.dumps({"fn": fn, "N": n, "seconds": seconds, **extra}), flush=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
