"""Every size and range limit of the package, in one table.

Every size is a function of N: a 2N-qubit shared state has 4^N amplitudes.
The memory limits are derived from one byte budget; the two policy caps bound
output size and run time.  ``check`` is the one comparison with a bound and
the one test of every integer argument (counts, qubit indices, bits and
seeds), and its error names the input, the bound and the table entry.
"""

from numbers import Integral

BYTE_BUDGET = 2**30  # the most one array, or one command's working set, may take
AMPLITUDE_BYTES = 16  # one complex128 amplitude
OUTCOME_BYTES = 8  # one float64 outcome probability
# Peak RSS growth of `densecode session` per step (messages, transcript and
# JSON text) between 100k and 200k random steps: about 1.3 KB at N = 2,
# 1.4 KB at N = 6 and 1.5 KB at N = 13; rounded up.
SESSION_STEP_BYTES = 2048

# one ket of q qubits: 2^q amplitudes
MAX_QUBITS = (BYTE_BUDGET // AMPLITUDE_BYTES).bit_length() - 1
# a shared 2N-qubit state is one ket
MAX_PAIRS = MAX_QUBITS // 2
# the dense basis: 4^N rows of 4^N amplitudes
MAX_BASIS_PAIRS = MAX_QUBITS // 4
# a pure-state capacity report holds about three 2N-qubit kets: the ket, its
# copy reshaped for the SVD, and the SVD's workspace
MAX_CAPACITY_PAIRS = ((BYTE_BUDGET // (3 * AMPLITUDE_BYTES)).bit_length() - 1) // 2
# measuring a 2N-qubit ket: the ket and its 4^N outcome probabilities
MAX_MEASURE_PAIRS = ((BYTE_BUDGET // (AMPLITUDE_BYTES + OUTCOME_BYTES)).bit_length() - 1) // 2
# an orbit count: the ket, the sender's reduced state (as many amplitudes),
# 4^N squared Pauli traces and two 4^N boolean masks (overlaps and sieve).  It
# bounds memory, not time: orthogonal_orbit_count(s0(n), n) takes 1.5-1.6 s at
# n = 10, 6.0-6.6 s at 11 and 32-39 s at 12 (675 MB peak RSS; 2-core box)
MAX_ORBIT_PAIRS = ((BYTE_BUDGET // (2 * AMPLITUDE_BYTES + OUTCOME_BYTES + 2)).bit_length() - 1) // 2
MAX_SESSION_STEPS = BYTE_BUDGET // SESSION_STEP_BYTES
# sample_measurements: one float64 draw and one int64 index per shot
MAX_SHOTS = BYTE_BUDGET // 16
# policy, output size: `basis --n 4` already prints 256 states of 256 amplitudes
MAX_EMIT_PAIRS = 4
# policy, run time: roundtrip_all(7) takes about 0.01 s and roundtrip_all(8) about
# 0.07 s (2-core box, OpenBLAS, one BLAS thread per product)
MAX_PROTOCOL_PAIRS = 8

CAPS = {name: cap for name, cap in globals().items() if name.startswith("MAX_")}


def check(name: str, value, entry: str, low: int = 1, high: int | float | None = None) -> int:
    """``value`` as an int when it is an integer (not a bool; a numpy integer
    is taken as int) in [low, high]; otherwise a ValueError naming the input,
    the bound and ``entry``.  ``high`` defaults to ``CAPS[entry]``, and
    ``math.inf`` means no upper bound; a bound not in the table describes
    itself in ``entry``."""
    if high is None:
        high = CAPS[entry]
    if type(value) is int and low <= value <= high:
        return value
    integral = isinstance(value, Integral) and not isinstance(value, bool)
    if not integral or not low <= value <= high:
        kind = "" if integral else "an integer "
        raise ValueError(f"{name} must be {kind}in [{low}, {high}] ({entry}), got {value!r}")
    return int(value)


def check_message(message, n_pairs: int, name: str = "message") -> int:
    """``message`` as an int when it is one of the 4**n_pairs messages; the
    error calls it ``name``."""
    return check(name, message, f"4**N - 1 for N = {n_pairs}", 0, 4**n_pairs - 1)
