"""Every size and range limit of the package, in one table.

Every size is a function of N: a 2N-qubit shared state has 4^N amplitudes.
The memory limits are derived from one byte budget; the two policy caps bound
output size and run time.  ``check`` is the one comparison with a bound, and
its error names the input, the bound and the table entry.
"""

from numbers import Integral

BYTE_BUDGET = 2**30  # the most one array, or one command's working set, may take
AMPLITUDE_BYTES = 16  # one complex128 amplitude
# Peak RSS growth of `densecode session` per step (messages, transcript and
# JSON text) between 100k and 200k random steps: about 1.3 KB at N = 2 and
# 1.4 KB at N = 6; rounded up.
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
MAX_SESSION_STEPS = BYTE_BUDGET // SESSION_STEP_BYTES
# policy, output size: `basis --n 4` already prints 256 states of 256 amplitudes
MAX_EMIT_PAIRS = 4
# policy, run time: roundtrip_all(6) takes about 0.3 s, roundtrip_all(7) about 4 s
MAX_PROTOCOL_PAIRS = 6

CAPS = {name: cap for name, cap in globals().items() if name.startswith("MAX_")}


def check(name: str, value, entry: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int when it is an integer (not a bool) in [low, high];
    otherwise a ValueError naming the input, the bound and ``entry``.  ``high``
    defaults to ``CAPS[entry]``; a bound not in the table describes itself in
    ``entry``."""
    if high is None:
        high = CAPS[entry]
    if type(value) is int and low <= value <= high:
        return value
    integral = isinstance(value, Integral) and not isinstance(value, bool)
    if not integral or not low <= value <= high:
        kind = "" if integral else "an integer "
        raise ValueError(f"{name} must be {kind}in [{low}, {high}] ({entry}), got {value!r}")
    return int(value)


def check_message(message, n_pairs: int) -> int:
    """``message`` as an int when it is one of the 4**n_pairs messages."""
    return check("message", message, f"4**N - 1 for N = {n_pairs}", 0, 4**n_pairs - 1)
