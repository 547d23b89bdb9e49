"""The four benchmark workloads: seeded inputs, the operations to time, and
how to check each operation's output.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  CLI operations go through
``densecode.cli.main(argv)`` in-process with ``--out`` set to a file in the
work directory; ``capacity-mixed`` has no CLI input and calls the library.
Callables look ``cli.main`` and ``capacity.dense_coding_capacity`` up at
call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from densecode import capacity, cli
from densecode.statevec import DensityMatrix

import checks


@dataclass(frozen=True)
class Op:
    """One timed operation; ``check`` gets what ``run`` returned."""

    units: int
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]  # cycled in order
    period: int  # ops per cycle; timed phases run whole cycles
    unit: str
    probe: tuple[str, ...]  # fresh-interpreter argv running ops[0] cold
    probe_check: Callable[[str], bool]  # given the probe's stdout


def _take(out: Path) -> str | None:
    """Read and remove a command's output file, so a command that writes
    nothing cannot pass on an earlier command's output."""
    try:
        text = out.read_text()
    except FileNotFoundError:
        return None
    out.unlink()
    return text


def _cli_op(argv: list[str], out: Path, units: int, check: Callable[[str], bool]) -> Op:
    full = [*argv, "--out", str(out)]

    def ok(rc) -> bool:
        text = _take(out)
        return rc == 0 and text is not None and check(text)

    return Op(units, lambda: cli.main(full), ok)


def _cli_probe(argv: list[str], out: Path, check: Callable[[str], bool]):
    probe = (sys.executable, "-m", "densecode", *argv, "--out", str(out))

    def ok(stdout: str) -> bool:
        text = _take(out)
        return text is not None and check(text)

    return probe, ok


def roundtrip_n5(seed: int, work: Path) -> Workload:
    """Exhaustive encode/decode of all 1024 five-pair messages; dense decode dominates."""
    del seed  # the command has no random input
    argv = ["roundtrip", "--n", "5"]
    check = lambda text: checks.check_roundtrip(5, text)
    probe, probe_check = _cli_probe(argv, work / "probe.txt", check)
    op = _cli_op(argv, work / "out.txt", 1024, check)
    return Workload((op,), 1, "message", probe, probe_check)


SESSION_STEPS = 100
SESSION_SEEDS = 4096  # more commands than a 60 s run completes


def session_n2(seed: int, work: Path) -> Workload:
    """Seeded 100-message sessions on two pairs; per-call overhead dominates."""
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**32, size=SESSION_SEEDS)]

    def argv(s: int) -> list[str]:
        return ["session", "--n", "2", "--random", str(SESSION_STEPS), "--seed", str(s)]

    def check(s: int) -> Callable[[str], bool]:
        return lambda text: checks.check_session(2, s, SESSION_STEPS, text)

    ops = tuple(_cli_op(argv(s), work / "out.json", SESSION_STEPS, check(s)) for s in seeds)
    probe, probe_check = _cli_probe(argv(seeds[0]), work / "probe.json", check(seeds[0]))
    return Workload(ops, 1, "step", probe, probe_check)


# Capacity inputs are drawn afresh for each of this many cycles, so a run
# averages over many random states instead of hinging on one draw; the
# Jacobi solver's sweep count depends on the state.
CYCLES = 24


def _haar_ket(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


def _write_ket(path: Path, amps: np.ndarray) -> None:
    num_qubits = amps.size.bit_length() - 1
    data = {"num_qubits": num_qubits, "amplitudes": [[a.real, a.imag] for a in amps.tolist()]}
    path.write_text(json.dumps(data))


def _s0_amplitudes(n_pairs: int) -> np.ndarray:
    d = 2**n_pairs
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def capacity_pure(seed: int, work: Path) -> Workload:
    """Capacity reports of pure states: dense Haar kets and sparse s0 states."""
    rng = np.random.default_rng(seed)
    ghz = np.zeros(16, dtype=complex)
    ghz[[0, 15]] = 2**-0.5
    out = work / "out.json"
    ops = []
    first = None  # (selector, amplitudes, d_A) of ops[0]
    for cycle in range(CYCLES):
        states = []
        for q in (8, 10):
            amps = _haar_ket(rng, q)
            path = work / f"haar{q}-{cycle}.json"
            _write_ket(path, amps)
            states.append((f"file:{path}", amps, 2 ** (q // 2)))
        for n in (4, 5):
            states.append((f"s0:{n}", _s0_amplitudes(n), 2**n))
        states.append(("ghz4", ghz, 4))
        first = first or states[0]
        for selector, amps, d_a in states:
            ref = checks.pure_reference(amps, d_a)
            check = lambda text, ref=ref: checks.check_capacity_text(ref, text)
            ops.append(_cli_op(["capacity", selector], out, 1, check))
        # two reports (g1 and GHZ), compared with the documented output
        ops.append(_cli_op(["ghz-compare"], out, 2, lambda text: text == checks.GHZ_COMPARE_TEXT))

    selector, amps, d_a = first
    ref = checks.pure_reference(amps, d_a)
    probe, probe_check = _cli_probe(
        ["capacity", selector], work / "probe.json",
        lambda text: checks.check_capacity_text(ref, text),
    )
    return Workload(tuple(ops), len(ops) // CYCLES, "report", probe, probe_check)


def _ginibre(rng: np.random.Generator, num_qubits: int, rank: int) -> np.ndarray:
    d = 2**num_qubits
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _werner_s0(rng: np.random.Generator, n_pairs: int) -> np.ndarray:
    amps = _s0_amplitudes(n_pairs)
    d = amps.size
    p = rng.uniform(0.1, 0.9)
    return (1 - p) * np.outer(amps, amps.conj()) + p * np.eye(d) / d


# library call for one cold report in a fresh interpreter: rho.npy d_A d_B
_MIXED_PROBE = (
    "import json, sys\n"
    "import numpy\n"
    "from densecode import capacity, DensityMatrix\n"
    "rho = numpy.load(sys.argv[1])\n"
    "report = capacity.dense_coding_capacity(DensityMatrix(rho), int(sys.argv[2]), int(sys.argv[3]))\n"
    "print(json.dumps(report.to_dict()))\n"
)


def capacity_mixed(seed: int, work: Path) -> Workload:
    """Capacity reports of mixed states (Ginibre rank 1..full, Werner-noised s0)."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(CYCLES):
        for q in (6, 4):
            d = 2**q
            states += [_ginibre(rng, q, r) for r in (d, int(d**0.5), 1)]
            states.append(_werner_s0(rng, q // 2))

    ops = []
    for rho in states:
        d_half = int(round(rho.shape[0] ** 0.5))
        ref = checks.mixed_reference(rho, d_half, d_half)

        def run(rho=rho, d=d_half):
            return capacity.dense_coding_capacity(DensityMatrix(rho), d, d)

        ops.append(Op(1, run, lambda report, ref=ref: checks.check_capacity(ref, report.to_dict())))

    rho0 = states[0]
    d0 = int(round(rho0.shape[0] ** 0.5))
    np.save(work / "probe_rho.npy", rho0)
    ref0 = checks.mixed_reference(rho0, d0, d0)
    probe = (sys.executable, "-c", _MIXED_PROBE, str(work / "probe_rho.npy"), str(d0), str(d0))

    def probe_check(stdout: str) -> bool:
        lines = stdout.strip().splitlines()
        return bool(lines) and checks.check_capacity_text(ref0, lines[-1])

    return Workload(tuple(ops), len(ops) // CYCLES, "report", probe, probe_check)


WORKLOADS = {
    "roundtrip-n5": roundtrip_n5,
    "session-n2": session_n2,
    "capacity-pure": capacity_pure,
    "capacity-mixed": capacity_mixed,
}
