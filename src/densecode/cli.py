"""Command-line front end: basis emission, protocol round trips, capacity
audits, factorization tables, and reproducible session transcripts.

Exit codes: 0 success, 1 verification failure or internal fault, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import bellbasis, capacity, protocol
from .bellbasis import BellLabel
from .statevec import Ket, equal_up_to_global_phase

DEFAULT_SEED = 0x5DC0DE
MAX_EMIT_PAIRS = 4  # basis emission cap: 4**4 states

_EXACT_COEFFS = (
    (1.0, "1"),
    (0.5, "1/2"),
    (2.0**-0.5, "1/√2"),
    (2.0**-1.5, "1/(2√2)"),
    (0.25, "1/4"),
)


class UsageError(ValueError):
    """Bad command arguments or unreadable input."""


@dataclass(frozen=True)
class CliConfig:
    """Resolved options shared by the subcommands."""

    subcommand: str
    n_pairs: int | None = None
    seed: int = DEFAULT_SEED
    out: str | None = None
    fmt: str = "table"


def format_coefficient(value: complex) -> str:
    """'+1/2'-style exact strings for the magnitudes that occur here."""
    if abs(value.imag) > 1e-10:
        return f"({value.real:+.6g}{value.imag:+.6g}i)"
    sign = "-" if value.real < 0 else "+"
    magnitude = abs(value.real)
    for target, text in _EXACT_COEFFS:
        if abs(magnitude - target) <= 1e-10:
            return sign + text
    return f"{value.real:+.10g}"


def format_state(k: Ket) -> str:
    """Readable expansion like '+1/2|0000> +1/2|0101> ...'."""
    n = k.num_qubits
    parts = [
        f"{format_coefficient(a)}|{index:0{n}b}>"
        for index, a in enumerate(k.amplitudes)
        if abs(a) > 1e-12
    ]
    return " ".join(parts)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _bell_name(k: Ket) -> str:
    for label in BellLabel:
        if equal_up_to_global_phase(k, bellbasis.bell(label)):
            return label.value
    return "?"


def cmd_basis(config: CliConfig) -> int:
    n = config.n_pairs
    if n is None or n < 1:
        raise UsageError("basis requires --n >= 1")
    if n > MAX_EMIT_PAIRS:
        raise UsageError(f"basis emission is capped at --n {MAX_EMIT_PAIRS}, got {n}")

    if n == 2:
        # the 16 four-qubit states in g1..g16 order, grouped by carrier kets
        records = []
        for i in range(1, 17):
            records.append(
                {
                    "index": bellbasis.g_to_s_map()[i - 1],
                    "label": f"g{i}",
                    "group": bellbasis.g_group(i),
                    "state": bellbasis.g_state(i).to_dict(),
                }
            )
        if config.fmt == "json":
            _emit_json({"N": n, "states": records}, config.out)
        else:
            lines = []
            for group in range(1, 5):
                lines.append(f"Group {group}")
                for rec in records:
                    if rec["group"] != group:
                        continue
                    state = Ket.from_dict(rec["state"])
                    lines.append(
                        f"  {rec['label']:<4} (message {rec['index']:>2}): {format_state(state)}"
                    )
            _emit("\n".join(lines) + "\n", config.out)
        return 0

    records = []
    for j in range(4**n):
        state = bellbasis.s_state(j, n)
        rec = {"index": j, "label": f"s{j}", "state": state.to_dict()}
        if n == 1:
            rec["bell"] = _bell_name(state)
        records.append(rec)
    if config.fmt == "json":
        _emit_json({"N": n, "states": records}, config.out)
    else:
        lines = []
        for rec in records:
            state = Ket.from_dict(rec["state"])
            name = rec["label"] if n != 1 else f"{rec['label']} ({rec['bell']})"
            lines.append(f"{name:<12}: {format_state(state)}")
        _emit("\n".join(lines) + "\n", config.out)
    return 0


def _protocol_pairs(config: CliConfig, command: str) -> int:
    n = config.n_pairs
    if n is None or not 1 <= n <= protocol.MAX_PROTOCOL_PAIRS:
        raise UsageError(
            f"{command} requires --n between 1 and {protocol.MAX_PROTOCOL_PAIRS} "
            f"(MAX_PROTOCOL_PAIRS), got {n}"
        )
    return n


def _fault(exc: ValueError) -> int:
    """Report a ValueError raised after the arguments were checked: a failure
    of the program (exit 1), not a usage error."""
    sys.stderr.write(f"error: {exc}\n")
    return 1


def cmd_roundtrip(config: CliConfig) -> int:
    n = _protocol_pairs(config, "roundtrip")
    report = protocol.roundtrip_all(n)
    _emit(
        f"{2 * n} bits via {n} qubits: {report.message_count} messages round-tripped, "
        f"{report.bits_per_qubit} bits per qubit, {len(report.failures)} failures\n",
        config.out,
    )
    return 0 if not report.failures else 1


def _resolve_capacity_state(selector: str, d_a_flag: int | None) -> tuple[Ket, int]:
    if selector == "g1":
        state, d_a = bellbasis.g_state(1), 4
    elif selector == "ghz4":
        state, d_a = bellbasis.ghz4(), 4
    elif selector.startswith("s0:"):
        try:
            n = int(selector[3:])
        except ValueError as exc:
            raise UsageError(f"bad selector {selector!r}") from exc
        if not 1 <= n <= bellbasis.MAX_PAIRS:
            raise UsageError(f"n_pairs must be in [1, {bellbasis.MAX_PAIRS}], got {n}")
        state, d_a = bellbasis.s0(n), 2**n
    elif selector.startswith("file:"):
        path = Path(selector[5:])
        try:
            state = Ket.from_dict(json.loads(path.read_text()))
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed state in {path}: {exc}") from exc
        if d_a_flag is None and state.num_qubits % 2:
            raise UsageError("state has an odd qubit count; pass --d-a explicitly")
        d_a = 2 ** (state.num_qubits // 2)
    else:
        raise UsageError(f"unknown selector {selector!r}; use g1, ghz4, s0:N or file:PATH")
    if d_a_flag is not None:
        d_a = d_a_flag
    return state, d_a


def cmd_capacity(config: CliConfig, selector: str, d_a_flag: int | None) -> int:
    state, d_a = _resolve_capacity_state(selector, d_a_flag)
    dim = 2**state.num_qubits
    if d_a < 1 or dim % d_a:
        raise UsageError(f"--d-a {d_a} does not divide the state dimension {dim}")
    report = capacity.dense_coding_capacity(state, d_a, dim // d_a)
    _emit_json(report.to_dict(), config.out)
    return 0


def cmd_factorize(config: CliConfig) -> int:
    reports = [bellbasis.factorize_report(i) for i in range(1, 17)]
    worst = max(r["max_deviation"] for r in reports)
    if worst > 1e-10:
        sys.stderr.write(f"factorization reconstruction failed: deviation {worst}\n")
        return 1
    if config.fmt == "json":
        _emit_json(reports, config.out)
    else:
        lines = [
            f"g{r['g_index']:<3} = |{r['first']}>|{r['second']}>" for r in reports
        ]
        lines.append(f"all 16 reconstructions verified (max deviation {worst:.3e})")
        _emit("\n".join(lines) + "\n", config.out)
    return 0


def cmd_session(config: CliConfig, messages: list[int] | None, random_count: int | None) -> int:
    n = _protocol_pairs(config, "session")
    if (messages is None or not messages) == (random_count is None):
        raise UsageError("pass either explicit messages or --random COUNT")
    if config.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {config.seed}")
    if random_count is not None:
        if random_count < 0:
            raise UsageError("--random count must be nonnegative")
        rng = np.random.default_rng(config.seed)
        messages = [int(m) for m in rng.integers(0, 4**n, size=random_count)]
    for m in messages:
        if not 0 <= m < 4**n:
            raise UsageError(f"message {m} out of range for n_pairs={n}")
    transcript = protocol.session(n, messages, config.seed)
    _emit(transcript.to_json(), config.out)
    return 0


def cmd_ghz_compare(config: CliConfig) -> int:
    g1 = bellbasis.g_state(1)
    ghz = bellbasis.ghz4()
    result = {}
    for name, state in (("g1", g1), ("ghz", ghz)):
        report = capacity.dense_coding_capacity(state, 4, 4)
        result[name] = {
            "orbit": capacity.orthogonal_orbit_count(state, 2),
            "chi": report.chi,
        }
    _emit_json(result, config.out)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Superdense coding over generalized Bell bases: build, run, audit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # --n, --format and --seed go only on the subcommands that read them
    def add_n(p):
        p.add_argument("--n", type=int, default=None, help="transmitted qubits per message")

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="table")

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("basis", help="emit the generalized Bell basis states")
    add_n(p)
    add_format(p)
    add_out(p)

    p = sub.add_parser("roundtrip", help="encode and decode every message")
    add_n(p)
    add_out(p)

    p = sub.add_parser("capacity", help="dense-coding capacity report for a state")
    p.add_argument("selector", help="g1, ghz4, s0:N or file:PATH (ket JSON)")
    p.add_argument("--d-a", type=int, default=None, help="sender subsystem dimension")
    add_out(p)

    p = sub.add_parser("factorize", help="Bell-pair decomposition of all 16 g-states")
    add_format(p)
    add_out(p)

    p = sub.add_parser("session", help="simulate a sender->receiver session")
    p.add_argument("messages", type=int, nargs="*", help="explicit message values")
    p.add_argument("--random", type=int, default=None, metavar="COUNT",
                   help="draw COUNT seeded random messages instead")
    add_n(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit PRNG seed")
    add_out(p)

    p = sub.add_parser("ghz-compare", help="orbit sizes and capacities: g1 vs GHZ")
    add_out(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    config = CliConfig(
        subcommand=args.subcommand,
        n_pairs=getattr(args, "n", None),
        seed=getattr(args, "seed", DEFAULT_SEED),
        out=args.out,
        fmt=getattr(args, "format", "table"),
    )
    try:
        if args.subcommand == "basis":
            return cmd_basis(config)
        if args.subcommand == "roundtrip":
            return cmd_roundtrip(config)
        if args.subcommand == "capacity":
            return cmd_capacity(config, args.selector, args.d_a)
        if args.subcommand == "factorize":
            return cmd_factorize(config)
        if args.subcommand == "session":
            return cmd_session(config, args.messages, args.random)
        if args.subcommand == "ghz-compare":
            return cmd_ghz_compare(config)
        raise UsageError(f"unknown subcommand {args.subcommand!r}")
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        return _fault(exc)


if __name__ == "__main__":
    sys.exit(main())
