"""Command-line front end: basis emission, protocol round trips, capacity
audits, factorization tables, and reproducible session transcripts.

Exit codes: 0 success, 1 verification failure or internal fault, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import stat
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import bellbasis, capacity, limits, protocol
from .bellbasis import BellLabel, g_group, g_state
from .statevec import Ket, equal_up_to_global_phase

DEFAULT_SEED = 0x5DC0DE

_EXACT_COEFFS = (
    (1.0, "1"),
    (0.5, "1/2"),
    (2.0**-0.5, "1/√2"),
    (2.0**-1.5, "1/(2√2)"),
    (0.25, "1/4"),
)


class UsageError(ValueError):
    """Bad command arguments or unreadable input."""


def _usage(check, *args):
    """Run one of the limits checks on command-line values: its ValueError is
    a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _integer(text: str) -> int:
    """An integer flag's value: ASCII digits after at most one '-', so that a
    negative value still reaches its limits check.  int() alone would also
    take blanks, '+', '_' and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return int(text)


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


def _check_out(out: str | None) -> None:
    """Raise, before any work, the error _emit would raise for an --out path it
    cannot write.  Nothing is opened, so nothing is created or truncated and
    a FIFO's reader sees no extra writer."""
    if out is None:
        return
    try:
        mode = os.stat(out or ".").st_mode  # "" is refused as "." is
    except FileNotFoundError as exc:
        # a new file: _emit creates it, so its directory must be writable
        parent = os.path.dirname(out) or "."
        if os.access(parent, os.W_OK | os.X_OK):
            return
        reason = os.strerror(errno.EACCES) if os.path.isdir(parent) else exc.strerror
    except OSError as exc:
        reason = exc.strerror
    else:
        if stat.S_ISDIR(mode):
            reason = os.strerror(errno.EISDIR)
        elif not os.access(out, os.W_OK):
            reason = os.strerror(errno.EACCES)
        else:
            return
    raise UsageError(f"cannot write {out}: {reason}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        # UTF-8 whatever the locale; not Path.write_bytes, which interns paths
        with open(out, "wb") as f:
            f.write(text.encode())
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _bell_name(k: Ket) -> str:
    for label in BellLabel:
        if equal_up_to_global_phase(k, bellbasis.bell(label)):
            return label.value
    return "?"


def cmd_basis(args) -> int:
    n = _usage(limits.check, "--n", args.n, "MAX_EMIT_PAIRS")
    if n == 2:
        # the 16 four-qubit states in g1..g16 order, grouped by carrier kets
        index = bellbasis.g_to_s_map()
        records = [
            {"index": index[i - 1], "label": f"g{i}", "group": g_group(i), "state": g_state(i)}
            for i in range(1, 17)
        ]
    else:
        records = [
            {"index": j, "label": f"s{j}", "state": bellbasis.s_state(j, n)} for j in range(4**n)
        ]
        if n == 1:
            for rec in records:
                rec["bell"] = _bell_name(rec["state"])
    if args.format == "json":
        for rec in records:
            rec["state"] = rec["state"].to_dict()
        _emit_json({"N": n, "states": records}, args.out)
        return 0
    lines = []
    if n == 2:
        for group in range(1, 5):
            lines.append(f"Group {group}")
            lines += [
                f"  {rec['label']:<4} (message {rec['index']:>2}): {format_state(rec['state'])}"
                for rec in records
                if rec["group"] == group
            ]
    else:
        for rec in records:
            name = rec["label"] if n != 1 else f"{rec['label']} ({rec['bell']})"
            lines.append(f"{name:<12}: {format_state(rec['state'])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_roundtrip(args) -> int:
    n = _usage(limits.check, "--n", args.n, "MAX_PROTOCOL_PAIRS")
    report = protocol.roundtrip_all(n)
    _emit(
        f"{2 * n} bits via {n} qubits: {report.message_count} messages round-tripped, "
        f"{report.bits_per_qubit} bits per qubit, {len(report.failures)} failures\n",
        args.out,
    )
    return 0 if not report.failures else 1


def _resolve_capacity_state(selector: str, d_a_flag: int | None) -> tuple[Ket, int]:
    if selector == "g1":
        state, d_a = g_state(1), 4
    elif selector == "ghz4":
        state, d_a = bellbasis.ghz4(), 4
    elif selector.startswith("s0:"):
        digits = selector[3:]
        # int() would also take signs, blanks, underscores and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise UsageError(f"bad selector {selector!r}")
        n = _usage(limits.check, "s0:N", int(digits), "MAX_CAPACITY_PAIRS")
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


def cmd_capacity(args) -> int:
    state, d_a = _resolve_capacity_state(args.selector, args.d_a)
    dim = 2**state.num_qubits
    if d_a < 1 or dim % d_a:
        raise UsageError(f"--d-a {d_a} does not divide the state dimension {dim}")
    _usage(limits.check, "pair count", (state.num_qubits + 1) // 2, "MAX_CAPACITY_PAIRS")
    report = capacity.dense_coding_capacity(state, d_a, dim // d_a)
    _emit_json(report.to_dict(), args.out)
    return 0


def cmd_factorize(args) -> int:
    reports = [bellbasis.factorize_report(i) for i in range(1, 17)]
    worst = max(r["max_deviation"] for r in reports)
    if worst > bellbasis.PHASE_TOL:
        sys.stderr.write(f"factorization reconstruction failed: deviation {worst}\n")
        return 1
    if args.format == "json":
        _emit_json(reports, args.out)
    else:
        lines = [
            f"g{r['g_index']:<3} = |{r['first']}>|{r['second']}>" for r in reports
        ]
        lines.append(f"all 16 reconstructions verified (max deviation {worst:.3e})")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_session(args) -> int:
    n = _usage(limits.check, "--n", args.n, "MAX_PAIRS")
    messages = args.messages
    if (not messages) == (args.random is None):
        raise UsageError("pass either explicit messages or --random COUNT")
    seed = _usage(limits.check, "--seed", args.seed, "PRNG seed", 0, math.inf)
    if args.random is None:
        _usage(limits.check, "session length", len(messages), "MAX_SESSION_STEPS", 0)
        for m in messages:
            _usage(limits.check_message, m, n)
    else:
        count = _usage(limits.check, "--random", args.random, "MAX_SESSION_STEPS", 0)
        rng = np.random.default_rng(seed)
        messages = [int(m) for m in rng.integers(0, 4**n, size=count)]
    transcript = protocol.session(n, messages, seed)
    _emit(transcript.to_json(), args.out)
    return 0


def cmd_ghz_compare(args) -> int:
    g1 = g_state(1)
    ghz = bellbasis.ghz4()
    result = {}
    for name, state in (("g1", g1), ("ghz", ghz)):
        report = capacity.dense_coding_capacity(state, 4, 4)
        result[name] = {
            "orbit": capacity.orthogonal_orbit_count(state, 2),
            "chi": report.chi,
        }
    _emit_json(result, args.out)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Superdense coding over generalized Bell bases: build, run, audit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices  # each name's own parser, for main

    # --n, --format and --seed go only on the subcommands that read them
    def add_n(p):
        p.add_argument("--n", type=_integer, default=None, help="transmitted qubits per message")

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="table")

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("basis", help="emit the generalized Bell basis states")
    p.set_defaults(run=cmd_basis)
    add_n(p)
    add_format(p)
    add_out(p)

    p = sub.add_parser("roundtrip", help="encode and decode every message")
    p.set_defaults(run=cmd_roundtrip)
    add_n(p)
    add_out(p)

    p = sub.add_parser("capacity", help="dense-coding capacity report for a state")
    p.set_defaults(run=cmd_capacity)
    p.add_argument("selector", help="g1, ghz4, s0:N or file:PATH (ket JSON)")
    p.add_argument("--d-a", type=_integer, default=None, help="sender subsystem dimension")
    add_out(p)

    p = sub.add_parser("factorize", help="Bell-pair decomposition of all 16 g-states")
    p.set_defaults(run=cmd_factorize)
    add_format(p)
    add_out(p)

    p = sub.add_parser("session", help="simulate a sender->receiver session")
    p.set_defaults(run=cmd_session)
    p.add_argument("messages", type=_integer, nargs="*", help="explicit message values")
    p.add_argument("--random", type=_integer, default=None, metavar="COUNT",
                   help="draw COUNT seeded random messages instead")
    add_n(p)
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED, help="PRNG seed, any nonnegative integer")
    add_out(p)

    p = sub.add_parser("ghz-compare", help="orbit sizes and capacities: g1 vs GHZ")
    p.set_defaults(run=cmd_ghz_compare)
    add_out(p)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        # a named subcommand is parsed once, by its own parser, with what the
        # two-level parse would print for arguments it does not know
        sub = parser.subcommands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, extras = sub.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _check_out(args.out)
        return args.run(args)
    except ValueError as exc:
        # any ValueError but a UsageError was raised after the arguments were
        # checked: a failure of the program (exit 1), not a usage error
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
