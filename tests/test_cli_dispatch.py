"""cli.main parses a command that names a subcommand once, with that
subcommand's own parser.  Its exit code, stdout and stderr must be those of
the two-level parse (the top-level parser's parse_args over all of argv),
kept here as the oracle, for every golden command and every argv that fails
to parse.  --out is written as UTF-8 bytes whatever the locale.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from densecode import cli
from densecode.cli import UsageError, main

from test_golden import CASES, GOLDEN

SRC = Path(cli.__file__).resolve().parents[1]

REJECTED = [
    ["roundtrip", "--n", "1", "--format", "json"],
    ["capacity", "g1", "--format", "table"],
    ["session", "--n", "1", "0", "--format", "json"],
    ["ghz-compare", "--format", "json"],
    ["basis", "--n", "1", "--seed", "1"],
    ["roundtrip", "--n", "1", "--seed", "1"],
    ["capacity", "g1", "--seed", "1"],
    ["factorize", "--seed", "1"],
    ["ghz-compare", "--seed", "1"],
]

ARGVS = [
    *CASES.values(),
    *REJECTED,
    [],
    ["-h"],
    ["nonsense"],
    ["roundtrip", "-h"],
    ["basis", "--n", "x"],
    ["roundtrip", "--n", "1", "--", "x"],
    ["roundtrip", "--n=1"],
]


def _two_level(argv):
    """main as it was before the single parse: the top-level parser's
    parse_args over all of argv, then the command."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cli._check_out(args.out)
        return args.run(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, UsageError) else 1


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_single_parse_matches_the_two_level_parse(capsys, argv):
    want = _two_level(list(argv)), *capsys.readouterr()
    got = main(list(argv)), *capsys.readouterr()
    assert got == want


def test_abbreviated_out_writes_the_same_file(capsys, tmp_path):
    argv = ["roundtrip", "--n", "1", "--ou"]
    assert _two_level([*argv, str(tmp_path / "want")]) == 0
    assert main([*argv, str(tmp_path / "got")]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@pytest.mark.parametrize("argv", [["roundtrip", "--n", "1"], ["roundtrip", "--bogus"], []])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv):
    want = main(argv), *capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["densecode", *argv])
    assert (main(), *capsys.readouterr()) == want


def test_out_is_utf8_bytes_of_stdout(capsys, tmp_path):
    out = tmp_path / "basis.txt"
    assert main(["basis", "--n", "1", "--out", str(out)]) == 0
    assert main(["basis", "--n", "1"]) == 0
    text = capsys.readouterr().out
    assert "√" in text
    assert out.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("utf8_mode", ["1", "0"])
def test_out_is_utf8_under_the_c_locale(tmp_path, utf8_mode):
    """Under LC_ALL=C Python's UTF-8 mode is on unless PYTHONUTF8=0 turns it
    off, which leaves an ASCII locale encoding: --out is UTF-8 either way."""
    out = tmp_path / "basis.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C", PYTHONUTF8=utf8_mode)
    proc = subprocess.run(
        [sys.executable, "-m", "densecode", "basis", "--n", "1", "--out", str(out)],
        capture_output=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == (GOLDEN / "basis_n1.txt").read_bytes()
