"""cli.main called many times in one process, as the benchmark and library
users call it: the parser is built once and no call leaks state into the
next; and the exit-code contract of every subcommand (2 for bad arguments,
1 for a ValueError raised by the library after the arguments were checked).
"""

import errno
import json
import os

import pytest

from densecode import Transcript, bellbasis, capacity, cli, protocol
from densecode.cli import DEFAULT_SEED, main


def test_parser_is_built_once():
    assert main(["roundtrip", "--n", "1"]) == 0
    parser = cli._build_parser()
    assert main(["factorize"]) == 0
    assert cli._build_parser() is parser


def test_out_then_stdout(capsys, tmp_path):
    out = tmp_path / "out.txt"
    assert main(["roundtrip", "--n", "1", "--out", str(out)]) == 0
    assert main(["roundtrip", "--n", "1"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert out.read_text().startswith("2 bits via 1 qubits")


def test_json_then_default_table(capsys):
    assert main(["basis", "--n", "1", "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["basis", "--n", "1"]) == 0
    assert capsys.readouterr().out.startswith("s0 (Phi+)")


def test_session_without_seed_gets_the_default(capsys):
    assert main(["session", "--n", "2", "--random", "5", "--seed", "7"]) == 0
    assert Transcript.from_json(capsys.readouterr().out).seed == 7
    assert main(["session", "--n", "2", "--random", "5"]) == 0
    default = capsys.readouterr().out
    assert Transcript.from_json(default).seed == DEFAULT_SEED
    assert main(["session", "--n", "2", "--random", "5", "--seed", str(DEFAULT_SEED)]) == 0
    assert capsys.readouterr().out == default


def test_session_takes_a_seed_past_64_bits(capsys):
    seed = 2**64
    assert main(["session", "--n", "1", "--random", "1", "--seed", str(seed)]) == 0
    assert Transcript.from_json(capsys.readouterr().out).seed == seed
    cli._build_parser().subcommands["session"].print_help()
    assert "any nonnegative integer" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "bad", [["roundtrip", "--bogus"], ["capacity"], ["basis", "--n", "x"], []]
)
def test_parse_failure_leaves_the_next_call_working(capsys, bad):
    assert main(bad) == 2
    capsys.readouterr()
    assert main(["roundtrip", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("4 bits via 2 qubits")


def _injected(*args, **kwargs):
    raise ValueError("injected fault")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (bellbasis, "s_state", ["basis", "--n", "1"]),
        (capacity, "dense_coding_capacity", ["capacity", "s0:3"]),
        (bellbasis, "factorize_report", ["factorize"]),
        (capacity, "orthogonal_orbit_count", ["ghz-compare"]),
    ],
)
def test_library_fault_after_argument_checks_exits_1(monkeypatch, capsys, module, name, argv):
    monkeypatch.setattr(module, name, _injected)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: injected fault\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--n", "0"],
        ["basis", "--n", "5"],
        ["capacity", "s0:0"],
        ["capacity", "s0:14"],
        ["capacity", "s0:x"],
        ["capacity", "g1", "--d-a", "3"],
        ["factorize", "--n", "1"],
        ["ghz-compare", "--out"],
        ["session", "--n", "2", "--random", "3", "--seed", "-1"],
        ["session", "--n", "2", "1", "--seed", "-1"],
        ["session", "--n", "2", "--random", str(10**15)],
        ["capacity", "s0:13"],
    ],
)
def test_bad_arguments_exit_2_with_faulty_libraries(monkeypatch, capsys, argv):
    for module, name in (
        (bellbasis, "s_state"),
        (bellbasis, "s0"),
        (capacity, "dense_coding_capacity"),
        (bellbasis, "factorize_report"),
        (capacity, "orthogonal_orbit_count"),
    ):
        monkeypatch.setattr(module, name, _injected)
    assert main(argv) == 2
    assert "injected" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "selector", ["s0:1_0", "s0:+2", "s0: 2", "s0:2 ", "s0:-1", "s0:", "s0:\u0663", "s0:\u00b2"]
)
def test_s0_pair_count_takes_ascii_decimal_digits_only(capsys, selector):
    assert main(["capacity", selector]) == 2
    assert capsys.readouterr().err == f"error: bad selector {selector!r}\n"


def test_capacity_pair_count_error_names_the_limit(capsys):
    assert main(["capacity", "s0:14"]) == 2
    assert capsys.readouterr().err == "error: s0:N must be in [1, 12] (MAX_CAPACITY_PAIRS), got 14\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["capacity", "s0:13"], "s0:N must be in [1, 12] (MAX_CAPACITY_PAIRS), got 13"),
        (
            ["session", "--n", "2", "--random", str(10**15)],
            f"--random must be in [0, 524288] (MAX_SESSION_STEPS), got {10**15}",
        ),
        (["basis", "--n", "5"], "--n must be in [1, 4] (MAX_EMIT_PAIRS), got 5"),
        (["roundtrip"], "--n must be an integer in [1, 8] (MAX_PROTOCOL_PAIRS), got None"),
    ],
)
def test_size_errors_name_the_input_and_the_limit(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("target", ["directory", "missing/out.txt"])
def test_unwritable_out_path_exits_2(capsys, tmp_path, target):
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    assert main(["roundtrip", "--n", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "target, code",
    [("directory", errno.EISDIR), ("missing/out.txt", errno.ENOENT), ("file/out.txt", errno.ENOTDIR)],
)
def test_unwritable_out_fails_before_the_work(monkeypatch, capsys, tmp_path, target, code):
    (tmp_path / "directory").mkdir()
    (tmp_path / "file").write_text("kept")

    def never(n_pairs):
        raise AssertionError("the round trip ran before --out was checked")

    monkeypatch.setattr(protocol, "roundtrip_all", never)
    out = tmp_path / target
    assert main(["roundtrip", "--n", "6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {os.strerror(code)}\n"
    assert (tmp_path / "file").read_text() == "kept"


def test_empty_out_path_is_refused_as_a_directory(capsys):
    assert main(["roundtrip", "--n", "1", "--out", ""]) == 2
    assert capsys.readouterr().err == f"error: cannot write : {os.strerror(errno.EISDIR)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_a_write_that_fails_after_the_check_exits_2(capsys):
    assert main(["roundtrip", "--n", "1", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_out_check_neither_creates_nor_truncates(capsys, tmp_path):
    existing = tmp_path / "existing.txt"
    existing.write_text("kept")
    new = tmp_path / "new.txt"
    # the arguments fail after the --out check: nothing is written
    assert main(["session", "--n", "1", "4", "--out", str(existing)]) == 2
    assert main(["session", "--n", "1", "4", "--out", str(new)]) == 2
    assert existing.read_text() == "kept"
    assert not new.exists()
    assert main(["roundtrip", "--n", "1", "--out", str(existing)]) == 0
    assert existing.read_text().startswith("2 bits via 1 qubits")
