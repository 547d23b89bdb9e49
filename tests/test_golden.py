"""Byte-for-byte stdout of the documented commands, pinned in tests/golden/.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from densecode import Transcript
from densecode.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file name -> argv
CASES = {
    "basis_n1.txt": ["basis", "--n", "1"],
    "basis_n1.json": ["basis", "--n", "1", "--format", "json"],
    "basis_n2.txt": ["basis", "--n", "2"],
    "basis_n2.json": ["basis", "--n", "2", "--format", "json"],
    "basis_n3.txt": ["basis", "--n", "3"],
    "basis_n3.json": ["basis", "--n", "3", "--format", "json"],
    "factorize.txt": ["factorize"],
    "ghz_compare.json": ["ghz-compare"],
    "capacity_g1.json": ["capacity", "g1"],
    "capacity_ghz4.json": ["capacity", "ghz4"],
    "capacity_s0_3.json": ["capacity", "s0:3"],
    **{f"roundtrip_n{n}.txt": ["roundtrip", "--n", str(n)] for n in range(1, 9)},
    "session_n2_r10_s7.json": ["session", "--n", "2", "--random", "10", "--seed", "7"],
    "session_n3_r50_s11.json": ["session", "--n", "3", "--random", "50", "--seed", "11"],
    "session_n5_r200_s5.json": ["session", "--n", "5", "--random", "200", "--seed", "5"],
    "session_n8_r40_s8.json": ["session", "--n", "8", "--random", "40", "--seed", "8"],
    "session_n13_r20_s13.json": ["session", "--n", "13", "--random", "20", "--seed", "13"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("session_")))
def test_session_golden_reads_back_byte_for_byte(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert Transcript.from_json(text).to_json() == text


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, argv
        (GOLDEN / name).write_text(buf.getvalue(), encoding="utf-8")
