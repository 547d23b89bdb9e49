"""Smoke test of the benchmark harness.

    python -m pytest -q perfbench/test_smoke.py

Runs every workload (the gated ones in BENCHMARK.json and the ungated
session-n2) for one second, untraced and traced, and checks that each
metric named in BENCHMARK.json prints with its unit; then checks that
corrupted or crashing operations are counted as failed.  Takes about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from run import ROOT, Runner, load_package

load_package()

from densecode import cli  # noqa: E402  (importable only after load_package)

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_gated_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace, section):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _session_text(tmp_path: Path, seed: int) -> str:
    out = tmp_path / "session.json"
    assert cli.main(["session", "--n", "2", "--random", "20", "--seed", str(seed),
                     "--out", str(out)]) == 0
    return out.read_text()


def test_corrupted_outputs_fail_their_checks(tmp_path):
    text = _session_text(tmp_path, 11)
    assert checks.check_session(2, 11, 20, text)
    data = json.loads(text)
    data["steps"][3]["outcome"] ^= 1
    assert not checks.check_session(2, 11, 20, json.dumps(data))
    data = json.loads(text)
    data["steps"][5]["pauli"] = checks.pauli_tokens(data["steps"][5]["message"] ^ 2, 2)
    assert not checks.check_session(2, 11, 20, json.dumps(data))

    assert checks.check_roundtrip(5, checks.roundtrip_line(5))
    assert not checks.check_roundtrip(5, checks.roundtrip_line(5).replace("0 failures", "1 failures"))
    assert not checks.check_roundtrip(5, checks.roundtrip_line(4))
    assert not checks.check_session(2, 11, 20, "not json")

    import numpy as np

    amps = np.zeros(16, dtype=complex)
    amps[[0, 15]] = 2**-0.5
    ref = checks.pure_reference(amps, 4)
    report = {"d_A": 4, "S_B": 1.0, "S_AB": 0.0, "chi": 3.0, "holevo": 4.0}
    assert checks.check_capacity(ref, report)
    assert not checks.check_capacity(ref, {**report, "chi": 3.0 + 1e-6})
    assert not checks.check_capacity(ref, {**report, "d_A": 2})
    assert not checks.check_capacity(ref, {k: v for k, v in report.items() if k != "S_B"})


def test_a_failed_check_counts_against_attempted(tmp_path):
    good = _session_text(tmp_path, 5)
    data = json.loads(good)
    data["steps"][0]["success"] = False
    bad = json.dumps(data)
    check = lambda text: checks.check_session(2, 5, 20, text)

    def crash():
        raise ArithmeticError("operation crashed")

    ops = (workloads.Op(20, lambda: good, check), workloads.Op(20, lambda: bad, check),
           workloads.Op(20, crash, check))
    runner = Runner(workloads.Workload(ops, period=3, unit="step", probe=(), probe_check=check))
    runner.cycle()
    assert (runner.attempted, runner.failed) == (3, 2)
