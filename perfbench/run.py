"""densecode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; densecode is imported from ``src/``, not
from an installed copy.  With ``--trace 0`` the run measures set-up time (a
fresh interpreter importing densecode and running the workload's first
operation cold), then one warm-up cycle, then S seconds of back-to-back
operations, and reports the end-to-end metrics.  With ``--trace 1`` it
runs the warm-up cycle traced, S/2 seconds untraced and S/2 seconds traced,
and reports the per-layer metrics from the spans.  Every operation's output
is checked; the last stdout line is the JSON result, and the exit code is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def load_package():
    """Import densecode from the checkout's src/, refusing any other copy."""
    if not (SRC / "densecode" / "__init__.py").is_file():
        raise ImportError(f"no densecode package under {SRC}")
    sys.path.insert(0, str(SRC))
    import densecode

    if SRC not in Path(densecode.__file__).resolve().parents:
        raise ImportError(f"densecode was imported from {densecode.__file__}, not {SRC}")


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


class Runner:
    """Runs a workload's operations and keeps the check tally."""

    def __init__(self, workload):
        self.workload = workload
        self.next = 0  # index of the next operation, also its command id
        self.attempted = 0
        self.failed = 0

    def _step(self, tracer=None) -> tuple[float, int]:
        ops = self.workload.ops
        op = ops[self.next % len(ops)]
        if tracer is not None:
            tracer.command = self.next
        t0 = time.perf_counter()
        try:
            result = op.run()
            elapsed = time.perf_counter() - t0
            ok = op.check(result)
        except Exception:  # a crashing operation is a failed one; keep measuring
            elapsed = time.perf_counter() - t0
            if not self.failed:
                traceback.print_exc()
            ok = False
        self._tally(ok)
        self.next += 1
        return elapsed, op.units

    def _tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def cycle(self, tracer=None) -> list[tuple[float, int]]:
        return [self._step(tracer) for _ in range(self.workload.period)]

    def timed(self, seconds: float, tracer=None) -> list[tuple[float, int]]:
        """Whole cycles, back to back, until ``seconds`` have passed."""
        records = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            records += self.cycle(tracer)
        return records

    def setup(self) -> float:
        """Median wall time of fresh interpreters running the first operation cold."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run(self.workload.probe, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S, check=False)
            times.append(time.perf_counter() - t0)
            self._tally(proc.returncode == 0 and self.workload.probe_check(proc.stdout))
        return statistics.median(times)


def throughput(records) -> float:
    return sum(units for _, units in records) / sum(s for s, _ in records)


def cmd_p50_ms(records, period: int) -> float:
    """Median time of one operation.  A cycle of several kinds of operation
    (the capacity workloads) gives the mean over the kinds of each kind's
    median, since the median of the pooled times would fall between two
    kinds and follow the noisiest sample of each."""
    kinds = [statistics.median(s for s, _ in records[k::period]) for k in range(period)]
    return statistics.mean(kinds) * 1e3


def tail(records) -> str:
    """Highest nearest-rank percentile with at least 10 operations beyond it."""
    n = len(records)
    if n < 20:
        return f"omitted (n={n})"
    times = sorted(s for s, _ in records)
    return f"{times[n - 11] * 1e3:.3f} ms (p{100 * (n - 10) / n:.1f}, n={n})"


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, str]:
    setup_s = runner.setup()
    runner.cycle()  # warm-up: caches filled, BLAS threads started
    records = runner.timed(seconds)
    metrics = {
        "throughput_per_s": (throughput(records), "1/s"),
        "cmd_p50_ms": (cmd_p50_ms(records, runner.workload.period), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, f"cmd_tail_ms={tail(records)}"


def run_traced(runner: Runner, name: str, seconds: float) -> tuple[dict, str]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cold = runner.cycle(tracer)
    finally:
        tracer.uninstall()
    untraced = runner.timed(seconds / 2)
    tracer.install()
    try:
        traced = runner.timed(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    records = cold + traced
    overhead = 1 - throughput(traced) / throughput(untraced)
    metrics = tracer.metrics(sum(s for s, _ in records), sum(u for _, u in records), overhead)
    spans = ROOT / ".bench_out" / f"spans-{name}.tsv"
    tracer.write_spans(spans)
    return metrics, f"spans={len(tracer.names)} written to {spans.relative_to(ROOT)}"


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(lines[-1]) if lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(args) -> int:
    from workloads import WORKLOADS

    name = args.workload
    if name == "all":
        return run_all(args)
    if name not in WORKLOADS:
        sys.stderr.write(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all\n")
        return 2
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[name](args.seed, work))
        print(json.dumps({"provenance": provenance(args.seed)}))
        if args.trace:
            metrics, note = run_traced(runner, name, args.seconds)
        else:
            metrics, note = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{name}: unit={runner.workload.unit} ops={runner.attempted} "
          f"failed={runner.failed} fail_ratio={runner.failed / runner.attempted:.6g} {note}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


if __name__ == "__main__":
    args = _parse_args()
    try:
        load_package()
    except ImportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
    sys.exit(main(args))
