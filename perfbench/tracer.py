"""Span recorder that wraps densecode's public functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
densecode module that holds it by name (``bellbasis`` imports
``apply_single_qubit``, ``capacity`` imports ``hermitian_eigenvalues``, ...),
and wraps ``__init__`` for the ``Ket`` and ``DensityMatrix`` constructions.
``uninstall()`` puts the originals back.  Spans (name, start, end, parent,
command id) are kept in memory; per-function self time, layer shares and
the counters below are derived from them after the run.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import densecode
from densecode import bellbasis, capacity, cli, protocol, statevec

MODULES = {
    "statevec": statevec,
    "bellbasis": bellbasis,
    "protocol": protocol,
    "capacity": capacity,
    "cli": cli,
}
# (module, attribute path) of every traced callable, in layer order
TRACED = (
    ("cli", "main"),
    ("protocol", "roundtrip_all"),
    ("protocol", "session"),
    ("protocol", "encode"),
    ("protocol", "decode"),
    ("protocol", "measure_generalized_bell"),
    ("protocol", "outcome_probabilities"),
    ("protocol", "Transcript.to_json"),
    ("bellbasis", "s_state"),
    ("bellbasis", "s0"),
    ("bellbasis", "pauli_string"),
    ("bellbasis", "apply_pauli_string"),
    ("bellbasis", "basis_matrix"),
    ("statevec", "apply_single_qubit"),
    ("statevec", "pure_density"),
    ("statevec", "hermitian_eigenvalues"),
    ("statevec", "Ket"),
    ("statevec", "DensityMatrix"),
    ("capacity", "dense_coding_capacity"),
    ("capacity", "von_neumann_entropy"),
    ("capacity", "orthogonal_orbit_count"),
)
_CLASSES = {"Ket", "DensityMatrix"}  # traced through __init__


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.commands: list[int] = []
        self.command = 0  # set by the caller before each operation
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # counters measured at the boundaries
        self.op_bytes = 0  # outcome_probabilities: 16 * 16**N computed per call
        self.basis_builds = 0
        self.basis_build_ns = 0
        self.basis_bytes = 0
        self.max_eig_dim = 0
        self.max_density_bytes = 0
        self.orbit_candidates = 0
        self.orbit_kept = 0
        self._basis_original = bellbasis.basis_matrix
        self._basis_misses = 0

    def _wrap(self, name: str, fn, after=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, commands, stack = self.parents, self.commands, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            commands.append(self.command)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result, ends[i] - starts[i])
            return result

        return wrapper

    def _after_outcome_probabilities(self, args, result, ns):
        self.op_bytes += 16 * result.size**2

    def _after_basis_matrix(self, args, result, ns):
        misses = self._basis_original.cache_info().misses
        if misses > self._basis_misses:
            self._basis_misses = misses
            self.basis_builds += 1
            self.basis_build_ns += ns
            self.basis_bytes += result.nbytes

    def _after_eigenvalues(self, args, result, ns):
        self.max_eig_dim = max(self.max_eig_dim, result.size)

    def _after_pure_density(self, args, result, ns):
        self.max_density_bytes = max(self.max_density_bytes, result.entries.nbytes)

    def _after_orbit(self, args, result, ns):
        self.orbit_candidates += 4 ** args[1]
        self.orbit_kept += result

    def install(self) -> None:
        self._basis_misses = self._basis_original.cache_info().misses
        after = {
            "protocol.outcome_probabilities": self._after_outcome_probabilities,
            "bellbasis.basis_matrix": self._after_basis_matrix,
            "statevec.hermitian_eigenvalues": self._after_eigenvalues,
            "statevec.pure_density": self._after_pure_density,
            "capacity.orthogonal_orbit_count": self._after_orbit,
        }
        holders = [*MODULES.values(), densecode]
        for module_name, path in TRACED:
            name = f"{module_name}.{path}"
            home = MODULES[module_name]
            if path in _CLASSES:
                self._rebind(getattr(home, path), "__init__", name)
            elif "." in path:
                cls_name, attr = path.split(".")
                self._rebind(getattr(home, cls_name), attr, name)
            else:
                original = getattr(home, path)
                wrapper = self._wrap(name, original, after.get(name))
                for holder in holders:
                    if getattr(holder, path, None) is original:
                        self._restore.append((holder, path, original))
                        setattr(holder, path, wrapper)

    def _rebind(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time excludes child spans."""
        child_ns = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        totals = {f"{m}.{p}": [0, 0] for m, p in TRACED}
        for i, name in enumerate(self.names):
            entry = totals[name]
            entry[0] += 1
            entry[1] += self.ends[i] - self.starts[i] - child_ns[i]
        return {name: (calls, ns / 1e9) for name, (calls, ns) in totals.items()}

    def metrics(self, traced_wall_s: float, units: int, overhead_frac: float) -> dict:
        """Every per-layer metric, name -> (value, unit)."""
        times = self.self_times()
        out = {}
        for name, (calls, self_s) in times.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for layer in MODULES:
            layer_s = sum(s for name, (_, s) in times.items() if name.startswith(layer + "."))
            out[f"{layer}.self_share"] = (layer_s / traced_wall_s, "ratio")
        op_s = times["protocol.outcome_probabilities"][1]
        out["protocol.outcome_probabilities.bytes_computed"] = (self.op_bytes, "B")
        out["protocol.outcome_probabilities.gbps"] = (
            self.op_bytes / op_s / 1e9 if op_s else 0.0, "GB/s")
        out["bellbasis.basis_matrix.builds"] = (self.basis_builds, "count")
        out["bellbasis.basis_matrix.build_s"] = (self.basis_build_ns / 1e9, "s")
        out["bellbasis.basis_matrix.bytes_computed"] = (self.basis_bytes, "B")
        out["statevec.Ket.per_unit"] = (times["statevec.Ket"][0] / units, "count")
        out["statevec.hermitian_eigenvalues.max_dim"] = (self.max_eig_dim, "count")
        out["statevec.pure_density.max_bytes"] = (self.max_density_bytes, "B")
        out["capacity.orthogonal_orbit_count.kept_ratio"] = (
            self.orbit_kept / self.orbit_candidates if self.orbit_candidates else 0.0, "ratio")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: name, start_ns, end_ns, parent, command."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tcommand\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.commands):
                f.write("\t".join(map(str, row)) + "\n")
