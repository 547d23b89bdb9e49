"""Entropy and channel-capacity calculations: von Neumann entropy, the
Holevo bound, the dense-coding capacity chi = log2(d_A) + S(B) - S(AB),
and counting orthogonal states reachable by sender-local operations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .statevec import NORM_TOL, DensityMatrix, Ket, hermitian_eigenvalues, json_value
from .transform import bell_squares, blocks

EIGENVALUE_FLOOR = 1e-12  # eigenvalues at or below this count as exact zeros
ORTHOGONALITY_TOL = 1e-8


def _entropy_bits(probabilities) -> float:
    """-sum(p * log2 p) in bits; entries at or below EIGENVALUE_FLOOR count as zero."""
    s = -sum(float(p) * math.log2(p) for p in probabilities if p > EIGENVALUE_FLOOR)
    return max(0.0, s)


def von_neumann_entropy(m: DensityMatrix | np.ndarray) -> float:
    """S = -sum(p * log2 p) over the eigenvalues, in bits."""
    eigs = hermitian_eigenvalues(m)
    if eigs[-1] < -NORM_TOL:
        raise ValueError(f"negative eigenvalue {eigs[-1]}; not a density matrix")
    return _entropy_bits(eigs)


def holevo_bound(d: int) -> float:
    """log2(d): the most classical information a d-dimensional system carries."""
    return math.log2(limits.check("d", d, "dimension", 1, math.inf))


def _sig12(x: float) -> float:
    """Round to 12 significant digits, the precision reports are emitted at."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class CapacityReport:
    """Dense-coding capacity audit for one shared state."""

    d_A: int
    entropy_B: float
    entropy_AB: float
    chi: float
    holevo: float

    def to_dict(self) -> dict:
        return {
            "d_A": self.d_A,
            "S_B": self.entropy_B,
            "S_AB": self.entropy_AB,
            "chi": self.chi,
            "holevo": self.holevo,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CapacityReport:
        return cls(
            d_A=limits.check("d_A", json_value(data, "d_A", int), "dimension", 1, math.inf),
            entropy_B=float(json_value(data, "S_B", float)),
            entropy_AB=float(json_value(data, "S_AB", float)),
            chi=float(json_value(data, "chi", float)),
            holevo=float(json_value(data, "holevo", float)),
        )


def dense_coding_capacity(
    state: Ket | DensityMatrix, d_a: int, bob_dims: int
) -> CapacityReport:
    """chi = log2(d_A) + S(rho_B) - S(rho_AB) for the given bipartition.

    The sender's subsystem is the left (more significant) tensor factor;
    ``bob_dims`` is passed explicitly because a flat vector or matrix does
    not describe its own split.  A ``Ket`` is pure, so S(rho_AB) = 0 and
    S(rho_B) is the entropy of its squared Schmidt coefficients: one SVD of
    the d_A x bob_dims amplitude matrix, no d x d matrix.  A
    ``DensityMatrix`` takes both entropies from eigenvalues.  A ``Ket`` of
    more than 2·MAX_CAPACITY_PAIRS qubits is refused before the SVD.
    """
    if isinstance(state, Ket):
        limits.check("pair count", (state.num_qubits + 1) // 2, "MAX_CAPACITY_PAIRS")
        dim = 2**state.num_qubits
    else:
        dim = state.dim
    d_a = limits.check("d_a", d_a, f"bipartition of dimension {dim}", 1, dim)
    bob_dims = limits.check("bob_dims", bob_dims, f"bipartition of dimension {dim}", 1, dim)
    if d_a * bob_dims != dim:
        raise ValueError(f"bipartition {d_a} x {bob_dims} does not match dimension {dim}")
    if isinstance(state, Ket):
        schmidt = np.linalg.svd(state.amplitudes.reshape(d_a, bob_dims), compute_uv=False)
        s_b = _entropy_bits(schmidt**2)
        s_ab = 0.0
    else:
        rho4 = state.entries.reshape(d_a, bob_dims, d_a, bob_dims)
        rho_b = np.trace(rho4, axis1=0, axis2=2)
        s_b = von_neumann_entropy(DensityMatrix(rho_b))
        s_ab = von_neumann_entropy(state)
    return CapacityReport(
        d_A=d_a,
        entropy_B=_sig12(s_b),
        entropy_AB=_sig12(s_ab),
        chi=_sig12(math.log2(d_a) + s_b - s_ab),
        holevo=_sig12(holevo_bound(d_a * bob_dims)),
    )


def _conj_reduced_state(psi: np.ndarray) -> np.ndarray:
    """conj(rho_A) = Ψ* Ψ^T of a ket read as a 2^N x 2^N matrix Ψ, a block of
    rows (2^(N+1) floats, N + 1 the bit length of 2^N) at a time: no conjugate
    copy of the whole ket is made."""
    rho = np.empty_like(psi)
    for rows in blocks(len(psi), len(psi).bit_length()):
        np.matmul(psi[rows].conj(), psi.T, out=rho[rows])
    return rho


def orthogonal_orbit_count(k: Ket, alice_qubits: int) -> int:
    """Size of a greedy maximal mutually-orthogonal set among the states the
    sender can reach from k with local Pauli strings.

    Candidates are visited in ascending string index; one is kept when its
    overlap with every kept state stays below ORTHOGONALITY_TOL in modulus.
    Strings compose by XOR of their indices up to a sign, so
    |<P_i k|P_j k>| = |tr(rho_A P_{i^j})| with rho_A the sender's reduced
    state, and the Bell measurement of rho_A (bell_squares) gives every
    overlap, in string-index order; the Paulis are real, so conj(rho_A) has
    the same moduli.  The greedy pass is then a sieve over indices, where a
    kept j blocks j ⊕ e for each overlapping index e: O(kept · overlapping)
    work, and one index (e = 0) for s0.  The overlaps arising here are
    exactly 0, 1/2, 1/sqrt(2) or 1 up to rounding, so the greedy pass has no
    ties.  alice_qubits is checked against MAX_ORBIT_PAIRS first.
    """
    limits.check("alice_qubits", alice_qubits, "MAX_ORBIT_PAIRS")
    if k.num_qubits != 2 * alice_qubits:
        raise ValueError(f"expected {2 * alice_qubits} qubits, got {k.num_qubits}")
    d = 2**alice_qubits
    moduli = bell_squares(_conj_reduced_state(k.amplitudes.reshape(d, d)), alice_qubits)
    overlapping = np.flatnonzero(np.sqrt(moduli, out=moduli) >= ORTHOGONALITY_TOL)
    del moduli  # the sieve needs only the indices
    blocked = np.zeros(d * d, dtype=bool)
    kept = 0
    for j in range(d * d):
        if not blocked[j]:
            kept += 1
            blocked[overlapping ^ j] = True
    return kept
