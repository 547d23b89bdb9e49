"""Compare dense-coding resources: the 4-qubit generalized Bell state g1,
the 4-qubit GHZ state, and an unentangled product state.

For each state we count how many mutually orthogonal states the sender can
reach with local Pauli strings and evaluate the capacity
chi = log2(d_A) + S(B) - S(AB) against the Holevo bound.
"""

from densecode import (
    dense_coding_capacity,
    g_state,
    ghz4,
    ket_from_bits,
    orthogonal_orbit_count,
    s0,
)


def audit(name, state, alice_qubits):
    d_a = 2**alice_qubits
    bob = 2 ** (state.num_qubits - alice_qubits)
    report = dense_coding_capacity(state, d_a, bob)
    orbit = orthogonal_orbit_count(state, alice_qubits)
    print(
        f"{name:<10} orbit {orbit:>4}  S_B {report.entropy_B:>4.1f}  "
        f"chi {report.chi:>4.1f}  holevo {report.holevo:>4.1f}  "
        f"{'optimal' if abs(report.chi - report.holevo) < 1e-9 else 'below bound'}"
    )


def main():
    print("state      orbit  S_B   chi   Holevo")
    audit("g1", g_state(1), 2)
    audit("GHZ4", ghz4(), 2)
    audit("|0000>", ket_from_bits([0, 0, 0, 0]), 2)
    print()
    print("shared resource s0(N) for growing N:")
    for n_pairs in (1, 2, 3):
        audit(f"s0({n_pairs})", s0(n_pairs), n_pairs)


if __name__ == "__main__":
    main()
