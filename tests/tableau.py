"""A stabilizer tableau (CHP) that runs the protocol with no amplitudes.

Aaronson & Gottesman, "Improved simulation of stabilizer circuits",
Phys. Rev. A 70, 052328 (2004).  Rows 0..n-1 are destabilizers, rows n..2n-1
stabilizers and row 2n is scratch; a row (x, z, r) is (-1)^r ⊗_j P_j with
P_j = I, X, Y or Z for (x_j, z_j) = 00, 10, 11, 01.  Qubit j of the tableau
is qubit j of a Ket (qubit 0 the most significant bit of an index).

The protocol is Clifford throughout: s0 is an H and a CNOT per pair on
|0...0>, the sender applies Paulis, and the receiver applies CNOTs and
Hadamards and measures in Z.  Nothing here reads the package's masks.
"""

import numpy as np


class Tableau:
    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.z = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[n + np.arange(n), np.arange(n)] = 1

    def h(self, a: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[:, a] & z[:, a]
        x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()

    def cnot(self, a: int, b: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1)
        x[:, b] ^= x[:, a]
        z[:, a] ^= z[:, b]

    def pauli(self, kind: str, a: int) -> None:
        """X anticommutes with the rows holding a Z part on qubit a, and Z
        with those holding an X part."""
        self.r ^= (self.z if kind == "X" else self.x)[:, a]

    def permute(self, perm) -> None:
        """Qubit i becomes qubit perm[i], as statevec.permute_qubits."""
        for table in (self.x, self.z):
            table[:, list(perm)] = table.copy()

    def rowsum(self, h: int, i: int) -> None:
        """Row h becomes the product row i · row h, with its sign."""
        x1, z1 = self.x[i].astype(int), self.z[i].astype(int)
        x2, z2 = self.x[h].astype(int), self.z[h].astype(int)
        g = np.where(
            x1 & z1, z2 - x2, np.where(x1, z2 * (2 * x2 - 1), z1 * x2 * (1 - 2 * z2))
        )
        phase = (2 * int(self.r[h]) + 2 * int(self.r[i]) + int(g.sum())) % 4
        if phase not in (0, 2):
            raise AssertionError("product of commuting rows has an imaginary sign")
        self.r[h] = phase // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def measure(self, a: int) -> int:
        """The outcome of a Z measurement of qubit a, which must be certain:
        every state the protocol measures is a basis state."""
        n = self.n
        if self.x[n : 2 * n, a].any():
            raise AssertionError(f"qubit {a} has a random outcome")
        self.x[2 * n] = self.z[2 * n] = self.r[2 * n] = 0
        for i in np.flatnonzero(self.x[:n, a]):
            self.rowsum(2 * n, i + n)
        return int(self.r[2 * n])

    def stabilizers(self) -> np.ndarray:
        """The stabilizer group in canonical form: the rows (x | z | r) of the
        reduced row echelon form of the generators, signs carried along.  It
        rewrites the stabilizer rows but not the destabilizers, so measure
        nothing after it."""
        n = self.n
        rows = list(range(n, 2 * n))
        pivot = 0
        for column in range(2 * n):
            bits = (self.x if column < n else self.z)[:, column % n]
            found = [i for i in rows[pivot:] if bits[i]]
            if not found:
                continue
            first = found[0]
            rows[rows.index(first)], rows[pivot] = rows[pivot], first
            for i in rows:
                if i != first and bits[i]:
                    self.rowsum(i, first)
            pivot += 1
        return np.hstack([self.x[rows], self.z[rows], self.r[rows, None]])


def s0_tableau(n_pairs: int) -> Tableau:
    """s0 on 2N qubits: sender qubit k and receiver qubit N + k hold Φ+."""
    t = Tableau(2 * n_pairs)
    for k in range(n_pairs):
        t.h(k)
        t.cnot(k, n_pairs + k)
    return t


def run_step(n_pairs: int, tokens: str) -> int:
    """The message the receiver reads after the sender applies ``tokens``
    ('Z<k>'/'X<k>', 1-indexed qubits) to s0.  Its Bell measurement of pair k
    is a CNOT, a Hadamard on the sender's qubit and two Z measurements: the
    sender's qubit gives the Z exponent, message bit 2k, and the receiver's
    the X exponent, bit 2k + 1."""
    t = s0_tableau(n_pairs)
    for token in tokens.split():
        t.pauli(token[0], int(token[1:]) - 1)
    for k in range(n_pairs):
        t.cnot(k, n_pairs + k)
        t.h(k)
    bits = [t.measure(q) for q in range(2 * n_pairs)]
    return sum(bits[k] << (2 * k) | bits[n_pairs + k] << (2 * k + 1) for k in range(n_pairs))


def apply_row(amplitudes: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The Pauli operator of a canonical row (x | z | r) applied to a ket's
    amplitudes: P|b> = (-1)^r i^{|x & z|} (-1)^{z·b} |b ⊕ x>."""
    n = (len(row) - 1) // 2
    weights = 1 << np.arange(n - 1, -1, -1)
    xmask, zmask = int(row[:n] @ weights), int(row[n : 2 * n] @ weights)
    b = np.arange(2**n)
    parity = np.array([bin(v).count("1") & 1 for v in (b & zmask).tolist()])
    phase = (-1) ** int(row[-1]) * 1j ** int(row[:n] @ row[n : 2 * n])
    out = np.empty_like(amplitudes)
    out[b ^ xmask] = phase * (1 - 2 * parity) * amplitudes
    return out
