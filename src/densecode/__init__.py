"""Superdense coding simulator: generalized Bell bases on 2N qubits, local
Pauli encoding, projective basis measurement, and capacity audits."""

from .statevec import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Ket,
    apply_single_qubit,
    equal_up_to_global_phase,
    hermitian_eigenvalues,
    ket_from_bits,
    permute_qubits,
    pure_density,
    tensor,
)
from .bellbasis import (
    BellLabel,
    GhzLabel,
    InterleaveReport,
    PauliString,
    apply_pauli_string,
    basis_matrix,
    bell,
    encoded_amplitudes,
    factorize,
    factorize_report,
    factorize_s0,
    g_group,
    g_state,
    g_to_s_map,
    ghz4,
    ghz_family,
    interleave_permutation,
    pauli_string,
    s0,
    s_state,
    s_to_g_map,
)
from .protocol import (
    MeasurementOutcome,
    NotABasisStateError,
    RoundTripReport,
    Transcript,
    TranscriptStep,
    decode,
    encode,
    measure_generalized_bell,
    outcome_probabilities,
    roundtrip_all,
    sample_measurements,
    session,
    table2_decode,
    table2_encode,
)
from .capacity import (
    CapacityReport,
    dense_coding_capacity,
    holevo_bound,
    orthogonal_orbit_count,
    von_neumann_entropy,
)

__version__ = "0.1.0"
