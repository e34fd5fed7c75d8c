"""Fisher information of regular and controlled energy measurements.

Numerical library for classical/quantum Fisher information, the
beyond-Cramer-Rao precision bound of controlled energy measurements, and a
phase-estimation implementation of those measurements, together with a
reproducible sweep CLI.
"""

__version__ = "0.1.0"

from .cem import (
    CemSolution,
    GeneratorPair,
    check_condition,
    diagonalizer,
    encoded_qfi,
    fisher_cem,
    g_bound,
    generator_pair,
    local_generator,
    max_gap_lemma_check,
    optimize_cem,
)
from .errors import (
    AliasingRisk,
    DegenerateSpectrum,
    DimensionMismatch,
    DomainBoundary,
    InvalidParameter,
    NonHermitianInput,
    NonNormalized,
    NonSmoothFamily,
    NotTraceless,
    OracleTooLarge,
    QmetError,
    RankChange,
    RankDeficient,
    UnknownMetricTag,
    UnknownReference,
)
from .fisher import (
    POVM,
    FisherReport,
    OutcomeDistribution,
    ProbabilityModel,
    classical_fisher,
    fisher_of_povm,
    monotone_metric,
    qfi,
    qfi_pure,
    sld,
    sld_povm,
)
from .linalg import (
    Eigensystem,
    eig_hermitian,
    expm_unitary,
    operator_variance,
    partial_trace,
    spectral_gap,
    tensor,
)
from .models import (
    ClosedFormReference,
    HamiltonianModel,
    jc_readout_model,
    make_jaynes_cummings,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
    reference,
    reference_names,
)
from .numdiff import DiffSpec, derivative
from .phasesim import (
    ControllizationFactors,
    PhaseSimConfig,
    aligned_tau,
    circuit_oracle,
    controllization_factors,
    controllization_oracle,
    default_tau,
    fisher_phase_readout,
    ideal_distribution,
    realistic_distribution,
    tune_tau,
)
