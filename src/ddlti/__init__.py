"""Data-driven analysis, simulation, identification and LQR for discrete-time
LTI systems, built on Hankel-matrix representations of measured trajectories.

One measured record — or several short ones taken together — can stand in
for a state-space model: sliding windows of the data span every trajectory
the system can produce, provided the inputs are (collectively) persistently
exciting.  This package provides the matrix constructions and rank tests
behind that statement, trajectory membership and synthesis, model-free
simulation, identification from records with missing samples, and LQR
design directly from state/input experiments.
"""
from ._linalg import DEFAULT_RANK_RTOL, numerical_rank
from .errors import (
    CertificationError,
    DdltiError,
    DepthTooLargeError,
    ExcitationError,
    InconsistentPastError,
    InputError,
    InsufficientDataError,
    NoUsableDataError,
    OrderInfeasibleError,
    OrderUndeterminedError,
    ParseError,
    RiccatiDivergenceError,
)
from .hankel import (
    ExcitationReport,
    SignalSegment,
    excitation_report,
    hankel_matrix,
    is_persistently_exciting,
    max_excitation_order,
    mosaic_hankel,
    pe_length_bound,
)
from .ident import (
    IdentificationResult,
    estimate_order,
    ho_kalman,
    identify,
    recover_markov_parameters,
    scan_order,
    segment_trajectory,
)
from .io import (
    read_experiment_csv,
    read_inputs_csv,
    read_system_json,
    read_trajectory_csv,
    read_weights_json,
    write_experiment_csv,
    write_system_json,
    write_trajectory_csv,
)
from .lqr import (
    ExperimentBatch,
    InstabilityReport,
    LqrSolution,
    assemble_batch,
    dare_solve,
    export_sdp,
    generate_experiments,
    identify_ab,
    instability_report,
    lmi_operator,
    lqr_from_data,
)
from .lti import (
    CorruptedTrajectory,
    LqrWeights,
    LtiSystem,
    StateTrajectory,
    batch_reactor,
    is_controllable,
    markov_parameters,
    response_maps,
    simulate,
    spectral_radius,
    verify_trajectory,
)
from .willems import (
    DataDictionary,
    Membership,
    build_data_matrix,
    check_rank_condition,
    datadriven_simulate,
    is_system_trajectory,
    synthesize_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_RANK_RTOL",
    "numerical_rank",
    "batch_reactor",
    # errors
    "DdltiError",
    "InputError",
    "ParseError",
    "DepthTooLargeError",
    "ExcitationError",
    "InsufficientDataError",
    "NoUsableDataError",
    "InconsistentPastError",
    "CertificationError",
    "RiccatiDivergenceError",
    "OrderUndeterminedError",
    "OrderInfeasibleError",
    # systems
    "LtiSystem",
    "StateTrajectory",
    "simulate",
    "verify_trajectory",
    "is_controllable",
    "markov_parameters",
    "response_maps",
    "spectral_radius",
    # hankel / excitation
    "SignalSegment",
    "ExcitationReport",
    "hankel_matrix",
    "mosaic_hankel",
    "excitation_report",
    "is_persistently_exciting",
    "max_excitation_order",
    "pe_length_bound",
    # dictionaries / fundamental lemma
    "DataDictionary",
    "Membership",
    "build_data_matrix",
    "check_rank_condition",
    "synthesize_trajectory",
    "is_system_trajectory",
    "datadriven_simulate",
    # identification
    "CorruptedTrajectory",
    "IdentificationResult",
    "segment_trajectory",
    "estimate_order",
    "scan_order",
    "recover_markov_parameters",
    "ho_kalman",
    "identify",
    # file formats
    "read_trajectory_csv",
    "read_inputs_csv",
    "write_trajectory_csv",
    "read_experiment_csv",
    "write_experiment_csv",
    "read_system_json",
    "write_system_json",
    "read_weights_json",
    # LQR
    "ExperimentBatch",
    "LqrWeights",
    "LqrSolution",
    "InstabilityReport",
    "assemble_batch",
    "dare_solve",
    "lmi_operator",
    "identify_ab",
    "lqr_from_data",
    "export_sdp",
    "instability_report",
    "generate_experiments",
]
