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
from types import ModuleType as _ModuleType

from ._linalg import DEFAULT_RANK_RTOL, RankDecision, numerical_rank
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

#: The public API: every name imported above, the submodules aside.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
