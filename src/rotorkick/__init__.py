"""Greedy pulse-train control of mixed rotor states.

Builds the kinematically optimal target density matrix of a thermal rigid
rotor, runs the S1/S2 sudden-kick strategies toward it, and analyzes
controllability and fixed points of the iteration.
"""

from .basis import (
    ALIGNMENT,
    ORIENTATION,
    Basis,
    BlockDecomposition,
    block_decomposition,
    build_basis,
)
from .config import KB_CM_PER_K, PRESETS, MoleculeParams, RunConfig, beta_from
from .controllability import (
    FixedPointReport,
    LieAlgebraReport,
    TwoLevelReport,
    block_trace_rank,
    check_cutoff,
    controllability_report,
    dims_required,
    fixed_point_analysis,
    is_kick_stationary,
    lie_closure,
    two_level_obstruction,
)
from .dynamics import (
    S1,
    S2,
    KickSpec,
    PulseTrainRecord,
    TimeSeries,
    apply_kick,
    free_propagate,
    leakage,
    make_kick,
    post_kick_slope,
    run_strategy,
)
from .errors import ConfigError, NumericalError
from .evolution import PERIOD, FrequencyLattice, LevelSetMeasure, TraceSeries
from .operators import (
    DensityMatrix,
    HermitianOperator,
    cos2_theta_matrix,
    cos_theta_element,
    cos_theta_matrix,
    embed_density,
    embed_operator,
    h0_matrix,
    kick_unitary,
    observable_matrix,
    partition_function,
    thermal_state,
)
from .target import (
    PairingResult,
    SweepRow,
    TargetState,
    bound_sweep,
    build_target,
    duration_above,
    optimal_pairing,
)

__version__ = "0.1.0"
