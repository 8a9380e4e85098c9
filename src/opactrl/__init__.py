"""Opacity verification and opacity-enforcing supervisor synthesis for
finite-state discrete-event systems whose control decisions are released
online and may be eavesdropped."""

from .estimator import (
    AugmentedEvent,
    EstimatorState,
    FlowFormatError,
    IssuanceMode,
    ObservationPair,
    SupervisionError,
    augment,
    closed_loop_simulate,
    estimate_from_flow,
    estimator_step,
    estimator_trace,
    information_flow,
    oracle_controlled_estimate,
    run_estimator,
)
from .model import (
    EventPartitions,
    ModelFormatError,
    PlantModel,
    UnreachableObservationError,
    open_loop_estimate,
    project,
)
from .structure import (
    INITIAL_KEY,
    ControlStructure,
    DecodedSupervisor,
    InfoState,
    OpacityVerdict,
    StructureError,
    Successors,
    brute_estimate_set,
    info_decision,
    info_estimates,
    info_plant_states,
    is_consistent,
    is_safe,
    make_info,
    nx_is,
    structure_from_policy,
    supervisor_estimate,
    ur_is,
    verify_closed_loop_opacity,
    verify_open_loop_opacity,
)
from .supervisors import ConstantSupervisor, Supervisor, TabularSupervisor
from .synthesis import (
    Arena,
    SizeGuardExceeded,
    SynthesisConfig,
    SynthesisOutcome,
    enumerate_structures,
    exhaustive_solution_exists,
    expand_arena,
    extract_structure,
    prune_incomplete,
    synthesize,
)

__version__ = "0.1.0"
