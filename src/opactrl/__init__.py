"""Opacity verification and opacity-enforcing supervisor synthesis for
finite-state discrete-event systems whose control decisions are released
online and may be eavesdropped."""

from .estimator import (
    AugmentedEvent,
    EstimatorState,
    FlowFormatError,
    IssuanceMode,
    ObservationPair,
    closed_loop_simulate,
    estimate_from_flow,
    estimator_step,
    estimator_trace,
)
from .model import (
    EventPartitions,
    ModelFormatError,
    PlantModel,
)
from .oracles import (
    ConstantSupervisor,
    SupervisionError,
    UnreachableObservationError,
    augment,
    brute_estimate_set,
    enumerate_structures,
    exhaustive_solution_exists,
    feasible_events,
    format_flow,
    info_decision,
    info_estimates,
    info_plant_states,
    information_flow,
    open_loop_estimate,
    oracle_controlled_estimate,
    project,
    run_estimator,
    structure_from_policy,
    structure_to_dict,
    supervisor_estimate,
)
from .structure import (
    INITIAL_KEY,
    ControlStructure,
    DecodedSupervisor,
    InfoState,
    OpacityVerdict,
    StructureError,
    Successors,
    is_consistent,
    is_safe,
    make_info,
    nx_is,
    ur_is,
    verify_closed_loop_opacity,
    verify_open_loop_opacity,
)
from .supervisors import Supervisor, TabularSupervisor
from .synthesis import (
    Arena,
    SizeGuardExceeded,
    SynthesisConfig,
    SynthesisOutcome,
    expand_arena,
    extract_structure,
    prune_incomplete,
    synthesize,
)

__version__ = "0.1.0"
