"""Subspace-scored task allocation over robot/fog/cloud networks."""

from .allocator import (
    IDLE_TASK,
    MAX_SCORE,
    MIN_LOSS,
    NO_CAPABLE_NODE,
    NON_PERTURBING,
    AllocationDecision,
    CandidateReport,
    ImpactReport,
    NodeSchedule,
    ScheduleEntry,
    WindowViolation,
    allocate,
    commit_decision,
    reallocation_loss,
    schedule_impact,
)
from .delays import (
    DelaySum,
    ErlangDelay,
    delay_mean,
    delay_sum,
    sample_delay,
    substream,
)
from .errors import HyperallocError
from .graphs import (
    CycleDetected,
    FlowExplosion,
    GraphError,
    SemiLattice,
    count_execution_flows,
    execution_flows,
    flow_critical_cost,
    flow_predecessors,
    max_flow_length,
    to_semilattice,
)
from .network import (
    Link,
    NetworkModel,
    NetworkError,
    NodeRef,
    RequestProfile,
    Route,
    Unreachable,
    com_t_max,
    comm_delays,
    ict,
    round_trip_matrix,
    shortest_comm_path,
)
from .report import emit_report
from .runner import (
    EngineError,
    RunReport,
    inspect_flows,
    inspect_pi,
    inspect_routes,
    run,
)
from .scenario import (
    DuplicateDefinition,
    ParseError,
    ParseIssue,
    RunOptions,
    Scenario,
    ScenarioError,
    TaskSpec,
    UnresolvedReference,
    check_scenario,
    format_scenario,
    parse_scenario,
)
from .subspaces import (
    CapabilityState,
    Subspace,
    SubspaceError,
    check_score,
    combine_values,
    cplt_score,
    omega_update,
    overall_comm_bound,
    pi_init,
    pi_limit,
)

__version__ = "0.1.0"
