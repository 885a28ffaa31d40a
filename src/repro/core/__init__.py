"""Core library: the TOLERANCE two-level control architecture.

The local level (intrusion recovery, Problem 1) lives in
:mod:`~repro.core.node_model`, :mod:`~repro.core.observation`,
:mod:`~repro.core.belief`, :mod:`~repro.core.costs`,
:mod:`~repro.core.strategies` and :mod:`~repro.core.node_controller`;
the global level (replication control, Problem 2) in
:mod:`~repro.core.system_model` and :mod:`~repro.core.system_controller`.
:mod:`~repro.core.architecture` wires both levels onto the consensus and
emulation substrates; it sits above them, so its two names
(:class:`ToleranceArchitecture`, :class:`ArchitectureReport`) are loaded on
first access and ``import repro.core`` loads neither substrate.
"""

from .belief import (
    BeliefFilter,
    BeliefState,
    CachedBeliefDynamics,
    batch_update_compromise_belief,
    belief_transition_distribution,
    update_compromise_belief,
)
from .correctness import (
    CorrectnessAuditor,
    InvariantViolation,
    check_safety,
    check_validity,
    tolerance_threshold,
)
from .costs import (
    NodeCostFunction,
    SystemCostFunction,
    expected_node_cost,
    lagrangian_system_cost,
    node_cost,
    system_cost,
)
from .metrics import (
    EpisodeMetrics,
    MetricsCollector,
    confidence_interval,
    metric_divergence_report,
    summarize_metric_arrays,
    summarize_runs,
)
from .node_controller import NodeController, NodeControllerState
from .node_model import (
    NODE_ACTIONS,
    NODE_STATES,
    NodeAction,
    NodeParameters,
    NodeState,
    NodeTransitionModel,
    expected_time_to_failure,
    failure_probability_curve,
    geometric_failure_pmf,
)
from .observation import (
    BetaBinomialObservationModel,
    DiscreteObservationModel,
    EmpiricalObservationModel,
    ObservationModel,
    is_tp2,
    kl_divergence,
    poisson_observation_model,
)
from .reliability import (
    ReliabilityAnalysis,
    healthy_nodes_transition_matrix,
    mean_time_to_failure,
    reliability_function,
)
from .strategies import (
    AdaptiveHeuristicReplicationStrategy,
    BeliefPeriodicStrategy,
    ClassAwareReplicationStrategy,
    ClassPreferenceReplicationStrategy,
    ClassTabularReplicationStrategy,
    MixedReplicationStrategy,
    MultiThresholdStrategy,
    NeverAddStrategy,
    NoRecoveryStrategy,
    PeriodicStrategy,
    RecoveryStrategy,
    ReplicationStrategy,
    ReplicationThresholdStrategy,
    TabularReplicationStrategy,
    ThresholdStrategy,
    sample_action_index,
    strategy_is_class_aware,
)
from .system_controller import SystemController, SystemControllerDecision
from .system_model import (
    BinomialSystemModel,
    ClassAwareSystemModel,
    EmpiricalSystemModel,
    SystemModel,
    class_aware_system_model,
    fresh_node_survival,
    system_model_from_node_beliefs,
)

__all__ = [
    "AdaptiveHeuristicReplicationStrategy",
    "ArchitectureReport",
    "BeliefFilter",
    "BeliefPeriodicStrategy",
    "BeliefState",
    "BetaBinomialObservationModel",
    "BinomialSystemModel",
    "CachedBeliefDynamics",
    "ClassAwareReplicationStrategy",
    "ClassAwareSystemModel",
    "ClassPreferenceReplicationStrategy",
    "ClassTabularReplicationStrategy",
    "CorrectnessAuditor",
    "DiscreteObservationModel",
    "EmpiricalObservationModel",
    "EmpiricalSystemModel",
    "EpisodeMetrics",
    "InvariantViolation",
    "MetricsCollector",
    "MixedReplicationStrategy",
    "MultiThresholdStrategy",
    "NODE_ACTIONS",
    "NODE_STATES",
    "NeverAddStrategy",
    "NoRecoveryStrategy",
    "NodeAction",
    "NodeController",
    "NodeControllerState",
    "NodeCostFunction",
    "NodeParameters",
    "NodeState",
    "NodeTransitionModel",
    "ObservationModel",
    "PeriodicStrategy",
    "RecoveryStrategy",
    "ReliabilityAnalysis",
    "ReplicationStrategy",
    "ReplicationThresholdStrategy",
    "SystemController",
    "SystemControllerDecision",
    "SystemCostFunction",
    "SystemModel",
    "TabularReplicationStrategy",
    "ThresholdStrategy",
    "ToleranceArchitecture",
    "batch_update_compromise_belief",
    "belief_transition_distribution",
    "check_safety",
    "check_validity",
    "confidence_interval",
    "expected_node_cost",
    "expected_time_to_failure",
    "failure_probability_curve",
    "geometric_failure_pmf",
    "healthy_nodes_transition_matrix",
    "is_tp2",
    "kl_divergence",
    "lagrangian_system_cost",
    "mean_time_to_failure",
    "metric_divergence_report",
    "node_cost",
    "poisson_observation_model",
    "reliability_function",
    "summarize_metric_arrays",
    "summarize_runs",
    "system_cost",
    "class_aware_system_model",
    "fresh_node_survival",
    "sample_action_index",
    "strategy_is_class_aware",
    "system_model_from_node_beliefs",
    "tolerance_threshold",
    "update_compromise_belief",
]


def __getattr__(name: str):
    if name in ("ArchitectureReport", "ToleranceArchitecture"):
        from . import architecture

        return getattr(architecture, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
