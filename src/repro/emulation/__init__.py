"""Emulation substrate: the evaluation testbed of Section VIII.

* :mod:`~repro.emulation.containers` — the physical nodes, container images,
  vulnerabilities and kill chains of Tables 3-6.
* :mod:`~repro.emulation.ids` — the synthetic Snort-like IDS and the
  empirical-model fitting procedure of Figure 11.
* :mod:`~repro.emulation.attacker` — multi-step intrusions with Byzantine
  post-compromise behaviour.
* :mod:`~repro.emulation.services` — the background client population.
* :mod:`~repro.emulation.node` / :mod:`~repro.emulation.environment` — the
  emulated nodes and the full evaluation environment producing Table 7 /
  Figure 12.
* :mod:`~repro.emulation.traces` — the intrusion-trace dataset generator.
"""

from .attacker import AttackPhase, AttackState, Attacker, AttackerConfig
from .containers import (
    CONTAINER_CATALOG,
    PHYSICAL_NODES,
    ContainerImage,
    PhysicalNode,
    container_by_replica_id,
)
from .environment import (
    EmulationConfig,
    EmulationEnvironment,
    EvaluationPolicy,
    default_emulation_observation_model,
    no_recovery_policy,
    periodic_adaptive_policy,
    periodic_policy,
    tolerance_policy,
)
from .ids import AlertSample, SnortLikeIDS, collect_alert_dataset, fit_empirical_model
from .node import EmulatedNode
from .services import BackgroundClientPopulation
from .traces import IntrusionTrace, generate_traces, load_traces, save_traces
from .vector_env import EmulationVectorEnv

__all__ = [
    "AlertSample",
    "AttackPhase",
    "AttackState",
    "Attacker",
    "AttackerConfig",
    "BackgroundClientPopulation",
    "CONTAINER_CATALOG",
    "ContainerImage",
    "EmulatedNode",
    "EmulationConfig",
    "EmulationEnvironment",
    "EmulationVectorEnv",
    "EvaluationPolicy",
    "IntrusionTrace",
    "PHYSICAL_NODES",
    "PhysicalNode",
    "SnortLikeIDS",
    "collect_alert_dataset",
    "container_by_replica_id",
    "default_emulation_observation_model",
    "fit_empirical_model",
    "generate_traces",
    "load_traces",
    "no_recovery_policy",
    "periodic_adaptive_policy",
    "periodic_policy",
    "save_traces",
    "tolerance_policy",
]
