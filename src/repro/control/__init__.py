"""Closed-loop two-level control plane (``repro.control``).

The paper's headline contribution is *two-level* feedback control: each
node runs a POMDP recovery controller, and a global controller steers the
replication factor against a CMDP (Problems 1 and 2, Section V).  This
package closes that loop on the batched simulation path:

* :class:`VectorSystemController` — the vectorized refactor of the scalar
  :class:`~repro.core.system_controller.SystemController` (kept as the
  bit-parity reference): eviction, the Eq. 8 CMDP state, replication
  decisions and the Prop. 1 emergency-add invariant for ``B`` fleets per
  array operation, decision-for-decision identical to ``B`` scalar
  controllers under shared seeds;
* :class:`TwoLevelController` — ``B`` closed-loop fleet episodes at once:
  node-level beliefs/recoveries via the bit-exact batch engine, the
  ``k``-parallel-recovery limit, and system-level control over a fixed
  ``smax`` slot bank (standby slots stay fresh and activate on addition);
* :mod:`~repro.control.sysid` — the system-identification loop: fit the
  empirical kernel ``\\hat{f}_S`` from
  :meth:`~repro.envs.FleetVectorEnv.system_state_transitions` (or a
  closed-loop trace), solve Algorithm 2 / Theorem 2 on the estimate, and
  re-evaluate the strategies in closed loop — replacing the slow
  docker-emulation-only estimation path;
* :mod:`~repro.control.replication_ppo` — a PPO replication policy trained
  directly on the fleet environment, entering Table 7 as a learned
  contender;
* :mod:`~repro.control.sweep` — the consolidated fleet-sweep API the
  Table 7 / Figure 12 benchmarks run on, including the heterogeneous
  mixed-fleet sweep (:func:`mixed_closed_loop_sweep`) and the
  attacker-intensity sweep (:func:`attacker_intensity_sweep`); every
  sweep takes ``n_jobs=`` to shard its episodes across worker processes
  (:mod:`~repro.control.parallel`) with bit-identical results;
* :mod:`~repro.control.cohort` — the one runner that steps many fleets
  on one scenario as a single fused engine state and ONE
  :class:`TwoLevelLoop` (one ``pre_step``, one engine step and one
  ``post_step`` per tick, each fleet's configuration as per-row data):
  the closed-loop sweeps, their shards, the decision service and
  :meth:`TwoLevelController.run` all run on it;
* :mod:`~repro.control.policy_cache` — the fitted-model-keyed cache of
  Algorithm 2 / Lagrangian solves (:class:`PolicySolveCache`): refits
  that reproduce an already-solved kernel skip the solver entirely.

Fleets may be heterogeneous: :meth:`~repro.sim.FleetScenario.mixed`
expands per-class container templates (Table 6 style) into per-slot
parameters, the whole loop uses each slot's own ``p_A``/``Delta_R``/
``eta``/observation model, and labelled scenarios get per-class metrics
(:meth:`TwoLevelResult.class_summary`) plus per-class empirical ``f_S``
fits (:func:`fit_system_models_per_class`).

On such fleets the system level is **class-aware**: the replication action
space is ``{wait, add(class c)}``.  :func:`fit_class_aware_system_model`
assembles the class-indexed CMDP from the per-class fits, the class-aware
Algorithm 2 (:func:`~repro.solvers.cmdp.solve_class_aware_replication_lp`)
chooses *which* class to add, :func:`optimize_class_deltas` gives every
class its own Algorithm-1-optimal BTR deadline
(``mixed_closed_loop_sweep(optimize_deltas=True)`` routes them through the
sweeps), and ``train_ppo_replication(class_aware=True)`` learns the
class-indexed policy directly on the fleet environment.

Layer contract
--------------

* **What is vectorized:** both feedback levels of ``B`` fleet episodes —
  belief updates, recovery grants, evictions, CMDP states, replication
  decisions (including the class choice) — advance per array operation.
* **Scalar reference:** the scalar
  :class:`~repro.core.system_controller.SystemController` and
  :meth:`TwoLevelController.run_scalar_reference`; decision traces are
  asserted bit-identical under shared seeds
  (``tests/test_control_plane.py``, ``tests/test_class_aware_cmdp.py``).
* **Seeding convention (PR 1):** one ``SeedSequence(seed)`` tree feeds the
  engine's per-(episode, node) children first and the per-episode system
  controller streams after them, so a single integer seed reproduces the
  whole closed loop on either path.

Quickstart::

    from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
    from repro.control import TwoLevelController
    from repro.sim import FleetScenario

    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1), BetaBinomialObservationModel(),
        num_nodes=9, horizon=200, f=1,
    )
    controller = TwoLevelController(
        scenario, num_envs=100, recovery_policy=ThresholdStrategy(0.75),
        initial_nodes=4,
    )
    result = controller.run(seed=0)
    print(result.summary())
"""

from __future__ import annotations

from .class_aware import (
    ClassDeltaResult,
    apply_class_deltas,
    optimize_class_deltas,
)
from .parallel import (
    parallel_closed_loop_table,
    parallel_engine_sweep_table,
    shard_episodes,
    validate_n_jobs,
)
from .policy_cache import (
    DEFAULT_POLICY_CACHE,
    PolicySolveCache,
    fitted_model_key,
)
from .replication_ppo import (
    PPOReplicationResult,
    PPOReplicationStrategy,
    default_replication_config,
    train_ppo_replication,
)
from .sweep import (
    ClosedLoopCell,
    attacker_intensity_sweep,
    closed_loop_sweep,
    default_tolerance_threshold,
    emulation_cell,
    engine_fleet_sweep,
    mixed_closed_loop_sweep,
)
from .sysid import (
    SystemIdentificationResult,
    evaluate_replication_closed_loop,
    fit_class_aware_system_model,
    fit_system_model_from_env,
    fit_system_model_from_pairs,
    fit_system_model_from_trace,
    fit_system_models_per_class,
    fresh_node_survival_from_model,
    identify_replication_strategies,
)
from .two_level import (
    SystemTrace,
    TwoLevelController,
    TwoLevelLoop,
    TwoLevelResult,
    TwoLevelStepEvent,
)
from .vector_system import (
    VectorSystemController,
    VectorSystemDecision,
    expected_healthy_nodes_batch,
    strategy_consumes_rng,
)

__all__ = [
    "ClassDeltaResult",
    "ClosedLoopCell",
    "ConsensusBackedFleet",
    "ConsensusLoopResult",
    "ConsensusSafetyError",
    "DEFAULT_POLICY_CACHE",
    "PPOReplicationResult",
    "PPOReplicationStrategy",
    "PolicySolveCache",
    "SystemIdentificationResult",
    "SystemTrace",
    "TwoLevelController",
    "TwoLevelLoop",
    "TwoLevelResult",
    "TwoLevelStepEvent",
    "VectorSystemController",
    "VectorSystemDecision",
    "attacker_intensity_sweep",
    "apply_class_deltas",
    "closed_loop_sweep",
    "default_replication_config",
    "default_tolerance_threshold",
    "emulation_cell",
    "engine_fleet_sweep",
    "evaluate_replication_closed_loop",
    "expected_healthy_nodes_batch",
    "fit_system_model_from_env",
    "fit_system_model_from_pairs",
    "fit_system_model_from_trace",
    "fit_system_models_per_class",
    "fit_class_aware_system_model",
    "fitted_model_key",
    "fresh_node_survival_from_model",
    "identify_replication_strategies",
    "mixed_closed_loop_sweep",
    "optimize_class_deltas",
    "parallel_closed_loop_table",
    "parallel_engine_sweep_table",
    "shard_episodes",
    "strategy_consumes_rng",
    "train_ppo_replication",
    "validate_n_jobs",
]


def __getattr__(name: str):
    # consensus_loop sits on repro.consensus: its names load on first access,
    # so that ``import repro.control`` does not load the protocol.
    if name in ("ConsensusBackedFleet", "ConsensusLoopResult", "ConsensusSafetyError"):
        from . import consensus_loop

        return getattr(consensus_loop, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
