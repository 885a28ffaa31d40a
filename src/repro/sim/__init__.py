"""Vectorized batch simulation of the node POMDP (``repro.sim``).

This package is the hardware-speed counterpart of the scalar
:class:`~repro.solvers.evaluation.RecoverySimulator`: it advances **B
episodes x N nodes simultaneously** as NumPy array operations instead of one
Python-level step at a time.

Batch layout
------------

All per-stream state and all per-episode results are arrays of shape
``(B, N)``:

* axis 0 (``B``) indexes **episodes** — independent Monte-Carlo rollouts,
  each with its own child of the episode seed tree;
* axis 1 (``N``) indexes **nodes** — the (possibly heterogeneous) members of
  a :class:`~repro.sim.scenario.FleetScenario`, each with its own ``p_A``,
  ``Delta_R``, ``eta`` and observation model.  Mixed container fleets
  (Table 6) are built from per-class templates via
  :meth:`FleetScenario.mixed`, which also labels every slot with its
  :class:`~repro.sim.scenario.NodeClass` for per-class accounting.

One simulation step updates every ``(episode, node)`` stream at once:
batched hidden-state transitions through ``f_N``, batched observation
sampling from ``Z``, the batched two-state belief recursion of Appendix A
(:func:`~repro.core.belief.batch_update_compromise_belief`), batched
strategy application, and batched cost/metric accumulation.

The engine reproduces the scalar simulator **bit for bit** under a shared
seed (see :mod:`repro.sim.engine` for why), so every consumer — Algorithm
1's objective estimator, the Table 2 solver comparison, the Table 7 baseline
sweeps — can switch to the batch path without shifting results.

Layer contract
--------------

* **What is vectorized:** every per-(episode, node) stream of the node
  POMDP — hidden states, observations, beliefs, BTR clocks, strategy
  application, cost/metric accumulation — advances as one ``(B, N)`` array
  operation per step.
* **Scalar reference:** :class:`~repro.solvers.evaluation.RecoverySimulator`
  is kept unchanged as the obviously-correct implementation; the parity
  suite (``tests/test_sim_equivalence.py``) asserts the engine bit-equal to
  it per strategy class.
* **Seeding convention (PR 1):** ``SeedSequence(seed)`` spawns one child
  per ``(episode, node)`` stream, episode-major; both paths consume the
  same children, which is what makes parity exact rather than statistical.
  (This replaced the pre-1.1 single shared generator — same-seed outputs
  differ from version 1.0.0.)  The engine computes its streams vectorized
  with :func:`~repro.sim.seeding.uniform_streams`, bit-equal to NumPy's
  ``SeedSequence``/PCG64; the scalar path keeps NumPy ``Generator`` objects.

The engine kernel
-----------------

The belief update and the closed run loop live in one kernel,
:class:`~repro.sim.kernels.FusedKernel`: precomputed flat tables turn the
Appendix A recursion of every ``(B, N)`` stream into integer gathers plus
one fused multiply-add, bit-exact against the scalar simulator.  The engine
advances it two ways — the stepwise :meth:`~BatchRecoveryEngine.step` that
the environments and the control loop drive, and the closed
:meth:`~BatchRecoveryEngine.run` driver with deferred bookkeeping — and
the test suite pins both to each other and to the scalar oracle.

Adversary processes (PR 9)
--------------------------

Attack dynamics are a pluggable seam (:mod:`repro.sim.adversary`): a
:class:`~repro.sim.adversary.AdversaryProcess` on the scenario yields the
per-step ``(B, N)`` compromise pressure.  The default
:class:`~repro.sim.adversary.StaticAdversary` is the paper's i.i.d.
attacker and keeps the static-CDF fast path bit-exact; dynamic adversaries
(:class:`~repro.sim.adversary.CorrelatedAdversary` campaigns,
:class:`~repro.sim.adversary.BurstyAdversary` on/off intensity,
:class:`~repro.sim.adversary.StealthAdversary` alert suppression) rebuild
the transition CDFs per step from salted, episode-sliceable uniform
streams.  Scenarios with adversaries round-trip through
the versioned YAML schema (``FleetScenario.from_yaml`` / ``to_yaml``) and
run from the command line via ``python -m repro run scenario.yaml``.

Quickstart::

    from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
    from repro.sim import BatchRecoveryEngine, FleetScenario

    scenario = FleetScenario.single_node(
        NodeParameters(p_a=0.1), BetaBinomialObservationModel(), horizon=200
    )
    result = BatchRecoveryEngine(scenario).run(
        ThresholdStrategy(0.75), num_episodes=1000, seed=0
    )
    print(result.summary())
"""

from ..core.belief import batch_update_compromise_belief
from .adversary import (
    ADVERSARY_TYPES,
    AdversaryProcess,
    BurstyAdversary,
    CorrelatedAdversary,
    StaticAdversary,
    StealthAdversary,
    adversary_from_spec,
    adversary_to_spec,
)
from .engine import BatchEpisodeState, BatchRecoveryEngine, BatchSimulationResult
from .kernels import EngineProfile
from .scenario import FleetScenario, NodeClass
from .strategies import (
    BatchMultiThreshold,
    BatchStrategy,
    LoopedBatchStrategy,
    as_batch_strategy,
)

__all__ = [
    "ADVERSARY_TYPES",
    "AdversaryProcess",
    "BatchEpisodeState",
    "BatchMultiThreshold",
    "BatchRecoveryEngine",
    "BatchSimulationResult",
    "BatchStrategy",
    "BurstyAdversary",
    "CorrelatedAdversary",
    "EngineProfile",
    "FleetScenario",
    "LoopedBatchStrategy",
    "NodeClass",
    "StaticAdversary",
    "StealthAdversary",
    "adversary_from_spec",
    "adversary_to_spec",
    "as_batch_strategy",
    "batch_update_compromise_belief",
]
