"""Closing the loop against the real protocol: controller-driven MinBFT.

Every other layer of the reproduction evaluates the two-level controller
against the *simulated* node model — availability ``T^(A)`` is computed from
the engine's failed mask, and the consensus substrate is exercised only by
its own unit tests.  This module welds the two together, the way the
TOLERANCE testbed does (Section VII, Fig. 17): a
:class:`ConsensusBackedFleet` maps controller slots to live
:class:`~repro.consensus.MinBFTReplica` instances so that every decision the
:class:`~repro.control.two_level.TwoLevelController` takes is mirrored onto
an actual protocol run —

* an **eviction** issues EVICT to the cluster (Fig. 17f), with the
  designated successor announcing the NEW-VIEW when the evictee led;
* a **replication add** (strategy-chosen or Prop. 1 emergency) issues JOIN
  plus state transfer for a fresh replica (Fig. 17e);
* a **node recovery** restarts the replica as a fresh container with a
  re-keyed USIG and state transfer (Section V-A);
* a **compromise** in the simulation flips the mirrored replica to
  Byzantine behaviour, corrupting its protocol messages for as long as the
  node model says it is compromised.

A :class:`~repro.consensus.ClientWorkload` streams requests through the
cluster the whole time, which yields **served availability** — the fraction
of client requests completing within a deadline — as the client-observed
counterpart of the controller-side time-average availability ``T^(A)``.
After every reconfiguration the safety invariants are audited
(:func:`~repro.consensus.audit_safety`): no two correct replicas' executed
logs diverge and no replica executed a request twice across recoveries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..consensus import (
    ByzantineBehavior,
    ClientWorkload,
    MinBFTCluster,
    MinBFTConfig,
    NetworkConfig,
    SafetyAuditResult,
    audit_safety,
)
from ..core.strategies import RecoveryStrategy, ReplicationStrategy
from ..envs.policies import VectorPolicy
from ..sim import FleetScenario
from ..sim.strategies import BatchStrategy
from .two_level import TwoLevelController, TwoLevelResult, TwoLevelStepEvent

__all__ = ["ConsensusLoopResult", "ConsensusSafetyError", "ConsensusBackedFleet"]


class ConsensusSafetyError(AssertionError):
    """A safety invariant was violated after a reconfiguration."""


@dataclass(frozen=True)
class ConsensusLoopResult:
    """Outcome of one controller-driven protocol run.

    Attributes:
        controller: The single-episode :class:`TwoLevelResult` of the
            driving controller (``availability`` is the controller-side
            ``T^(A)``).
        workload: Final workload statistics (:meth:`ClientWorkload.stats`),
            including ``served_availability``.
        audits: One :class:`SafetyAuditResult` per reconfiguration step.
        recoveries: Node recoveries mirrored onto the cluster.
        evictions: Evictions mirrored onto the cluster.
        additions: Replica additions mirrored onto the cluster.
        compromises: Byzantine-behaviour activations mirrored.
        skipped_evictions: Evictions *not* mirrored because they would have
            emptied the cluster (the controller's invariant normally
            prevents this; non-zero only with ``enforce_invariant=False``).
        final_membership: Replica ids alive at the end of the run.
    """

    controller: TwoLevelResult
    workload: dict[str, float]
    audits: tuple[SafetyAuditResult, ...]
    recoveries: int
    evictions: int
    additions: int
    compromises: int
    skipped_evictions: int
    final_membership: tuple[str, ...] = ()

    @property
    def availability(self) -> float:
        """Controller-side time-average availability ``T^(A)``."""
        return float(self.controller.availability[0])

    @property
    def served_availability(self) -> float:
        """Client-observed availability: served / due requests."""
        return float(self.workload["served_availability"])

    @property
    def safety_ok(self) -> bool:
        return all(audit.ok for audit in self.audits)


@dataclass
class _MirrorState:
    """Mutable bookkeeping of one run (slot map plus operation counters)."""

    slot_to_replica: dict[int, str] = field(default_factory=dict)
    recoveries: int = 0
    evictions: int = 0
    additions: int = 0
    compromises: int = 0
    skipped_evictions: int = 0
    audits: list[SafetyAuditResult] = field(default_factory=list)


class ConsensusBackedFleet:
    """Drive a live MinBFT cluster with the two-level controller.

    The controller runs exactly one episode (``num_envs=1``); its per-step
    decisions are mirrored onto the cluster through the ``on_step`` hook of
    :meth:`TwoLevelController.run` while a closed-loop client workload pumps
    requests between steps.

    Args:
        scenario: Fleet scenario (slot bank ``smax``, horizon, ``f``).
        recovery_policy: Node-level recovery policy or strategy.
        replication_strategy: System-level replication strategy.
        initial_nodes: Initial replication factor (defaults to the
            controller's ``2f + 1 + k``).
        k: Parallel-recovery limit; also the ``k`` of the cluster's hybrid
            quorum ``f = (N - 1 - k) / 2``.
        enforce_invariant: Forwarded to the controller.
        num_clients: Client population of the workload.
        pipeline: Outstanding requests per client.
        ticks_per_step: Protocol ticks pumped per controller step.
        deadline_ticks: Served-availability deadline; defaults to
            ``2 * ticks_per_step``.
        retry_interval: Client retransmission interval in ticks (0
            disables retries).
        checkpoint_interval: Cluster checkpoint interval ``cp``.
        network_config: Simulated-network configuration; defaults to a
            batched reliable network (batching keeps large request volumes
            cheap — one envelope per link per tick).
        strict: Raise :class:`ConsensusSafetyError` the moment a
            post-reconfiguration audit fails (on by default; the audit
            results are also returned either way).
    """

    def __init__(
        self,
        scenario: FleetScenario,
        recovery_policy: VectorPolicy | RecoveryStrategy | BatchStrategy,
        replication_strategy: ReplicationStrategy | None = None,
        initial_nodes: int | None = None,
        k: int = 1,
        enforce_invariant: bool = True,
        num_clients: int = 4,
        pipeline: int = 2,
        ticks_per_step: int = 20,
        deadline_ticks: int | None = None,
        retry_interval: int = 10,
        checkpoint_interval: int = 10,
        network_config: NetworkConfig | None = None,
        strict: bool = True,
    ) -> None:
        if ticks_per_step < 1:
            raise ValueError("ticks_per_step must be at least 1")
        if num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        if pipeline < 1:
            raise ValueError("pipeline must be at least 1")
        if deadline_ticks is not None and deadline_ticks < 1:
            raise ValueError("deadline_ticks must be at least 1")
        if retry_interval < 0:
            raise ValueError("retry_interval must be non-negative")
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        self.controller = TwoLevelController(
            scenario,
            num_envs=1,
            recovery_policy=recovery_policy,
            replication_strategy=replication_strategy,
            initial_nodes=initial_nodes,
            k=k,
            enforce_invariant=enforce_invariant,
        )
        self.k = k
        self.num_clients = num_clients
        self.pipeline = pipeline
        self.ticks_per_step = ticks_per_step
        self.deadline_ticks = (
            deadline_ticks if deadline_ticks is not None else 2 * ticks_per_step
        )
        self.retry_interval = retry_interval
        self.checkpoint_interval = checkpoint_interval
        self.network_config = (
            network_config
            if network_config is not None
            else NetworkConfig(batch_messages=True)
        )
        self.strict = strict
        self.cluster: MinBFTCluster | None = None
        self.workload: ClientWorkload | None = None

    # -- the run -----------------------------------------------------------------------
    def run(self, seed: int | None = None, tick_seconds: float = 0.01) -> ConsensusLoopResult:
        """Run the closed loop; a fresh cluster and workload per call."""
        self.cluster = MinBFTCluster(
            num_replicas=self.controller.initial_nodes,
            config=MinBFTConfig(
                checkpoint_interval=self.checkpoint_interval, k=self.k
            ),
            network_config=self.network_config,
            seed=seed,
        )
        self.workload = ClientWorkload(
            self.cluster,
            num_clients=self.num_clients,
            pipeline=self.pipeline,
            deadline_ticks=self.deadline_ticks,
            retry_interval=self.retry_interval,
        )
        mirror = _MirrorState(
            slot_to_replica={
                slot: f"replica-{slot}"
                for slot in range(self.controller.initial_nodes)
            }
        )
        self.workload.start()
        self.workload.pump(self.ticks_per_step)

        def on_step(event: TwoLevelStepEvent) -> None:
            self._mirror_step(event, mirror)

        controller_result = self.controller.run(seed=seed, on_step=on_step)
        # Drain: give in-flight requests one deadline's worth of ticks.
        self.workload.pump(self.deadline_ticks)
        return ConsensusLoopResult(
            controller=controller_result,
            workload=self.workload.stats(tick_seconds),
            audits=tuple(mirror.audits),
            recoveries=mirror.recoveries,
            evictions=mirror.evictions,
            additions=mirror.additions,
            compromises=mirror.compromises,
            skipped_evictions=mirror.skipped_evictions,
            final_membership=tuple(self.cluster.membership),
        )

    # -- decision mirroring ------------------------------------------------------------
    def _mirror_step(self, event: TwoLevelStepEvent, mirror: _MirrorState) -> None:
        """Mirror one controller step onto the live cluster (episode 0)."""
        cluster = self.cluster
        assert cluster is not None and self.workload is not None
        mapping = mirror.slot_to_replica
        reconfigured = False

        # 1. Node-level recoveries: fresh container, re-keyed USIG, state
        #    transfer (Section V-A).  Recoveries of slots evicted in the
        #    same step are skipped — the eviction below supersedes them.
        recovered = np.flatnonzero(
            event.executed_recoveries[0] & ~event.crashed[0]
        )
        for slot in recovered:
            replica_id = mapping.get(int(slot))
            if replica_id is not None and replica_id in cluster.replicas:
                cluster.recover_replica(replica_id)
                mirror.recoveries += 1
                reconfigured = True

        # 2. Evictions (Fig. 17f): the node crashed in the node model and
        #    the system level deactivated its slot.
        for slot in np.flatnonzero(event.crashed[0]):
            replica_id = mapping.pop(int(slot), None)
            if replica_id is None or replica_id not in cluster.replicas:
                continue
            if len(cluster.replicas) <= 1:
                mirror.skipped_evictions += 1
                continue
            cluster.crash(replica_id)
            cluster.evict_replica(replica_id)
            mirror.evictions += 1
            reconfigured = True

        # 3. Additions (Fig. 17e): JOIN plus state transfer for the slot
        #    the controller activated (strategy add or emergency add).
        activated = int(event.activated[0])
        if activated >= 0:
            mapping[activated] = cluster.add_replica()
            mirror.additions += 1
            reconfigured = True

        # 4. Compromise sync: slots the node model marks failed (and not
        #    crashed — crashes were evicted above) act Byzantine until the
        #    controller recovers them.
        failed = event.failed[0] & event.active[0]
        for slot, replica_id in mapping.items():
            replica = cluster.replicas.get(replica_id)
            if replica is None:
                continue
            if failed[slot] and replica.byzantine is ByzantineBehavior.NONE:
                cluster.compromise(replica_id, ByzantineBehavior.ARBITRARY)
                mirror.compromises += 1

        # 5. Keep client traffic flowing through whatever membership the
        #    reconfigurations produced.
        self.workload.pump(self.ticks_per_step)

        # 6. Safety audit after every reconfiguration (Theorem 1): correct
        #    replicas' logs must stay prefix-consistent, and no request may
        #    have executed twice across recoveries.
        if reconfigured:
            audit = audit_safety(cluster)
            mirror.audits.append(audit)
            if self.strict and not audit.ok:
                raise ConsensusSafetyError(
                    f"safety violated after reconfiguration at step {event.t}: "
                    f"divergent={audit.divergent} duplicated={audit.duplicated}"
                )
