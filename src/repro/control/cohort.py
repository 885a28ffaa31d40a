"""Cohorts: many closed-loop fleets on one scenario stepped as one engine state.

A :class:`Cohort` runs the fleets (its *members*, each a built
:class:`~repro.control.TwoLevelController` plus its seed) whose scenarios
compile to the same engine tables — equal :func:`scenario_key` — in one
fused :class:`~repro.sim.engine.BatchEpisodeState`.  It is the one runner
behind the closed-loop sweeps (:mod:`repro.control.sweep`), their episode
shards (:mod:`repro.control.parallel`), the decision service
(:mod:`repro.serve.service`) and :meth:`TwoLevelController.run
<repro.control.TwoLevelController.run>`, which is a one-member cohort.

One loop, configurations as row data
    A sealed cohort builds ONE :class:`~repro.control.TwoLevelLoop` over
    all its members' episodes, whatever their configurations.  Each
    member's ``k``, ``initial_nodes`` and limit flags become the loop's
    per-row arrays, its threshold, periodic or no-recovery strategies rows
    of the ``alpha``/``due`` recovery tables, and its replication strategy
    rows of the system controller's add-probability table; a policy that
    is no such data (a custom policy, a time-indexed or learned strategy,
    a class-aware replication strategy) acts on the member's own rows.
    ``f``, ``smax``, the horizon and the class slots are the scenario's,
    equal across the cohort by :func:`scenario_key`.  The system
    controller holds the concatenation of the per-episode streams (the
    tail children of the member's seed tree) of every member whose
    replication strategy draws randomness.

Rows and the row map
    At the first tick (the *seal*) every member gets a contiguous block
    ``[lo, hi)`` of the cohort's rows, in joining order.  Members that
    consume the same streams — an equal seed and episode range, as every
    cell of a common-random-number sweep does — draw their uniform buffer
    once: one ``draw_uniforms`` call over the distinct ``(seed,
    episodes)`` sources fills a buffer with one block per source, and the
    fused state (``engine.begin(rows=...)``) maps each of its rows to its
    member's buffer row.  The map lives in the engine's ``stream_rows``
    offsets, the only reader of the buffer, and in the adversary buffer's
    row gather, so shared streams are never copied.

One tick
    One ``pre_step``, ONE ``engine.step`` and one ``post_step`` for the
    whole cohort.  At the horizon the engine state (and its buffer) is
    released; the loop keeps the accumulators :meth:`Cohort.result` reads.

Every engine row and every control row is independent of the others (the
CMDP state, the Prop. 1c grant and the slot activation are all row-wise),
so each member's rows equal the member's run alone — a one-member cohort,
which is ``TwoLevelController.run(seed=seed)`` — or, for an episode shard,
rows ``[lo, hi)`` of that run, **bit for bit**.  The independent oracle is
the scalar :meth:`~repro.control.TwoLevelController.run_scalar_reference`
(``tests/test_cohort_runner.py``, ``tests/test_control_plane.py``).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from ..envs.base import VectorObservation
from ..sim import BatchRecoveryEngine, FleetScenario
from ..sim.kernels import EngineProfile
from ..sim.scenario_io import scenario_to_mapping
from ..sim.seeding import resolve_entropy
from .two_level import TwoLevelController, TwoLevelLoop, TwoLevelResult, TwoLevelStepEvent
from .vector_system import VectorSystemDecision

__all__ = [
    "Cohort",
    "CohortMember",
    "event_rows",
    "scenario_key",
]


def scenario_key(scenario: FleetScenario) -> str | None:
    """Content key of the engine tables a scenario compiles to.

    Scenarios with equal keys share one engine and may share a cohort.
    ``None`` when the scenario has no ``repro/scenario-v1`` form (a custom
    adversary or parameter type): such a scenario shares with no other.
    """
    try:
        return json.dumps(scenario_to_mapping(scenario), sort_keys=True)
    except (TypeError, ValueError):
        return None


class CohortMember:
    """One fleet of a cohort: its controller, its streams and its rows.

    Args:
        controller: The fleet's controller; its ``num_envs`` episodes are
            the member's rows.
        seed: Root of the member's ``SeedSequence`` tree; ``None`` draws
            fresh entropy once, shared by the engine and system streams.
        first: Index of the member's first episode in the ``batch``-episode
            run it is a shard of (0 for a whole run).
        batch: Episode count of that run (default: ``controller.num_envs``).

    The member consumes the streams of episodes ``[first, first + B)`` of
    ``SeedSequence(seed)``'s tree for a ``batch``-episode run, so a whole
    run is ``controller.run(seed=seed)`` and a shard replays its rows
    of the larger run.
    """

    def __init__(
        self,
        controller: TwoLevelController,
        seed: int | None,
        first: int = 0,
        batch: int | None = None,
    ) -> None:
        self.controller = controller
        self.seed = resolve_entropy(seed)
        self.episodes = range(first, first + controller.num_envs)
        self.batch = controller.num_envs if batch is None else batch
        #: The member's rows ``[lo, hi)`` of the cohort's loop and state.
        self.rows = slice(0, 0)
        self.cohort: "Cohort | None" = None


def event_rows(event: TwoLevelStepEvent, member: CohortMember) -> TwoLevelStepEvent:
    """One member's rows of a cohort's event (views, no copies).

    The class choice and action distribution are the member's own: ``None``
    for a classless replication strategy, ``1 + C`` columns for one over
    ``C`` classes — as in the member's direct run.
    """
    rows = member.rows
    class_slots = member.controller._strategy_class_slots
    classless = class_slots is None
    decision = event.decision
    return TwoLevelStepEvent(
        t=event.t,
        executed_recoveries=event.executed_recoveries[rows],
        crashed=event.crashed[rows],
        failed=event.failed[rows],
        decision=VectorSystemDecision(
            state=decision.state[rows],
            add_node=decision.add_node[rows],
            emergency_add=decision.emergency_add[rows],
            evicted=decision.evicted[rows],
            add_probability=decision.add_probability[rows],
            capped=decision.capped[rows],
            node_count_after_eviction=decision.node_count_after_eviction[rows],
            add_class=None if classless else decision.add_class[rows],
            action_probabilities=(
                None
                if classless
                else decision.action_probabilities[rows, : 1 + len(class_slots)]
            ),
        ),
        activated=event.activated[rows],
        active=event.active[rows],
        available=event.available[rows],
    )


def _result_rows(result: TwoLevelResult, rows: slice) -> TwoLevelResult:
    """One member's rows of a cohort's result."""

    def per_class(metric):
        if metric is None:
            return None
        return {label: values[rows] for label, values in metric.items()}

    return replace(
        result,
        availability=result.availability[rows],
        average_nodes=result.average_nodes[rows],
        average_cost=result.average_cost[rows],
        recovery_frequency=result.recovery_frequency[rows],
        additions=result.additions[rows],
        emergency_additions=result.emergency_additions[rows],
        evictions=result.evictions[rows],
        class_average_cost=per_class(result.class_average_cost),
        class_recovery_frequency=per_class(result.class_recovery_frequency),
    )


class Cohort:
    """Members fused into one engine state; sealed at the first tick.

    Args:
        engine: The compiled engine every member's scenario shares.
        profile: Attach an :class:`~repro.sim.kernels.EngineProfile` to the
            fused state; every member's result carries it.
        key: The members' :func:`scenario_key` (bookkeeping for callers).

    The cohort starts no process or thread: one :meth:`advance` is one
    fused tick in the caller's thread.
    """

    def __init__(
        self, engine: BatchRecoveryEngine, profile: bool = False, key: str | None = None
    ) -> None:
        self.key = key
        self.engine = engine
        self.profile = profile
        self.members: list[CohortMember] = []
        self.loop: TwoLevelLoop | None = None
        self.sealed = False
        self.t = 0
        self.sim = None
        self._forced: np.ndarray | None = None
        #: The fused state's engine profile, kept past the horizon.
        self.engine_profile: EngineProfile | None = None

    @property
    def num_episodes(self) -> int:
        return sum(m.controller.num_envs for m in self.members)

    @property
    def done(self) -> bool:
        return self.t >= self.engine.scenario.horizon

    def add(self, member: CohortMember) -> CohortMember:
        """Join ``member`` to the cohort; returns it."""
        if self.sealed:
            raise RuntimeError("cannot join a sealed cohort")
        member.cohort = self
        self.members.append(member)
        return member

    def seal(self) -> None:
        """Build the loop and draw the members' streams once per source.

        Engine rows are laid out member by member, in joining order.  The
        distinct ``(seed, episodes)`` sources are drawn in one
        ``draw_uniforms`` call (and one adversary draw); the row map sends
        member ``i``'s rows to its source's block, which is exactly
        ``engine.draw_uniforms(seed_i, B_i)`` for a whole run — the buffer
        the scalar reference of ``seed_i`` consumes.
        """
        sources: dict[tuple[int, range], int] = {}
        buffer_rows = 0
        rows = np.empty(self.num_episodes, dtype=np.int64)
        streams = []
        lo = 0
        for member in self.members:
            controller = member.controller
            size = controller.num_envs
            member.rows = slice(lo, lo + size)
            lo += size
            source = (member.seed, member.episodes)
            start = sources.get(source)
            if start is None:
                start = sources[source] = buffer_rows
                buffer_rows += size
            rows[member.rows] = np.arange(start, start + size)
            streams += (
                controller._system_streams(member.seed, member.episodes.start, member.batch)
                or []
            )
        self.loop = TwoLevelLoop(
            [(member.rows, member.controller) for member in self.members], streams
        )
        engine = self.engine
        sources = list(sources)
        self.sim = engine.begin(
            uniforms=engine.draw_uniforms(sources),
            profile=self.profile,
            adversary_uniforms=engine.draw_adversary_uniforms(sources),
            rows=rows,
        )
        self.engine_profile = self.sim.profile
        self._forced = engine.forced_recoveries(self.sim)
        self.sealed = True

    def advance(self) -> TwoLevelStepEvent:
        """One fused tick: ONE pre_step, ONE engine step, ONE post_step.

        The belief updates of the whole cohort land in a single fused
        kernel call, the control plane in one loop call per phase.
        Returns the cohort's event; :func:`event_rows` cuts out a member's.
        """
        if not self.sealed:
            self.seal()
        if self.done:
            raise RuntimeError("the cohort reached its horizon")
        sim, engine, loop = self.sim, self.engine, self.loop
        forced = self._forced
        mask = loop.pre_step(
            VectorObservation(
                beliefs=sim.belief,
                time_since_recovery=sim.time_since_recovery,
                forced=forced,
                active=loop.active,
            )
        )
        costs = engine.step(sim, mask | forced, btr_applied=True)
        forced = self._forced = engine.forced_recoveries(sim)
        event = loop.post_step(
            VectorObservation(
                beliefs=sim.belief,
                time_since_recovery=sim.time_since_recovery,
                forced=forced,
                active=loop.active,
            ),
            costs,
            {"t": sim.t, "crashed": sim.last_crashed, "failed_mask": sim.last_failed_mask},
        )
        self.t += 1
        if self.done:
            # Free the fused state and its (B, N, 2T) uniform buffer; the
            # loop holds everything result() needs.
            self.sim = self._forced = None
        return event

    def run(self) -> None:
        """Advance to the horizon."""
        while not self.done:
            self.advance()

    def result(self, member: CohortMember) -> TwoLevelResult:
        """A finished member's rows of the cohort's result.

        Carries the cohort's shared engine profile when the cohort was
        built with ``profile=True``.
        """
        result = self.loop.result(profile=self.engine_profile)
        return _result_rows(result, member.rows)
