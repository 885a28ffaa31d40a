"""Cohorts: many closed-loop fleets on one scenario stepped as one engine state.

A :class:`Cohort` runs the fleets (its *members*, each a built
:class:`~repro.control.TwoLevelController` plus its seed) whose scenarios
compile to the same engine tables — equal :func:`scenario_key` — in one
fused :class:`~repro.sim.engine.BatchEpisodeState`.  It is the one runner
behind the closed-loop sweeps (:mod:`repro.control.sweep`), their episode
shards (:mod:`repro.control.parallel`), the decision service
(:mod:`repro.serve.service`) and :meth:`TwoLevelController.run
<repro.control.TwoLevelController.run>`, which is a one-member cohort.

Control groups
    Members whose :meth:`~repro.control.TwoLevelController.control_key` is
    equal — the recovery and replication strategies compared by value,
    ``f``, ``k``, ``smax``, ``initial_nodes`` and the two limit flags —
    form a :class:`ControlGroup`: ONE :class:`~repro.control.TwoLevelLoop`
    over the members' stacked episodes, whose system controller holds the
    concatenation of every member's per-episode streams (the tail children
    of the member's seed tree).  A member whose configuration cannot be
    compared (a custom policy, an unhashable strategy, a recorded trace)
    is a group of one, run by the same code.

Rows and the row map
    At the first tick (the *seal*) every group gets a contiguous block of
    engine rows and every member a contiguous block ``[lo, hi)`` of its
    group's rows.  Members that consume the same streams — an equal seed
    and episode range, as every cell of a common-random-number sweep does
    — draw their uniform buffer once: one ``draw_uniforms`` call over the
    distinct ``(seed, episodes)`` sources fills a buffer with one block per
    source, and the fused state maps each of its rows to its member's
    buffer row.  The map lives in the engine's ``stream_rows`` offsets,
    the only reader of the buffer, and in the adversary buffer's row
    gather, so shared streams are never copied.

One tick
    One ``pre_step`` per group, ONE ``engine.step`` for the whole cohort
    and one ``post_step`` per group.  At the horizon the engine state (and
    its buffer) is released; the group loops keep the accumulators
    :meth:`Cohort.result` reads.

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
    "ControlGroup",
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
        #: The member's rows ``[lo, hi)`` of its control group's loop.
        self.rows = slice(0, 0)
        self.group: "ControlGroup | None" = None
        self.cohort: "Cohort | None" = None


class ControlGroup:
    """Members of one cohort with equal control configurations.

    One :class:`TwoLevelLoop`, built at seal over the members' stacked
    episodes, steps the whole group; member ``i`` owns its rows
    ``[lo_i, hi_i)`` of the loop and of every event the loop emits.
    """

    def __init__(self) -> None:
        self.members: list[CohortMember] = []
        self.loop: TwoLevelLoop | None = None
        #: The group's rows of the cohort's fused engine state.
        self.rows = slice(0, 0)

    def seal(self, lo: int) -> int:
        """Assign rows from cohort row ``lo`` on and build the loop.

        The loop's system controller receives the concatenation of every
        member's per-episode stream segments, so row ``lo_i + b`` draws
        exactly what episode ``b`` of the member's direct run draws.
        Returns the cohort row after the group's last.
        """
        offset = 0
        for member in self.members:
            num_envs = member.controller.num_envs
            member.rows = slice(offset, offset + num_envs)
            offset += num_envs
        self.rows = slice(lo, lo + offset)
        parts = [
            m.controller._system_streams(m.seed, m.episodes.start, m.batch)
            for m in self.members
        ]
        streams = None if parts[0] is None else [seg for part in parts for seg in part]
        self.loop = self.members[0].controller.begin_loop(
            system_streams=streams, num_episodes=offset
        )
        return lo + offset


def event_rows(event: TwoLevelStepEvent, rows: slice) -> TwoLevelStepEvent:
    """One member's rows of a control group's event (views, no copies)."""
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
            add_class=(
                None if decision.add_class is None else decision.add_class[rows]
            ),
            action_probabilities=(
                None
                if decision.action_probabilities is None
                else decision.action_probabilities[rows]
            ),
        ),
        activated=event.activated[rows],
        active=event.active[rows],
        available=event.available[rows],
    )


def _result_rows(result: TwoLevelResult, rows: slice) -> TwoLevelResult:
    """One member's rows of a control group's result."""

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
        self.groups: list[ControlGroup] = []
        self._keyed: dict[tuple, ControlGroup] = {}
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
        """Join ``member`` to the group of its control key; returns it."""
        if self.sealed:
            raise RuntimeError("cannot join a sealed cohort")
        key = member.controller.control_key()
        group = self._keyed.get(key) if key is not None else None
        if group is None:
            group = ControlGroup()
            self.groups.append(group)
            if key is not None:
                self._keyed[key] = group
        group.members.append(member)
        member.group = group
        member.cohort = self
        self.members.append(member)
        return member

    def seal(self) -> None:
        """Build the group loops and draw the members' streams once per source.

        Engine rows are laid out group by group, members in joining order
        within a group.  The distinct ``(seed, episodes)`` sources are
        drawn in one ``draw_uniforms`` call (and one adversary draw); the
        row map sends member ``i``'s rows to its source's block, which is
        exactly ``engine.draw_uniforms(seed_i, B_i)`` for a whole run — the
        buffer the scalar reference of ``seed_i`` consumes.
        """
        lo = 0
        for group in self.groups:
            lo = group.seal(lo)
        sources: dict[tuple[int, range], int] = {}
        buffer_rows = 0
        rows = np.empty(lo, dtype=np.int64)
        for group in self.groups:
            for member in group.members:
                size = len(member.episodes)
                source = (member.seed, member.episodes)
                start = sources.get(source)
                if start is None:
                    start = sources[source] = buffer_rows
                    buffer_rows += size
                at = group.rows.start + member.rows.start
                rows[at : at + size] = np.arange(start, start + size)
        engine = self.engine
        members = list(sources)
        self.sim = engine._begin(
            engine.draw_uniforms(members, memoize=False),
            adversary_uniforms=engine.draw_adversary_uniforms(members),
            rows=rows,
        )
        if self.profile:
            self.sim.profile = EngineProfile()
        self.engine_profile = self.sim.profile
        self._forced = engine.forced_recoveries(self.sim)
        self.sealed = True

    def advance(self) -> list[tuple[ControlGroup, TwoLevelStepEvent]]:
        """One fused tick: per group pre_step, ONE engine step, per group post_step.

        The belief updates of the whole cohort land in a single fused
        kernel call, the control plane in one call per group.  Returns
        every group's event.
        """
        if not self.sealed:
            self.seal()
        if self.done:
            raise RuntimeError("the cohort reached its horizon")
        sim, engine = self.sim, self.engine
        forced = self._forced
        masks = np.empty_like(forced)
        for group in self.groups:
            rows, loop = group.rows, group.loop
            masks[rows] = loop.pre_step(
                VectorObservation(
                    beliefs=sim.belief[rows],
                    time_since_recovery=sim.time_since_recovery[rows],
                    forced=forced[rows],
                    active=loop.active,
                )
            )
        costs = engine.step(sim, masks | forced, btr_applied=True)
        forced = self._forced = engine.forced_recoveries(sim)
        events = []
        for group in self.groups:
            rows, loop = group.rows, group.loop
            event = loop.post_step(
                VectorObservation(
                    beliefs=sim.belief[rows],
                    time_since_recovery=sim.time_since_recovery[rows],
                    forced=forced[rows],
                    active=loop.active,
                ),
                costs[rows],
                {
                    "t": sim.t,
                    "crashed": sim.last_crashed[rows],
                    "failed_mask": sim.last_failed_mask[rows],
                },
            )
            events.append((group, event))
        self.t += 1
        if self.done:
            # Free the fused state and its (B, N, 2T) uniform buffer; the
            # group loops hold everything result() needs.
            self.sim = self._forced = None
        return events

    def run(self) -> None:
        """Advance to the horizon."""
        while not self.done:
            self.advance()

    def result(self, member: CohortMember) -> TwoLevelResult:
        """A finished member's rows of its group's result.

        Carries the cohort's shared engine profile when the cohort was
        built with ``profile=True``.
        """
        result = member.group.loop.result(profile=self.engine_profile)
        return _result_rows(result, member.rows)
