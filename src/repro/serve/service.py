"""In-process decision service fusing connected fleets into batched ticks.

:class:`DecisionService` is the long-running counterpart of one-shot
:meth:`~repro.control.TwoLevelController.run` calls: sessions register a
fleet (a built controller, or a ``repro/scenario-v1`` document the way the
CLI builds one), then stream ticks and get back per-tick recovery and
replication decisions (:class:`~repro.control.TwoLevelStepEvent`).

Cross-fleet batching
--------------------

Sessions whose scenarios compile to the same engine tables (identical
scenario mapping) and that register before their cohort takes its first
tick are **fused** into a cohort.  Inside a cohort, sessions whose control
configuration is equal — :meth:`~repro.control.TwoLevelController.control_key`:
the recovery and replication strategies compared by value, ``f``, ``k``,
``smax``, ``initial_nodes`` and the two limit flags — form a **control
group**.  A session whose configuration cannot be compared (a custom
policy, an unhashable strategy, a recorded trace) is a group of one, run
by the same code.

At the cohort's first tick (its *seal*) every group gets a contiguous
block of engine rows and every member a contiguous block ``[lo, hi)`` of
its group's rows.  The per-session uniform buffers —
``engine.draw_uniforms(seed_i, B_i)``, episode-major children of
``SeedSequence(seed_i)`` — are drawn in that row order by one
``draw_uniforms`` call over the members into one
:class:`~repro.sim.engine.BatchEpisodeState`, and each group gets ONE
:class:`~repro.control.TwoLevelLoop` over its members' stacked episodes,
whose system controller holds the concatenation of every member's
per-episode streams (the tail children of ``SeedSequence(seed_i)``).
One tick is then one ``pre_step`` per group, ONE fused ``engine.step``
for the cohort and one ``post_step`` per group.

Every engine row and every control row is independent of the others (the
CMDP state, the Prop. 1c grant and the slot activation are all row-wise,
the same property the sharded sweeps of :mod:`repro.control.parallel`
replay shards with), so each session's rows replay a direct
``TwoLevelController.run(seed=seed_i)`` **bit for bit**.  A session owns
its row slice of the group's events and accumulators: it receives views
``[lo, hi)`` of every group event, and :meth:`DecisionService.result`
returns the row slice of the group loop's result, per-class metrics of
mixed fleets and the cohort's shared engine profile included.  The parity
is asserted, not assumed, in ``tests/test_decision_service.py`` and
``tests/test_service_control_groups.py``.

A tick request from *any* session advances its whole cohort one fused
step; the other sessions' events are buffered and delivered when they ask.
Sessions may therefore tick at different paces without blocking each
other, and a single-threaded client driving many sessions never
deadlocks.  When the cohort reaches its horizon it drops its engine state
(the ``(B, N, 2T)`` uniform buffer included) and keeps only the group
loops; once every member has closed, the service drops the cohort.

Policy solves (the LP replication route of ``replication: {type: lp}``)
are served from the process-wide, thread-safe
:data:`~repro.control.policy_cache.DEFAULT_POLICY_CACHE` unless a scoped
cache is injected: concurrent registrations that fit the same kernel run
Algorithm 2 once.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from ..control.policy_cache import DEFAULT_POLICY_CACHE, PolicySolveCache
from ..control.two_level import TwoLevelController, TwoLevelLoop, TwoLevelResult, TwoLevelStepEvent
from ..control.vector_system import VectorSystemDecision
from ..envs.base import VectorObservation
from ..sim import BatchRecoveryEngine, FleetScenario
from ..sim.seeding import resolve_entropy
from ..sim.scenario_io import (
    parse_yaml_document,
    run_section,
    scenario_from_mapping,
    scenario_to_mapping,
)
from .protocol import ServiceError, integer_field, number_field

__all__ = ["DecisionService", "build_session_controller"]

#: Register-time run-section keys the service understands (the CLI's
#: closed-loop vocabulary plus the replication spec; ``mode``/``n_jobs``
#: are accepted for document compatibility and must be consistent).
_REGISTER_KEYS = frozenset(
    {
        "mode",
        "episodes",
        "seed",
        "n_jobs",
        "threshold",
        "beta",
        "k",
        "initial_nodes",
        "replication",
    }
)


def build_session_controller(
    scenario: FleetScenario,
    run: Mapping[str, Any],
    engine: BatchRecoveryEngine | None = None,
    policy_cache: PolicySolveCache | None = None,
) -> tuple[TwoLevelController, int | None]:
    """Build one session's closed-loop controller from a run section.

    Mirrors the CLI's ``closed-loop`` construction (threshold recovery,
    threshold replication) and adds the service-only ``replication`` spec:
    ``{"type": "threshold", "beta": 1}`` (default) or ``{"type": "lp",
    "fit_episodes": 50, "epsilon_a": 0.9}``, the latter fitting the
    empirical ``f_S`` kernel and serving Algorithm 2's solution from the
    policy cache.  Returns ``(controller, seed)``.
    """
    from ..core import ReplicationThresholdStrategy, ThresholdStrategy

    unknown = set(run) - _REGISTER_KEYS
    if unknown:
        raise ServiceError(
            "bad-request",
            f"unknown run option(s) {sorted(unknown)}; known: "
            f"{sorted(_REGISTER_KEYS)}",
        )
    mode = run.get("mode", "closed-loop")
    if mode not in (None, "closed-loop"):
        raise ServiceError(
            "bad-request",
            f"the decision service runs the closed-loop mode only, got "
            f"mode {mode!r}",
        )
    episodes = integer_field(run.get("episodes", 100), "episodes", minimum=1)
    seed = _check_seed(run.get("seed", 0))
    try:
        recovery = ThresholdStrategy(
            number_field(run.get("threshold", 0.75), "threshold")
        )
    except ValueError as exc:
        raise ServiceError("bad-request", str(exc)) from exc
    beta = integer_field(run.get("beta", 1), "beta")
    k = integer_field(run.get("k", 1), "k")
    initial_nodes = run.get("initial_nodes")
    if initial_nodes is not None:
        initial_nodes = integer_field(initial_nodes, "initial_nodes")

    replication_spec = run.get("replication")
    if replication_spec is None:
        replication_spec = {"type": "threshold", "beta": beta}
    if not isinstance(replication_spec, Mapping) or "type" not in replication_spec:
        raise ServiceError(
            "bad-request",
            "replication must be a mapping with a 'type' key, got "
            f"{replication_spec!r}",
        )
    kind = replication_spec["type"]
    if kind == "threshold":
        replication = ReplicationThresholdStrategy(
            integer_field(replication_spec.get("beta", beta), "replication.beta")
        )
    elif kind == "lp":
        replication = _solve_lp_replication(
            scenario,
            recovery,
            fit_episodes=integer_field(
                replication_spec.get("fit_episodes", 50),
                "replication.fit_episodes",
                minimum=1,
            ),
            epsilon_a=number_field(
                replication_spec.get("epsilon_a", 0.9), "replication.epsilon_a"
            ),
            seed=seed,
            policy_cache=policy_cache,
        )
    else:
        raise ServiceError(
            "bad-request",
            f"unknown replication type {kind!r}; known: ['threshold', 'lp']",
        )

    try:
        controller = TwoLevelController(
            scenario,
            num_envs=episodes,
            recovery_policy=recovery,
            replication_strategy=replication,
            initial_nodes=initial_nodes,
            k=k,
            engine=engine,
        )
    except ValueError as exc:
        raise ServiceError("invalid-scenario", str(exc)) from exc
    return controller, seed


def _check_seed(seed: Any) -> int | None:
    """A session seed: a non-negative integer or ``None`` (fresh entropy).

    Checked at register time: a seed ``SeedSequence`` rejects would
    otherwise fail at the cohort's seal and take every member down.
    """
    if seed is None:
        return None
    return integer_field(seed, "seed", minimum=0)


def _solve_lp_replication(
    scenario: FleetScenario,
    recovery,
    fit_episodes: int,
    epsilon_a: float,
    seed: int | None,
    policy_cache: PolicySolveCache | None,
):
    """Fit ``\\hat{f}_S`` and serve Algorithm 2's LP solve from the cache."""
    from ..envs.policies import StrategyPolicy
    from ..envs.rollout import rollout
    from ..envs.vector_recovery import FleetVectorEnv
    from ..control.sysid import fit_system_model_from_env

    if scenario.f is None:
        raise ServiceError(
            "invalid-scenario",
            "the LP replication route requires the scenario to define f",
        )
    cache = policy_cache if policy_cache is not None else DEFAULT_POLICY_CACHE
    fit_env = FleetVectorEnv(scenario, fit_episodes)
    rollout(fit_env, StrategyPolicy(recovery), seed=seed)
    try:
        model = fit_system_model_from_env(fit_env, epsilon_a=epsilon_a)
    except ValueError as exc:
        raise ServiceError("invalid-scenario", str(exc)) from exc
    solution = cache.solve_lp(model)
    if not solution.feasible:
        raise ServiceError(
            "invalid-scenario",
            "Algorithm 2 is infeasible on the fitted kernel; relax "
            "epsilon_a or use threshold replication",
        )
    return solution.strategy


class _Session:
    """One registered fleet: its control group, its episode rows, its event buffer."""

    def __init__(
        self, session_id: str, controller: TwoLevelController, seed: int | None
    ) -> None:
        self.id = session_id
        self.controller = controller
        self.seed = seed
        #: The session's rows ``[lo, hi)`` of its control group's loop.
        self.rows = slice(0, 0)
        #: Events produced by cohort advances this session has not consumed.
        self.events: deque[TwoLevelStepEvent] = deque()
        self.closed = False
        self.cohort: "_Cohort | None" = None
        self.group: "_ControlGroup | None" = None


class _ControlGroup:
    """Sessions of one cohort with equal control configurations.

    One :class:`TwoLevelLoop`, built at seal over the members' stacked
    episodes, steps the whole group; member ``i`` owns its rows
    ``[lo_i, hi_i)`` of the loop and of every event the loop emits.
    """

    def __init__(self) -> None:
        self.sessions: list[_Session] = []
        self.loop: TwoLevelLoop | None = None
        #: The group's rows of the cohort's fused engine state.
        self.rows = slice(0, 0)

    def seal(self, lo: int) -> int:
        """Assign rows from cohort row ``lo`` on and build the loop.

        The loop's system controller receives the concatenation of every
        member's per-episode stream segments (the tail children of
        ``SeedSequence(seed_i)``), so row ``lo_i + b`` draws exactly what
        episode ``b`` of a direct ``run(seed=seed_i)`` draws.  Returns the
        cohort row after the group's last.
        """
        offset = 0
        for session in self.sessions:
            num_envs = session.controller.num_envs
            session.rows = slice(offset, offset + num_envs)
            offset += num_envs
        self.rows = slice(lo, lo + offset)
        parts = [s.controller._system_streams(s.seed) for s in self.sessions]
        streams = None if parts[0] is None else [seg for part in parts for seg in part]
        self.loop = self.sessions[0].controller.begin_loop(
            system_streams=streams, num_episodes=offset
        )
        return lo + offset


def _event_rows(event: TwoLevelStepEvent, rows: slice) -> TwoLevelStepEvent:
    """One session's rows of a control group's event (views, no copies)."""
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
    """One session's rows of a control group's result."""

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


class _Cohort:
    """Sessions fused into one engine state; sealed at the first tick.

    The cohort owns the fused :class:`BatchEpisodeState`.  Its members are
    partitioned into control groups (equal
    :meth:`~repro.control.TwoLevelController.control_key`); at seal each
    group gets a contiguous block of engine rows and each member a
    contiguous block of its group's rows.  One :meth:`advance` executes
    one ``pre_step`` per group, ONE fused engine step and one
    ``post_step`` per group.  At the horizon the engine state is dropped;
    the group loops keep the accumulators :meth:`DecisionService.result`
    reads.
    """

    def __init__(self, key: str, engine: BatchRecoveryEngine, profile: bool) -> None:
        self.key = key
        self.engine = engine
        self.profile = profile
        self.sessions: list[_Session] = []
        self.groups: list[_ControlGroup] = []
        self._keyed: dict[tuple, _ControlGroup] = {}
        self.sealed = False
        self.t = 0
        self.sim = None
        self._forced: np.ndarray | None = None
        #: The fused state's engine profile, kept past the horizon.
        self.engine_profile = None

    @property
    def num_episodes(self) -> int:
        return sum(s.controller.num_envs for s in self.sessions)

    @property
    def done(self) -> bool:
        return self.t >= self.engine.scenario.horizon

    def add(self, session: _Session) -> None:
        if self.sealed:
            raise RuntimeError("cannot join a sealed cohort")
        key = session.controller.control_key()
        group = self._keyed.get(key) if key is not None else None
        if group is None:
            group = _ControlGroup()
            self.groups.append(group)
            if key is not None:
                self._keyed[key] = group
        group.sessions.append(session)
        session.group = group
        session.cohort = self
        self.sessions.append(session)

    def seal(self) -> None:
        """Build the group loops and fuse the members' uniform buffers.

        Engine rows are laid out group by group, members in registration
        order within a group, and the whole cohort is seeded in one
        ``draw_uniforms`` call over its ``(seed_i, B_i)`` members.  Session
        ``i``'s rows of the fused buffers are exactly
        ``engine.draw_uniforms(seed_i, B_i)`` — the buffer a direct
        ``TwoLevelController.run(seed=seed_i)`` consumes — so every fused
        row replays its standalone counterpart bit for bit.
        """
        lo = 0
        for group in self.groups:
            lo = group.seal(lo)
        members = [
            (s.seed, s.controller.num_envs) for group in self.groups for s in group.sessions
        ]
        engine = self.engine
        self.sim = engine.begin(
            uniforms=engine.draw_uniforms(members),
            adversary_uniforms=engine.draw_adversary_uniforms(members),
            profile=self.profile,
        )
        self.engine_profile = self.sim.profile
        self._forced = engine.forced_recoveries(self.sim)
        self.sealed = True

    def advance(self) -> None:
        """One fused tick: per group pre_step, ONE engine step, per group post_step.

        Executes the identical per-tick arithmetic as
        :meth:`TwoLevelController.run` on every row — the belief updates of
        the whole cohort land in a single fused kernel call, the control
        plane in one call per group.
        """
        if not self.sealed:
            self.seal()
        if self.done:
            raise ServiceError("session-done", "the cohort reached its horizon")
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
            for session in group.sessions:
                if not session.closed:
                    session.events.append(_event_rows(event, session.rows))
        self.t += 1
        if self.done:
            # Free the fused state and its (B, N, 2T) uniform buffer; the
            # group loops hold everything result() needs.
            self.sim = self._forced = None


class DecisionService:
    """Long-running decision service over fused two-level control loops.

    Args:
        coalesce: Fuse compatible sessions into shared engine batches (the
            default).  ``False`` gives every session its own cohort — the
            per-fleet serial dispatch the soak benchmark compares against.
        policy_cache: Cache serving the LP replication solves; defaults to
            the process-wide thread-safe
            :data:`~repro.control.policy_cache.DEFAULT_POLICY_CACHE`.
        profile: Attach an :class:`~repro.sim.kernels.EngineProfile` to
            every cohort; finished sessions carry it on
            :attr:`~repro.control.TwoLevelResult.profile`.

    All public methods are thread-safe behind one reentrant lock — the
    socket server (:mod:`repro.serve.server`) calls them from one thread
    per connection.
    """

    def __init__(
        self,
        coalesce: bool = True,
        policy_cache: PolicySolveCache | None = None,
        profile: bool = False,
    ) -> None:
        self.coalesce = coalesce
        self.policy_cache = (
            policy_cache if policy_cache is not None else DEFAULT_POLICY_CACHE
        )
        self.profile = profile
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._sessions: dict[str, _Session] = {}
        self._engines: dict[str, BatchRecoveryEngine] = {}
        self._open_cohorts: dict[str, _Cohort] = {}
        self._cohorts: list[_Cohort] = []
        self.engine_calls = 0
        #: Control-plane loop ticks: one per control group per cohort advance.
        self.control_steps = 0
        self.node_decisions = 0
        self.ticks_served = 0

    # -- registration -------------------------------------------------------------
    @staticmethod
    def _scenario_key(scenario: FleetScenario) -> str:
        """Content key of the engine tables a scenario compiles to."""
        return json.dumps(scenario_to_mapping(scenario), sort_keys=True)

    def register_controller(
        self, controller: TwoLevelController, seed: int | None = 0
    ) -> str:
        """Register a pre-built controller as a new session.

        The session joins (or opens) the cohort of its scenario key; its
        decisions replay ``controller.run(seed=seed)`` bit for bit.
        Returns the session id.
        """
        seed = _check_seed(seed)
        with self._lock:
            engine = controller.env.engine
            if engine.is_dynamic and seed is None:
                seed = resolve_entropy(None)
            key = self._scenario_key(controller.scenario)
            self._engines.setdefault(key, engine)
            session = _Session(f"s{next(self._ids)}", controller, seed)
            cohort = self._open_cohorts.get(key) if self.coalesce else None
            if cohort is None or cohort.sealed:
                cohort = _Cohort(key, self._engines[key], self.profile)
                self._cohorts.append(cohort)
                if self.coalesce:
                    self._open_cohorts[key] = cohort
            cohort.add(session)
            self._sessions[session.id] = session
            return session.id

    def register_document(
        self,
        document: Mapping[str, Any] | str,
        overrides: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Register a session from a ``repro/scenario-v1`` document.

        ``document`` is a parsed mapping or YAML text — a string is always
        parsed as text, never opened as a path, so a client cannot make the
        service read its files (path loading belongs to the CLI).  The
        ``run`` section (updated with ``overrides``) supplies episodes,
        seed and the control policies exactly as the CLI runner reads
        them.  Returns the register-response payload (session id plus the
        session's dimensions).
        """
        with self._lock:
            try:
                parsed = parse_yaml_document(document)
                scenario = scenario_from_mapping(parsed)
                run = run_section(parsed)
            except (ValueError, TypeError) as exc:
                raise ServiceError("invalid-scenario", str(exc)) from exc
            if overrides is not None and not isinstance(overrides, Mapping):
                raise ServiceError(
                    "bad-request",
                    f"overrides must be a mapping, got {type(overrides).__name__}",
                )
            if overrides:
                run.update({k: v for k, v in overrides.items() if v is not None})
            key_engine = self._engines.get(self._scenario_key(scenario))
            controller, seed = build_session_controller(
                scenario, run, engine=key_engine, policy_cache=self.policy_cache
            )
            session_id = self.register_controller(controller, seed=seed)
            return {
                "session": session_id,
                "episodes": controller.num_envs,
                "nodes": controller.smax,
                "horizon": controller.horizon,
                "seed": seed,
            }

    # -- ticking ------------------------------------------------------------------
    def _get(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None or session.closed:
            raise ServiceError(
                "unknown-session", f"no open session {session_id!r}"
            )
        return session

    def tick(self, session_id: str, count: int = 1) -> list[TwoLevelStepEvent]:
        """Advance ``count`` ticks of one session; returns its decision events.

        A session that is behind its cohort first drains buffered events;
        beyond that, each tick advances the whole cohort by one fused
        engine step (buffering the other members' events).
        """
        if count < 1:
            raise ServiceError("bad-request", f"count must be >= 1, got {count}")
        with self._lock:
            session = self._get(session_id)
            cohort = session.cohort
            delivered: list[TwoLevelStepEvent] = []
            for _ in range(count):
                if not session.events:
                    if cohort.done:
                        raise ServiceError(
                            "session-done",
                            f"session {session_id!r} reached its horizon "
                            f"({session.controller.horizon} ticks)",
                        )
                    cohort.advance()
                    self.engine_calls += 1
                    self.control_steps += len(cohort.groups)
                    self.node_decisions += (
                        cohort.num_episodes * cohort.engine.scenario.num_nodes
                    )
                delivered.append(session.events.popleft())
            self.ticks_served += len(delivered)
            return delivered

    # -- results ------------------------------------------------------------------
    def result(self, session_id: str) -> TwoLevelResult:
        """The finished session's :class:`~repro.control.TwoLevelResult`.

        Identical to ``controller.run(seed=seed)`` on the session's seed;
        carries the cohort's shared engine profile when the service was
        built with ``profile=True``.
        """
        with self._lock:
            session = self._get(session_id)
            cohort = session.cohort
            if not cohort.done:
                raise ServiceError(
                    "session-not-done",
                    f"session {session_id!r} is at tick {cohort.t} of "
                    f"{session.controller.horizon}; tick it to the horizon "
                    "before requesting the result",
                )
            result = session.group.loop.result(profile=cohort.engine_profile)
            return _result_rows(result, session.rows)

    def close(self, session_id: str) -> None:
        """Detach a session.

        Inside a sealed fused cohort its episode rows keep stepping (the
        fused state is shared), but no further events are buffered for it.
        Closing the last open member releases the cohort: the service
        keeps no reference to it, so its fused state is freed.
        """
        with self._lock:
            session = self._get(session_id)
            session.closed = True
            session.events.clear()
            del self._sessions[session_id]
            cohort, session.cohort, session.group = session.cohort, None, None
            if all(member.closed for member in cohort.sessions):
                self._cohorts.remove(cohort)
                if self._open_cohorts.get(cohort.key) is cohort:
                    del self._open_cohorts[cohort.key]

    # -- introspection ------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Service counters plus the policy cache's hit/miss statistics."""
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "cohorts": len(self._cohorts),
                "coalesce": self.coalesce,
                "engine_calls": self.engine_calls,
                "control_steps": self.control_steps,
                "ticks_served": self.ticks_served,
                "node_decisions": self.node_decisions,
                "policy_cache": self.policy_cache.stats(),
            }
