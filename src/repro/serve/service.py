"""In-process decision service fusing connected fleets into batched kernel calls.

:class:`DecisionService` is the long-running counterpart of one-shot
:meth:`~repro.control.TwoLevelController.run` calls: sessions register a
fleet (a built controller, or a ``repro/scenario-v1`` document the way the
CLI builds one), then stream ticks and get back per-tick recovery and
replication decisions (:class:`~repro.control.TwoLevelStepEvent`).

Cross-fleet batching
--------------------

Sessions whose scenarios compile to the same engine tables (identical
scenario mapping) and that register before their cohort takes its first
tick are **fused**: their per-session uniform buffers —
``engine.draw_uniforms(seed_i, B_i)``, episode-major children of
``SeedSequence(seed_i)`` — are concatenated along the episode axis into a
single :class:`~repro.sim.engine.BatchEpisodeState`, and every tick runs
ONE fused ``engine.step`` for the whole cohort instead of one call per
fleet.  Engine episode rows are mutually independent (the same property
the sharded sweeps of :mod:`repro.control.parallel` replay shards with),
so the fused step is **bit-identical** to stepping each session's batch
separately — which in turn is exactly what a direct
``TwoLevelController.run(seed=seed_i)`` executes.  The parity is asserted,
not assumed, in ``tests/test_decision_service.py``.

Each session keeps its *own* :class:`~repro.control.TwoLevelLoop` (its own
recovery policy, replication strategy and per-episode system-controller
seed streams from the tail of ``SeedSequence(seed_i)``): fusion happens at
the engine level only, so heterogeneous control policies coexist in one
cohort as long as the fleet dynamics match.

A tick request from *any* session advances its whole cohort one fused
step; the other sessions' events are buffered and delivered when they ask.
Sessions may therefore tick at different paces without blocking each
other, and a single-threaded client driving many sessions never
deadlocks.  Once every member of a cohort has closed, the service drops
the cohort and with it the fused state and its uniform buffer.

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
from typing import Any, Mapping

import numpy as np

from ..control.policy_cache import DEFAULT_POLICY_CACHE, PolicySolveCache
from ..control.two_level import TwoLevelController, TwoLevelLoop, TwoLevelResult, TwoLevelStepEvent
from ..envs.base import VectorObservation
from ..sim import BatchRecoveryEngine, FleetScenario
from ..sim.scenario_io import (
    load_yaml_document,
    run_section,
    scenario_from_mapping,
    scenario_to_mapping,
)
from .protocol import ServiceError

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
    episodes = int(run.get("episodes", 100))
    if episodes < 1:
        raise ServiceError(
            "bad-request", f"episodes must be >= 1, got {episodes}"
        )
    seed = run.get("seed", 0)
    seed = None if seed is None else int(seed)
    threshold = float(run.get("threshold", 0.75))
    recovery = ThresholdStrategy(threshold)

    replication_spec = run.get("replication")
    if replication_spec is None:
        replication_spec = {"type": "threshold", "beta": int(run.get("beta", 1))}
    if not isinstance(replication_spec, Mapping) or "type" not in replication_spec:
        raise ServiceError(
            "bad-request",
            "replication must be a mapping with a 'type' key, got "
            f"{replication_spec!r}",
        )
    kind = replication_spec["type"]
    if kind == "threshold":
        replication = ReplicationThresholdStrategy(
            int(replication_spec.get("beta", run.get("beta", 1)))
        )
    elif kind == "lp":
        replication = _solve_lp_replication(
            scenario,
            recovery,
            fit_episodes=int(replication_spec.get("fit_episodes", 50)),
            epsilon_a=float(replication_spec.get("epsilon_a", 0.9)),
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
            initial_nodes=(
                None
                if run.get("initial_nodes") is None
                else int(run["initial_nodes"])
            ),
            k=int(run.get("k", 1)),
            engine=engine,
        )
    except ValueError as exc:
        raise ServiceError("invalid-scenario", str(exc)) from exc
    return controller, seed


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
    model = fit_system_model_from_env(fit_env, epsilon_a=epsilon_a)
    solution = cache.solve_lp(model)
    if not solution.feasible:
        raise ServiceError(
            "invalid-scenario",
            "Algorithm 2 is infeasible on the fitted kernel; relax "
            "epsilon_a or use threshold replication",
        )
    return solution.strategy


class _Session:
    """One registered fleet: its loop, its episode slice, its event buffer."""

    def __init__(
        self,
        session_id: str,
        controller: TwoLevelController,
        loop: TwoLevelLoop,
        seed: int | None,
    ) -> None:
        self.id = session_id
        self.controller = controller
        self.loop = loop
        self.seed = seed
        self.lo = 0
        self.hi = 0
        #: Events produced by cohort advances this session has not consumed.
        self.events: deque[TwoLevelStepEvent] = deque()
        self.closed = False
        self.cohort: "_Cohort | None" = None


class _Cohort:
    """Sessions fused into one engine state; sealed at the first tick.

    The cohort owns the fused :class:`BatchEpisodeState`; each member
    session owns a contiguous episode slice ``[lo, hi)`` of it.  One
    :meth:`advance` call executes one fused engine step for every member.
    """

    def __init__(self, key: str, engine: BatchRecoveryEngine, profile: bool) -> None:
        self.key = key
        self.engine = engine
        self.profile = profile
        self.sessions: list[_Session] = []
        self.sim = None
        self._forced: np.ndarray | None = None

    @property
    def sealed(self) -> bool:
        return self.sim is not None

    @property
    def num_episodes(self) -> int:
        return sum(s.controller.num_envs for s in self.sessions)

    def add(self, session: _Session) -> None:
        if self.sealed:
            raise RuntimeError("cannot join a sealed cohort")
        session.lo = self.num_episodes
        session.hi = session.lo + session.controller.num_envs
        session.cohort = self
        self.sessions.append(session)

    def seal(self) -> None:
        """Fuse the members' per-session uniform buffers into one state.

        Session ``i``'s rows ``[lo_i, hi_i)`` of the fused buffers are
        exactly ``engine.draw_uniforms(seed_i, B_i)`` — the buffer a direct
        ``TwoLevelController.run(seed=seed_i)`` consumes — so every fused
        row replays its standalone counterpart bit for bit.
        """
        engine = self.engine
        uniforms = np.concatenate(
            [
                engine.draw_uniforms(s.seed, s.controller.num_envs)
                for s in self.sessions
            ],
            axis=0,
        )
        adversary_uniforms = None
        if engine.is_dynamic:
            buffers = [
                engine.draw_adversary_uniforms(s.seed, s.controller.num_envs)
                for s in self.sessions
            ]
            if buffers[0] is not None:
                adversary_uniforms = np.concatenate(buffers, axis=0)
        self.sim = engine.begin(
            uniforms=uniforms,
            adversary_uniforms=adversary_uniforms,
            profile=self.profile,
        )
        self._forced = engine.forced_recoveries(self.sim)

    @property
    def done(self) -> bool:
        return self.sealed and self.sim.t >= self.engine.scenario.horizon

    def advance(self) -> None:
        """One fused tick: every member's pre_step, ONE engine step, post_step.

        Executes the identical per-tick arithmetic as
        :meth:`TwoLevelController.run` on each session's slice — the belief
        updates of the whole cohort land in a single fused kernel call.
        """
        if not self.sealed:
            self.seal()
        if self.done:
            raise ServiceError("session-done", "the cohort reached its horizon")
        sim, engine = self.sim, self.engine
        forced = self._forced
        masks = np.empty_like(forced)
        for session in self.sessions:
            lo, hi = session.lo, session.hi
            observation = VectorObservation(
                beliefs=sim.belief[lo:hi],
                time_since_recovery=sim.time_since_recovery[lo:hi],
                forced=forced[lo:hi],
                active=session.loop.active,
            )
            masks[lo:hi] = session.loop.pre_step(observation)
        costs = engine.step(sim, masks | forced, btr_applied=True)
        self._forced = engine.forced_recoveries(sim)
        for session in self.sessions:
            lo, hi = session.lo, session.hi
            observation = VectorObservation(
                beliefs=sim.belief[lo:hi],
                time_since_recovery=sim.time_since_recovery[lo:hi],
                forced=self._forced[lo:hi],
                active=session.loop.active,
            )
            info = {
                "t": sim.t,
                "crashed": sim.last_crashed[lo:hi],
                "failed_mask": sim.last_failed_mask[lo:hi],
            }
            event = session.loop.post_step(observation, costs[lo:hi], info)
            if not session.closed:
                session.events.append(event)


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
        with self._lock:
            engine = controller.env.engine
            if engine.is_dynamic and seed is None:
                from ..sim.adversary import resolve_adversary_entropy

                seed = resolve_adversary_entropy(None)
            key = self._scenario_key(controller.scenario)
            self._engines.setdefault(key, engine)
            session = _Session(
                session_id=f"s{next(self._ids)}",
                controller=controller,
                loop=controller.begin_loop(seed=seed),
                seed=seed,
            )
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

        ``document`` is a parsed mapping, YAML text or a YAML path; the
        ``run`` section (updated with ``overrides``) supplies episodes,
        seed and the control policies exactly as the CLI runner reads
        them.  Returns the register-response payload (session id plus the
        session's dimensions).
        """
        with self._lock:
            try:
                parsed = load_yaml_document(document)
                scenario = scenario_from_mapping(parsed)
                run = run_section(parsed)
            except (ValueError, TypeError) as exc:
                raise ServiceError("invalid-scenario", str(exc)) from exc
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
                    if session.loop.done:
                        raise ServiceError(
                            "session-done",
                            f"session {session_id!r} reached its horizon "
                            f"({session.controller.horizon} ticks)",
                        )
                    cohort.advance()
                    self.engine_calls += 1
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
            if not session.loop.done:
                raise ServiceError(
                    "session-not-done",
                    f"session {session_id!r} is at tick {session.loop.t} of "
                    f"{session.controller.horizon}; tick it to the horizon "
                    "before requesting the result",
                )
            profile = session.cohort.sim.profile if self.profile else None
            return session.loop.result(profile=profile)

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
            cohort, session.cohort = session.cohort, None
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
                "ticks_served": self.ticks_served,
                "node_decisions": self.node_decisions,
                "policy_cache": self.policy_cache.stats(),
            }
