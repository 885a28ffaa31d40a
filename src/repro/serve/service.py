"""In-process decision service: sessions of closed-loop fleets over one wire.

:class:`DecisionService` is the long-running counterpart of one-shot
:meth:`~repro.control.TwoLevelController.run` calls: a *session* registers
a fleet (a built controller, or a ``repro/scenario-v1`` document the way
the CLI builds one), then streams ticks and gets back per-tick recovery
and replication decisions (:class:`~repro.control.TwoLevelStepEvent`),
then its :class:`~repro.control.TwoLevelResult`, then closes.  The
decision-v1 wire (:mod:`repro.serve.protocol`, :mod:`repro.serve.server`)
maps one request line onto one of these calls.

Sessions whose scenarios compile to the same engine tables and that
register before their cohort's first tick share a
:class:`~repro.control.cohort.Cohort`, which steps all of them in one
fused engine call per tick; each session's decisions and result replay a
direct ``TwoLevelController.run(seed=seed)`` bit for bit.  The batching
and seeding contract is that of the cohort runner
(``docs/architecture.md``, "Cohorts").  A tick request from *any* session
advances its whole cohort one step; the other sessions' events are
buffered and delivered when they ask, so sessions may tick at different
paces and a single-threaded client driving many sessions never
deadlocks.  Once every member has closed, the service drops the cohort.

Policy solves (the LP replication route of ``replication: {type: lp}``)
are served from the process-wide, thread-safe
:data:`~repro.control.policy_cache.DEFAULT_POLICY_CACHE` unless a scoped
cache is injected: concurrent registrations that fit the same kernel run
Algorithm 2 once.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Mapping

from ..control.cohort import Cohort, CohortMember, event_rows, scenario_key
from ..control.policy_cache import DEFAULT_POLICY_CACHE, PolicySolveCache
from ..control.two_level import TwoLevelController, TwoLevelResult, TwoLevelStepEvent
from ..sim import BatchRecoveryEngine, FleetScenario
from ..sim.scenario_io import parse_yaml_document, run_section, scenario_from_mapping
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


class _Session(CohortMember):
    """One registered fleet: a cohort member with an id and an event buffer."""

    def __init__(
        self, session_id: str, controller: TwoLevelController, seed: int | None
    ) -> None:
        super().__init__(controller, seed)
        self.id = session_id
        #: Cohort events this session has not consumed; its rows are cut
        #: out at delivery, so events dropped by ``close`` are never sliced.
        self.events: deque[TwoLevelStepEvent] = deque()
        self.closed = False


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
        self._open_cohorts: dict[str, Cohort] = {}
        self._cohorts: list[Cohort] = []
        self.engine_calls = 0
        self.node_decisions = 0
        self.ticks_served = 0

    # -- registration -------------------------------------------------------------
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
            key = scenario_key(controller.scenario)
            if key is None:
                # No content key: the session shares no engine and no cohort.
                engine, cohort = controller.engine, None
            else:
                engine = self._engines.setdefault(key, controller.engine)
                cohort = self._open_cohorts.get(key) if self.coalesce else None
            session = _Session(f"s{next(self._ids)}", controller, seed)
            if cohort is None or cohort.sealed:
                cohort = Cohort(engine, self.profile, key)
                self._cohorts.append(cohort)
                if self.coalesce and key is not None:
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
            key_engine = self._engines.get(scenario_key(scenario))
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
        engine step (buffering the cohort's event for the other members,
        whose rows are cut out when they are delivered).
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
                    event = cohort.advance()
                    for member in cohort.members:
                        if not member.closed:
                            member.events.append(event)
                    self.engine_calls += 1
                    self.node_decisions += (
                        cohort.num_episodes * cohort.engine.scenario.num_nodes
                    )
                delivered.append(event_rows(session.events.popleft(), session))
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
            return cohort.result(session)

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
            if all(member.closed for member in cohort.members):
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
