"""The four benchmark workloads and their correctness checks.

Each workload is built once (its long-lived objects are the set-up that
``setup_s`` times) and then runs a fixed number of repetitions.
:meth:`Workload.repetition` times one unit of the workload's work;
:meth:`Workload.check` then checks the outputs of that repetition, outside
the timed window:

* ``openloop-eval`` — the Table 2 / Fig. 7 node-POMDP sweep
  (:func:`repro.control.engine_fleet_sweep`); sampled episodes must equal the
  scalar :class:`~repro.solvers.RecoverySimulator` bit for bit.
* ``closedloop-sweep`` — the Table 7 closed loop
  (:func:`repro.control.closed_loop_sweep`); one cell of the first timed
  repetition must equal
  :meth:`~repro.control.TwoLevelController.run_scalar_reference`.
* ``service-soak`` — waves of fleets driven through the ``repro/decision-v1``
  wire path of :class:`~repro.serve.DecisionServer`; every response must be
  ``ok`` and sampled sessions must equal a direct
  :meth:`~repro.control.TwoLevelController.run`.
* ``consensus-churn`` — the Fig. 10 integrated run
  (:meth:`repro.control.ConsensusBackedFleet.run`); every safety audit must
  pass and every repetition must reproduce the first.

Seeds: every engine repetition (and every service session) takes a seed the
process has not used before from :class:`SeedStream`, because the engine
memoizes seeded uniform buffers and a repeated seed would stop measuring
seeding.  The consensus run keeps one fixed seed; see
:class:`ConsensusChurn`.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from calibration import clock as _clock
from repro import control
from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    NoRecoveryStrategy,
    PeriodicStrategy,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.serve import DecisionServer
from repro.serve.protocol import DECISION_SCHEMA
from repro.sim import FleetScenario
from repro.sim.scenario_io import scenario_to_mapping
from repro.solvers import RecoverySimulator

__all__ = ["WORKLOADS", "Rep", "SeedStream", "Workload", "latency_ms"]


_TWO_LEVEL_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)


@dataclass
class Rep:
    """One timed repetition.

    Attributes:
        seconds: Wall time of the timed window.
        work: Units of work done in the window (node-steps, node decisions
            or client requests, per workload).
        attempted: Operations attempted (parity checks, requests, runs).
        failed: Operations that failed.
        latencies_ns: Per-request latencies (service-soak only).
        counts: Exact per-repetition counts the traced run reports.
        outputs: What :meth:`Workload.check` needs; dropped after the check.
        speed: Machine speed around the repetition relative to the
            reference VM, for this workload (set by the runner from the
            calibration kernel and :attr:`Workload.SPEED_EXPONENT`).
    """

    seconds: float
    work: int
    attempted: int = 0
    failed: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    outputs: Any = None
    speed: float = 1.0

    @property
    def rate(self) -> float:
        """Work per second, scaled to the reference VM's speed."""
        return self.work / self.seconds / self.speed


def latency_ms(reps: list[Rep], q: int) -> float:
    """The ``q``-th percentile of the reps' request latencies, in ms at the
    reference VM's speed (latencies scale like times)."""
    latencies = [ns * rep.speed for rep in reps for ns in rep.latencies_ns]
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] / 1e6


class SeedStream:
    """Seeds derived from the workload seed, never repeated in one process."""

    def __init__(self, seed: int) -> None:
        self._base = seed * 1_000_000
        self._issued = 0

    def __call__(self) -> int:
        self._issued += 1
        return self._base + self._issued


class Workload:
    """Build in ``__init__``; time :meth:`repetition`; then :meth:`check` it."""

    name: str
    #: Seconds one repetition takes on the reference VM (sets the count).
    NOMINAL_REP_S: float
    MIN_REPS = 3
    #: Whether an untimed repetition runs before the timed ones.
    WARM_UP = True
    #: How strongly the workload's speed follows the calibration kernel's:
    #: a repetition's speed is the kernel's speed to this power.  Fitted as
    #: the slope of log rate against log kernel speed over the repetitions
    #: of six to eight runs: 1.33 closedloop-sweep, 1.30 service-soak, 1.21
    #: consensus-churn (correlation 0.91-0.93); their interpreter-bound work
    #: swings more than the kernel.
    SPEED_EXPONENT = 1.25

    def __init__(self) -> None:
        self.errors: list[str] = []

    def repetition(self) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> None:
        """Check ``rep``'s outputs; adds to its attempted/failed counts."""

    def fail(self, rep: Rep, message: str) -> None:
        rep.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{self.name}: {message}")

    def close(self) -> None:
        pass


class OpenLoopEval(Workload):
    """Table 2 / Fig. 7: three threshold strategies on fleets of 1 and 10 nodes.

    2000 episodes x horizon 100 under common random numbers and the static
    attacker.  Work unit: node-steps simulated.
    """

    name = "openloop-eval"
    NOMINAL_REP_S = 1.3
    #: Its large-array NumPy work swings less than the kernel: slope 0.67
    #: over 72 repetitions in six runs (correlation 0.74).
    SPEED_EXPONENT = 0.65
    FLEET_SIZES = (1, 10)
    EPISODES = 2000
    HORIZON = 100
    #: (episode, node) streams per sweep cell replayed on the scalar simulator.
    PARITY_SAMPLES = 4

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seeds = SeedStream(seed)
        self.rng = np.random.default_rng(seed)
        self.node_params = NodeParameters(p_a=0.1)
        self.observation_model = BetaBinomialObservationModel()
        self.strategies = {
            "tolerance": ThresholdStrategy(0.75),
            "no-recovery": NoRecoveryStrategy(),
            "periodic": PeriodicStrategy(25.0),
        }
        self.simulator = RecoverySimulator(
            self.node_params, self.observation_model, horizon=self.HORIZON
        )

    def repetition(self) -> Rep:
        seed = self.seeds()
        start = _clock()
        table = control.engine_fleet_sweep(
            self.FLEET_SIZES,
            self.strategies,
            node_params=self.node_params,
            observation_model=self.observation_model,
            num_episodes=self.EPISODES,
            horizon=self.HORIZON,
            seed=seed,
        )
        seconds = (_clock() - start) / 1e9
        work = len(self.strategies) * sum(self.FLEET_SIZES) * self.EPISODES * self.HORIZON
        return Rep(seconds, work, outputs=(seed, table))

    def check(self, rep: Rep) -> None:
        seed, table = rep.outputs
        for (n1, name), result in table.items():
            for _ in range(self.PARITY_SAMPLES):
                b = int(self.rng.integers(self.EPISODES))
                j = int(self.rng.integers(n1))
                # Stream (b, j) is child b * N + j of SeedSequence(seed).
                child = np.random.SeedSequence(seed, spawn_key=(b * n1 + j,))
                scalar = self.simulator.run_episode(
                    self.strategies[name], np.random.default_rng(child)
                )
                batch = (
                    float(result.average_cost[b, j]),
                    float(result.time_to_recovery[b, j]),
                    float(result.recovery_frequency[b, j]),
                    int(result.num_recoveries[b, j]),
                    int(result.num_compromises[b, j]),
                )
                reference = (
                    scalar.average_cost,
                    scalar.time_to_recovery,
                    scalar.recovery_frequency,
                    scalar.num_recoveries,
                    scalar.num_compromises,
                )
                rep.attempted += 1
                if batch != reference:
                    self.fail(
                        rep,
                        f"N={n1} {name} episode {b} node {j} seed {seed}: "
                        f"batch {batch} != scalar {reference}",
                    )


def _f_one(n1: int) -> int:
    return 1


class ClosedLoopSweep(Workload):
    """Table 7: the closed two-level loop, smax = 7, n1 in {4, 6}.

    100 envs x 150 steps per cell; cells are TOLERANCE with the Lagrangian
    and the LP replication strategies (identified at set-up through the
    policy cache), TOLERANCE with threshold replication, no-recovery and
    periodic.  Work unit: node-steps simulated (slots x envs x steps).
    """

    name = "closedloop-sweep"
    NOMINAL_REP_S = 0.72
    SMAX = 7
    N1_VALUES = (4, 6)
    ENVS = 100
    HORIZON = 150

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seeds = SeedStream(seed)
        self.params = NodeParameters(p_a=0.1, p_c1=0.01, p_c2=0.05, delta_r=math.inf)
        self.observation_model = BetaBinomialObservationModel()
        self.scenario = FleetScenario.homogeneous(
            self.params,
            self.observation_model,
            num_nodes=self.SMAX,
            horizon=self.HORIZON,
            f=1,
        )
        cache_before = control.DEFAULT_POLICY_CACHE.stats()
        sysid = control.identify_replication_strategies(
            self.scenario,
            ThresholdStrategy(0.75),
            num_fit_episodes=100,
            num_eval_episodes=20,
            epsilon_a=0.5,
            seed=self.seeds(),
            initial_nodes=4,
        )
        cache_after = control.DEFAULT_POLICY_CACHE.stats()
        #: Policy-cache traffic of the set-up solves.
        self.cache_counts = {
            key: cache_after[key] - cache_before[key] for key in ("hits", "misses")
        }
        if not sysid.lp.feasible or sysid.lagrangian is None:
            raise RuntimeError("Algorithm 2 is not solvable on the fitted kernel")
        self.cells = [
            control.ClosedLoopCell(
                "tolerance-lagrangian", ThresholdStrategy(0.75), sysid.lagrangian.strategy
            ),
            control.ClosedLoopCell("tolerance-lp", ThresholdStrategy(0.75), sysid.lp.strategy),
            control.ClosedLoopCell(
                "tolerance-threshold", ThresholdStrategy(0.75), ReplicationThresholdStrategy(1)
            ),
            control.ClosedLoopCell(
                "no-recovery",
                NoRecoveryStrategy(),
                None,
                enforce_invariant=False,
                respect_recovery_limit=False,
            ),
            control.ClosedLoopCell(
                "periodic",
                PeriodicStrategy(25.0),
                None,
                enforce_invariant=False,
                respect_recovery_limit=False,
            ),
        ]
        #: The (n1, cell) pair replayed on the scalar reference (which costs
        #: about three sweeps, so once per run); it differs between seeds.
        self.parity_pair = (
            self.N1_VALUES[seed % len(self.N1_VALUES)],
            self.cells[(seed // len(self.N1_VALUES)) % len(self.cells)],
        )
        self._checked = False

    def repetition(self) -> Rep:
        seed = self.seeds()
        start = _clock()
        table = control.closed_loop_sweep(
            self.N1_VALUES,
            self.cells,
            self.params,
            self.observation_model,
            smax=self.SMAX,
            num_envs=self.ENVS,
            horizon=self.HORIZON,
            seed=seed,
            tolerance_threshold=_f_one,
        )
        seconds = (_clock() - start) / 1e9
        work = len(table) * self.SMAX * self.ENVS * self.HORIZON
        return Rep(seconds, work, outputs=(seed, table))

    def check(self, rep: Rep) -> None:
        if self._checked:
            return
        self._checked = True
        seed, table = rep.outputs
        n1, cell = self.parity_pair
        reference = control.TwoLevelController(
            self.scenario,
            self.ENVS,
            cell.recovery,
            replication_strategy=cell.replication,
            initial_nodes=n1,
            k=1,
            enforce_invariant=cell.enforce_invariant,
            respect_recovery_limit=cell.respect_recovery_limit,
        ).run_scalar_reference(seed=seed)
        batch = table[(n1, cell.name)]
        differs = np.zeros(self.ENVS, dtype=bool)
        for name in _TWO_LEVEL_FIELDS:
            differs |= getattr(batch, name) != getattr(reference, name)
        rep.attempted += self.ENVS
        for episode in np.flatnonzero(differs):
            self.fail(
                rep,
                f"n1={n1} {cell.name} seed {seed}: episode {episode} differs "
                "from the scalar reference",
            )


class ServiceSoak(Workload):
    """The decision service over its wire path, in process, with churn.

    One closed-loop client.  Each repetition is a wave of 40 fleets (25
    episodes x 10 nodes, horizon 60) registered as scenario-v1 documents
    through :meth:`DecisionServer.handle_request_line`, ticked round-robin
    one tick per request; sessions then read their result and close, except
    one in four, which closes at mid-horizon without reading a result.  The
    timed window is the whole wave (register, tick, result and close
    requests); a tick's latency is ``handle_request_line`` plus encoding
    the response.  Work unit: node decisions delivered.
    """

    name = "service-soak"
    NOMINAL_REP_S = 1.1
    FLEETS = 40
    EPISODES = 25
    NODES = 10
    HORIZON = 60
    EARLY_CLOSE_EVERY = 4
    #: Full-horizon sessions per wave replayed on a direct controller run.
    PARITY_SAMPLES = 2

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seeds = SeedStream(seed)
        self.rng = np.random.default_rng(seed)
        params = NodeParameters(p_a=0.1, p_c1=1e-5, p_c2=1e-3, p_u=0.02, eta=2.0)
        self.scenario = FleetScenario.homogeneous(
            params,
            BetaBinomialObservationModel(),
            num_nodes=self.NODES,
            horizon=self.HORIZON,
            f=1,
        )
        self.document = scenario_to_mapping(self.scenario)
        # The server is driven in process only: its socket is bound but
        # never served, so loopback traffic stays out of the numbers.
        self.server = DecisionServer(("127.0.0.1", 0))
        #: Encodes every response, as the server's connection handler does.
        self.encode_response = json.dumps

    @staticmethod
    def _request(op: str, **fields) -> str:
        return json.dumps({"schema": DECISION_SCHEMA, "op": op, **fields})

    def repetition(self) -> Rep:
        handle = self.server.handle_request_line
        encode = self.encode_response
        service = self.server.service
        rows_before, advances_before = service.node_decisions, service.engine_calls
        latencies: list[int] = []
        # Register, close and result responses; tick responses only if failed.
        responses: list[dict] = []
        failed_ticks = 0
        tick_bytes = 0
        ticks_delivered = 0

        start = _clock()
        sessions: list[tuple[int, str]] = []
        for _ in range(self.FLEETS):
            seed = self.seeds()
            run = {"episodes": self.EPISODES, "seed": seed, "threshold": 0.75, "beta": 1}
            response = handle(
                self._request("register", scenario={"scenario": self.document, "run": run})
            )
            encode(response)
            responses.append(response)
            if response["ok"]:
                sessions.append((seed, response["session"]))
        ticks = [self._request("tick", session=sid) for _, sid in sessions]
        live = list(range(len(sessions)))
        for t in range(self.HORIZON):
            for i in live:
                begin = _clock()
                response = handle(ticks[i])
                encoded = encode(response)
                latencies.append(_clock() - begin)
                if response["ok"]:
                    ticks_delivered += len(response["events"])
                    tick_bytes += len(encoded)
                else:
                    failed_ticks += 1
                    responses.append(response)
            if t == self.HORIZON // 2 - 1:
                early = set(live[:: self.EARLY_CLOSE_EVERY])
                for i in sorted(early):
                    response = handle(self._request("close", session=sessions[i][1]))
                    encode(response)
                    responses.append(response)
                live = [i for i in live if i not in early]
        results: dict[int, str] = {}
        for i in live:
            response = handle(self._request("result", session=sessions[i][1]))
            results[sessions[i][0]] = encode(response)
            responses.append(response)
            response = handle(self._request("close", session=sessions[i][1]))
            encode(response)
            responses.append(response)
        seconds = (_clock() - start) / 1e9

        decisions = ticks_delivered * self.EPISODES * self.NODES
        counts = {
            "decisions": decisions,
            "tick_bytes": tick_bytes,
            "rows_stepped": service.node_decisions - rows_before,
            "cohort_advances": service.engine_calls - advances_before,
        }
        return Rep(
            seconds,
            decisions,
            attempted=len(latencies) + len(responses) - failed_ticks,
            latencies_ns=latencies,
            counts=counts,
            outputs=(responses, results),
        )

    def check(self, rep: Rep) -> None:
        responses, results = rep.outputs
        for response in responses:
            if not response["ok"]:
                self.fail(rep, f"{response.get('op')} answered {response['error']}")
        rep.counts["cohorts_retained"] = self.server.service.stats()["cohorts"]
        ok_results = sorted(seed for seed, text in results.items() if json.loads(text)["ok"])
        sample_size = min(self.PARITY_SAMPLES, len(ok_results))
        for seed in self.rng.choice(ok_results, size=sample_size, replace=False):
            served = json.loads(results[seed])["result"]["episodes"]
            direct = control.TwoLevelController(
                self.scenario,
                num_envs=self.EPISODES,
                recovery_policy=ThresholdStrategy(0.75),
                replication_strategy=ReplicationThresholdStrategy(1),
            ).run(seed=int(seed))
            if any(served[name] != getattr(direct, name).tolist() for name in _TWO_LEVEL_FIELDS):
                self.fail(rep, f"session seed {seed}: served result differs from a direct run")

    def close(self) -> None:
        self.server.server_close()


class ConsensusChurn(Workload):
    """Fig. 10: MinBFT mirrored from the two-level controller under churn.

    10-slot bank, horizon 35, 16 clients x pipeline 4, 20 protocol ticks per
    controller step, at the fixed seed :attr:`SEED` in every run: the work of
    one run differs several-fold between seeds (seed 0 completes 6208
    client requests, seed 3 only 896), so a per-run seed would measure the
    seed rather than the code.  Work unit: client requests completed.
    """

    name = "consensus-churn"
    NOMINAL_REP_S = 9.6
    #: One seed per run, so the timed runs need no warm-up of their own.
    WARM_UP = False
    SEED = 0

    def __init__(self, seed: int) -> None:
        super().__init__()
        scenario = FleetScenario.homogeneous(
            NodeParameters(p_a=0.1),
            BetaBinomialObservationModel(),
            num_nodes=10,
            horizon=35,
            f=1,
        )
        self.fleet = control.ConsensusBackedFleet(
            scenario,
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
            num_clients=16,
            pipeline=4,
            ticks_per_step=20,
            deadline_ticks=30,
        )
        self._first: tuple | None = None

    def repetition(self) -> Rep:
        start = _clock()
        try:
            result = self.fleet.run(seed=self.SEED)
        except control.ConsensusSafetyError as error:
            return Rep((_clock() - start) / 1e9, 0, outputs=error)
        seconds = (_clock() - start) / 1e9
        stats = result.workload
        network = self.fleet.cluster.network
        completed = int(stats["completed_requests"])
        counts = {
            "requests_completed": completed,
            "messages_delivered": network.messages_delivered,
            "messages_dropped": network.messages_dropped,
            "deadline_misses": int(stats["due_requests"] - stats["served_requests"]),
        }
        return Rep(seconds, completed, counts=counts, outputs=result)

    def check(self, rep: Rep) -> None:
        rep.attempted += 1
        result = rep.outputs
        if isinstance(result, control.ConsensusSafetyError):
            self.fail(rep, str(result))
            return
        if not result.audits or not result.safety_ok:
            self.fail(rep, "a safety audit failed or none ran")
            return
        fingerprint = (
            tuple(sorted(result.workload.items())),
            tuple(getattr(result.controller, name).tobytes() for name in _TWO_LEVEL_FIELDS),
            tuple((audit.ok, tuple(audit.audited)) for audit in result.audits),
            result.recoveries,
            result.evictions,
            result.additions,
            result.compromises,
            result.final_membership,
            rep.counts["messages_delivered"],
        )
        if self._first is None:
            self._first = fingerprint
        elif fingerprint != self._first:
            self.fail(rep, "a repetition at the same seed differs from the first")


#: Workload name -> workload class.
WORKLOADS = {
    cls.name: cls for cls in (OpenLoopEval, ClosedLoopSweep, ServiceSoak, ConsensusChurn)
}
