"""The fused service tick: one loop per cohort, the encoder, and register-time checks.

What this suite pins down about :mod:`repro.serve`:

* **one loop per cohort** — all sessions of a cohort share ONE
  :class:`~repro.control.TwoLevelLoop` whatever their configurations (one
  ``pre_step`` per tick for k distinct configurations or a custom policy),
  and every session stays bit-identical, event for event, to a direct
  ``TwoLevelController.run(seed=seed)``;
* **the encoder** — ``encode_event`` serializes byte for byte what the
  per-row reference encoder below produced, over recoveries, evictions,
  emergency and capped adds, ``activated == -1`` and class-aware
  ``add_class``;
* **finished cohorts** — the fused engine state is freed at the horizon
  while the sessions stay open, and results are still exact;
* **named errors** — bad seeds and malformed numeric wire fields answer
  ``bad-request``/``invalid-scenario``, never ``internal-error``, and a
  rejected registration leaves its would-be cohort mates untouched.
"""

from __future__ import annotations

import json
import weakref

import numpy as np
import pytest

from repro.control import TwoLevelController, TwoLevelLoop
from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.core.strategies import (
    ClassPreferenceReplicationStrategy,
    MixedReplicationStrategy,
)
from repro.envs.policies import StrategyPolicy
from repro.serve import DECISION_SCHEMA, DecisionServer, DecisionService, ServiceError
from repro.serve import encode_event
from repro.sim import FleetScenario, NodeClass
from repro.sim.scenario_io import scenario_to_mapping

PARAMS = NodeParameters(p_a=0.1, p_c1=1e-5, p_c2=1e-3, p_u=0.02, eta=2.0)

RESULT_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)

EVENT_FIELDS = (
    "executed_recoveries",
    "crashed",
    "failed",
    "activated",
    "active",
    "available",
)

DECISION_FIELDS = (
    "state",
    "add_node",
    "emergency_add",
    "evicted",
    "add_probability",
    "capped",
    "node_count_after_eviction",
    "add_class",
    "action_probabilities",
)


def _reference_slot_lists(mask):
    return [[int(j) for j in np.flatnonzero(row)] for row in mask]


def _reference_encode_event(event):
    """The per-row encoder ``encode_event`` replaced, kept as its oracle."""
    decision = event.decision
    batch = event.active.shape[0]
    add_class = (
        decision.add_class
        if decision.add_class is not None
        else np.full(batch, -1, dtype=np.int64)
    )
    return {
        "t": int(event.t),
        "recoveries": _reference_slot_lists(event.executed_recoveries),
        "evicted": _reference_slot_lists(event.crashed),
        "added": [int(j) for j in event.activated],
        "add": [bool(a) for a in decision.add_node],
        "emergency": [bool(e) for e in decision.emergency_add],
        "add_class": [int(c) for c in add_class],
        "state": [int(s) for s in decision.state],
        "node_counts": [int(n) for n in event.active.sum(axis=1)],
        "available": [bool(a) for a in event.available],
    }


def _scenario(horizon=16, num_nodes=6):
    return FleetScenario.homogeneous(
        PARAMS,
        BetaBinomialObservationModel(),
        num_nodes=num_nodes,
        horizon=horizon,
        f=1,
    )


def _crashy_mixed_scenario(horizon=30):
    """Two classes with frequent crashes: evictions and emergency adds."""
    classes = [
        NodeClass(
            "web",
            NodeParameters(p_a=0.1, p_c1=1e-3, p_c2=0.05, p_u=0.02, eta=2.0),
            BetaBinomialObservationModel(),
            count=4,
        ),
        NodeClass(
            "db",
            NodeParameters(p_a=0.2, p_c1=1e-3, p_c2=0.05, p_u=0.05, eta=3.0),
            BetaBinomialObservationModel(compromised_alpha=1.5),
            count=4,
        ),
    ]
    return FleetScenario.mixed(classes, horizon=horizon, f=1)


def _class_aware(kappa):
    """Adds class ``db``; stochastic, so it consumes the system seed streams."""
    return ClassPreferenceReplicationStrategy(
        MixedReplicationStrategy(
            ReplicationThresholdStrategy(0), ReplicationThresholdStrategy(6), kappa
        ),
        preferred="db",
        class_names=("web", "db"),
    )


def _controller(scenario, num_envs, replication=None, recovery=None):
    return TwoLevelController(
        scenario,
        num_envs=num_envs,
        recovery_policy=recovery if recovery is not None else ThresholdStrategy(0.75),
        replication_strategy=(
            replication if replication is not None else ReplicationThresholdStrategy(1)
        ),
    )


def _assert_event_equal(ours, theirs):
    assert ours.t == theirs.t
    for name in EVENT_FIELDS:
        np.testing.assert_array_equal(
            getattr(ours, name), getattr(theirs, name), err_msg=name
        )
    for name in DECISION_FIELDS:
        mine, direct = getattr(ours.decision, name), getattr(theirs.decision, name)
        if direct is None:
            assert mine is None, name
        else:
            np.testing.assert_array_equal(mine, direct, err_msg=name)


def _assert_result_equal(ours, theirs):
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(ours, name), getattr(theirs, name), err_msg=name
        )
    if theirs.class_average_cost is None:
        assert ours.class_average_cost is None
        return
    for label in theirs.class_average_cost:
        np.testing.assert_array_equal(
            ours.class_average_cost[label], theirs.class_average_cost[label]
        )
        np.testing.assert_array_equal(
            ours.class_recovery_frequency[label],
            theirs.class_recovery_frequency[label],
        )


def _serve_to_horizon(service, registrations, horizon):
    """Register ``(controller, seed)`` pairs, tick all to the horizon."""
    sessions = [service.register_controller(c, seed=s) for c, s in registrations]
    events = {sid: [] for sid in sessions}
    for _ in range(horizon):
        for sid in sessions:
            events[sid].extend(service.tick(sid))
    return sessions, events


def _direct(controller_factory, seed):
    events = []
    result = controller_factory().run(seed=seed, on_step=events.append)
    return result, events


@pytest.fixture()
def pre_step_calls(monkeypatch):
    """Count ``TwoLevelLoop.pre_step`` calls (the control-plane entry)."""
    calls = {"n": 0}
    original = TwoLevelLoop.pre_step

    def counted(self, observation):
        calls["n"] += 1
        return original(self, observation)

    monkeypatch.setattr(TwoLevelLoop, "pre_step", counted)
    return calls


class TestOneLoopPerCohort:
    def test_shared_configuration_is_one_loop_call_per_tick(self, pre_step_calls):
        scenario = _scenario(horizon=12)
        service = DecisionService()
        registrations = [(_controller(scenario, b), seed) for b, seed in ((3, 1), (2, 2), (4, 3))]
        sessions, _ = _serve_to_horizon(service, registrations, scenario.horizon)
        assert pre_step_calls["n"] == scenario.horizon
        assert service.engine_calls == scenario.horizon
        assert service.stats()["engine_calls"] == scenario.horizon
        for sid, (controller, seed) in zip(sessions, registrations):
            direct = _controller(scenario, controller.num_envs).run(seed=seed)
            _assert_result_equal(service.result(sid), direct)

    def test_k_configurations_are_one_loop_call_per_tick(self, pre_step_calls):
        scenario = _scenario(horizon=10)
        service = DecisionService()
        betas = (1, 2, 1, 3, 2)
        registrations = [
            (_controller(scenario, 2, ReplicationThresholdStrategy(beta)), seed)
            for seed, beta in enumerate(betas)
        ]
        sessions, _ = _serve_to_horizon(service, registrations, scenario.horizon)
        assert pre_step_calls["n"] == scenario.horizon
        assert service.engine_calls == scenario.horizon
        for sid, (seed, beta) in zip(sessions, enumerate(betas)):
            direct = _controller(scenario, 2, ReplicationThresholdStrategy(beta)).run(seed=seed)
            _assert_result_equal(service.result(sid), direct)

    def test_interleaved_groups_replay_direct_runs_event_for_event(self):
        scenario = _scenario(horizon=14)
        service = DecisionService()
        # (episodes, seed, beta, threshold): two groups registered in
        # interleaved order, so neither group's sessions are adjacent.
        specs = [(3, 4, 1, 0.75), (2, 5, 2, 0.6), (4, 6, 1, 0.75), (1, 7, 2, 0.6)]

        def factory(b, beta, threshold):
            return lambda: _controller(
                scenario, b, ReplicationThresholdStrategy(beta), ThresholdStrategy(threshold)
            )

        registrations = [
            (factory(b, beta, threshold)(), seed) for b, seed, beta, threshold in specs
        ]
        sessions, events = _serve_to_horizon(service, registrations, scenario.horizon)
        for sid, (b, seed, beta, threshold) in zip(sessions, specs):
            direct_result, direct_events = _direct(factory(b, beta, threshold), seed)
            assert len(events[sid]) == len(direct_events)
            for ours, theirs in zip(events[sid], direct_events):
                _assert_event_equal(ours, theirs)
            _assert_result_equal(service.result(sid), direct_result)

    def test_stochastic_class_aware_group_keeps_each_seed_stream(self):
        scenario = _crashy_mixed_scenario(horizon=20)
        service = DecisionService()
        specs = [(3, 11), (2, 12), (4, 13)]
        registrations = [
            (_controller(scenario, b, _class_aware(0.5)), seed) for b, seed in specs
        ]
        sessions, events = _serve_to_horizon(service, registrations, scenario.horizon)
        for sid, (b, seed) in zip(sessions, specs):
            direct_result, direct_events = _direct(
                lambda: _controller(scenario, b, _class_aware(0.5)), seed
            )
            for ours, theirs in zip(events[sid], direct_events):
                _assert_event_equal(ours, theirs)
            _assert_result_equal(service.result(sid), direct_result)

    def test_custom_policy_shares_the_loop_and_equals_a_direct_run(self, pre_step_calls):
        class CustomPolicy:
            """A VectorPolicy that is no table data: it acts on its own rows."""

            def __init__(self):
                self.inner = StrategyPolicy(ThresholdStrategy(0.75))

            def act(self, observation, rng=None):
                return self.inner.act(observation, rng)

        scenario = _scenario(horizon=8)
        custom = _controller(scenario, 2, recovery=CustomPolicy())
        service = DecisionService()
        registrations = [
            (custom, 1),
            (_controller(scenario, 2), 2),
            (_controller(scenario, 3), 3),
        ]
        sessions, _ = _serve_to_horizon(service, registrations, scenario.horizon)
        assert pre_step_calls["n"] == scenario.horizon
        direct = _controller(scenario, 2).run(seed=1)
        _assert_result_equal(service.result(sessions[0]), direct)
        for sid, (b, seed) in zip(sessions[1:], ((2, 2), (3, 3))):
            _assert_result_equal(service.result(sid), _controller(scenario, b).run(seed=seed))


class TestEncoder:
    def test_encoder_is_byte_equal_to_the_per_row_reference(self):
        scenario = _crashy_mixed_scenario(horizon=30)
        service = DecisionService()
        registrations = [
            (_controller(scenario, 6, _class_aware(0.5)), 3),
            (_controller(scenario, 6, _class_aware(0.9)), 3),
            (_controller(scenario, 5, _class_aware(0.9)), 8),
            (_controller(scenario, 4, ReplicationThresholdStrategy(2)), 9),
        ]
        _, events = _serve_to_horizon(service, registrations, scenario.horizon)
        every = [event for stream in events.values() for event in stream]
        # The events cover every encoded case.
        assert any(e.executed_recoveries.any() for e in every)
        assert any(e.crashed.any() for e in every)
        assert any(e.decision.emergency_add.any() for e in every)
        assert any(e.decision.capped.any() for e in every)
        assert any((e.activated == -1).any() for e in every)
        assert any(
            e.decision.add_class is not None and (e.decision.add_class >= 0).any()
            for e in every
        )
        assert any(e.decision.add_class is None for e in every)
        for event in every:
            assert json.dumps(encode_event(event)) == json.dumps(
                _reference_encode_event(event)
            )


class TestFinishedCohortRelease:
    def test_engine_state_is_freed_at_the_horizon(self):
        scenario = _scenario(horizon=9)
        service = DecisionService(profile=True)
        s1 = service.register_controller(_controller(scenario, 3), seed=5)
        s2 = service.register_controller(_controller(scenario, 2), seed=6)
        service.tick(s1)
        cohort = service._sessions[s1].cohort
        sim = weakref.ref(cohort.sim)
        service.tick(s1, count=scenario.horizon - 1)
        assert sim() is None
        assert cohort.sim is None and cohort._forced is None
        # Still open, still exact, still profiled.
        service.tick(s2, count=scenario.horizon)
        for sid, (b, seed) in ((s1, (3, 5)), (s2, (2, 6))):
            result = service.result(sid)
            _assert_result_equal(result, _controller(scenario, b).run(seed=seed))
            assert result.profile is not None and result.profile.steps == scenario.horizon
        with pytest.raises(ServiceError) as excinfo:
            service.tick(s1)
        assert excinfo.value.name == "session-done"


class TestRegisterTimeChecks:
    def test_bad_seed_is_rejected_and_does_not_poison_the_cohort(self):
        scenario = _scenario(horizon=10)
        document = scenario_to_mapping(scenario)
        service = DecisionService()
        good = service.register_document(document, overrides={"episodes": 3, "seed": 4})
        with pytest.raises(ServiceError) as excinfo:
            service.register_document(document, overrides={"episodes": 2, "seed": -1})
        assert excinfo.value.name == "bad-request"
        with pytest.raises(ServiceError) as excinfo:
            service.register_controller(_controller(scenario, 2), seed=-1)
        assert excinfo.value.name == "bad-request"
        sid = good["session"]
        service.tick(sid, count=scenario.horizon)
        _assert_result_equal(service.result(sid), _controller(scenario, 3).run(seed=4))


def _wire(server, **request):
    return server.handle_request_line(json.dumps({"schema": DECISION_SCHEMA, **request}))


@pytest.fixture()
def wire_server():
    server = DecisionServer(("127.0.0.1", 0))
    yield server
    server.server_close()


_DOCUMENT = scenario_to_mapping(_scenario(horizon=6))


def _register(**run):
    return {"op": "register", "scenario": {**_DOCUMENT, "run": {"episodes": 2, **run}}}


@pytest.mark.parametrize(
    ("request_fields", "name"),
    [
        pytest.param({"op": "tick", "count": "abc"}, "bad-request", id="count-string"),
        pytest.param({"op": "tick", "count": None}, "bad-request", id="count-null"),
        pytest.param({"op": "tick", "count": [1]}, "bad-request", id="count-list"),
        pytest.param({"op": "tick", "count": True}, "bad-request", id="count-bool"),
        pytest.param({"op": "tick", "count": 0}, "bad-request", id="count-zero"),
        pytest.param(
            {"op": "register", "scenario": _DOCUMENT, "overrides": [1, 2]},
            "bad-request",
            id="overrides-list",
        ),
        pytest.param(
            {"op": "register", "scenario": _DOCUMENT, "overrides": "seed=1"},
            "bad-request",
            id="overrides-string",
        ),
        pytest.param(_register(episodes="many"), "bad-request", id="episodes"),
        pytest.param(_register(episodes=1.5), "bad-request", id="episodes-fraction"),
        pytest.param(_register(seed="x"), "bad-request", id="seed-string"),
        pytest.param(_register(seed=-1), "bad-request", id="seed-negative"),
        pytest.param(_register(seed=[3]), "bad-request", id="seed-list"),
        pytest.param(_register(threshold="high"), "bad-request", id="threshold"),
        pytest.param(_register(threshold=5.0), "bad-request", id="threshold-range"),
        pytest.param(_register(beta={"b": 1}), "bad-request", id="beta"),
        pytest.param(_register(k="one"), "bad-request", id="k"),
        pytest.param(_register(k=0), "invalid-scenario", id="k-range"),
        pytest.param(_register(initial_nodes="4"), "bad-request", id="initial-nodes"),
        pytest.param(
            _register(replication={"type": "threshold", "beta": "x"}),
            "bad-request",
            id="replication-beta",
        ),
        pytest.param(
            _register(replication={"type": "lp", "fit_episodes": "x"}),
            "bad-request",
            id="replication-fit-episodes",
        ),
        pytest.param(
            _register(replication={"type": "lp", "fit_episodes": 0}),
            "bad-request",
            id="replication-fit-episodes-zero",
        ),
        pytest.param(
            _register(replication={"type": "lp", "fit_episodes": 4, "epsilon_a": "x"}),
            "bad-request",
            id="replication-epsilon-string",
        ),
        pytest.param(
            _register(replication={"type": "lp", "fit_episodes": 4, "epsilon_a": 7.0}),
            "invalid-scenario",
            id="replication-epsilon-range",
        ),
        pytest.param(
            {"op": "register", "scenario": [1, 2]}, "invalid-scenario", id="scenario-list"
        ),
        pytest.param(
            {"op": "register", "scenario": 42}, "invalid-scenario", id="scenario-number"
        ),
        pytest.param(
            {"op": "register", "scenario": "no/such/scenario.yaml"},
            "invalid-scenario",
            id="scenario-missing-file",
        ),
    ],
)
def test_malformed_wire_fields_get_named_errors(wire_server, request_fields, name):
    if request_fields["op"] == "tick":
        registered = _wire(wire_server, **_register(seed=1))
        assert registered["ok"]
        request_fields = {**request_fields, "session": registered["session"]}
    response = _wire(wire_server, **request_fields)
    assert not response["ok"]
    assert response["error"]["name"] == name, response["error"]
