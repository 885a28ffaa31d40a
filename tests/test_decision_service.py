"""The decision service: bit-parity, cohort fusing, protocol and server.

The serving contract (:mod:`repro.serve`) this suite pins down:

* **bit-parity** — every session's per-tick decisions and final result are
  identical to a direct ``TwoLevelController.run(seed=seed)`` on the same
  ``SeedSequence`` tree, with the fleets fused into shared engine batches
  (asserted field for field, event for event — not statistically);
* **fusing semantics** — one fused engine call per tick regardless of how
  many compatible sessions are connected; ``coalesce=False`` (the
  benchmark's serial-dispatch baseline) dispatches per fleet and stays
  bit-identical too; sessions registering after the first tick open a new
  cohort; closed sessions ghost-step inside a sealed cohort without
  perturbing the others;
* **decision-v1 protocol** — request validation, named error responses
  (never tracebacks), sparse event encoding;
* **socket path** — register/tick/result/close/stats/shutdown over NDJSON
  through :class:`ServiceClient` against a live :class:`DecisionServer`,
  including the ``python -m repro serve`` subcommand end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.serve.service as service_module
from repro.control import TwoLevelController
from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.serve import (
    DECISION_SCHEMA,
    DecisionServer,
    DecisionService,
    ServiceClient,
    ServiceError,
    encode_event,
)
from repro.serve.protocol import validate_request
from repro.sim import BurstyAdversary, FleetScenario, NodeClass
from repro.sim.kernels import PHASES, EngineProfile
from repro.sim.scenario_io import scenario_to_mapping

PARAMS = NodeParameters(p_a=0.1, p_c1=1e-5, p_c2=1e-3, p_u=0.02, eta=2.0)

#: The per-episode result fields compared bit for bit.
RESULT_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)


def _scenario(num_nodes=6, horizon=20, adversary=None):
    return FleetScenario.homogeneous(
        PARAMS,
        BetaBinomialObservationModel(),
        num_nodes=num_nodes,
        horizon=horizon,
        f=1,
        adversary=adversary,
    )


def _mixed_scenario(horizon=18):
    classes = [
        NodeClass(
            name="web",
            params=PARAMS,
            observation_model=BetaBinomialObservationModel(),
            count=3,
        ),
        NodeClass(
            name="db",
            params=NodeParameters(p_a=0.2, p_u=0.05, eta=3.0),
            observation_model=BetaBinomialObservationModel(compromised_alpha=1.5),
            count=3,
        ),
    ]
    return FleetScenario.mixed(classes, horizon=horizon, f=1)


def _controller(scenario, num_envs, beta=1, threshold=0.75):
    return TwoLevelController(
        scenario,
        num_envs=num_envs,
        recovery_policy=ThresholdStrategy(threshold),
        replication_strategy=ReplicationThresholdStrategy(beta),
    )


def _assert_results_equal(service_result, direct_result):
    for field in RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(service_result, field),
            getattr(direct_result, field),
            err_msg=field,
        )


def _assert_events_equal(service_events, direct_events):
    assert len(service_events) == len(direct_events)
    for ours, theirs in zip(service_events, direct_events):
        assert ours.t == theirs.t
        np.testing.assert_array_equal(ours.executed_recoveries, theirs.executed_recoveries)
        np.testing.assert_array_equal(ours.crashed, theirs.crashed)
        np.testing.assert_array_equal(ours.failed, theirs.failed)
        np.testing.assert_array_equal(ours.activated, theirs.activated)
        np.testing.assert_array_equal(ours.active, theirs.active)
        np.testing.assert_array_equal(ours.available, theirs.available)
        np.testing.assert_array_equal(ours.decision.state, theirs.decision.state)
        np.testing.assert_array_equal(ours.decision.add_node, theirs.decision.add_node)
        np.testing.assert_array_equal(
            ours.decision.emergency_add, theirs.decision.emergency_add
        )


def _direct_run(scenario, num_envs, seed, beta=1, threshold=0.75):
    events = []
    controller = _controller(scenario, num_envs, beta=beta, threshold=threshold)
    result = controller.run(seed=seed, on_step=events.append)
    return result, events


class TestFusedParity:
    def test_fused_sessions_replay_direct_runs_bit_for_bit(self):
        scenario = _scenario()
        service = DecisionService()
        specs = [(4, 7, 1), (3, 11, 2), (2, 0, 1)]  # (episodes, seed, beta)
        sessions = [
            service.register_controller(_controller(scenario, b, beta=beta), seed=seed)
            for b, seed, beta in specs
        ]
        # Interleaved pacing: one session races ahead, the others catch up.
        events = {sessions[0]: service.tick(sessions[0], count=scenario.horizon)}
        for sid in sessions[1:]:
            events[sid] = service.tick(sid, count=scenario.horizon)
        # ONE fused engine call per tick for the whole cohort.
        assert service.engine_calls == scenario.horizon
        assert service.stats()["cohorts"] == 1
        for sid, (b, seed, beta) in zip(sessions, specs):
            direct_result, direct_events = _direct_run(scenario, b, seed, beta=beta)
            _assert_events_equal(events[sid], direct_events)
            _assert_results_equal(service.result(sid), direct_result)

    def test_serial_dispatch_is_also_bit_identical(self):
        scenario = _scenario(horizon=15)
        service = DecisionService(coalesce=False)
        s1 = service.register_controller(_controller(scenario, 3), seed=5)
        s2 = service.register_controller(_controller(scenario, 3), seed=6)
        service.tick(s1, count=scenario.horizon)
        service.tick(s2, count=scenario.horizon)
        # Per-fleet dispatch: one engine call per tick per session.
        assert service.engine_calls == 2 * scenario.horizon
        assert service.stats()["cohorts"] == 2
        for sid, seed in ((s1, 5), (s2, 6)):
            direct_result, _ = _direct_run(scenario, 3, seed)
            _assert_results_equal(service.result(sid), direct_result)

    def test_dynamic_adversary_cohort_is_bit_identical(self):
        scenario = _scenario(
            num_nodes=5, horizon=15, adversary=BurstyAdversary()
        )
        service = DecisionService()
        s1 = service.register_controller(_controller(scenario, 4), seed=2)
        s2 = service.register_controller(_controller(scenario, 2), seed=9)
        service.tick(s1, count=scenario.horizon)
        service.tick(s2, count=scenario.horizon)
        assert service.engine_calls == scenario.horizon
        for sid, (b, seed) in ((s1, (4, 2)), (s2, (2, 9))):
            direct_result, _ = _direct_run(scenario, b, seed)
            _assert_results_equal(service.result(sid), direct_result)

    def test_mixed_fleet_cohort_keeps_per_class_metrics_exact(self):
        scenario = _mixed_scenario()
        service = DecisionService()
        sid = service.register_controller(_controller(scenario, 5), seed=4)
        service.tick(sid, count=scenario.horizon)
        result = service.result(sid)
        direct = _controller(scenario, 5).run(seed=4)
        _assert_results_equal(result, direct)
        for label in direct.class_average_cost:
            np.testing.assert_array_equal(
                result.class_average_cost[label], direct.class_average_cost[label]
            )
            np.testing.assert_array_equal(
                result.class_recovery_frequency[label],
                direct.class_recovery_frequency[label],
            )

    def test_registration_after_first_tick_opens_a_new_cohort(self):
        scenario = _scenario(horizon=12)
        service = DecisionService()
        s1 = service.register_controller(_controller(scenario, 2), seed=1)
        service.tick(s1)  # seals the first cohort
        s2 = service.register_controller(_controller(scenario, 2), seed=2)
        assert service.stats()["cohorts"] == 2
        service.tick(s1, count=scenario.horizon - 1)
        service.tick(s2, count=scenario.horizon)
        for sid, seed in ((s1, 1), (s2, 2)):
            direct_result, _ = _direct_run(scenario, 2, seed)
            _assert_results_equal(service.result(sid), direct_result)

    def test_closing_a_session_ghost_steps_without_perturbing_the_rest(self):
        scenario = _scenario(horizon=16)
        service = DecisionService()
        s1 = service.register_controller(_controller(scenario, 3), seed=3)
        s2 = service.register_controller(_controller(scenario, 3), seed=8)
        service.tick(s1, count=4)
        service.close(s1)
        service.tick(s2, count=scenario.horizon)
        direct_result, _ = _direct_run(scenario, 3, 8)
        _assert_results_equal(service.result(s2), direct_result)
        with pytest.raises(ServiceError) as excinfo:
            service.tick(s1)
        assert excinfo.value.name == "unknown-session"

    def test_buffered_events_are_sliced_at_delivery_only(self, monkeypatch):
        scenario = _scenario(horizon=12)
        sliced: list[tuple[str, int]] = []
        real_event_rows = service_module.event_rows

        def counting_event_rows(event, member):
            sliced.append((member.id, event.t))
            return real_event_rows(event, member)

        monkeypatch.setattr(service_module, "event_rows", counting_event_rows)
        service = DecisionService()
        lead = service.register_controller(_controller(scenario, 3), seed=4)
        lagging = service.register_controller(_controller(scenario, 2), seed=6)
        closed = service.register_controller(_controller(scenario, 2), seed=9)
        lead_events = service.tick(lead, count=scenario.horizon)
        # The lead session's ticks buffer one shared event per tick for the
        # others; none of them has been cut into rows yet.
        assert sliced == [(lead, event.t) for event in lead_events]
        service.close(closed)
        lagging_events = service.tick(lagging, count=scenario.horizon)
        assert all(member != closed for member, _ in sliced)
        assert len(sliced) == 2 * scenario.horizon
        for sid, events, (b, seed) in (
            (lead, lead_events, (3, 4)),
            (lagging, lagging_events, (2, 6)),
        ):
            direct_result, direct_events = _direct_run(scenario, b, seed)
            _assert_events_equal(events, direct_events)
            _assert_results_equal(service.result(sid), direct_result)


class TestCohortRelease:
    """A cohort lives exactly as long as one of its members is open."""

    def test_closed_cohorts_are_released(self):
        scenario = _scenario(horizon=6)
        service = DecisionService()
        first = None
        for cycle in range(4):
            sessions = [
                service.register_controller(_controller(scenario, 2), seed=seed)
                for seed in (cycle, cycle + 10)
            ]
            if first is None:
                first = weakref.ref(service._sessions[sessions[0]].cohort)
            service.tick(sessions[0], count=3)
            for sid in sessions:
                service.close(sid)
        assert service.stats()["cohorts"] == 0
        assert first() is None

    def test_cohort_survives_until_its_last_member_closes(self):
        scenario = _scenario(horizon=10)
        service = DecisionService()
        s1 = service.register_controller(_controller(scenario, 2), seed=1)
        s2 = service.register_controller(_controller(scenario, 3), seed=2)
        service.tick(s1, count=4)
        service.close(s1)
        assert service.stats()["cohorts"] == 1
        service.tick(s2, count=scenario.horizon)
        direct_result, _ = _direct_run(scenario, 3, 2)
        _assert_results_equal(service.result(s2), direct_result)
        service.close(s2)
        assert service.stats()["cohorts"] == 0

    def test_unsealed_cohort_closed_empty_is_not_reused(self):
        scenario = _scenario(horizon=8)
        service = DecisionService()
        service.close(service.register_controller(_controller(scenario, 2), seed=1))
        assert service.stats()["cohorts"] == 0
        sid = service.register_controller(_controller(scenario, 2), seed=5)
        service.tick(sid, count=scenario.horizon)
        assert service.engine_calls == scenario.horizon
        direct_result, _ = _direct_run(scenario, 2, 5)
        _assert_results_equal(service.result(sid), direct_result)


class TestProfileUnderBatching:
    """``EngineProfile`` accounting stays truthful across cohort fusing."""

    def test_fused_cohort_shares_one_profile_with_one_step_per_tick(self):
        scenario = _scenario(horizon=12)
        service = DecisionService(profile=True)
        s1 = service.register_controller(_controller(scenario, 3), seed=1)
        s2 = service.register_controller(_controller(scenario, 2), seed=2)
        service.tick(s1, count=scenario.horizon)
        service.tick(s2, count=scenario.horizon)
        p1 = service.result(s1).profile
        p2 = service.result(s2).profile
        # One fused engine call per tick → the cohort accounts each tick
        # exactly once, and every member sees the same shared profile.
        assert p1 is p2
        assert p1.steps == scenario.horizon
        assert p1.total_ns > 0
        assert set(PHASES) <= set(p1.nanos)
        assert all(isinstance(ns, int) for ns in p1.nanos.values())

    def test_serial_profiles_merge_to_exact_sums(self):
        scenario = _scenario(horizon=10)
        service = DecisionService(coalesce=False, profile=True)
        sessions = [
            service.register_controller(_controller(scenario, 2), seed=seed)
            for seed in (3, 4, 5)
        ]
        profiles = []
        for sid in sessions:
            service.tick(sid, count=scenario.horizon)
            profiles.append(service.result(sid).profile)
        # Per-fleet dispatch: distinct profiles, one step per tick each.
        assert len({id(p) for p in profiles}) == len(profiles)
        assert all(p.steps == scenario.horizon for p in profiles)
        merged = EngineProfile.merge(*profiles)
        assert merged.steps == len(profiles) * scenario.horizon
        phases = set().union(*(p.nanos for p in profiles))
        for phase in phases:
            assert merged.nanos[phase] == sum(p.nanos.get(phase, 0) for p in profiles)
        assert merged.total_ns == sum(p.total_ns for p in profiles)

    def test_profile_phase_set_matches_direct_run(self):
        scenario = _scenario(horizon=8)
        service = DecisionService(profile=True)
        sid = service.register_controller(_controller(scenario, 3), seed=9)
        service.tick(sid, count=scenario.horizon)
        fused = service.result(sid).profile
        direct = _controller(scenario, 3).run(seed=9, profile=True).profile
        assert set(fused.nanos) == set(direct.nanos)
        assert fused.steps == direct.steps == scenario.horizon

    def test_unprofiled_service_attaches_no_profile(self):
        scenario = _scenario(horizon=6)
        service = DecisionService()
        sid = service.register_controller(_controller(scenario, 2), seed=0)
        service.tick(sid, count=scenario.horizon)
        assert service.result(sid).profile is None


class TestServiceErrors:
    def test_tick_past_horizon_is_a_named_error(self):
        scenario = _scenario(horizon=8)
        service = DecisionService()
        sid = service.register_controller(_controller(scenario, 2), seed=0)
        service.tick(sid, count=scenario.horizon)
        with pytest.raises(ServiceError) as excinfo:
            service.tick(sid)
        assert excinfo.value.name == "session-done"

    def test_result_before_horizon_is_a_named_error(self):
        scenario = _scenario(horizon=8)
        service = DecisionService()
        sid = service.register_controller(_controller(scenario, 2), seed=0)
        service.tick(sid, count=3)
        with pytest.raises(ServiceError) as excinfo:
            service.result(sid)
        assert excinfo.value.name == "session-not-done"

    def test_unknown_session_and_bad_count(self):
        service = DecisionService()
        with pytest.raises(ServiceError) as excinfo:
            service.tick("s999")
        assert excinfo.value.name == "unknown-session"
        scenario = _scenario(horizon=8)
        sid = service.register_controller(_controller(scenario, 2), seed=0)
        with pytest.raises(ServiceError) as excinfo:
            service.tick(sid, count=0)
        assert excinfo.value.name == "bad-request"

    def test_register_document_rejects_bad_documents_by_name(self):
        service = DecisionService()
        with pytest.raises(ServiceError) as excinfo:
            service.register_document({"schema": "repro/scenario-v9"})
        assert excinfo.value.name == "invalid-scenario"
        document = scenario_to_mapping(_scenario())
        with pytest.raises(ServiceError) as excinfo:
            service.register_document(document, overrides={"episodes": 5, "mode": "engine"})
        assert excinfo.value.name == "bad-request"
        with pytest.raises(ServiceError) as excinfo:
            service.register_document(
                document, overrides={"replication": {"type": "ppo"}}
            )
        assert excinfo.value.name == "bad-request"


class TestRegisterDocument:
    def test_document_session_matches_direct_run(self):
        scenario = _scenario(horizon=14)
        service = DecisionService()
        payload = service.register_document(
            scenario_to_mapping(scenario),
            overrides={"episodes": 4, "seed": 3, "beta": 2},
        )
        assert payload["episodes"] == 4 and payload["horizon"] == 14
        sid = payload["session"]
        service.tick(sid, count=14)
        direct_result, _ = _direct_run(scenario, 4, 3, beta=2)
        _assert_results_equal(service.result(sid), direct_result)

    def test_yaml_text_documents_register_too(self):
        yaml = pytest.importorskip("yaml")
        scenario = _scenario(horizon=10)
        text = yaml.safe_dump(
            {**scenario_to_mapping(scenario), "run": {"episodes": 3, "seed": 1}}
        )
        service = DecisionService()
        payload = service.register_document(text)
        assert payload["episodes"] == 3 and payload["seed"] == 1

    def test_wire_register_never_opens_a_server_side_path(self, tmp_path, monkeypatch):
        import builtins

        pytest.importorskip("yaml")
        path = tmp_path / "x.yaml"
        path.write_text(_scenario(horizon=6).to_yaml(), encoding="utf-8")
        opened = []
        real_open = builtins.open

        def spy_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        server = DecisionServer(("127.0.0.1", 0))
        try:
            monkeypatch.setattr(builtins, "open", spy_open)
            request = {"schema": DECISION_SCHEMA, "op": "register", "scenario": str(path)}
            response = server.handle_request_line(json.dumps(request))
        finally:
            server.server_close()
        assert not response["ok"]
        assert response["error"]["name"] == "invalid-scenario"
        assert str(path) not in opened

    def test_lp_replication_solves_through_the_policy_cache(self):
        from repro.control import PolicySolveCache

        scenario = _scenario(num_nodes=5, horizon=12)
        cache = PolicySolveCache()
        service = DecisionService(policy_cache=cache)
        document = scenario_to_mapping(scenario)
        overrides = {
            "episodes": 3,
            "seed": 2,
            "replication": {"type": "lp", "fit_episodes": 8},
        }
        service.register_document(document, overrides=overrides)
        assert cache.misses == 1 and cache.hits == 0
        # The same fitted kernel registers again as a cache hit.
        service.register_document(document, overrides=overrides)
        assert cache.misses == 1 and cache.hits == 1
        assert service.stats()["policy_cache"]["hits"] == 1


class TestProtocol:
    def test_validate_request_names_failures(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_request(["not", "a", "mapping"])
        assert excinfo.value.name == "bad-request"
        with pytest.raises(ServiceError) as excinfo:
            validate_request({"schema": "repro/decision-v2", "op": "tick"})
        assert excinfo.value.name == "schema-mismatch"
        with pytest.raises(ServiceError) as excinfo:
            validate_request({"op": "dance"})
        assert excinfo.value.name == "unknown-op"
        assert validate_request({"op": "stats"})["op"] == "stats"

    def test_encode_event_is_sparse_and_json_safe(self):
        scenario = _scenario(horizon=6)
        service = DecisionService()
        sid = service.register_controller(_controller(scenario, 3), seed=0)
        (event,) = service.tick(sid)
        payload = encode_event(event)
        json.dumps(payload)  # JSON-serializable end to end
        assert payload["t"] == 0
        assert len(payload["recoveries"]) == 3
        assert all(isinstance(row, list) for row in payload["recoveries"])
        assert payload["node_counts"] == [int(n) for n in event.active.sum(axis=1)]


class TestSocketServer:
    @pytest.fixture()
    def server(self):
        server = DecisionServer(("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_full_session_over_the_wire_matches_direct_run(self, server):
        scenario = _scenario(horizon=12)
        port = server.server_address[1]
        with ServiceClient("127.0.0.1", port) as client:
            reg = client.register(scenario_to_mapping(scenario), episodes=4, seed=3)
            assert reg["schema"] == DECISION_SCHEMA and reg["horizon"] == 12
            session = reg["session"]
            events = client.tick(session, count=12)
            assert [e["t"] for e in events] == list(range(12))
            result = client.result(session)
            stats = client.stats()
            client.close_session(session)
        direct = _controller(scenario, 4).run(seed=3)
        assert result["episodes"]["availability"] == [
            float(v) for v in direct.availability
        ]
        assert result["episodes"]["evictions"] == [int(v) for v in direct.evictions]
        assert result["metrics"]["availability"]["mean"] == pytest.approx(
            float(direct.availability.mean())
        )
        assert stats["engine_calls"] == 12

    def test_yaml_text_registers_over_the_wire(self, server):
        scenario = _scenario(horizon=8)
        yaml_text = scenario.to_yaml()
        assert isinstance(yaml_text, str)
        port = server.server_address[1]
        with ServiceClient("127.0.0.1", port) as client:
            reg = client.register(yaml_text, episodes=3, seed=4)
            session = reg["session"]
            assert reg["horizon"] == 8 and reg["episodes"] == 3
            client.tick(session, count=8)
            result = client.result(session)
        direct = _controller(scenario, 3).run(seed=4)
        assert result["episodes"]["availability"] == [
            float(v) for v in direct.availability
        ]

    def test_wire_errors_are_named_not_tracebacks(self, server):
        port = server.server_address[1]
        with ServiceClient("127.0.0.1", port) as client:
            for payload, name in (
                ({"op": "tick", "session": "s404"}, "unknown-session"),
                ({"op": "tick"}, "bad-request"),
                ({"op": "dance"}, "unknown-op"),
                ({"op": "register"}, "bad-request"),
                (
                    {"op": "register", "scenario": {"schema": "nope"}},
                    "invalid-scenario",
                ),
                ({"op": "tick", "schema": "repro/decision-v2"}, "schema-mismatch"),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.request(payload)
                assert excinfo.value.name == name

    def test_two_connections_fuse_into_one_cohort(self, server):
        scenario = _scenario(horizon=10)
        document = scenario_to_mapping(scenario)
        port = server.server_address[1]
        with ServiceClient("127.0.0.1", port) as one, ServiceClient(
            "127.0.0.1", port
        ) as two:
            a = one.register(document, episodes=3, seed=1)["session"]
            b = two.register(document, episodes=2, seed=2)["session"]
            one.tick(a, count=10)
            two.tick(b, count=10)
            stats = one.stats()
        assert stats["cohorts"] == 1
        assert stats["engine_calls"] == 10

    def test_shutdown_request_stops_the_server(self):
        server = DecisionServer(("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient("127.0.0.1", server.server_address[1]) as client:
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()


class TestServeSubcommand:
    def test_python_m_repro_serve_round_trip(self, tmp_path):
        scenario = _scenario(horizon=8)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        try:
            announcement = json.loads(process.stdout.readline())
            assert announcement["event"] == "listening"
            with ServiceClient(announcement["host"], announcement["port"]) as client:
                reg = client.register(
                    scenario_to_mapping(scenario), episodes=2, seed=0
                )
                events = client.tick(reg["session"], count=8)
                assert len(events) == 8
                client.shutdown()
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5)
