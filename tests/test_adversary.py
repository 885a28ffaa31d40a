"""The PR-9 adversary seam: bit-exactness, the zoo, and every run path.

Four layers of guarantees:

* **Seam parity (hypothesis property):** a scenario with no adversary, with
  the default :class:`~repro.sim.adversary.StaticAdversary`, and with
  ``StaticAdversary(force_dynamic=True)`` — which routes through the
  per-step dynamic-CDF construction of the step loop — produce
  bit-identical engine logs, over randomized parameters and seeds.
* **Run-path parity:** the dynamic path agrees bit-for-bit between the
  batched controller run and its scalar reference, and between serial and
  sharded (``n_jobs``) sweeps.
* **Golden snapshots:** each zoo member's fixed-seed summary metrics are
  pinned, turning the zoo into a regression suite.
* **Behavioural checks:** stealth suppresses beliefs, correlation couples
  nodes, and the emulation attacker honours the seam.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.control import TwoLevelController
from repro.control.parallel import (
    parallel_closed_loop_table,
    parallel_engine_sweep_table,
)
from repro.control.sweep import ClosedLoopCell
from repro.emulation import (
    Attacker,
    AttackerConfig,
    EmulationConfig,
    EmulationEnvironment,
    tolerance_policy,
)
from repro.sim import (
    ADVERSARY_TYPES,
    BatchRecoveryEngine,
    BurstyAdversary,
    CorrelatedAdversary,
    FleetScenario,
    StaticAdversary,
    StealthAdversary,
    adversary_from_spec,
    adversary_to_spec,
)

_MODEL = BetaBinomialObservationModel()

#: Engine log fields compared bit-for-bit.
_LOG_FIELDS = (
    "average_cost",
    "time_to_recovery",
    "recovery_frequency",
    "num_recoveries",
    "num_compromises",
    "availability",
)


def _scenario(adversary, p_a=0.08, num_nodes=3, horizon=100, delta_r=15.0):
    return FleetScenario.homogeneous(
        NodeParameters(p_a=p_a, delta_r=delta_r),
        _MODEL,
        num_nodes,
        horizon=horizon,
        f=1,
        adversary=adversary,
    )


def _run(scenario, seed, num_episodes=16, alpha=0.75):
    engine = BatchRecoveryEngine(scenario)
    return engine.run(ThresholdStrategy(alpha), num_episodes=num_episodes, seed=seed)


def _assert_logs_equal(a, b):
    for field in _LOG_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        if left is None and right is None:
            continue
        assert np.array_equal(left, right), f"{field} differs"


class TestStaticSeamBitExact:
    """The refactor must not move a single bit of the static attacker."""

    @given(
        p_a=st.floats(min_value=0.01, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_nodes=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_static_seam_reproduces_pre_refactor_logs(self, p_a, seed, num_nodes):
        scenarios = [
            _scenario(None, p_a=p_a, num_nodes=num_nodes, horizon=40),
            _scenario(StaticAdversary(), p_a=p_a, num_nodes=num_nodes, horizon=40),
            _scenario(
                StaticAdversary(force_dynamic=True),
                p_a=p_a,
                num_nodes=num_nodes,
                horizon=40,
            ),
        ]
        results = [_run(s, seed, num_episodes=8) for s in scenarios]
        _assert_logs_equal(results[0], results[1])
        _assert_logs_equal(results[0], results[2])

    def test_force_dynamic_bit_exact(self):
        r_static = _run(_scenario(None), seed=1234, num_episodes=32)
        r_dynamic = _run(
            _scenario(StaticAdversary(force_dynamic=True)),
            seed=1234,
            num_episodes=32,
        )
        _assert_logs_equal(r_static, r_dynamic)

    def test_two_level_result_parity_static_vs_seam(self):
        results = []
        for adversary in (None, StaticAdversary(force_dynamic=True)):
            controller = TwoLevelController(
                _scenario(adversary, horizon=60),
                8,
                ThresholdStrategy(0.75),
                replication_strategy=ReplicationThresholdStrategy(1),
            )
            results.append(controller.run(seed=9))
        a, b = results
        assert np.array_equal(a.availability, b.availability)
        assert np.array_equal(a.average_cost, b.average_cost)
        assert np.array_equal(a.average_nodes, b.average_nodes)
        assert np.array_equal(a.recovery_frequency, b.recovery_frequency)
        assert np.array_equal(a.additions, b.additions)
        assert np.array_equal(a.evictions, b.evictions)


class TestDynamicRunPathParity:
    """Every run path sees the same adversary uniform streams."""

    @pytest.mark.parametrize(
        "adversary", [BurstyAdversary(), CorrelatedAdversary(), StealthAdversary()]
    )
    def test_batched_vs_scalar_reference(self, adversary):
        controller = TwoLevelController(
            _scenario(adversary, horizon=50),
            6,
            ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
        )
        batched = controller.run(seed=11)
        scalar = controller.run_scalar_reference(seed=11)
        assert np.array_equal(batched.availability, scalar.availability)
        assert np.array_equal(batched.average_cost, scalar.average_cost)
        assert np.array_equal(batched.recovery_frequency, scalar.recovery_frequency)

    def test_engine_shards_match_serial(self):
        scenario = _scenario(CorrelatedAdversary(), horizon=60)
        serial = _run(scenario, seed=5, num_episodes=16)
        for n_jobs in (1, 2):
            table = parallel_engine_sweep_table(
                [("s", scenario)],
                {"thr": ThresholdStrategy(0.75)},
                num_episodes=16,
                seed=5,
                n_jobs=n_jobs,
            )
            _assert_logs_equal(serial, table[("s", "thr")])

    def test_closed_loop_shards_match_serial(self):
        scenario = _scenario(BurstyAdversary(), horizon=60)
        cell = ClosedLoopCell(
            "tol", ThresholdStrategy(0.75), ReplicationThresholdStrategy(1)
        )
        controller = TwoLevelController(
            scenario,
            12,
            ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
        )
        serial = controller.run(seed=21)
        for n_jobs in (1, 2):
            table = parallel_closed_loop_table(
                [("s", scenario)], [cell], 12, 21, 1, None, n_jobs=n_jobs
            )
            sharded = table[("s", "tol")]
            assert np.array_equal(serial.average_cost, sharded.average_cost)
            assert np.array_equal(serial.availability, sharded.availability)

    def test_predrawn_uniforms_require_adversary_buffer(self):
        scenario = _scenario(BurstyAdversary(), horizon=30)
        engine = BatchRecoveryEngine(scenario)
        uniforms = engine.draw_uniforms(3, 4)
        with pytest.raises(ValueError, match="adversary_uniforms"):
            engine.run(ThresholdStrategy(0.75), uniforms=uniforms)

    def test_population_evaluation_shares_attack_realisations(self):
        scenario = FleetScenario.single_node(
            NodeParameters(p_a=0.1), _MODEL, horizon=40, adversary=BurstyAdversary()
        )
        engine = BatchRecoveryEngine(scenario)
        costs = engine.run_threshold_population(
            np.array([[0.5], [0.75], [0.95]]), num_episodes=32, seed=7
        )
        assert costs.shape == (3,)
        assert np.isfinite(costs).all()

    def test_population_reads_predrawn_adversary_buffer(self):
        scenario = FleetScenario.single_node(
            NodeParameters(p_a=0.1), _MODEL, horizon=40, adversary=BurstyAdversary()
        )
        engine = BatchRecoveryEngine(scenario)
        thetas = np.array([[0.5], [0.75], [0.95]])
        uniforms = engine.draw_uniforms(7, 32)
        adversary_uniforms = engine.draw_adversary_uniforms(7, 32)
        predrawn = engine.run_threshold_population(
            thetas, 32, uniforms=uniforms, adversary_uniforms=adversary_uniforms
        )
        seeded = engine.run_threshold_population(thetas, num_episodes=32, seed=7)
        assert np.array_equal(predrawn, seeded)
        with pytest.raises(ValueError, match="adversary_uniforms"):
            engine.run_threshold_population(thetas, 32, uniforms=uniforms)
        with pytest.raises(ValueError, match="adversary_uniforms"):
            engine.run_threshold_population(
                thetas, 32, uniforms=uniforms, adversary_uniforms=adversary_uniforms[:16]
            )


class TestZooGoldenSnapshots:
    """Fixed seed -> pinned summary metrics, one snapshot per zoo member."""

    GOLDEN = {
        "static-forced": (
            StaticAdversary(force_dynamic=True),
            {"cost": 0.34270833333333334, "availability": 0.9084375,
             "recoveries": 1850, "compromises": 1241},
        ),
        "bursty": (
            BurstyAdversary(),
            {"cost": 0.30593750000000003, "availability": 0.93296875,
             "recoveries": 1778, "compromises": 923},
        ),
        "correlated": (
            CorrelatedAdversary(),
            {"cost": 0.506875, "availability": 0.7745312500000001,
             "recoveries": 2256, "compromises": 1665},
        ),
        "stealth": (
            StealthAdversary(),
            {"cost": 0.69296875, "availability": 0.69421875,
             "recoveries": 1407, "compromises": 1017},
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_snapshot(self, name):
        adversary, expected = self.GOLDEN[name]
        result = _run(_scenario(adversary), seed=1234, num_episodes=64)
        assert float(result.average_cost.mean()) == pytest.approx(
            expected["cost"], rel=1e-12
        )
        assert float(result.availability.mean()) == pytest.approx(
            expected["availability"], rel=1e-12
        )
        assert int(result.num_recoveries.sum()) == expected["recoveries"]
        assert int(result.num_compromises.sum()) == expected["compromises"]


class TestZooBehaviour:
    def test_stealth_suppression_degrades_detection(self):
        """Suppression hides compromises from the IDS: cost rises sharply."""
        baseline = _run(_scenario(StealthAdversary(suppression=0.0)), 42, 64)
        stealthy = _run(_scenario(StealthAdversary(suppression=0.9)), 42, 64)
        assert stealthy.average_cost.mean() > baseline.average_cost.mean()
        assert stealthy.availability.mean() < baseline.availability.mean()

    def test_correlated_campaign_couples_nodes(self):
        """Shared latent intensity correlates per-node compromise counts."""

        def mean_pairwise_correlation(adversary):
            result = _run(_scenario(adversary, horizon=200), 7, 128)
            counts = result.num_compromises.astype(float)
            corr = np.corrcoef(counts, rowvar=False)
            off_diagonal = corr[~np.eye(corr.shape[0], dtype=bool)]
            return off_diagonal.mean()

        correlated = mean_pairwise_correlation(
            CorrelatedAdversary(p_enter=0.03, p_exit=0.1, campaign_scale=8.0,
                                calm_scale=0.1)
        )
        independent = mean_pairwise_correlation(StaticAdversary(force_dynamic=True))
        assert correlated > independent + 0.1

    def test_bursty_differs_from_static(self):
        static = _run(_scenario(None), 1234, 64)
        bursty = _run(_scenario(BurstyAdversary()), 1234, 64)
        assert not np.array_equal(static.average_cost, bursty.average_cost)

    def test_spec_round_trip(self):
        for adversary in (
            StaticAdversary(),
            BurstyAdversary(p_on=0.1),
            CorrelatedAdversary(campaign_scale=2.5),
            StealthAdversary(suppression=0.5),
        ):
            assert adversary_from_spec(adversary_to_spec(adversary)) == adversary

    def test_spec_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown adversary type"):
            adversary_from_spec({"type": "quantum"})
        with pytest.raises(ValueError, match="'type'"):
            adversary_from_spec({"p_on": 0.1})
        with pytest.raises(ValueError, match="invalid parameters"):
            adversary_from_spec({"type": "bursty", "p_off": 0.2, "warp": 9})

    def test_registry_covers_zoo(self):
        assert set(ADVERSARY_TYPES) == {"static", "correlated", "bursty", "stealth"}

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="p_on"):
            BurstyAdversary(p_on=1.5)
        with pytest.raises(ValueError, match="suppression"):
            StealthAdversary(suppression=-0.1)
        with pytest.raises(ValueError, match="campaign_scale"):
            CorrelatedAdversary(campaign_scale=-1.0)


class TestEmulationSeam:
    def test_static_attacker_unchanged(self):
        attacker = Attacker(AttackerConfig(), seed=7)
        attacker.begin_step()
        assert attacker._start_probability == 0.2
        assert attacker.observed_intrusion_activity("node-0") is False

    def test_bursty_modulates_start_probability(self):
        config = AttackerConfig(
            start_probability=0.1,
            adversary=BurstyAdversary(p_on=1.0, p_off=0.0, burst_scale=5.0),
        )
        attacker = Attacker(config, seed=7)
        attacker.begin_step()  # chain switches on deterministically (p_on=1)
        assert attacker._start_probability == pytest.approx(0.5)

    def test_stealth_hides_intrusion_activity(self):
        config = AttackerConfig(adversary=StealthAdversary(suppression=1.0))
        attacker = Attacker(config, seed=7)
        state = attacker.state_of("node-0")
        state.phase = state.phase.__class__.IN_PROGRESS
        attacker.begin_step()
        assert state.intrusion_activity is True
        assert attacker.observed_intrusion_activity("node-0") is False

    def test_from_scenario_routes_adversary(self):
        scenario = _scenario(BurstyAdversary(), horizon=30, delta_r=10.0)
        config = EmulationConfig.from_scenario(scenario)
        assert config.attacker.adversary == scenario.adversary

    def test_emulation_episode_runs_with_adversary(self):
        scenario = _scenario(CorrelatedAdversary(), horizon=25, delta_r=10.0)
        environment = EmulationEnvironment(
            EmulationConfig.from_scenario(scenario), tolerance_policy(), seed=3
        )
        metrics = environment.run()
        assert 0.0 <= metrics.availability <= 1.0
