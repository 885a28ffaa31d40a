"""Tests for the batch engine's kernel (``repro.sim.kernels``).

Pins :class:`~repro.sim.kernels.FusedKernel` to its two oracles: the scalar
:class:`~repro.solvers.evaluation.RecoverySimulator` for single-node runs
(random parameters, the degenerate-observation model, every strategy class,
per-episode thresholds), and the stepwise ``begin``/``step``/``finalize``
loop for multi-node fleets — the loop whose per-node equality to scalar
runs ``tests/test_sim_equivalence.py`` pins.  Also covers the rank-table
machinery behind the closed run driver and the observability satellites
(per-phase profiles, workspace allocation in ``begin``, the belief-dynamics
memo).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sim_equivalence import STRATEGY_CASES

import repro.sim.kernels.fused as fused_module
from repro.core import (
    BetaBinomialObservationModel,
    CachedBeliefDynamics,
    DiscreteObservationModel,
    MultiThresholdStrategy,
    NodeParameters,
    PeriodicStrategy,
    ThresholdStrategy,
)
from repro.sim import BatchMultiThreshold, BatchRecoveryEngine, FleetScenario
from repro.sim.kernels import FusedKernel
from repro.solvers import RecoverySimulator

_OBSERVATION_MODEL = BetaBinomialObservationModel()

#: Small observation alphabet (|O| = 3).
_SMALL_MODEL = DiscreteObservationModel(
    observations=[0, 1, 2],
    healthy_pmf=[0.7, 0.2, 0.1],
    compromised_pmf=[0.1, 0.3, 0.6],
)

#: A zero likelihood entry under both live states: Assumption D fails, so
#: the engine must keep the degenerate-observation fallback branch.
_DEGENERATE_MODEL = DiscreteObservationModel(
    observations=[0, 1, 2],
    healthy_pmf=[1.0, 0.0, 0.0],
    compromised_pmf=[0.0, 0.0, 1.0],
)


def _params(**params):
    params.setdefault("p_a", 0.1)
    params.setdefault("delta_r", 8)
    return NodeParameters(**params)


def _single_node(model=_OBSERVATION_MODEL, horizon=40, **params):
    return FleetScenario.single_node(_params(**params), model, horizon=horizon)


def _assert_results_equal(a, b):
    for name in (
        "average_cost",
        "time_to_recovery",
        "recovery_frequency",
        "num_recoveries",
        "num_compromises",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.steps == b.steps
    if a.availability is None:
        assert b.availability is None
    else:
        assert np.array_equal(a.availability, b.availability)


def _assert_matches_scalar(model, strategy, num_episodes, seed, horizon=40, **params):
    """The engine's run == the scalar simulator, episode for episode."""
    simulator = RecoverySimulator(_params(**params), model, horizon=horizon)
    scalar = simulator.evaluate(strategy, num_episodes=num_episodes, seed=seed)
    batch = simulator.evaluate(strategy, num_episodes=num_episodes, seed=seed, batch=True)
    assert scalar == batch


def _step_loop(engine, strategy, num_episodes, seed):
    """Drive ``begin``/``step``/``finalize`` with the strategies' masks."""
    strategies = engine._normalize_strategies(strategy)
    sim = engine.begin(num_episodes=num_episodes, seed=seed)
    recover = np.empty(sim.state.shape, dtype=bool)
    for _ in range(engine.scenario.horizon):
        for j, node_strategy in enumerate(strategies):
            recover[:, j] = node_strategy.action_batch(
                sim.belief[:, j], sim.time_since_recovery[:, j]
            )
        engine.step(sim, recover)
    return engine.finalize(sim)


def _assert_run_matches_step_loop(scenario, strategy, num_episodes, seed):
    engine = BatchRecoveryEngine(scenario)
    result = engine.run(strategy, num_episodes=num_episodes, seed=seed)
    _assert_results_equal(result, _step_loop(engine, strategy, num_episodes, seed))
    return result


class TestFusedBitExactness:
    """The kernel reproduces the scalar update and the scalar simulator."""

    @given(
        p_a=st.floats(min_value=0.01, max_value=0.5),
        p_c1=st.floats(min_value=0.01, max_value=0.5),
        p_u=st.floats(min_value=0.0, max_value=0.5),
        degenerate=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_beliefs_equals_batch_posterior(self, p_a, p_c1, p_u, degenerate, seed):
        """The fused-table kernel == ``_batch_two_state_posterior`` bitwise,
        for random node models, beliefs, observations and recover masks —
        including the degenerate-observation fallback branch."""
        from repro.core.belief import _batch_two_state_posterior
        from repro.core.node_model import NodeTransitionModel

        model = _DEGENERATE_MODEL if degenerate else _SMALL_MODEL
        scenario = _single_node(model, p_a=p_a, p_c1=p_c1, p_u=p_u)
        engine = BatchRecoveryEngine(scenario)
        kernel = engine._kernel
        rng = np.random.default_rng(seed)
        batch = 17
        beliefs = rng.random(batch)
        recover = rng.random(batch) < 0.4
        observations = rng.integers(0, model.num_observations, size=batch)
        pmf = engine._observation_pmf[0]
        transition = NodeTransitionModel(scenario.node_params[0])
        expected = _batch_two_state_posterior(
            beliefs,
            recover,
            pmf[0][observations],
            pmf[1][observations],
            transition.matrix(0),
            transition.matrix(1),
        )
        updated = kernel.update_beliefs(
            recover[:, None], observations[:, None], beliefs[:, None]
        )
        assert np.array_equal(updated[:, 0], expected)

    @given(
        p_a=st.floats(min_value=0.01, max_value=0.5),
        p_c1=st.floats(min_value=0.01, max_value=0.5),
        p_u=st.floats(min_value=0.0, max_value=0.5),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_threshold_parity_random_parameters(self, p_a, p_c1, p_u, alpha, seed):
        _assert_matches_scalar(
            _OBSERVATION_MODEL,
            ThresholdStrategy(alpha),
            num_episodes=20,
            seed=seed,
            horizon=25,
            p_a=p_a,
            p_c1=p_c1,
            p_u=p_u,
        )

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_degenerate_observation_fallback_parity(self, alpha, seed):
        engine = BatchRecoveryEngine(_single_node(_DEGENERATE_MODEL, p_u=0.0, horizon=25))
        assert not engine._regular_observations
        _assert_matches_scalar(
            _DEGENERATE_MODEL,
            ThresholdStrategy(alpha),
            num_episodes=20,
            seed=seed,
            horizon=25,
            p_u=0.0,
        )

    @pytest.mark.parametrize(
        "strategy",
        [
            ThresholdStrategy(0.6),
            MultiThresholdStrategy.from_vector([0.2, 0.5, 0.9], delta_r=8.0),
            PeriodicStrategy(5),
        ],
        ids=["threshold", "multi-threshold", "periodic"],
    )
    def test_strategy_classes_parity(self, strategy):
        _assert_matches_scalar(_OBSERVATION_MODEL, strategy, num_episodes=48, seed=11)

    def test_per_episode_thresholds_parity(self):
        """Row ``b`` of a 2-D BatchMultiThreshold == a scalar run of its thresholds."""
        rng = np.random.default_rng(5)
        thresholds = rng.uniform(0.2, 0.9, size=(48, 3))
        engine = BatchRecoveryEngine(_single_node())
        episodes = engine.run(
            BatchMultiThreshold(thresholds), num_episodes=48, seed=11
        ).episode_results(node=0)
        simulator = RecoverySimulator(_params(), _OBSERVATION_MODEL, horizon=40)
        rngs = simulator.episode_rngs(11, 48)
        for row, episode_rng, episode in zip(thresholds, rngs, episodes):
            strategy = MultiThresholdStrategy.from_vector(row, delta_r=8.0)
            assert simulator.run_episode(strategy, episode_rng) == episode

    @pytest.mark.parametrize("num_nodes", [2, 4, 6])
    def test_multi_node_parity(self, num_nodes):
        """Covers both the rank path (N <= 4) and the raw path (N > 4)."""
        assert fused_module._MAX_RANK_NODES == 4
        scenario = FleetScenario.homogeneous(
            NodeParameters(p_a=0.15, delta_r=10),
            _OBSERVATION_MODEL,
            num_nodes=num_nodes,
            horizon=30,
            f=1,
        )
        result = _assert_run_matches_step_loop(
            scenario, ThresholdStrategy(0.5), num_episodes=24, seed=2
        )
        assert result.availability is not None


class TestRunMatchesStepLoop:
    """The closed run driver is bit-equal to a begin/step/finalize loop."""

    @pytest.mark.parametrize("f", [None, 1], ids=["no-f", "f=1"])
    @pytest.mark.parametrize("num_nodes", [1, 4, 5, 10])
    @pytest.mark.parametrize(
        "strategy", STRATEGY_CASES.values(), ids=STRATEGY_CASES.keys()
    )
    def test_run_equals_step_loop(self, strategy, num_nodes, f):
        # N = 4 is the largest fleet on the rank path, N = 5 the smallest
        # on the raw-uniform path.
        assert fused_module._MAX_RANK_NODES == 4
        scenario = FleetScenario.homogeneous(
            _params(), _OBSERVATION_MODEL, num_nodes=num_nodes, horizon=30, f=f
        )
        result = _assert_run_matches_step_loop(
            scenario, strategy, num_episodes=16, seed=21
        )
        assert (result.availability is None) == (f is None)


class TestRankTables:
    def test_ranks_into_matches_searchsorted(self):
        rng = np.random.default_rng(0)
        merged = np.unique(rng.random(37))
        bucket = FusedKernel._bucket_grid(merged)
        assert bucket is not None
        u = rng.random((50, 8))
        out = np.empty_like(u, dtype=np.int64)
        FusedKernel._ranks_into(u, merged, bucket, out)
        expected = np.searchsorted(merged, u.ravel(), side="right").reshape(u.shape)
        assert np.array_equal(out, expected)
        # Values of the merged set themselves rank as #{merged <= u}.
        out2 = np.empty(len(merged), dtype=np.int64)
        FusedKernel._ranks_into(merged, merged, bucket, out2)
        assert np.array_equal(out2, np.arange(1, len(merged) + 1))

    def test_bucket_grid_dense_set_falls_back(self):
        # Eight values inside one 1/65536 bucket: occupancy > 4 at the cap,
        # so the grid is abandoned and _ranks_into uses searchsorted.
        merged = 0.5 + np.arange(8) * 1e-9
        assert FusedKernel._bucket_grid(merged) is None
        u = np.array([0.4999, 0.5 + 3.5e-9, 0.6])
        out = np.empty(3, dtype=np.int64)
        FusedKernel._ranks_into(u, merged, None, out)
        assert np.array_equal(out, np.searchsorted(merged, u, side="right"))

    def test_rank_cache_memoizes_by_buffer_identity(self):
        engine = BatchRecoveryEngine(_single_node())
        kernel = engine._kernel
        uniforms = engine.draw_uniforms(0, 16)
        first = kernel._uniform_ranks(uniforms)
        assert kernel._uniform_ranks(uniforms) is first
        # The entry pins the buffer, so the address key cannot be recycled.
        key = uniforms.__array_interface__["data"][0]
        assert kernel._rank_cache[key][0] is uniforms
        # A different buffer gets its own entry; the cache stays bounded.
        for seed in range(1, 6):
            kernel._uniform_ranks(engine.draw_uniforms(seed, 16))
        assert len(kernel._rank_cache) <= 4

    def test_uniform_ranks_values(self):
        engine = BatchRecoveryEngine(_single_node())
        kernel = engine._kernel
        uniforms = engine.draw_uniforms(1, 4)
        num_episodes, num_nodes, width = uniforms.shape
        flat = kernel._uniform_ranks(uniforms)
        ranks = flat.reshape(width, 2, num_nodes, num_episodes)
        ut = uniforms[:, 0, :].T
        for row, merged in ((0, kernel._t_merged[0]), (1, kernel._obs_merged[0])):
            expected = np.searchsorted(merged, ut.ravel(), side="right")
            assert np.array_equal(ranks[:, row, 0], expected.reshape(ut.shape))


class TestObservability:
    def test_run_profile_collects_phases(self):
        engine = BatchRecoveryEngine(_single_node())
        result = engine.run(ThresholdStrategy(0.6), num_episodes=32, seed=0, profile=True)
        profile = result.profile
        assert profile is not None
        assert profile.steps == 40
        for phase in ("strategy", "transition_sample", "observation_draw", "belief_update"):
            assert profile.nanos[phase] > 0
        assert profile.total_ns == sum(ns for _, ns in profile.nanos.items())
        assert [row[0] for row in profile.rows()] == sorted(
            (n for n, ns in profile.nanos.items() if ns),
            key=lambda n: -profile.nanos[n],
        )

    def test_unprofiled_run_has_no_profile(self):
        engine = BatchRecoveryEngine(_single_node())
        result = engine.run(ThresholdStrategy(0.6), num_episodes=8, seed=0)
        assert result.profile is None

    def test_begin_allocates_belief_workspace(self):
        engine = BatchRecoveryEngine(_single_node())
        sim = engine.begin(num_episodes=12, seed=0)
        workspace = sim.belief_workspace
        assert isinstance(workspace, dict) and workspace
        for array in workspace.values():
            assert array.shape[-1] == 12 or array.shape[0] == 12

    def test_stepwise_profile(self):
        engine = BatchRecoveryEngine(_single_node())
        sim = engine.begin(num_episodes=8, seed=0, profile=True)
        engine.step(sim, np.zeros((8, 1), dtype=bool))
        assert sim.profile is not None
        assert sim.profile.nanos["belief_update"] > 0

    def test_uniforms_memoized_per_seed(self):
        engine = BatchRecoveryEngine(_single_node())
        first = engine.draw_uniforms(0, 16)
        assert engine.draw_uniforms(0, 16) is first
        assert not first.flags.writeable
        assert engine.draw_uniforms(1, 16) is not first


class TestCachedBeliefDynamics:
    def test_memoization_counters(self):
        cache = CachedBeliefDynamics()
        calls = []

        def compute():
            calls.append(1)
            return 0.25

        key = (0.5, 0, 3)
        assert cache.get(key, compute) == 0.25
        assert cache.get(key, compute) == 0.25
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0
