"""Tests for the batch engine's kernel (``repro.sim.kernels``).

Pins :class:`~repro.sim.kernels.FusedKernel` and ``BatchRecoveryEngine.run``
to the scalar :class:`~repro.solvers.evaluation.RecoverySimulator`: whole
episodes for single-node runs (random parameters, the degenerate-observation
model, every strategy class, per-episode thresholds) and every ``(episode,
node)`` stream of multi-node fleets.  Also covers the step samplers' rank
lookups against the gather-and-sum formulas they replace, and the
observability satellites (per-phase profiles, workspace allocation in
``begin``, the belief-dynamics memo).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sim_equivalence import STRATEGY_CASES

from repro.core import (
    BetaBinomialObservationModel,
    CachedBeliefDynamics,
    DiscreteObservationModel,
    MultiThresholdStrategy,
    NodeParameters,
    PeriodicStrategy,
    ThresholdStrategy,
)
from repro.sim import (
    BatchMultiThreshold,
    BatchRecoveryEngine,
    FleetScenario,
    StaticAdversary,
    StealthAdversary,
)
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


def _step_loop(engine, strategy, num_episodes, seed, on_step=None):
    """Drive ``begin``/``step``/``finalize`` with the strategies' masks.

    Returns the finalized result and, per step, the returned cost and
    copies of the state, belief, cursor and crash mask; ``on_step(sim)``
    runs after every step.
    """
    strategies = engine._normalize_strategies(strategy)
    sim = engine.begin(num_episodes=num_episodes, seed=seed)
    recover = np.empty(sim.state.shape, dtype=bool)
    snapshots = []
    for _ in range(engine.scenario.horizon):
        for j, node_strategy in enumerate(strategies):
            recover[:, j] = node_strategy.action_batch(
                sim.belief[:, j], sim.time_since_recovery[:, j]
            )
        cost = engine.step(sim, recover)
        snapshots.append(
            (cost, sim.state.copy(), sim.belief.copy(), sim.cursor.copy(), sim.last_crashed)
        )
        if on_step is not None:
            on_step(sim)
    return engine.finalize(sim), snapshots


def _assert_run_matches_scalar(scenario, strategy, num_episodes, seed):
    """``run`` == a scalar episode per ``(episode, node)`` stream."""
    engine = BatchRecoveryEngine(scenario)
    result = engine.run(strategy, num_episodes=num_episodes, seed=seed)
    strategies = [strategy] * scenario.num_nodes
    _assert_per_node_scalar(scenario, strategies, result, num_episodes, seed)
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
        scenario = FleetScenario.homogeneous(
            NodeParameters(p_a=0.15, delta_r=10),
            _OBSERVATION_MODEL,
            num_nodes=num_nodes,
            horizon=30,
            f=1,
        )
        result = _assert_run_matches_scalar(
            scenario, ThresholdStrategy(0.5), num_episodes=24, seed=2
        )
        assert result.availability is not None


class TestRunMatchesScalar:
    """``run`` equals the scalar simulator on every ``(episode, node)`` stream."""

    @pytest.mark.parametrize("f", [None, 1], ids=["no-f", "f=1"])
    @pytest.mark.parametrize("num_nodes", [1, 4, 5, 10])
    @pytest.mark.parametrize(
        "strategy", STRATEGY_CASES.values(), ids=STRATEGY_CASES.keys()
    )
    def test_run_equals_scalar_per_node(self, strategy, num_nodes, f):
        scenario = FleetScenario.homogeneous(
            _params(), _OBSERVATION_MODEL, num_nodes=num_nodes, horizon=30, f=f
        )
        result = _assert_run_matches_scalar(scenario, strategy, num_episodes=16, seed=21)
        assert (result.availability is None) == (f is None)


class TestRankTables:
    def test_ranks_into_matches_searchsorted(self):
        rng = np.random.default_rng(0)
        merged = np.unique(rng.random(37))
        bucket = FusedKernel._bucket_grid(merged)
        assert bucket is not None
        u = rng.random((50, 8))
        expected = np.searchsorted(merged, u.ravel(), side="right").reshape(u.shape)
        assert np.array_equal(FusedKernel._ranks(u, merged, bucket), expected)
        # Values of the merged set themselves rank as #{merged <= u}.
        ranks = FusedKernel._ranks(merged, merged, bucket)
        assert np.array_equal(ranks, np.arange(1, len(merged) + 1))

    def test_bucket_grid_dense_set_falls_back(self):
        # Eight values inside one 1/65536 bucket: occupancy > 4 at the cap,
        # so the grid is abandoned and _ranks uses searchsorted.
        merged = 0.5 + np.arange(8) * 1e-9
        assert FusedKernel._bucket_grid(merged) is None
        u = np.array([0.4999, 0.5 + 3.5e-9, 0.6])
        ranks = FusedKernel._ranks(u, merged, None)
        assert np.array_equal(ranks, np.searchsorted(merged, u, side="right"))


def _gather_and_sum_transitions(engine):
    """The step's former transition sampler: gather ``(B, N, |S|)`` CDF rows."""
    cdf_rows = engine._transition_cdf.reshape(-1, engine._transition_cdf.shape[-1])

    def sample(u, rows):
        return (cdf_rows[rows] <= u[..., None]).sum(axis=2)

    return sample


def _gather_and_sum_observations(engine, seen=None):
    """The step's former observation sampler: gather ``(B, N, |O|)`` CDF rows.

    Appends each call's observed states to ``seen`` when given.
    """
    nodes = np.arange(engine.scenario.num_nodes)

    def sample(u, observed_state):
        if seen is not None:
            seen.append(observed_state.copy())
        cdf_rows = engine._observation_cdf[nodes, observed_state]
        return (cdf_rows <= u[..., None]).sum(axis=2)

    return sample


def _reference_engine(scenario, monkeypatch, seen=None):
    """An engine whose ``step`` samples through the gather-and-sum formulas."""
    engine = BatchRecoveryEngine(scenario)
    kernel = engine._kernel
    monkeypatch.setattr(kernel, "sample_transitions", _gather_and_sum_transitions(engine))
    monkeypatch.setattr(
        kernel, "sample_observations", _gather_and_sum_observations(engine, seen)
    )
    return engine


def _assert_snapshots_equal(ours, theirs):
    assert len(ours) == len(theirs)
    for step_ours, step_theirs in zip(ours, theirs):
        for a, b in zip(step_ours, step_theirs):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def _assert_per_node_scalar(scenario, strategies, result, num_episodes, seed):
    """Every ``(episode, node)`` stream equals a scalar run on its child seed."""
    num_nodes = scenario.num_nodes
    children = np.random.SeedSequence(seed).spawn(num_episodes * num_nodes)
    for node, (params, model, strategy) in enumerate(
        zip(scenario.node_params, scenario.observation_models, strategies)
    ):
        simulator = RecoverySimulator(params, model, horizon=scenario.horizon)
        episodes = result.episode_results(node=node)
        for b in range(num_episodes):
            rng = np.random.default_rng(children[b * num_nodes + node])
            assert simulator.run_episode(strategy, rng) == episodes[b]


#: Six nodes, each with its own observation model: the merged CDF set of
#: the step's observation table holds about 6 * 2 * 11 values.
_DISTINCT_MODELS = tuple(
    BetaBinomialObservationModel(
        healthy_alpha=0.5 + 0.1 * j, compromised_alpha=0.8 + 0.15 * j
    )
    for j in range(6)
)

#: Healthy CDF values 0.5, 0.5 + 1e-9, ..., 0.5 + 7e-9: eight values in one
#: 1/65536 bucket, so the merged set has no bucket grid.
_DENSE_MODEL = DiscreteObservationModel(
    observations=list(range(10)),
    healthy_pmf=[0.5] + [1e-9] * 7 + [0.3, 0.2 - 7e-9],
    compromised_pmf=[0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2],
)

#: A second ten-observation model to pair with ``_DENSE_MODEL``.
_LINEAR_MODEL = DiscreteObservationModel(
    list(range(10)), np.linspace(10, 1, 10), np.linspace(1, 10, 10)
)


class TestStepSamplers:
    """``step`` samples by exact rank lookup, bit-equal to gather-and-sum."""

    def _edge_uniforms(self, values, shape, rng):
        """Uniforms at, just below and just above every CDF value, plus random."""
        values = values[values < 1.0]
        edges = np.concatenate(
            [values, np.nextafter(values, 0.0), np.nextafter(values, 1.0), [0.0]]
        )
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        u = rng.random(shape)
        flat = u.reshape(-1)
        flat[: min(len(edges), flat.size)] = edges[: flat.size]
        return rng.permutation(flat).reshape(shape)

    @pytest.mark.parametrize(
        "models",
        [(_OBSERVATION_MODEL,) * 3, _DISTINCT_MODELS, (_DENSE_MODEL, _LINEAR_MODEL)],
        ids=["homogeneous", "distinct", "dense"],
    )
    def test_samplers_equal_gather_and_sum_at_cdf_edges(self, models):
        scenario = FleetScenario(tuple(_params() for _ in models), models, horizon=5)
        engine = BatchRecoveryEngine(scenario)
        kernel = engine._kernel
        rng = np.random.default_rng(3)
        shape = (4000, len(models))
        u = self._edge_uniforms(engine._observation_cdf.reshape(-1), shape, rng)
        observed = rng.integers(0, 2, size=shape)
        expected = _gather_and_sum_observations(engine)(u, observed)
        got = kernel.sample_observations(u, observed)
        assert np.array_equal(got, expected)
        u = self._edge_uniforms(engine._transition_cdf.reshape(-1), shape, rng)
        rows = (
            engine._transition_node_base
            + rng.integers(0, 2, size=shape) * 3
            + rng.integers(0, 3, size=shape)
        )
        expected = _gather_and_sum_transitions(engine)(u, rows)
        got = kernel.sample_transitions(u, rows)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_homogeneous_fleet_stores_one_table_block(self):
        engine = BatchRecoveryEngine(
            FleetScenario.homogeneous(_params(), _OBSERVATION_MODEL, num_nodes=50)
        )
        kernel = engine._kernel
        assert len(kernel._step_obs_table) == 2 * kernel._step_obs_width
        assert not kernel._step_obs_base.any()

    @pytest.mark.parametrize("num_episodes", [1, 17], ids=["B=1", "B=17"])
    def test_distinct_models_step_loop(self, monkeypatch, num_episodes):
        scenario = FleetScenario(
            tuple(_params(p_a=0.05 + 0.03 * j) for j in range(6)),
            _DISTINCT_MODELS,
            horizon=40,
            f=2,
        )
        engine = BatchRecoveryEngine(scenario)
        assert len(engine._kernel._step_obs_merged) > 100
        assert engine._kernel._step_obs_bucket is not None
        strategies = [ThresholdStrategy(0.3 + 0.1 * j) for j in range(6)]
        result, snapshots = _step_loop(engine, strategies, num_episodes, seed=5)
        reference = _reference_engine(scenario, monkeypatch)
        expected, expected_snapshots = _step_loop(reference, strategies, num_episodes, seed=5)
        _assert_snapshots_equal(snapshots, expected_snapshots)
        _assert_results_equal(result, expected)
        _assert_per_node_scalar(scenario, strategies, result, num_episodes, seed=5)

    def test_dense_merged_set_takes_the_searchsorted_fallback(self, monkeypatch):
        scenario = FleetScenario(
            (_params(), _params(p_a=0.3)), (_DENSE_MODEL, _LINEAR_MODEL), horizon=40
        )
        engine = BatchRecoveryEngine(scenario)
        assert engine._kernel._step_obs_bucket is None
        strategies = [ThresholdStrategy(0.4), PeriodicStrategy(7)]
        result, snapshots = _step_loop(engine, strategies, 32, seed=9)
        reference = _reference_engine(scenario, monkeypatch)
        expected, expected_snapshots = _step_loop(reference, strategies, 32, seed=9)
        _assert_snapshots_equal(snapshots, expected_snapshots)
        _assert_results_equal(result, expected)
        _assert_per_node_scalar(scenario, strategies, result, 32, seed=9)

    def test_stealth_suppression_samples_the_observed_state(self, monkeypatch):
        scenario = FleetScenario.homogeneous(
            _params(p_a=0.3),
            _OBSERVATION_MODEL,
            num_nodes=4,
            horizon=40,
            adversary=StealthAdversary(suppression=0.5),
        )
        engine = BatchRecoveryEngine(scenario)
        seen: list[np.ndarray] = []
        hidden = []

        def count_hidden(sim):
            # The live state is compromised but the sampler saw healthy.
            hidden.append(int(((sim.state == 1) & (seen[-1] == 0)).sum()))

        reference = _reference_engine(scenario, monkeypatch, seen)
        expected, expected_snapshots = _step_loop(
            reference, ThresholdStrategy(0.7), 24, seed=13, on_step=count_hidden
        )
        assert sum(hidden) > 0
        result, snapshots = _step_loop(engine, ThresholdStrategy(0.7), 24, seed=13)
        _assert_snapshots_equal(snapshots, expected_snapshots)
        _assert_results_equal(result, expected)

    @pytest.mark.parametrize("num_episodes", [1, 12], ids=["B=1", "B=12"])
    def test_force_dynamic_static_adversary(self, monkeypatch, num_episodes):
        params = _params(p_a=0.2)
        static = FleetScenario.homogeneous(params, _SMALL_MODEL, num_nodes=3, horizon=40)
        dynamic = FleetScenario.homogeneous(
            params,
            _SMALL_MODEL,
            num_nodes=3,
            horizon=40,
            adversary=StaticAdversary(force_dynamic=True),
        )
        engine = BatchRecoveryEngine(dynamic)
        assert engine.is_dynamic
        strategy = ThresholdStrategy(0.5)
        result, snapshots = _step_loop(engine, strategy, num_episodes, seed=4)
        static_result, static_snapshots = _step_loop(
            BatchRecoveryEngine(static), strategy, num_episodes, seed=4
        )
        _assert_snapshots_equal(snapshots, static_snapshots)
        _assert_results_equal(result, static_result)
        reference = _reference_engine(dynamic, monkeypatch)
        expected, expected_snapshots = _step_loop(reference, strategy, num_episodes, seed=4)
        _assert_snapshots_equal(snapshots, expected_snapshots)
        _assert_per_node_scalar(static, [strategy] * 3, result, num_episodes, seed=4)


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

    def test_uniforms_drawn_afresh_per_call(self):
        engine = BatchRecoveryEngine(_single_node())
        first = engine.draw_uniforms(0, 16)
        second = engine.draw_uniforms(0, 16)
        assert second is not first
        assert np.array_equal(first, second)
        # The buffers are independent: a caller may hold or overwrite one.
        second[...] = 0.0
        assert not np.array_equal(first, second)
        assert not np.array_equal(engine.draw_uniforms(1, 16), first)


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
