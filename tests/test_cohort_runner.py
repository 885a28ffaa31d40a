"""The cohort runner against an independent oracle.

Every closed-loop sweep (serial or sharded) and the decision service step
their fleets through one runner, :class:`repro.control.cohort.Cohort`, so
comparing ``n_jobs=1`` with ``n_jobs > 1`` cannot catch a bug in the runner
itself — and ``TwoLevelController.run`` is a one-member cohort, so it is no
oracle either.  This suite checks every sweep table cell bit for bit
against ``TwoLevelController(...).run_scalar_reference(seed=seed)``, which
runs one episode at a time with the scalar ``SystemController`` and shares
no row map, control group, fused state or stacked seed segments with the
runner:

* ``closed_loop_sweep`` with ``n1`` values of equal ``f`` (one cohort whose
  cells differ in ``initial_nodes``) and of unequal ``f`` (two cohorts);
* ``mixed_closed_loop_sweep`` on a labelled fleet with class-aware
  replication and per-class metrics;
* ``attacker_intensity_sweep``;
* a dynamic-adversary scenario;
* a stochastic Theorem 2 (Lagrangian mixture) replication cell;
* one cohort whose members differ in every configuration the loop holds
  as row data (recovery rules, replication tables, ``k``,
  ``initial_nodes``, both limit flags) or runs on their own rows (a
  multi-threshold strategy, a custom policy, a batched replication
  policy), and one mixing class-aware and classless members;

plus the step count of one cohort (exactly ``horizon`` engine steps and
loop calls) and the one-root-per-sweep rule for ``seed=None``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control import (
    ClosedLoopCell,
    TwoLevelController,
    attacker_intensity_sweep,
    closed_loop_sweep,
    default_tolerance_threshold,
    mixed_closed_loop_sweep,
)
from repro.control import TwoLevelLoop
from repro.control.cohort import Cohort, CohortMember, event_rows, scenario_key
from repro.core import (
    BetaBinomialObservationModel,
    MixedReplicationStrategy,
    MultiThresholdStrategy,
    NodeParameters,
    NoRecoveryStrategy,
    PeriodicStrategy,
    ReplicationThresholdStrategy,
    TabularReplicationStrategy,
    ThresholdStrategy,
)
from repro.envs.policies import StrategyPolicy
from repro.core.strategies import ClassPreferenceReplicationStrategy
from repro.sim import BatchRecoveryEngine, FleetScenario, NodeClass
from repro.sim.adversary import AdversaryProcess, BurstyAdversary

PARAMS = NodeParameters(p_a=0.1, p_c1=1e-3, p_c2=0.05, p_u=0.02)
MODEL = BetaBinomialObservationModel()
SEED = 17

RESULT_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)


def _lagrangian() -> MixedReplicationStrategy:
    """A Theorem 2 mixture: stochastic, so it consumes the system streams."""
    return MixedReplicationStrategy(
        ReplicationThresholdStrategy(3), ReplicationThresholdStrategy(5), kappa=0.4
    )


def _cells() -> list[ClosedLoopCell]:
    return [
        ClosedLoopCell("tolerance", ThresholdStrategy(0.75), ReplicationThresholdStrategy(4)),
        ClosedLoopCell("lagrangian", ThresholdStrategy(0.75), _lagrangian()),
        ClosedLoopCell(
            "no-recovery",
            NoRecoveryStrategy(),
            None,
            enforce_invariant=False,
            respect_recovery_limit=False,
        ),
    ]


def _direct(scenario, cell, num_envs, seed, initial_nodes=None, k=1):
    """The oracle: the scalar reference, one episode at a time."""
    return TwoLevelController(
        scenario,
        num_envs,
        cell.recovery,
        replication_strategy=cell.replication,
        initial_nodes=initial_nodes,
        k=k,
        enforce_invariant=cell.enforce_invariant,
        respect_recovery_limit=cell.respect_recovery_limit,
    ).run_scalar_reference(seed=seed)


def _assert_equal(ours, theirs):
    assert ours.steps == theirs.steps
    for name in RESULT_FIELDS:
        x, y = getattr(ours, name), getattr(theirs, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert (ours.class_average_cost is None) == (theirs.class_average_cost is None)
    if theirs.class_average_cost is not None:
        assert list(ours.class_average_cost) == list(theirs.class_average_cost)
        for label in theirs.class_average_cost:
            np.testing.assert_array_equal(
                ours.class_average_cost[label], theirs.class_average_cost[label]
            )
            np.testing.assert_array_equal(
                ours.class_recovery_frequency[label],
                theirs.class_recovery_frequency[label],
            )


@pytest.fixture()
def engine_steps(monkeypatch):
    """Count ``BatchRecoveryEngine.step`` calls."""
    calls = {"n": 0}
    original = BatchRecoveryEngine.step

    def counted(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BatchRecoveryEngine, "step", counted)
    return calls


def _mixed_scenario(horizon=25, adversary=None):
    classes = [
        NodeClass("web", PARAMS, MODEL, count=3),
        NodeClass(
            "db",
            NodeParameters(p_a=0.2, p_c1=1e-3, p_c2=0.05, p_u=0.05, eta=3.0, delta_r=8),
            BetaBinomialObservationModel(compromised_alpha=1.5),
            count=3,
        ),
    ]
    return FleetScenario.mixed(classes, horizon=horizon, f=1, adversary=adversary)


class TestClosedLoopSweep:
    SMAX = 8
    HORIZON = 20
    ENVS = 6

    def _scenario(self, n1):
        return FleetScenario.homogeneous(
            PARAMS,
            MODEL,
            num_nodes=self.SMAX,
            horizon=self.HORIZON,
            f=default_tolerance_threshold(n1),
        )

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "n1_values, cohorts", [((4, 6), 1), ((4, 7), 2)], ids=["equal-f", "unequal-f"]
    )
    def test_every_cell_equals_a_direct_run(self, engine_steps, n1_values, cohorts, n_jobs):
        cells = _cells()
        table = closed_loop_sweep(
            n1_values,
            cells,
            PARAMS,
            MODEL,
            smax=self.SMAX,
            num_envs=self.ENVS,
            horizon=self.HORIZON,
            seed=SEED,
            n_jobs=n_jobs,
        )
        if n_jobs == 1:
            # One engine step per tick per cohort, for all of its cells.
            assert engine_steps["n"] == cohorts * self.HORIZON
        assert list(table) == [(n1, cell.name) for n1 in n1_values for cell in cells]
        for n1 in n1_values:
            for cell in cells:
                _assert_equal(
                    table[(n1, cell.name)],
                    _direct(self._scenario(n1), cell, self.ENVS, SEED, initial_nodes=n1),
                )

    def test_unseeded_sweep_draws_one_root(self):
        twin = [
            ClosedLoopCell("a", ThresholdStrategy(0.75), _lagrangian()),
            ClosedLoopCell("b", ThresholdStrategy(0.75), _lagrangian()),
        ]
        table = closed_loop_sweep(
            (4,),
            twin,
            PARAMS,
            MODEL,
            smax=self.SMAX,
            num_envs=self.ENVS,
            horizon=self.HORIZON,
            seed=None,
        )
        _assert_equal(table[(4, "a")], table[(4, "b")])


class TestMixedAndAttackerSweeps:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_class_aware_mixed_sweep_keeps_per_class_metrics(self, n_jobs):
        scenario = _mixed_scenario()
        cells = [
            ClosedLoopCell(
                "prefer-db",
                ThresholdStrategy(0.75),
                ClassPreferenceReplicationStrategy(
                    _lagrangian(), preferred="db", class_names=("web", "db")
                ),
            ),
            ClosedLoopCell("threshold", ThresholdStrategy(0.6), ReplicationThresholdStrategy(4)),
        ]
        table = mixed_closed_loop_sweep(
            {"mixed": scenario}, cells, num_envs=5, seed=SEED, initial_nodes=4, n_jobs=n_jobs
        )
        for cell in cells:
            result = table[("mixed", cell.name)]
            assert set(result.class_average_cost) == {"web", "db"}
            _assert_equal(result, _direct(scenario, cell, 5, SEED, initial_nodes=4))

    def test_attacker_intensity_sweep(self, engine_steps):
        scenario = _mixed_scenario(horizon=15)
        cells = _cells()
        intensities = (0.5, 1.0, 2.0)
        table = attacker_intensity_sweep(
            scenario, intensities, cells, num_envs=4, seed=SEED, initial_nodes=4
        )
        # Scaled attackers compile to different tables: one cohort each.
        assert engine_steps["n"] == len(intensities) * scenario.horizon
        for intensity in intensities:
            for cell in cells:
                _assert_equal(
                    table[(intensity, cell.name)],
                    _direct(scenario.scale_attack(intensity), cell, 4, SEED, initial_nodes=4),
                )

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_dynamic_adversary(self, n_jobs):
        scenario = _mixed_scenario(horizon=30, adversary=BurstyAdversary())
        cells = _cells()
        table = mixed_closed_loop_sweep(
            {"bursty": scenario}, cells, num_envs=6, seed=SEED, initial_nodes=4, n_jobs=n_jobs
        )
        for cell in cells:
            _assert_equal(
                table[("bursty", cell.name)],
                _direct(scenario, cell, 6, SEED, initial_nodes=4),
            )


class _Quiet(AdversaryProcess):
    """A user adversary that is not a dataclass: it has no scenario-v1 form."""

    kind = "quiet"

    @property
    def is_static(self):
        return True

    def compromise_pressure(self, state, t, baseline, uniforms):
        return baseline


class TestCohort:
    def test_scenarios_without_a_content_key_run_alone(self):
        scenario = _mixed_scenario(horizon=10, adversary=_Quiet())
        assert scenario_key(scenario) is None
        cells = _cells()
        table = mixed_closed_loop_sweep(
            {"a": scenario, "b": scenario}, cells, num_envs=3, seed=SEED, initial_nodes=4
        )
        for name in ("a", "b"):
            for cell in cells:
                _assert_equal(
                    table[(name, cell.name)], _direct(scenario, cell, 3, SEED, initial_nodes=4)
                )

    def test_members_of_one_seed_share_one_buffer_block(self, monkeypatch):
        scenario = _mixed_scenario(horizon=12)
        engine = BatchRecoveryEngine(scenario)
        draws = []
        original = BatchRecoveryEngine.draw_uniforms

        def recorded(self, seed, num_episodes=None, **kwargs):
            uniforms = original(self, seed, num_episodes, **kwargs)
            draws.append(uniforms.shape[0])
            return uniforms

        monkeypatch.setattr(BatchRecoveryEngine, "draw_uniforms", recorded)
        cohort = Cohort(engine)
        specs = [(3, 5), (3, 5), (2, 6)]  # (episodes, seed): two share a source
        members = [
            cohort.add(
                CohortMember(
                    TwoLevelController(
                        scenario, b, ThresholdStrategy(0.75), _lagrangian(), engine=engine
                    ),
                    seed,
                )
            )
            for b, seed in specs
        ]
        cohort.run()
        # One draw: the distinct sources only, not one block per member.
        assert draws == [3 + 2]
        assert cohort.sim is None  # released at the horizon
        for member, (b, seed) in zip(members, specs):
            direct = TwoLevelController(
                scenario, b, ThresholdStrategy(0.75), _lagrangian()
            ).run_scalar_reference(seed=seed)
            _assert_equal(cohort.result(member), direct)


class _EvenTimerPolicy:
    """A custom ``VectorPolicy`` — no table data, so it acts on its own rows."""

    def act(self, observation, rng=None):
        even = observation.time_since_recovery % 2 == 0
        return (observation.beliefs >= 0.5) & even & observation.active


class _BatchedReplication:
    """A deterministic policy served through ``add_probability_batch``.

    Its fractional probabilities make a row that draws a uniform decide
    differently from one that compares ``p > 1/2``.
    """

    consumes_rng = False

    def add_probability(self, state):
        return 0.8 if state < 5 else 0.3

    def add_probability_batch(self, states, node_counts):
        del node_counts
        return np.where(states < 5, 0.8, 0.3)

    def action(self, state, rng=None):
        del rng
        return int(self.add_probability(state) > 0.5)


def _tabular():
    """Algorithm 2's output form: a mutable table ``pi(a=1 | s)``."""
    return TabularReplicationStrategy({0: 1.0, 1: 1.0, 2: 0.9, 3: 0.6, 4: 0.35, 5: 0.1})


class TestRowDataLoop:
    """One cohort, one loop: every member configuration is row data."""

    PARAMS = NodeParameters(p_a=0.1, p_c1=2e-3, p_c2=0.05, p_u=0.03, delta_r=9)
    SMAX = 8

    def _scenario(self, horizon=30):
        return FleetScenario.homogeneous(
            self.PARAMS, MODEL, num_nodes=self.SMAX, horizon=horizon, f=1
        )

    def _specs(self):
        per_slot = (
            ThresholdStrategy(0.4),
            PeriodicStrategy(4.0),
            NoRecoveryStrategy(),
            ThresholdStrategy(0.6),
            PeriodicStrategy(float("inf")),
            ThresholdStrategy(0.3),
            PeriodicStrategy(2.0),
            ThresholdStrategy(0.9),
        )
        # (episodes, seed, recovery, replication, k, initial_nodes,
        #  enforce_invariant, respect_recovery_limit)
        return [
            (4, 3, ThresholdStrategy(0.75), ReplicationThresholdStrategy(4), 1, None, True, True),
            (3, 4, PeriodicStrategy(5.0), _lagrangian(), 2, 5, False, True),
            (2, 5, NoRecoveryStrategy(), None, 1, 6, True, False),
            (3, 6, per_slot, _tabular(), 3, 4, True, True),
            (4, 7, MultiThresholdStrategy((0.9, 0.7, 0.5, 0.3)), _BatchedReplication(), 2, 7, False, False),
            (2, 8, _EvenTimerPolicy(), _lagrangian(), 1, 4, True, True),
            (5, 3, ThresholdStrategy(0.3), ReplicationThresholdStrategy(2), 2, 5, True, True),
            (3, 9, StrategyPolicy(ThresholdStrategy(0.25)), _tabular(), 3, 3, False, True),
            (4, 3, ThresholdStrategy(0.25), _BatchedReplication(), 1, 4, True, True),
        ]

    def _controller(self, scenario, spec, engine=None):
        b, _, recovery, replication, k, initial_nodes, enforce, respect = spec
        return TwoLevelController(
            scenario,
            b,
            recovery,
            replication_strategy=replication,
            initial_nodes=initial_nodes,
            k=k,
            enforce_invariant=enforce,
            respect_recovery_limit=respect,
            engine=engine,
        )

    def test_every_member_equals_its_scalar_reference(self, engine_steps, monkeypatch):
        loop_calls = {"n": 0}
        original = TwoLevelLoop.pre_step

        def counted(self, observation):
            loop_calls["n"] += 1
            return original(self, observation)

        monkeypatch.setattr(TwoLevelLoop, "pre_step", counted)
        scenario = self._scenario()
        engine = BatchRecoveryEngine(scenario)
        cohort = Cohort(engine)
        specs = self._specs()
        members = [
            cohort.add(CohortMember(self._controller(scenario, spec, engine), spec[1]))
            for spec in specs
        ]
        cohort.run()
        assert engine_steps["n"] == loop_calls["n"] == scenario.horizon
        for member, spec in zip(members, specs):
            direct = self._controller(scenario, spec).run_scalar_reference(seed=spec[1])
            _assert_equal(cohort.result(member), direct)

    def test_class_aware_and_classless_members_share_one_loop(self):
        scenario = _mixed_scenario(horizon=25)
        engine = BatchRecoveryEngine(scenario)
        prefer_db = ClassPreferenceReplicationStrategy(
            _lagrangian(), preferred="db", class_names=("web", "db")
        )
        prefer_web = ClassPreferenceReplicationStrategy(
            MixedReplicationStrategy(
                ReplicationThresholdStrategy(2), ReplicationThresholdStrategy(6), kappa=0.7
            ),
            preferred="web",
            class_names=("db", "web"),
        )
        specs = [
            (3, 21, ThresholdStrategy(0.6), prefer_db, 1, 4, True, True),
            (2, 22, ThresholdStrategy(0.75), ReplicationThresholdStrategy(3), 2, 4, True, True),
            (4, 23, PeriodicStrategy(6.0), prefer_web, 2, 5, True, False),
            (2, 24, ThresholdStrategy(0.5), _lagrangian(), 1, 4, False, True),
            (3, 25, NoRecoveryStrategy(), None, 1, 3, True, True),
        ]
        cohort = Cohort(engine)
        members = [
            cohort.add(CohortMember(self._controller(scenario, spec, engine), spec[1]))
            for spec in specs
        ]
        served = {id(member): [] for member in members}
        while not cohort.done:
            event = cohort.advance()
            for member in members:
                served[id(member)].append(event_rows(event, member))
        for member, spec in zip(members, specs):
            controller = self._controller(scenario, spec)
            _assert_equal(cohort.result(member), controller.run_scalar_reference(seed=spec[1]))
            direct = []
            controller.run(seed=spec[1], on_step=direct.append)
            for ours, theirs in zip(served[id(member)], direct, strict=True):
                for name in ("executed_recoveries", "crashed", "activated", "active"):
                    np.testing.assert_array_equal(getattr(ours, name), getattr(theirs, name))
                for name in ("add_class", "action_probabilities"):
                    mine, alone = getattr(ours.decision, name), getattr(theirs.decision, name)
                    if alone is None:
                        assert mine is None, name
                    else:
                        np.testing.assert_array_equal(mine, alone, err_msg=name)
                for name in ("state", "add_node", "emergency_add", "add_probability"):
                    np.testing.assert_array_equal(
                        getattr(ours.decision, name), getattr(theirs.decision, name)
                    )


class TestBeginRowMap:
    def test_a_map_outside_the_buffer_is_a_named_error(self):
        engine = BatchRecoveryEngine(_mixed_scenario(horizon=5))
        uniforms = engine.draw_uniforms(1, 3)
        for rows in ([0, 3], [-1, 0], [[0, 1]], [0.0, 1.0]):
            with pytest.raises(ValueError, match="rows must map every episode"):
                engine.begin(uniforms=uniforms, rows=np.asarray(rows))

    def test_a_map_reads_the_rows_it_names(self):
        engine = BatchRecoveryEngine(_mixed_scenario(horizon=5))
        uniforms = engine.draw_uniforms(1, 3)
        sim = engine.begin(uniforms=uniforms, rows=np.array([2, 2, 0]))
        alone = engine.begin(uniforms=uniforms[[2, 2, 0]])
        recover = np.zeros(sim.state.shape, dtype=bool)
        for _ in range(5):
            np.testing.assert_array_equal(engine.step(sim, recover), engine.step(alone, recover))
        np.testing.assert_array_equal(sim.belief, alone.belief)
