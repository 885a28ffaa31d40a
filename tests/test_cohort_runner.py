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

plus the step count of one cohort (exactly ``horizon`` engine steps) and
the one-root-per-sweep rule for ``seed=None``.
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
from repro.control.cohort import Cohort, CohortMember, scenario_key
from repro.core import (
    BetaBinomialObservationModel,
    MixedReplicationStrategy,
    NodeParameters,
    NoRecoveryStrategy,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
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
