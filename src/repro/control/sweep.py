"""Fleet-scale scenario sweeps on the unified control-plane API.

One home for the sweep helpers the Table 7 / Figure 12 benchmarks used to
duplicate: the emulation-testbed cell runner, the node-POMDP batch-engine
sweep, and the closed-loop two-level sweeps.  All share the cell convention
(scenario key x strategy name) so a benchmark can print one table across
backends, and the batched variants share one compiled engine per scenario.
The closed-loop sweeps run every ``(scenario, cell)`` pair of a group of
identical scenarios as one cohort (:mod:`repro.control.cohort`): one
engine step per tick for all of them, on one common-random-number buffer.

The batched sweeps accept *per-node* parameters everywhere a single
:class:`~repro.core.node_model.NodeParameters` used to be hard-coded: pass
a sequence of per-node parameters (and optionally per-node observation
models) to ``engine_fleet_sweep``/``closed_loop_sweep``, hand ready-made
mixed scenarios to :func:`mixed_closed_loop_sweep`, or scale the whole
fleet's compromise probabilities with :func:`attacker_intensity_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.metrics import summarize_runs
from ..core.node_model import NodeParameters
from ..core.observation import ObservationModel
from ..core.strategies import RecoveryStrategy, ReplicationStrategy
from ..sim import BatchRecoveryEngine, BatchSimulationResult, FleetScenario
from ..sim.seeding import resolve_entropy
from ..sim.strategies import BatchStrategy
from .cohort import Cohort, CohortMember, scenario_key
from .two_level import TwoLevelController, TwoLevelResult

__all__ = [
    "default_tolerance_threshold",
    "ClosedLoopCell",
    "emulation_cell",
    "engine_fleet_sweep",
    "closed_loop_sweep",
    "mixed_closed_loop_sweep",
    "attacker_intensity_sweep",
]


def default_tolerance_threshold(n1: int) -> int:
    """The ``f = (N_1 - 1) / 3`` BFT rule used by the fleet sweeps.

    Raises:
        ValueError: When ``n1 <= 0`` — a fleet needs at least one node, and
            the silent ``f = 0`` this used to return for non-positive sizes
            let misconfigured sweeps run whole tables of meaningless cells.
    """
    if n1 <= 0:
        raise ValueError(
            f"default_tolerance_threshold requires a fleet size n1 >= 1, got {n1}"
        )
    return (n1 - 1) // 3 if n1 >= 3 else 0


def _per_node(value, num_nodes: int, kind: str) -> tuple:
    """Expand a shared value — or validate a per-node sequence — to ``N`` slots."""
    if isinstance(value, (list, tuple)):
        if len(value) != num_nodes:
            raise ValueError(
                f"need one {kind} per node ({num_nodes}), got {len(value)}"
            )
        return tuple(value)
    return (value,) * num_nodes


def _sweep_scenario(
    node_params: NodeParameters | Sequence[NodeParameters],
    observation_model: ObservationModel | Sequence[ObservationModel],
    num_nodes: int,
    horizon: int,
    f: int | None,
) -> FleetScenario:
    """Build a (possibly heterogeneous) sweep scenario from flexible inputs."""
    return FleetScenario(
        _per_node(node_params, num_nodes, "NodeParameters"),
        _per_node(observation_model, num_nodes, "observation model"),
        horizon=horizon,
        f=f,
    )


def emulation_cell(
    n1: int,
    delta_r: float,
    policy_factory: Callable[[], object],
    seeds: Sequence[int],
    horizon: int,
    node_params: NodeParameters,
) -> dict[str, tuple[float, float]]:
    """Run one Table 7 emulation-testbed cell and summarize its metrics.

    One :class:`~repro.emulation.EmulationEnvironment` episode per seed;
    the summary maps each metric to a ``(mean, ci)`` pair via
    :func:`~repro.core.metrics.summarize_runs`.
    """
    from ..emulation import EmulationConfig, EmulationEnvironment

    config = EmulationConfig(
        initial_nodes=n1,
        horizon=horizon,
        delta_r=delta_r,
        node_params=node_params,
    )
    runs = [
        EmulationEnvironment(config, policy_factory(), seed=seed).run()
        for seed in seeds
    ]
    return summarize_runs(runs)


def engine_fleet_sweep(
    n1_values: Sequence[int],
    strategies: Mapping[str, RecoveryStrategy | BatchStrategy],
    node_params: NodeParameters | Sequence[NodeParameters],
    observation_model: ObservationModel | Sequence[ObservationModel],
    num_episodes: int = 200,
    horizon: int = 200,
    seed: int | None = 0,
    tolerance_threshold: Callable[[int], int] = default_tolerance_threshold,
    n_jobs: int = 1,
) -> dict[tuple[int, str], BatchSimulationResult]:
    """Node-POMDP fleet sweep on the batch engine (no system level).

    For every initial size ``n1`` an ``n1``-node scenario is compiled once
    and every strategy is evaluated on ``num_episodes`` batched episodes
    with common random numbers: the size's uniform buffers are drawn once
    and shared by its strategies (``seed=None`` draws one fresh root for
    the whole sweep).  ``node_params``/``observation_model``
    accept either one shared value or a per-node sequence of length ``n1``
    (the latter only when a single ``n1`` is swept, since the sequence must
    match the fleet size).  ``n_jobs > 1`` shards the episodes across
    worker processes (:mod:`repro.control.parallel`); the table is
    bit-identical to ``n_jobs=1`` under a fixed seed.
    """
    scenarios = [
        (
            n1,
            _sweep_scenario(
                node_params,
                observation_model,
                num_nodes=n1,
                horizon=horizon,
                f=tolerance_threshold(n1),
            ),
        )
        for n1 in n1_values
    ]
    if n_jobs != 1:
        from .parallel import parallel_engine_sweep_table

        return parallel_engine_sweep_table(
            scenarios, strategies, num_episodes, seed, n_jobs
        )
    if num_episodes < 1:
        raise ValueError("num_episodes must be >= 1")
    root = resolve_entropy(seed)
    table: dict[tuple[int, str], BatchSimulationResult] = {}
    for n1, scenario in scenarios:
        engine = BatchRecoveryEngine(scenario)
        uniforms = engine.draw_uniforms(root, num_episodes)
        adversary_uniforms = engine.draw_adversary_uniforms(root, num_episodes)
        for name, strategy in strategies.items():
            table[(n1, name)] = engine.run(
                strategy, uniforms=uniforms, adversary_uniforms=adversary_uniforms
            )
    return table


def _per_scenario(initial_nodes, count: int) -> tuple:
    """One ``initial_nodes`` entry per scenario from a shared value or a sequence."""
    if isinstance(initial_nodes, (list, tuple)):
        if len(initial_nodes) != count:
            raise ValueError(
                f"need one initial_nodes entry per scenario ({count}), got "
                f"{len(initial_nodes)}"
            )
        return tuple(initial_nodes)
    return (initial_nodes,) * count


def _scenario_groups(scenarios: Sequence[tuple[object, FleetScenario]]) -> list[list[int]]:
    """Indices of the scenarios that compile to equal engine tables, grouped."""
    groups: dict = {}
    for index, (_, scenario) in enumerate(scenarios):
        key = scenario_key(scenario)
        groups.setdefault(index if key is None else key, []).append(index)
    return list(groups.values())


def _run_cell_cohort(
    engine: BatchRecoveryEngine,
    scenarios: Sequence[tuple[int, FleetScenario]],
    cells: Sequence["ClosedLoopCell"],
    seed: int,
    k: int,
    initial: tuple,
    episodes: range,
    batch: int,
    profile: bool = False,
) -> dict[tuple[int, int], TwoLevelResult]:
    """Run every ``(scenario, cell)`` pair of one scenario group as one cohort.

    ``scenarios`` holds ``(index, scenario)`` pairs of equal
    :func:`~repro.control.cohort.scenario_key`, all compiled by
    ``engine``; ``initial`` is indexed by ``index``.  Every pair runs
    episodes ``episodes`` of a ``batch``-episode run of ``seed``'s tree,
    so all pairs share one uniform buffer (common random numbers) and one
    engine step per tick.  Returns ``{(index, cell_index): result}``.
    """
    cohort = Cohort(engine, profile)
    members = {}
    for i, scenario in scenarios:
        for j, cell in enumerate(cells):
            controller = TwoLevelController(
                scenario,
                len(episodes),
                cell.recovery,
                replication_strategy=cell.replication,
                initial_nodes=initial[i],
                k=k,
                enforce_invariant=cell.enforce_invariant,
                respect_recovery_limit=cell.respect_recovery_limit,
                engine=engine,
            )
            members[(i, j)] = cohort.add(
                CohortMember(controller, seed, episodes.start, batch)
            )
    cohort.run()
    return {pair: cohort.result(member) for pair, member in members.items()}


def _run_cells(
    scenarios: Sequence[tuple[object, FleetScenario]],
    cells: Sequence["ClosedLoopCell"],
    num_envs: int,
    seed: int | None,
    k: int,
    initial_nodes: int | None | Sequence[int | None],
) -> dict:
    """Run a keyed closed-loop sweep grid, one cohort per scenario group.

    Scenarios that compile to equal engine tables run all their cells in
    one cohort (:mod:`repro.control.cohort`): one engine step per tick for
    the whole group, one uniform buffer for every pair.  ``seed=None``
    draws one fresh root for the whole sweep.  Returns ``{(key,
    cell.name): result}`` in scenario-major order.
    """
    initial = _per_scenario(initial_nodes, len(scenarios))
    root = resolve_entropy(seed)
    results: dict[tuple[int, int], TwoLevelResult] = {}
    for indices in _scenario_groups(scenarios):
        results.update(
            _run_cell_cohort(
                BatchRecoveryEngine(scenarios[indices[0]][1]),
                [(i, scenarios[i][1]) for i in indices],
                cells,
                root,
                k,
                initial,
                range(num_envs),
                num_envs,
            )
        )
    return {
        (key, cell.name): results[(i, j)]
        for i, (key, _) in enumerate(scenarios)
        for j, cell in enumerate(cells)
    }


@dataclass(frozen=True)
class ClosedLoopCell:
    """One strategy column of a closed-loop two-level sweep.

    Attributes:
        name: Row label (``tolerance``, ``no-recovery``, ...).
        recovery: Node-level recovery strategy/policy.
        replication: System-level replication strategy (``None`` never adds).
        enforce_invariant: Whether Prop. 1 emergency adds are enabled.
        respect_recovery_limit: Whether the ``k``-recovery limit applies.
    """

    name: str
    recovery: object
    replication: ReplicationStrategy | None = None
    enforce_invariant: bool = True
    respect_recovery_limit: bool = True


def closed_loop_sweep(
    n1_values: Sequence[int],
    cells: Sequence[ClosedLoopCell],
    node_params: NodeParameters | Sequence[NodeParameters],
    observation_model: ObservationModel | Sequence[ObservationModel],
    smax: int,
    num_envs: int = 100,
    horizon: int = 200,
    seed: int | None = 0,
    k: int = 1,
    tolerance_threshold: Callable[[int], int] = default_tolerance_threshold,
    n_jobs: int = 1,
) -> dict[tuple[int, str], TwoLevelResult]:
    """Closed-loop Table 7 / Figure 12 sweep on the batched control plane.

    Every ``(n1, cell)`` pair runs ``num_envs`` full two-level episodes on
    an ``smax``-slot bank (``n1`` values of equal ``f`` share one engine
    and one cohort), coupling the
    cell's recovery strategy with its replication strategy — the workload
    the scalar ``SystemController`` loop served one episode at a time.
    ``node_params``/``observation_model`` accept one shared value or a
    per-slot sequence of length ``smax``.  ``n_jobs > 1`` shards the
    episodes across worker processes (:mod:`repro.control.parallel`);
    the table is bit-identical to ``n_jobs=1`` under a fixed seed.
    """
    scenarios = [
        (
            n1,
            _sweep_scenario(
                node_params,
                observation_model,
                num_nodes=smax,
                horizon=horizon,
                f=tolerance_threshold(n1),
            ),
        )
        for n1 in n1_values
    ]
    initial_nodes = [n1 for n1, _ in scenarios]
    if n_jobs != 1:
        from .parallel import parallel_closed_loop_table

        return parallel_closed_loop_table(
            scenarios, cells, num_envs, seed, k, initial_nodes, n_jobs
        )
    return _run_cells(scenarios, cells, num_envs, seed, k, initial_nodes)


def mixed_closed_loop_sweep(
    scenarios: Mapping[str, FleetScenario],
    cells: Sequence[ClosedLoopCell],
    num_envs: int = 100,
    seed: int | None = 0,
    k: int = 1,
    initial_nodes: int | None = None,
    optimize_deltas: bool = False,
    delta_grid: Sequence[float] = (5, 10, 25, math.inf),
    delta_optimizer_factory: Callable[[], object] | None = None,
    delta_episodes_per_evaluation: int = 10,
    n_jobs: int = 1,
) -> dict[tuple[str, str], TwoLevelResult]:
    """Heterogeneous closed-loop sweep over ready-made (mixed) scenarios.

    Every ``(scenario, cell)`` pair runs ``num_envs`` full two-level
    episodes; identical scenarios share one engine and one cohort.
    Scenarios built with :meth:`~repro.sim.FleetScenario.mixed` carry
    per-class metrics on their results (``TwoLevelResult.class_summary``).

    With ``optimize_deltas=True`` every scenario's classes first get their
    BTR deadline ``Delta_R`` re-optimized per class — Algorithm 1 on each
    class's own node POMDP over ``delta_grid``
    (:func:`~repro.control.class_aware.optimize_class_deltas`) — and the
    cells run against the deadline-optimized scenario.  Requires labelled
    scenarios (:meth:`~repro.sim.FleetScenario.mixed`).

    ``n_jobs > 1`` shards the closed-loop episodes across worker processes
    (:mod:`repro.control.parallel`); the per-class ``Delta_R``
    optimization — a different, solver-bound workload — always runs in the
    parent, and the table is bit-identical to ``n_jobs=1`` under a fixed
    seed.
    """
    from .class_aware import apply_class_deltas, optimize_class_deltas

    prepared: list[tuple[str, FleetScenario]] = []
    for scenario_name, scenario in scenarios.items():
        if optimize_deltas:
            deltas = optimize_class_deltas(
                scenario.node_classes(),
                delta_grid=delta_grid,
                optimizer_factory=delta_optimizer_factory,
                horizon=scenario.horizon,
                episodes_per_evaluation=delta_episodes_per_evaluation,
                seed=seed,
            )
            scenario = apply_class_deltas(scenario, deltas)
        prepared.append((scenario_name, scenario))
    if n_jobs != 1:
        from .parallel import parallel_closed_loop_table

        return parallel_closed_loop_table(
            prepared, cells, num_envs, seed, k, initial_nodes, n_jobs
        )
    return _run_cells(prepared, cells, num_envs, seed, k, initial_nodes)


def attacker_intensity_sweep(
    scenario: FleetScenario,
    intensities: Sequence[float],
    cells: Sequence[ClosedLoopCell],
    num_envs: int = 100,
    seed: int | None = 0,
    k: int = 1,
    initial_nodes: int | None = None,
    n_jobs: int = 1,
) -> dict[tuple[float, str], TwoLevelResult]:
    """Closed-loop sweep over attacker intensities (fleet-wide ``p_A`` scale).

    For every intensity ``x`` the base scenario's per-node compromise
    probabilities become ``min(1, x * p_{A,i})``
    (:meth:`~repro.sim.FleetScenario.scale_attack`) — node classes keep
    their identity, only the attacker gets faster — and every cell runs
    ``num_envs`` two-level episodes against the scaled fleet.  One engine
    is compiled per intensity and shared across cells.  ``n_jobs > 1``
    shards the episodes across worker processes
    (:mod:`repro.control.parallel`); the table is bit-identical to
    ``n_jobs=1`` under a fixed seed.
    """
    scaled_scenarios = [
        (float(intensity), scenario.scale_attack(intensity))
        for intensity in intensities
    ]
    if n_jobs != 1:
        from .parallel import parallel_closed_loop_table

        return parallel_closed_loop_table(
            scaled_scenarios, cells, num_envs, seed, k, initial_nodes, n_jobs
        )
    return _run_cells(scaled_scenarios, cells, num_envs, seed, k, initial_nodes)
