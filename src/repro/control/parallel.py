"""Sharded multi-process execution of the control-plane sweeps.

Every sweep in :mod:`repro.control.sweep` is embarrassingly parallel over
episodes: the engine's per-(episode, node) uniform streams and the system
controller's per-episode streams are independent children of one
``SeedSequence`` tree, and every per-episode metric is a row-wise
reduction.  This module fans that work out to worker processes:

* **Contiguous episode shards.**  ``num_envs`` episodes are partitioned
  into contiguous ``[lo, hi)`` shards (:func:`shard_episodes`).  An
  engine sweep's work item is one ``(scenario, strategy, shard)``
  triple; a closed-loop sweep's is one ``(scenario group, shard)`` pair,
  which runs every cell of the group's scenarios as one cohort
  (:mod:`repro.control.cohort`) over the shard's episodes.
* **Deterministic per-worker seed subtrees.**  The serial path consumes
  children ``0 .. B*N-1`` of ``SeedSequence(seed)`` for the engine
  (episode-major) and children ``B*N + b`` for episode ``b``'s system
  controller.  A worker computes exactly the children its shard owns
  via the spawn-key identity ``SeedSequence(seed).spawn(n)[i] ==
  SeedSequence(seed, spawn_key=(i,))`` — keys ``[lo*N, hi*N)`` and
  ``[B*N + lo, B*N + hi)`` to :func:`~repro.sim.seeding.uniform_streams`,
  no serial pre-spawn, no stream handoff — so **any shard count
  reproduces the single-process result bit for bit** under a fixed seed.
* **Returned rows.**  Each task returns its shard's results — the
  per-episode metric rows ``[lo, hi)`` of every pair it ran — through
  ``pool.map``, and the parent concatenates them in shard order.  Each
  shard's :class:`~repro.sim.kernels.EngineProfile` travels with its
  rows; the join folds them into one profile per pair via
  :meth:`~repro.sim.kernels.EngineProfile.merge`.

``seed=None`` draws fresh OS entropy once in the parent (the run is
non-reproducible, matching the serial convention, but all shards still
share one tree).  Strategies, policies and scenarios must be picklable —
everything the repo ships is; ad-hoc lambdas are not.

The entry points are the ``n_jobs=`` parameters of
:func:`~repro.control.sweep.engine_fleet_sweep`,
:func:`~repro.control.sweep.closed_loop_sweep`,
:func:`~repro.control.sweep.mixed_closed_loop_sweep` and
:func:`~repro.control.sweep.attacker_intensity_sweep`;
``benchmarks/bench_parallel_sweep.py`` asserts the bit-exact parity and
the multi-core speedup.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from ..sim import BatchRecoveryEngine, BatchSimulationResult, FleetScenario
from ..sim.kernels import EngineProfile
from ..sim.seeding import resolve_entropy
from .sweep import _per_scenario, _run_cell_cohort, _scenario_groups

__all__ = [
    "validate_n_jobs",
    "shard_episodes",
    "parallel_closed_loop_table",
    "parallel_engine_sweep_table",
]


# -- sharding and seeding contract -----------------------------------------------
def validate_n_jobs(n_jobs: int) -> int:
    """Validate the worker count of a parallel entry point.

    Raises:
        ValueError: Named ``n_jobs`` error for non-integers and values
            below 1 (the satellite contract of the parallel API).
    """
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, (int, np.integer)):
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return int(n_jobs)


def shard_episodes(num_episodes: int, num_shards: int) -> list[tuple[int, int]]:
    """Partition ``B`` episodes into contiguous ``[lo, hi)`` shards.

    Shard sizes differ by at most one episode; when there are more shards
    than episodes the surplus shards are dropped (never empty ranges).
    """
    if num_episodes < 1:
        raise ValueError(f"num_episodes must be >= 1, got {num_episodes}")
    num_shards = min(validate_n_jobs(num_shards), num_episodes)
    base, extra = divmod(num_episodes, num_shards)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(num_shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# -- worker-side execution ---------------------------------------------------------
#: Per-worker state set up by the pool initializer: the sweep spec and
#: memos for compiled engines / uniform shards so multiple cells of one
#: scenario reuse them within a worker.
_WORKER: dict = {}


@dataclass(frozen=True)
class _ClosedLoopSpec:
    """Everything a worker needs to run closed-loop shards (picklable)."""

    scenarios: tuple  # ((key, FleetScenario), ...)
    groups: tuple  # ((scenario_index, ...), ...) of equal scenario keys
    cells: tuple  # (ClosedLoopCell, ...)
    num_envs: int
    k: int
    initial_nodes: tuple  # one entry (int | None) per scenario
    entropy: int
    profile: bool


@dataclass(frozen=True)
class _EngineSweepSpec:
    """Everything a worker needs to run engine-sweep shards (picklable)."""

    scenarios: tuple  # ((key, FleetScenario), ...)
    strategies: tuple  # ((name, strategy), ...)
    entropy: int
    profile: bool


def _init_worker(spec) -> None:
    _WORKER.clear()
    _WORKER["spec"] = spec
    _WORKER["engines"] = {}
    _WORKER["uniforms"] = {}


def _worker_engine(scenario_index: int, scenario: FleetScenario) -> BatchRecoveryEngine:
    engines = _WORKER["engines"]
    engine = engines.get(scenario_index)
    if engine is None:
        engine = engines[scenario_index] = BatchRecoveryEngine(scenario)
    return engine


def _worker_uniforms(engine: BatchRecoveryEngine, entropy: int, lo: int, hi: int) -> np.ndarray:
    # Keyed by stream geometry, not scenario index: the strategies of an
    # engine sweep's scenario, run as consecutive tasks, consume identical
    # uniform streams.
    memo = _WORKER["uniforms"]
    scenario = engine.scenario
    key = (lo, hi, scenario.num_nodes, scenario.horizon)
    uniforms = memo.get(key)
    if uniforms is None:
        uniforms = engine.draw_uniforms([(entropy, range(lo, hi))])
        memo.clear()  # one live shard buffer per worker bounds memory
        memo[key] = uniforms
    return uniforms


def _run_closed_loop_shard(task: tuple[int, int, int]) -> dict:
    """Rows ``[lo, hi)`` of every ``(scenario, cell)`` pair of one group."""
    group_index, lo, hi = task
    spec: _ClosedLoopSpec = _WORKER["spec"]
    indices = spec.groups[group_index]
    return _run_cell_cohort(
        _worker_engine(indices[0], spec.scenarios[indices[0]][1]),
        [(i, spec.scenarios[i][1]) for i in indices],
        spec.cells,
        spec.entropy,
        spec.k,
        spec.initial_nodes,
        range(lo, hi),
        spec.num_envs,
        spec.profile,
    )


def _run_engine_shard(task: tuple[int, int, int, int]) -> BatchSimulationResult:
    """Rows ``[lo, hi)`` of one ``(scenario, strategy)`` pair."""
    scenario_index, strategy_index, lo, hi = task
    spec: _EngineSweepSpec = _WORKER["spec"]
    _, scenario = spec.scenarios[scenario_index]
    _, strategy = spec.strategies[strategy_index]
    engine = _worker_engine(scenario_index, scenario)
    return engine.run(
        strategy,
        uniforms=_worker_uniforms(engine, spec.entropy, lo, hi),
        profile=spec.profile or None,
        adversary_uniforms=engine.draw_adversary_uniforms([(spec.entropy, range(lo, hi))]),
    )


def _join(parts: list):
    """One result from its shards' results: rows concatenated in shard order.

    Works on :class:`~repro.control.two_level.TwoLevelResult` (per-class
    dicts included) and :class:`~repro.sim.BatchSimulationResult` alike;
    the shards' engine profiles are merged, and every shard shares the
    horizon.
    """

    def rows(values):
        if values[0] is None:
            return None
        if isinstance(values[0], dict):
            return {label: np.concatenate([v[label] for v in values]) for label in values[0]}
        return np.concatenate(values)

    first = parts[0]
    joined = {
        field.name: rows([getattr(part, field.name) for part in parts])
        for field in fields(first)
        if field.name not in ("steps", "profile")
    }
    if first.profile is not None:
        joined["profile"] = EngineProfile.merge(*(part.profile for part in parts))
    return replace(first, **joined)


# -- parent-side drivers -----------------------------------------------------------
def _pool_context():
    """Prefer fork (cheap start, inherited imports); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _plan_shards(num_episodes: int, n_jobs: int, num_units: int) -> list[tuple[int, int]]:
    """Choose the episode-shard count for ``num_units`` independent work units.

    A unit is a (scenario, strategy) pair of an engine sweep or a scenario
    group's cohort of a closed-loop sweep; each is already an independent
    task, and each episode shard pays the full horizon loop's fixed
    per-step cost — the vectorized engine's step time is ``c + B * m``
    with the constant ``c`` dominating at small ``B``.  So episodes are
    split only as much as needed to keep ``n_jobs`` workers busy:
    ``ceil(n_jobs / num_units)`` shards per unit (at least one; capped at
    ``num_episodes``).  Any shard count yields the bit-identical table —
    this only decides wall-clock.
    """
    if n_jobs <= 1:
        return [(0, num_episodes)]
    per_unit = -(-n_jobs // max(num_units, 1))
    return shard_episodes(num_episodes, per_unit)


def _effective_jobs(n_jobs: int, num_tasks: int) -> int:
    return max(1, min(n_jobs, num_tasks, (os.cpu_count() or 1) * 4))


def parallel_closed_loop_table(
    scenarios: Sequence[tuple[object, FleetScenario]],
    cells: Sequence,
    num_envs: int,
    seed: int | None,
    k: int,
    initial_nodes: int | None | Sequence[int | None],
    n_jobs: int,
    profile: bool = False,
) -> dict:
    """Run a keyed closed-loop sweep grid across worker processes.

    The sharded counterpart of :mod:`repro.control.sweep`'s serial
    ``_run_cells``: scenarios are grouped by engine tables, every group's
    ``num_envs`` episodes are split into contiguous shards, and each
    (group, shard) task runs all of the group's ``(scenario, cell)``
    pairs as one cohort (:mod:`repro.control.cohort`) over its own seed
    subtree and returns their rows.  The join concatenates each pair's
    rows in shard order into one
    :class:`~repro.control.two_level.TwoLevelResult`, carrying its group's
    shard profiles merged.  Bit-identical to the serial table for any
    ``n_jobs`` under a fixed seed.
    """
    n_jobs = validate_n_jobs(n_jobs)
    scenarios = tuple((key, scenario) for key, scenario in scenarios)
    cells = tuple(cells)
    if not scenarios or not cells:
        return {}
    groups = tuple(tuple(indices) for indices in _scenario_groups(scenarios))
    spec = _ClosedLoopSpec(
        scenarios=scenarios,
        groups=groups,
        cells=cells,
        num_envs=num_envs,
        k=k,
        initial_nodes=_per_scenario(initial_nodes, len(scenarios)),
        entropy=resolve_entropy(seed),
        profile=profile,
    )
    shards = _plan_shards(num_envs, n_jobs, len(groups))
    tasks = [(g, lo, hi) for g in range(len(groups)) for lo, hi in shards]
    parts: dict = {}
    for results in _map_tasks(spec, _run_closed_loop_shard, tasks, n_jobs):
        for pair, result in results.items():
            parts.setdefault(pair, []).append(result)
    return {
        (key, cell.name): _join(parts[(i, j)])
        for i, (key, _) in enumerate(scenarios)
        for j, cell in enumerate(cells)
    }


def parallel_engine_sweep_table(
    scenarios: Sequence[tuple[object, FleetScenario]],
    strategies: Mapping,
    num_episodes: int,
    seed: int | None,
    n_jobs: int,
    profile: bool = False,
) -> dict:
    """Run a keyed node-POMDP engine sweep across worker processes.

    The sharded counterpart of
    :func:`~repro.control.sweep.engine_fleet_sweep`'s inner loop: each
    shard replays its episode rows of the shared uniform buffer through
    :meth:`~repro.sim.BatchRecoveryEngine.run` and returns its
    per-(episode, node) statistics; the join concatenates them in shard
    order into bit-identical :class:`~repro.sim.BatchSimulationResult`
    tables.
    """
    n_jobs = validate_n_jobs(n_jobs)
    scenarios = tuple((key, scenario) for key, scenario in scenarios)
    strategy_items = tuple(strategies.items())
    if not scenarios or not strategy_items:
        return {}
    spec = _EngineSweepSpec(
        scenarios=scenarios,
        strategies=strategy_items,
        entropy=resolve_entropy(seed),
        profile=profile,
    )
    shards = _plan_shards(num_episodes, n_jobs, len(scenarios) * len(strategy_items))
    tasks = [
        (i, j, lo, hi)
        for i in range(len(scenarios))
        for lo, hi in shards
        for j in range(len(strategy_items))
    ]
    parts: dict = {}
    for (i, j, _, _), result in zip(tasks, _map_tasks(spec, _run_engine_shard, tasks, n_jobs)):
        parts.setdefault((i, j), []).append(result)
    return {
        (key, name): _join(parts[(i, j)])
        for i, (key, _) in enumerate(scenarios)
        for j, (name, _) in enumerate(strategy_items)
    }


def _map_tasks(spec, runner, tasks, n_jobs: int) -> list:
    """Run the shard tasks on a worker pool (in-process when pointless).

    A single worker — or a single task — skips the pool entirely and runs
    the identical shard code in-process, which keeps ``n_jobs=2`` usable
    on one-core machines for parity testing without fork overhead
    dominating.  Results come back in task order.
    """
    jobs = _effective_jobs(n_jobs, len(tasks))
    if jobs == 1:
        _init_worker(spec)
        try:
            return [runner(task) for task in tasks]
        finally:
            _WORKER.clear()
    with _pool_context().Pool(jobs, initializer=_init_worker, initargs=(spec,)) as pool:
        results = pool.map(runner, tasks)
        # Let the workers exit and reap them before __exit__ terminates
        # the pool, so none outlives the sweep.
        pool.close()
        pool.join()
    return results
