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
* **Shared-memory result arrays.**  The parent allocates one
  ``multiprocessing.shared_memory`` block per sweep with a named slot for
  every per-episode metric array (:class:`SharedResultStore`); workers
  attach and write their ``[lo, hi)`` rows in place.  Only tiny
  :class:`~repro.sim.kernels.EngineProfile` objects travel back through
  the pool — per-episode logs are never pickled.
* **Profile merge at join.**  Each shard runs with engine profiling and
  the parent folds the per-shard phase timings into one profile per cell
  (per scenario group for the closed-loop cohorts, whose cells share
  their engine steps) via :meth:`~repro.sim.kernels.EngineProfile.merge`.

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
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping, Sequence

import numpy as np

from ..sim import BatchRecoveryEngine, BatchSimulationResult, FleetScenario
from ..sim.kernels import EngineProfile
from ..sim.seeding import resolve_entropy, uniform_streams
from .sweep import _per_scenario, _run_cell_cohort, _scenario_groups
from .two_level import TwoLevelResult

__all__ = [
    "validate_n_jobs",
    "shard_episodes",
    "resolve_root_entropy",
    "shard_uniforms",
    "SharedResultStore",
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


#: An integer seed is its own root entropy (``SeedSequence(seed)``); ``None``
#: draws OS entropy once in the parent so that every shard of the run still
#: descends from one tree (the run itself is non-reproducible, matching the
#: serial ``seed=None`` convention).
resolve_root_entropy = resolve_entropy


def shard_uniforms(
    entropy: int, lo: int, hi: int, num_nodes: int, width: int
) -> np.ndarray:
    """Engine uniform rows for episodes ``[lo, hi)`` of the full batch.

    Reproduces rows ``lo:hi`` of
    :meth:`~repro.sim.BatchRecoveryEngine.draw_uniforms` for the same
    seed: stream ``(b, j)`` is child ``b * N + j`` of the root
    (episode-major), and the spawn-key identity ``SeedSequence(e).spawn(n)[i]
    == SeedSequence(e, spawn_key=(i,))`` lets a shard compute only its own
    keys ``[lo*N, hi*N)``.
    """
    streams = [(entropy, range(lo * num_nodes, hi * num_nodes))]
    return uniform_streams(streams, width).reshape(hi - lo, num_nodes, width)


# -- shared-memory result arrays --------------------------------------------------
@dataclass(frozen=True)
class _ArraySpec:
    """Placement of one named result array inside the shared block."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


class SharedResultStore:
    """Named per-episode result arrays backed by one shared-memory block.

    The parent :meth:`allocate`\\ s the block from a ``key -> (shape,
    dtype)`` layout before the pool starts; workers :meth:`attach` via the
    picklable :meth:`descriptor` and write their episode rows in place —
    the join step never unpickles a result array.  Keys are arbitrary
    hashable tuples (the sweeps use ``(scenario_index, cell_index,
    metric)``).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        specs: dict,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._specs = specs
        self._owner = owner

    @classmethod
    def allocate(cls, layout: Mapping) -> "SharedResultStore":
        """Create the block for a ``key -> (shape, dtype)`` layout."""
        specs: dict = {}
        offset = 0
        for key, (shape, dtype) in layout.items():
            dtype = np.dtype(dtype)
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            # 8-byte alignment keeps every float64/int64 view aligned.
            offset = (offset + 7) // 8 * 8
            specs[key] = _ArraySpec(offset, tuple(int(s) for s in shape), dtype.str)
            offset += size
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        return cls(shm, specs, owner=True)

    def descriptor(self) -> tuple[str, dict]:
        """Picklable ``(name, specs)`` handle workers attach with."""
        return self._shm.name, self._specs

    @classmethod
    def attach(
        cls, descriptor: tuple[str, dict], unregister: bool = False
    ) -> "SharedResultStore":
        """Attach to a block allocated by the parent (worker side).

        Python < 3.13 registers every attach with the process's resource
        tracker.  Under ``fork`` the tracker is shared with the parent, so
        the duplicate registration is a set no-op and the parent's
        ``unlink`` settles the books.  Under ``spawn``/``forkserver`` the
        worker has its *own* tracker, which would try to unlink the
        parent-owned block again at worker exit — pass
        ``unregister=True`` there to drop the spurious registration.
        """
        name, specs = descriptor
        shm = shared_memory.SharedMemory(name=name)
        if unregister:
            try:  # pragma: no cover - depends on interpreter internals
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return cls(shm, specs, owner=False)

    def array(self, key) -> np.ndarray:
        """NumPy view of one named array inside the block."""
        spec = self._specs[key]
        return np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=self._shm.buf, offset=spec.offset
        )

    def keys(self):
        return self._specs.keys()

    def close(self) -> None:
        """Detach; the owning (parent) handle also unlinks the block."""
        try:
            self._shm.close()
        finally:
            if self._owner:
                self._shm.unlink()


# -- worker-side execution ---------------------------------------------------------
#: Per-worker state set up by the pool initializer: the sweep spec, the
#: attached result store, and memos for compiled engines / uniform shards
#: so multiple cells of one scenario reuse them within a worker.
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
    store: tuple  # SharedResultStore descriptor
    profile: bool


@dataclass(frozen=True)
class _EngineSweepSpec:
    """Everything a worker needs to run engine-sweep shards (picklable)."""

    scenarios: tuple  # ((key, FleetScenario), ...)
    strategies: tuple  # ((name, strategy), ...)
    num_episodes: int
    entropy: int
    store: tuple
    profile: bool


def _init_worker(spec, store=None, unregister: bool = False) -> None:
    _WORKER.clear()
    _WORKER["spec"] = spec
    # The in-process path hands the parent-owned store straight in; pool
    # workers attach via the picklable descriptor.
    _WORKER["store"] = (
        store
        if store is not None
        else SharedResultStore.attach(spec.store, unregister=unregister)
    )
    _WORKER["engines"] = {}
    _WORKER["uniforms"] = {}


def _worker_engine(scenario_index: int, scenario: FleetScenario) -> BatchRecoveryEngine:
    engines = _WORKER["engines"]
    engine = engines.get(scenario_index)
    if engine is None:
        engine = engines[scenario_index] = BatchRecoveryEngine(scenario)
    return engine


def _worker_uniforms(
    entropy: int, lo: int, hi: int, num_nodes: int, width: int
) -> np.ndarray:
    # Keyed by stream geometry, not scenario index: the strategies of an
    # engine sweep's scenario, run as consecutive tasks, consume identical
    # uniform streams.
    memo = _WORKER["uniforms"]
    key = (lo, hi, num_nodes, width)
    uniforms = memo.get(key)
    if uniforms is None:
        uniforms = shard_uniforms(entropy, lo, hi, num_nodes, width)
        memo.clear()  # one live shard buffer per worker bounds memory
        memo[key] = uniforms
    return uniforms


def _run_closed_loop_shard(task: tuple[int, int, int]):
    group_index, lo, hi = task
    spec: _ClosedLoopSpec = _WORKER["spec"]
    store: SharedResultStore = _WORKER["store"]
    indices = spec.groups[group_index]
    results = _run_cell_cohort(
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
    for (i, j), result in results.items():
        for metric in _CLOSED_LOOP_METRICS:
            store.array((i, j, metric))[lo:hi] = getattr(result, metric)
        if result.class_average_cost is not None:
            for label, values in result.class_average_cost.items():
                store.array((i, j, "class_cost", label))[lo:hi] = values
            for label, values in result.class_recovery_frequency.items():
                store.array((i, j, "class_recovery", label))[lo:hi] = values
    # Every pair of the cohort shares its horizon and its engine profile.
    return group_index, result.steps, result.profile


def _run_engine_shard(task: tuple[int, int, int, int]):
    scenario_index, strategy_index, lo, hi = task
    spec: _EngineSweepSpec = _WORKER["spec"]
    store: SharedResultStore = _WORKER["store"]
    key, scenario = spec.scenarios[scenario_index]
    _, strategy = spec.strategies[strategy_index]
    engine = _worker_engine(scenario_index, scenario)
    uniforms = _worker_uniforms(
        spec.entropy, lo, hi, scenario.num_nodes, 2 * scenario.horizon
    )
    result = engine.run(
        strategy,
        uniforms=uniforms,
        profile=spec.profile or None,
        adversary_uniforms=engine.draw_adversary_uniforms([(spec.entropy, range(lo, hi))]),
    )
    for metric in _ENGINE_METRICS:
        store.array((scenario_index, strategy_index, metric))[lo:hi] = getattr(
            result, metric
        )
    if result.availability is not None:
        store.array((scenario_index, strategy_index, "availability"))[lo:hi] = (
            result.availability
        )
    return scenario_index, strategy_index, result.steps, result.profile


#: Per-episode metric fields of a TwoLevelResult, with their dtypes.
_CLOSED_LOOP_METRICS: dict[str, str] = {
    "availability": "<f8",
    "average_nodes": "<f8",
    "average_cost": "<f8",
    "recovery_frequency": "<f8",
    "additions": "<i8",
    "emergency_additions": "<i8",
    "evictions": "<i8",
}

#: Per-(episode, node) metric fields of a BatchSimulationResult.
_ENGINE_METRICS: dict[str, str] = {
    "average_cost": "<f8",
    "time_to_recovery": "<f8",
    "recovery_frequency": "<f8",
    "num_recoveries": "<i8",
    "num_compromises": "<i8",
}


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
    subtree.  Per-episode metrics land in shared memory, and the join
    assembles one :class:`~repro.control.two_level.TwoLevelResult` per
    pair, carrying its group's shard profiles merged.  Bit-identical to
    the serial table for any ``n_jobs`` under a fixed seed.
    """
    n_jobs = validate_n_jobs(n_jobs)
    scenarios = tuple((key, scenario) for key, scenario in scenarios)
    cells = tuple(cells)
    if not scenarios or not cells:
        return {}
    initial = _per_scenario(initial_nodes, len(scenarios))
    groups = tuple(tuple(indices) for indices in _scenario_groups(scenarios))
    entropy = resolve_root_entropy(seed)
    shards = _plan_shards(num_envs, n_jobs, len(groups))

    layout: dict = {}
    class_labels: dict[int, list[str]] = {}
    for i, (_, scenario) in enumerate(scenarios):
        labels = list(scenario.class_slots()) if scenario.node_labels is not None else []
        class_labels[i] = labels
        for j in range(len(cells)):
            for metric, dtype in _CLOSED_LOOP_METRICS.items():
                layout[(i, j, metric)] = ((num_envs,), dtype)
            for label in labels:
                layout[(i, j, "class_cost", label)] = ((num_envs,), "<f8")
                layout[(i, j, "class_recovery", label)] = ((num_envs,), "<f8")

    store = SharedResultStore.allocate(layout)
    tasks = [(g, lo, hi) for g in range(len(groups)) for lo, hi in shards]
    spec = _ClosedLoopSpec(
        scenarios=scenarios,
        groups=groups,
        cells=cells,
        num_envs=num_envs,
        k=k,
        initial_nodes=initial,
        entropy=entropy,
        store=store.descriptor(),
        profile=profile,
    )
    try:
        outcomes = _map_tasks(spec, _run_closed_loop_shard, tasks, n_jobs, store)
        group_of = {i: g for g, indices in enumerate(groups) for i in indices}
        steps = {g: max(s for gi, s, _ in outcomes if gi == g) for g in range(len(groups))}
        merged = {
            g: EngineProfile.merge(*(p for gi, _, p in outcomes if gi == g))
            for g in range(len(groups))
        }
        table: dict = {}
        for i, (key, scenario) in enumerate(scenarios):
            g = group_of[i]
            labels = class_labels[i]
            for j, cell in enumerate(cells):
                table[(key, cell.name)] = TwoLevelResult(
                    **{
                        metric: store.array((i, j, metric)).copy()
                        for metric in _CLOSED_LOOP_METRICS
                    },
                    steps=steps[g],
                    class_average_cost=(
                        {
                            label: store.array((i, j, "class_cost", label)).copy()
                            for label in labels
                        }
                        if labels
                        else None
                    ),
                    class_recovery_frequency=(
                        {
                            label: store.array((i, j, "class_recovery", label)).copy()
                            for label in labels
                        }
                        if labels
                        else None
                    ),
                    profile=merged[g] if profile else None,
                )
        return table
    finally:
        store.close()


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
    :meth:`~repro.sim.BatchRecoveryEngine.run`, writes the per-(episode,
    node) statistics into shared memory, and the join assembles
    bit-identical :class:`~repro.sim.BatchSimulationResult` tables.
    """
    n_jobs = validate_n_jobs(n_jobs)
    scenarios = tuple((key, scenario) for key, scenario in scenarios)
    strategy_items = tuple(strategies.items())
    if not scenarios or not strategy_items:
        return {}
    entropy = resolve_root_entropy(seed)
    shards = _plan_shards(num_episodes, n_jobs, len(scenarios) * len(strategy_items))

    layout: dict = {}
    for i, (_, scenario) in enumerate(scenarios):
        for j in range(len(strategy_items)):
            for metric, dtype in _ENGINE_METRICS.items():
                layout[(i, j, metric)] = ((num_episodes, scenario.num_nodes), dtype)
            if scenario.f is not None:
                layout[(i, j, "availability")] = ((num_episodes,), "<f8")

    store = SharedResultStore.allocate(layout)
    tasks = [
        (i, j, lo, hi)
        for i in range(len(scenarios))
        for lo, hi in shards
        for j in range(len(strategy_items))
    ]
    spec = _EngineSweepSpec(
        scenarios=scenarios,
        strategies=strategy_items,
        num_episodes=num_episodes,
        entropy=entropy,
        store=store.descriptor(),
        profile=profile,
    )
    try:
        outcomes = _map_tasks(spec, _run_engine_shard, tasks, n_jobs, store)
        table: dict = {}
        for i, (key, scenario) in enumerate(scenarios):
            for j, (name, _) in enumerate(strategy_items):
                steps = max(s for si, sj, s, _ in outcomes if (si, sj) == (i, j))
                merged = EngineProfile.merge(
                    *(p for si, sj, _, p in outcomes if (si, sj) == (i, j))
                )
                table[(key, name)] = BatchSimulationResult(
                    **{
                        metric: store.array((i, j, metric)).copy()
                        for metric in _ENGINE_METRICS
                    },
                    steps=steps,
                    availability=(
                        store.array((i, j, "availability")).copy()
                        if scenario.f is not None
                        else None
                    ),
                    profile=merged if profile else None,
                )
        return table
    finally:
        store.close()


def _map_tasks(spec, runner, tasks, n_jobs: int, store: SharedResultStore) -> list:
    """Run the shard tasks on a worker pool (in-process when pointless).

    A single worker — or a single task — skips the pool entirely and runs
    the identical shard code in-process against the parent-owned store,
    which keeps ``n_jobs=2`` usable on one-core machines for parity
    testing without fork overhead dominating.
    """
    jobs = _effective_jobs(n_jobs, len(tasks))
    if jobs == 1:
        _init_worker(spec, store=store)
        try:
            return [runner(task) for task in tasks]
        finally:
            _WORKER.clear()
    context = _pool_context()
    unregister = context.get_start_method() != "fork"
    with context.Pool(
        jobs, initializer=_init_worker, initargs=(spec, None, unregister)
    ) as pool:
        return pool.map(runner, tasks)
