"""Throughput benchmark: batch engine vs the scalar simulator.

The acceptance bar is asserted on the 1000-episode Monte-Carlo evaluation
that Algorithm 1 and the Table 2/7 experiments are built on: the vectorized
batch engine is >= 10x faster than the scalar
:class:`~repro.solvers.evaluation.RecoverySimulator` while reproducing its
per-episode statistics *exactly* (same seed, same results).
"""

from __future__ import annotations

import time

from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
from repro.solvers import RecoverySimulator

NUM_EPISODES = 1000
HORIZON = 200
SEED = 0


def _measure():
    simulator = RecoverySimulator(
        NodeParameters(p_a=0.1, delta_r=15), BetaBinomialObservationModel(), horizon=HORIZON
    )
    strategy = ThresholdStrategy(0.6)

    start = time.perf_counter()
    scalar_results = simulator.evaluate(strategy, num_episodes=NUM_EPISODES, seed=SEED)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch_results = simulator.evaluate(
        strategy, num_episodes=NUM_EPISODES, seed=SEED, batch=True
    )
    batch_seconds = time.perf_counter() - start

    return scalar_results, batch_results, scalar_seconds, batch_seconds


def test_batch_engine_speedup(benchmark, table_printer):
    scalar_results, batch_results, scalar_seconds, batch_seconds = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    steps = NUM_EPISODES * HORIZON
    speedup = scalar_seconds / batch_seconds

    table_printer(
        f"Batch engine throughput ({NUM_EPISODES} episodes x {HORIZON} steps)",
        ["engine", "time (s)", "steps/s", "speedup"],
        [
            ["scalar", f"{scalar_seconds:.2f}", f"{steps / scalar_seconds:,.0f}", "1.0x"],
            ["batch", f"{batch_seconds:.3f}", f"{steps / batch_seconds:,.0f}", f"{speedup:.1f}x"],
        ],
    )

    # Exact parity: same seed, identical per-episode statistics.
    assert scalar_results == batch_results
    # Acceptance bar: >= 10x on the 1000-episode evaluation.
    assert speedup >= 10.0, f"batch engine only {speedup:.1f}x faster than scalar"
