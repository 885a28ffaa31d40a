"""Ablation benches for the TOLERANCE design choices (see docs/architecture.md).

Three ablations of the architecture, each run in the emulation environment:

1. **BTR constraint on/off** — the bounded-time-to-recovery constraint
   (Eq. 6b) guarantees that TOLERANCE never recovers later than a periodic
   scheme; switching it off should not hurt availability when the detector
   is good, but a deliberately blinded detector shows why the constraint is
   a useful safety net.
2. **Recovery threshold sweep** — lower thresholds recover more aggressively
   (higher F^(R)), higher thresholds recover later (higher T^(R)); the
   availability stays high across a broad middle range, which is the
   robustness property that makes the threshold parameterization practical.
3. **Static vs feedback replication** — with frequent crashes, the adaptive
   (feedback) replication strategy keeps more nodes alive than the static
   strategy, the effect the paper highlights in discussion point (iii).
"""

from __future__ import annotations

import math

from repro.core import NodeParameters
from repro.emulation import (
    EmulationConfig,
    EmulationEnvironment,
    EvaluationPolicy,
    tolerance_policy,
)

HORIZON = 250
SEEDS = (0, 1)


def _mean(values):
    return sum(values) / len(values)


def _run(config: EmulationConfig, policy: EvaluationPolicy) -> dict[str, float]:
    metrics = [EmulationEnvironment(config, policy, seed=seed).run() for seed in SEEDS]
    return {
        "availability": _mean([m.availability for m in metrics]),
        "time_to_recovery": _mean([m.time_to_recovery for m in metrics]),
        "recovery_frequency": _mean([m.recovery_frequency for m in metrics]),
        "average_nodes": _mean([m.average_nodes for m in metrics]),
    }


def _ablation_btr():
    config = EmulationConfig(
        initial_nodes=3, horizon=HORIZON, delta_r=15, node_params=NodeParameters(p_a=0.1)
    )
    with_btr = tolerance_policy(0.75)
    without_btr = tolerance_policy(0.75)
    without_btr.enforce_btr = False
    # A blinded controller: absurdly high threshold, so only the BTR constraint recovers.
    blinded_with_btr = tolerance_policy(1.0)
    blinded_without_btr = tolerance_policy(1.0)
    blinded_without_btr.enforce_btr = False
    return {
        "tolerance + BTR": _run(config, with_btr),
        "tolerance, no BTR": _run(config, without_btr),
        "blinded detector + BTR": _run(config, blinded_with_btr),
        "blinded detector, no BTR": _run(config, blinded_without_btr),
    }


def _ablation_threshold_sweep():
    config = EmulationConfig(
        initial_nodes=3, horizon=HORIZON, delta_r=math.inf, node_params=NodeParameters(p_a=0.1)
    )
    return {
        f"alpha={alpha}": _run(config, tolerance_policy(alpha)) for alpha in (0.3, 0.6, 0.9)
    }


def _ablation_replication():
    crashy = NodeParameters(p_a=0.05, p_c1=0.01, p_c2=0.05)
    config = EmulationConfig(
        initial_nodes=5, horizon=HORIZON, delta_r=math.inf, node_params=crashy, f=1
    )
    adaptive = tolerance_policy(0.75)
    static = tolerance_policy(0.75)
    static.enforce_invariant = False
    static.replication_strategy = None
    return {
        "feedback replication": _run(config, adaptive),
        "static replication": _run(config, static),
    }


def test_ablation_design_choices(benchmark, table_printer):
    btr, sweep, replication = benchmark.pedantic(
        lambda: (_ablation_btr(), _ablation_threshold_sweep(), _ablation_replication()),
        rounds=1,
        iterations=1,
    )

    def rows(results):
        return [
            [
                name,
                f"{r['availability']:.2f}",
                f"{r['time_to_recovery']:.1f}",
                f"{r['recovery_frequency']:.3f}",
                f"{r['average_nodes']:.1f}",
            ]
            for name, r in results.items()
        ]

    headers = ["variant", "T(A)", "T(R)", "F(R)", "avg nodes"]
    table_printer("Ablation 1: BTR constraint (Eq. 6b)", headers, rows(btr))
    table_printer("Ablation 2: recovery threshold sweep", headers, rows(sweep))
    table_printer("Ablation 3: feedback vs static replication under crashes", headers, rows(replication))

    # 1. With a blinded detector the BTR constraint rescues availability.
    assert btr["blinded detector + BTR"]["availability"] > (
        btr["blinded detector, no BTR"]["availability"] + 0.2
    )
    # With a good detector, dropping the BTR constraint barely matters.
    assert abs(
        btr["tolerance + BTR"]["availability"] - btr["tolerance, no BTR"]["availability"]
    ) < 0.05
    # 2. Lower thresholds recover more often; availability is high across the sweep.
    assert (
        sweep["alpha=0.3"]["recovery_frequency"]
        >= sweep["alpha=0.9"]["recovery_frequency"] - 1e-9
    )
    assert all(r["availability"] > 0.9 for r in sweep.values())
    # 3. Feedback replication sustains a larger healthy system under crashes.
    assert (
        replication["feedback replication"]["average_nodes"]
        > replication["static replication"]["average_nodes"]
    )
    assert (
        replication["feedback replication"]["availability"]
        >= replication["static replication"]["availability"] - 0.02
    )
