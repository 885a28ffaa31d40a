#!/usr/bin/env python3
"""The full two-level feedback loop: both controllers driving a live MinBFT group.

This example runs the TOLERANCE architecture (Fig. 2 of the paper) through
:class:`~repro.control.ConsensusBackedFleet`: node controllers perform
belief-based recovery, a system controller manages the replication factor,
and every decision is mirrored onto a MinBFT replica group serving a client
workload — recoveries restart a replica with a fresh USIG and state
transfer, evictions and additions reconfigure the group, and compromised
nodes turn Byzantine.  The safety invariants are audited after every
reconfiguration.

It contrasts the TOLERANCE strategy with the NO-RECOVERY baseline on the
same scenario and seed, reproducing in miniature the comparison of Table 7.

Run with:  python examples/two_level_control_loop.py
"""

from __future__ import annotations

from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    NoRecoveryStrategy,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)


def run_once(recovery_policy, label: str) -> None:
    from repro.control import ConsensusBackedFleet
    from repro.sim import FleetScenario

    print(f"\n--- two-level control over a live MinBFT group: {label} ---")
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1),
        BetaBinomialObservationModel(),
        num_nodes=8,
        horizon=40,
        f=1,
    )
    fleet = ConsensusBackedFleet(
        scenario,
        recovery_policy=recovery_policy,
        replication_strategy=ReplicationThresholdStrategy(1),
        initial_nodes=4,
        num_clients=3,
        pipeline=2,
        ticks_per_step=12,
    )
    result = fleet.run(seed=5)
    workload = result.workload

    print(f"  controller availability T(A)   = {result.availability:.2f}")
    print(f"  served availability            = {result.served_availability:.2f}")
    print(
        f"  client requests completed      = "
        f"{workload['completed_requests']:.0f}/{workload['submitted_requests']:.0f}"
    )
    print(f"  safety holds (every audit)     = {result.safety_ok}")
    print(
        f"  recoveries / evictions / additions / compromises = "
        f"{result.recoveries} / {result.evictions} / {result.additions} / {result.compromises}"
    )


def run_batched_control_plane() -> None:
    """The same two-level loop, batched: 200 fleet episodes at once.

    System identification fits the empirical CMDP kernel f_S from the
    vectorized fleet environment, Algorithm 2 solves for the replication
    strategy on the estimate, and the TwoLevelController re-evaluates it in
    closed loop — the repro.control pipeline that replaces per-episode
    emulation runs for fleet-scale sweeps.
    """
    from repro.control import TwoLevelController, identify_replication_strategies
    from repro.sim import FleetScenario

    print("\n--- batched control plane: 200 closed-loop fleet episodes ---")
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1, p_c1=0.01, p_c2=0.05),
        BetaBinomialObservationModel(),
        num_nodes=7,
        horizon=200,
        f=1,
    )
    sysid = identify_replication_strategies(
        scenario, ThresholdStrategy(0.75), epsilon_a=0.5, seed=0, initial_nodes=4
    )
    controller = TwoLevelController(
        scenario,
        num_envs=200,
        recovery_policy=ThresholdStrategy(0.75),
        replication_strategy=sysid.lagrangian.strategy if sysid.lagrangian else None,
        initial_nodes=4,
    )
    result = controller.run(seed=0)
    summary = result.summary()
    print(f"  availability T(A)              = {summary['availability'][0]:.2f}")
    print(f"  average nodes J                = {summary['average_nodes'][0]:.2f}")
    print(f"  recovery frequency F(R)        = {summary['recovery_frequency'][0]:.3f}")
    print(f"  emergency additions / episode  = {result.emergency_additions.mean():.1f}")
    print(f"  evictions / episode            = {result.evictions.mean():.1f}")


def run_mixed_fleet() -> None:
    """A heterogeneous (Table 6 style) fleet through the same closed loop.

    Two container classes — a hardened image and a vulnerable one — run in
    one fleet; every slot uses its own p_A / Delta_R / eta, and the result
    reports per-class metrics alongside an attacker-intensity sweep.
    """
    from repro.control import ClosedLoopCell, attacker_intensity_sweep
    from repro.sim import FleetScenario, NodeClass

    print("\n--- mixed container fleet: per-class metrics + attacker sweep ---")
    model = BetaBinomialObservationModel()
    scenario = FleetScenario.mixed(
        [
            NodeClass(
                "hardened",
                NodeParameters(p_a=0.05, p_c1=0.01, p_c2=0.04, eta=1.5, delta_r=25),
                model,
                count=3,
            ),
            NodeClass(
                "vulnerable",
                NodeParameters(p_a=0.2, p_c1=0.02, p_c2=0.08, eta=3.0, delta_r=10),
                model,
                count=3,
            ),
        ],
        horizon=150,
        f=1,
    )
    table = attacker_intensity_sweep(
        scenario,
        intensities=(0.5, 1.0, 2.0),
        cells=[ClosedLoopCell("tolerance", ThresholdStrategy(0.75))],
        num_envs=100,
        seed=0,
        initial_nodes=4,
    )
    for (intensity, _), result in sorted(table.items()):
        summary = result.summary()
        classes = result.class_summary()
        print(
            f"  attacker x{intensity:g}: T(A)={summary['availability'][0]:.2f}  "
            f"F(R) hardened={classes['hardened']['recovery_frequency'][0]:.3f}  "
            f"F(R) vulnerable={classes['vulnerable']['recovery_frequency'][0]:.3f}"
        )


def run_class_aware_replication() -> None:
    """Class-aware system level on a mixed fleet: choose *which* class to add.

    Fits the class-indexed replication CMDP from per-class empirical f_S
    (the add action of each container class weights the Eq. 8 shift by the
    class's empirical survival), solves the class-aware Algorithm 2, gives
    each class its own Algorithm-1-optimal recovery deadline, and compares
    a class-blind strategy against its class-aware counterpart with the
    same add pressure in the closed loop.
    """
    import math

    from repro.control import (
        TwoLevelController,
        apply_class_deltas,
        fit_class_aware_system_model,
        optimize_class_deltas,
    )
    from repro.core import ClassPreferenceReplicationStrategy
    from repro.envs import FleetVectorEnv, StrategyPolicy, rollout
    from repro.sim import FleetScenario, NodeClass
    from repro.solvers import solve_class_aware_replication_lp

    print("\n--- class-aware replication: per-class add actions + deadlines ---")
    model = BetaBinomialObservationModel()
    scenario = FleetScenario.mixed(
        [
            NodeClass(
                "vulnerable",
                NodeParameters(p_a=0.25, p_c1=0.04, p_c2=0.15, eta=3.0, delta_r=10),
                model,
                count=4,
            ),
            NodeClass(
                "hardened",
                NodeParameters(p_a=0.05, p_c1=0.02, p_c2=0.06, eta=1.5, delta_r=25),
                model,
                count=4,
            ),
        ],
        horizon=150,
        f=1,
    )

    # Per-class Delta_R: Algorithm 1 on each class's own node POMDP.
    deltas = optimize_class_deltas(
        scenario.node_classes(),
        delta_grid=(5, 15, math.inf),
        horizon=100,
        episodes_per_evaluation=5,
        seed=0,
    )
    for name, result in deltas.items():
        print(f"  {name}: Delta_R* = {result.delta_r:g}  (J_i = {result.estimated_cost:.3f})")
    scenario = apply_class_deltas(scenario, deltas)

    # Class-indexed Algorithm 2 on the fitted kernel stack.
    env = FleetVectorEnv(scenario, 100)
    rollout(env, StrategyPolicy(ThresholdStrategy(0.75)), seed=0)
    cmdp = fit_class_aware_system_model(env, epsilon_a=0.6)
    lp = solve_class_aware_replication_lp(cmdp)
    mass = lp.occupancy[:, 1:].sum(axis=0)
    print(
        f"  class-aware LP: J={lp.expected_cost:.2f}  T(A)={lp.availability:.2f}  "
        f"add mass vulnerable={mass[0]:.4f} / hardened={mass[1]:.4f}"
    )

    # Same add pressure, with and without the class choice.
    blind = ReplicationThresholdStrategy(beta=3)
    aware = ClassPreferenceReplicationStrategy(
        blind, "hardened", ("vulnerable", "hardened")
    )
    for label, strategy in (("class-blind", blind), ("class-aware", aware)):
        controller = TwoLevelController(
            scenario,
            num_envs=100,
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=strategy,
            initial_nodes=4,
        )
        result = controller.run(seed=0)
        print(
            f"  {label}: cost={result.average_cost.mean():.3f}  "
            f"T(A)={result.availability.mean():.2f}  "
            f"J={result.average_nodes.mean():.2f}"
        )


def main() -> None:
    run_once(ThresholdStrategy(0.75), "TOLERANCE")
    run_once(NoRecoveryStrategy(), "NO-RECOVERY")
    print(
        "\nTOLERANCE keeps the service available by recovering compromised replicas "
        "promptly, while NO-RECOVERY accumulates compromised replicas until the "
        "tolerance threshold f is exceeded and completes far fewer client requests."
    )
    run_batched_control_plane()
    run_mixed_fleet()
    run_class_aware_replication()


if __name__ == "__main__":
    main()
