"""Decision-service soak: sustained decisions/sec, p99 tick latency, parity.

The paper's TOLERANCE architecture is an *online* control plane: its
controllers continuously ingest alerts from a live fleet and emit
recovery/replication decisions (Fig. 2).  This module soaks the serving
mode (:mod:`repro.serve`) under that regime — many fleets connected at
once, every fleet ticking every step — and measures what the service
sustains end to end:

* **decisions/sec** — node-level decisions delivered per wall-clock
  second across all connected fleets (fleets x episodes x nodes x ticks);
* **p99 tick latency** — the 99th percentile of the wall-clock time to
  advance *every* connected fleet by one tick, the number an operator
  would put an SLO on;
* **batching speedup** — the cross-fleet fused dispatch
  (``DecisionService(coalesce=True)``: one engine call and, the fleets
  sharing one control configuration, one control-plane loop step per
  tick for the whole cohort) against the per-fleet serial baseline
  (``coalesce=False``: one engine call and one loop step per fleet per
  tick).  Fused must be **strictly faster** — that is the reason the
  cohort machinery exists, and this module asserts it;
* **bit-parity under load** — both dispatch modes must replay a direct
  ``TwoLevelController.run`` on the same seed tree field for field
  (spot-checked per fleet here; exhaustively pinned in
  ``tests/test_decision_service.py``).

The default configuration simulates 10^4 concurrent node streams and
finishes well inside the CI ``service-sanity`` 60 s budget; set
``REPRO_BENCH_SOAK=1`` to scale the same soak to 10^5 node streams.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.control import TwoLevelController
from repro.serve import DecisionService
from repro.sim import FleetScenario

SOAK = os.environ.get("REPRO_BENCH_SOAK") == "1"

#: Fleet geometry.  fleets x episodes x nodes node streams are simulated
#: concurrently: 40 x 25 x 10 = 10^4 by default, 100 x 50 x 20 = 10^5
#: under REPRO_BENCH_SOAK=1.
NUM_FLEETS = 100 if SOAK else 40
EPISODES_PER_FLEET = 50 if SOAK else 25
NODES_PER_FLEET = 20 if SOAK else 10
HORIZON = 60
#: Fleets whose results are additionally replayed against a direct
#: ``TwoLevelController.run`` (each replay costs one serial run).
PARITY_FLEETS = 3

PARAMS = NodeParameters(p_a=0.1, p_c1=1e-5, p_c2=1e-3, p_u=0.02, eta=2.0)

TWO_LEVEL_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)


def _scenario() -> FleetScenario:
    return FleetScenario.homogeneous(
        PARAMS,
        BetaBinomialObservationModel(),
        num_nodes=NODES_PER_FLEET,
        horizon=HORIZON,
        f=1,
    )


def _controller(scenario: FleetScenario) -> TwoLevelController:
    return TwoLevelController(
        scenario,
        num_envs=EPISODES_PER_FLEET,
        recovery_policy=ThresholdStrategy(0.75),
        replication_strategy=ReplicationThresholdStrategy(1),
    )


def _soak(scenario: FleetScenario, coalesce: bool):
    """Run every fleet to the horizon.

    Returns ``(results, tick_seconds, engine_calls)``.
    """
    service = DecisionService(coalesce=coalesce)
    sessions = [
        service.register_controller(_controller(scenario), seed=fleet)
        for fleet in range(NUM_FLEETS)
    ]
    tick_seconds = []
    for _ in range(HORIZON):
        start = time.perf_counter()
        for sid in sessions:
            service.tick(sid)
        tick_seconds.append(time.perf_counter() - start)
    results = {sid: service.result(sid) for sid in sessions}
    return results, np.asarray(tick_seconds), service.engine_calls


def _assert_bit_exact(ours, theirs, context: str) -> None:
    for field in TWO_LEVEL_FIELDS:
        assert np.array_equal(getattr(ours, field), getattr(theirs, field)), (
            f"{context}: {field} diverged"
        )


def test_decision_service_soak(table_printer):
    scenario = _scenario()
    node_streams = NUM_FLEETS * EPISODES_PER_FLEET * NODES_PER_FLEET
    decisions = node_streams * HORIZON

    fused_results, fused_ticks, fused_calls = _soak(scenario, coalesce=True)
    serial_results, serial_ticks, serial_calls = _soak(scenario, coalesce=False)

    # Dispatch accounting: one fused engine call (and one control-loop
    # step) per tick for the whole cohort vs one per fleet per tick for the
    # serial baseline.
    assert fused_calls == HORIZON
    assert serial_calls == NUM_FLEETS * HORIZON

    # Bit-parity between the two dispatch modes, every fleet.
    for (sid_f, ours), (sid_s, theirs) in zip(
        fused_results.items(), serial_results.items()
    ):
        _assert_bit_exact(ours, theirs, f"fused {sid_f} vs serial {sid_s}")

    # Bit-parity against direct TwoLevelController.run on the seed tree.
    for fleet, result in list(enumerate(fused_results.values()))[:PARITY_FLEETS]:
        direct = _controller(scenario).run(seed=fleet)
        _assert_bit_exact(result, direct, f"fleet {fleet} vs direct run")

    fused_total = float(fused_ticks.sum())
    serial_total = float(serial_ticks.sum())
    rows = []
    for mode, ticks, total in (
        ("fused", fused_ticks, fused_total),
        ("serial", serial_ticks, serial_total),
    ):
        rows.append(
            [
                mode,
                f"{NUM_FLEETS}x{EPISODES_PER_FLEET}x{NODES_PER_FLEET}",
                node_streams,
                f"{decisions / total:,.0f}",
                f"{1e3 * float(np.percentile(ticks, 99)):.2f}",
                f"{1e3 * float(np.median(ticks)):.2f}",
                f"{total:.2f}",
            ]
        )
    rows.append(["speedup", "", "", f"{serial_total / fused_total:.2f}x", "", "", ""])
    table_printer(
        f"Decision-service soak ({'10^5' if SOAK else '10^4'} node streams, "
        f"horizon {HORIZON})",
        ["mode", "fleets", "streams", "decisions/s", "p99 tick ms", "p50 tick ms", "s"],
        rows,
    )

    # The point of cross-fleet batching: strictly faster than dispatching
    # each fleet's kernel call on its own.
    assert fused_total < serial_total, (
        f"fused dispatch ({fused_total:.2f}s) not faster than per-fleet "
        f"serial dispatch ({serial_total:.2f}s)"
    )
