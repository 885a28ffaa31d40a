"""repro: reproduction of "Intrusion Tolerance for Networked Systems through
Two-Level Feedback Control" (Hammar & Stadler, DSN 2024).

The package is organised as:

* :mod:`repro.core` -- the TOLERANCE contribution: node/observation/belief
  models, the two control problems, threshold strategies, controllers,
  reliability analysis and metrics;
* :mod:`repro.solvers` -- Algorithm 1 (parametric threshold optimization with
  CEM/DE/SPSA/BO), Algorithm 2 (occupancy-measure LP), incremental pruning,
  value/policy iteration and the PPO baseline;
* :mod:`repro.sim` -- the NumPy-vectorized batch simulation engine: advances
  B episodes x N nodes simultaneously with bit-exact parity to the scalar
  simulator, powering fast Monte-Carlo evaluation and fleet scenario sweeps;
* :mod:`repro.envs` -- the unified vectorized environment layer: one
  Gym-style batched ``step``/``reset`` API over the simulation engine
  (``VectorRecoveryEnv``), the fleet-level system view (``FleetVectorEnv``)
  and the emulation testbed (``EmulationVectorEnv``), so threshold
  strategies, evaluation policies and learned PPO policies run unmodified
  against every backend;
* :mod:`repro.control` -- the closed-loop two-level control plane: the
  vectorized system controller (bit-parity with the scalar reference), the
  batched ``TwoLevelController`` coupling node recovery with replication
  control over B fleets at once, the empirical ``f_S``
  system-identification loop, a PPO replication policy trained on the
  fleet environment, the consolidated fleet-sweep API, and
  ``ConsensusBackedFleet``, which mirrors the controller's decisions onto
  a live MinBFT cluster;
* :mod:`repro.serve` -- the long-running decision service: sessions
  register fleets (scenario-v1 documents or built controllers), stream
  ticks and read back recovery/replication decisions, with compatible
  fleets fused into shared batched kernel calls; exposed in-process
  (``DecisionService``), over a socket (``python -m repro serve``,
  speaking the ``repro/decision-v1`` NDJSON schema) and through the
  matching ``ServiceClient``;
* :mod:`repro.consensus` -- the substrates: reconfigurable MinBFT, clients,
  Raft, the simulated authenticated network, signatures, and the USIG;
* :mod:`repro.emulation` -- the evaluation testbed: containers, IDS,
  attacker, background services, the emulation environment (with the
  vectorized adapter) and the intrusion-trace dataset.

Quickstart::

    from repro.core import NodeParameters, BetaBinomialObservationModel
    from repro.solvers import CrossEntropyMethod, solve_recovery_problem

    params = NodeParameters(p_a=0.1, delta_r=float("inf"))
    model = BetaBinomialObservationModel()
    solution = solve_recovery_problem(params, model, CrossEntropyMethod(), seed=0)
    print(solution.strategy.thresholds, solution.estimated_cost)

Import layering.  ``import repro`` loads none of the subpackages: each is
imported on first attribute access (``repro.sim``) or by an explicit
``import repro.sim``, and a subpackage loads only the layers below it (see
``docs/architecture.md``).  SciPy is imported inside the functions that
use it, so a caller pays at import time only for what it uses.
"""

import importlib

__version__ = "1.21.0"

_SUBPACKAGES = frozenset(
    {"consensus", "control", "core", "emulation", "envs", "serve", "sim", "solvers"}
)

__all__ = [
    "consensus",
    "control",
    "core",
    "emulation",
    "envs",
    "serve",
    "sim",
    "solvers",
    "__version__",
]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBPACKAGES)
