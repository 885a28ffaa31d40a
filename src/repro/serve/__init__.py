"""Long-running decision service over the two-level control plane.

The paper's TOLERANCE architecture is an *online* system: its node-level
and system-level controllers continuously ingest intrusion alerts and emit
recovery/replication decisions for a live replica fleet (Fig. 2).  This
package is the reproduction's serving mode — the closed loop of
:class:`~repro.control.TwoLevelController` behind a request interface
instead of a one-shot ``run()``:

* :class:`DecisionService` — the in-process API: sessions register a fleet
  (a built controller or a ``repro/scenario-v1`` document), stream ticks
  and read back per-tick recovery/replication decisions, with the belief
  updates of compatible fleets **fused into single batched kernel calls**,
  the control plane of all of them stepped by one loop per tick (each
  fleet's configuration is row data of that loop), and LP replication
  solves served from the thread-safe
  :data:`~repro.control.policy_cache.DEFAULT_POLICY_CACHE`;
* :mod:`~repro.serve.protocol` — the versioned ``repro/decision-v1``
  newline-delimited-JSON schema (requests, decision events, named
  errors), living alongside ``repro/scenario-v1`` and ``repro/result-v1``;
* :class:`DecisionServer` / :func:`serve_forever` — the socket front
  (``python -m repro serve``);
* :class:`ServiceClient` — the matching client the tests and the
  ``bench_decision_service.py`` soak benchmark drive the server with.

Service decisions are bit-identical to a direct
``TwoLevelController.run`` on the same ``SeedSequence`` tree — a fused
cohort concatenates each session's own uniform buffer along the episode
axis, and engine episode rows are mutually independent (asserted in
``tests/test_decision_service.py``; see ``docs/serving.md`` for the
batching and seeding contract).
"""

from __future__ import annotations

from .client import ServiceClient
from .protocol import DECISION_SCHEMA, ServiceError, encode_event
from .server import DecisionServer, serve_forever
from .service import DecisionService, build_session_controller

__all__ = [
    "DECISION_SCHEMA",
    "DecisionServer",
    "DecisionService",
    "ServiceClient",
    "ServiceError",
    "build_session_controller",
    "encode_event",
    "serve_forever",
]
