"""The ``repro/decision-v1`` request/response schema of the decision service.

Newline-delimited JSON, one request and one response object per line,
versioned alongside the ``repro/scenario-v1`` (YAML input) and
``repro/result-v1`` (JSON output) schemas.  Every request carries the
schema identifier and an ``op``; every response carries the schema, the
``op`` it answers and ``ok``.  Failures are **named**: ``ok: false``
responses hold an ``error`` object with a stable machine-readable ``name``
(one of :data:`ERROR_NAMES`) next to the human-readable message, so
clients can branch without string-matching tracebacks — the same contract
the CLI's exit paths follow.

Operations
----------

``register``
    ``{"op": "register", "scenario": <scenario-v1 mapping>,``
    ``"overrides": {...}}`` — build a closed-loop session from an inline
    scenario document (the parsed form of a scenario-v1 YAML file; the
    ``run`` section and the overrides use the CLI's run-section
    vocabulary).  Answers with the ``session`` id and the session's
    ``episodes``/``nodes``/``horizon``/``seed``.
``tick``
    ``{"op": "tick", "session": s, "count": n}`` — advance ``n`` ticks
    (default 1) and answer with one decision event per tick (see
    :func:`encode_event`).
``result``
    Final ``repro/result-v1``-style metrics of a finished session.
``close``
    Detach a session (its episode rows keep stepping inside a fused
    cohort; no further events are buffered).
``stats``
    Service counters: sessions, cohorts, fused engine calls, ticks served,
    decisions and the policy-cache counters.
``shutdown``
    Stop the server after answering.

Decision events
---------------

One event describes one tick of one session's ``B`` episodes; arrays are
encoded per episode, recoveries/evictions as slot-index lists (sparse —
most ticks recover a handful of nodes), so payload size scales with the
decisions taken rather than the fleet size:

.. code-block:: json

    {"t": 3,
     "recoveries": [[0, 4], []],
     "evicted": [[], [2]],
     "added": [-1, 5],
     "add": [false, true],
     "emergency": [false, false],
     "add_class": [-1, 1],
     "state": [4, 2],
     "node_counts": [5, 5],
     "available": [true, true]}
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Any, Mapping

import numpy as np

__all__ = [
    "DECISION_SCHEMA",
    "ERROR_NAMES",
    "ServiceError",
    "encode_event",
    "error_response",
    "integer_field",
    "number_field",
    "ok_response",
    "validate_request",
]

#: Schema identifier every decision-service request and response carries.
DECISION_SCHEMA = "repro/decision-v1"

#: The operations the service understands.
OPS = ("register", "tick", "result", "close", "stats", "shutdown")

#: Stable machine-readable error names (the ``error.name`` vocabulary).
ERROR_NAMES = (
    "schema-mismatch",
    "bad-request",
    "unknown-op",
    "invalid-scenario",
    "unknown-session",
    "session-done",
    "session-not-done",
    "internal-error",
)


class ServiceError(Exception):
    """A named decision-service failure (maps to an ``ok: false`` response).

    Args:
        name: Machine-readable error name from :data:`ERROR_NAMES`.
        message: Human-readable description.
    """

    def __init__(self, name: str, message: str) -> None:
        if name not in ERROR_NAMES:
            raise ValueError(f"unknown error name {name!r}; known: {list(ERROR_NAMES)}")
        super().__init__(message)
        self.name = name
        self.message = message


def validate_request(request: Any) -> dict[str, Any]:
    """Check one parsed request object; returns it as a plain dict.

    Raises :class:`ServiceError` with ``schema-mismatch``/``bad-request``/
    ``unknown-op`` names — the server turns those into error responses
    without touching the service state.
    """
    if not isinstance(request, Mapping):
        raise ServiceError(
            "bad-request",
            f"request must be a JSON object, got {type(request).__name__}",
        )
    schema = request.get("schema", DECISION_SCHEMA)
    if schema != DECISION_SCHEMA:
        raise ServiceError(
            "schema-mismatch",
            f"unsupported request schema {schema!r}; this server speaks "
            f"{DECISION_SCHEMA!r}",
        )
    op = request.get("op")
    if op not in OPS:
        raise ServiceError(
            "unknown-op", f"unknown op {op!r}; known ops: {list(OPS)}"
        )
    return dict(request)


def integer_field(value: Any, name: str, minimum: int | None = None) -> int:
    """``value`` as an ``int``, or a ``bad-request`` naming the field.

    Accepts integers and integral floats (``5.0``); booleans, strings,
    lists and ``null`` are rejected, as are values below ``minimum``.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ServiceError(
            "bad-request", f"{name} must be an integer, got {value!r}"
        )
    value = int(value)
    if minimum is not None and value < minimum:
        raise ServiceError(
            "bad-request", f"{name} must be >= {minimum}, got {value}"
        )
    return value


def number_field(value: Any, name: str) -> float:
    """``value`` as a finite ``float``, or a ``bad-request`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ServiceError(
            "bad-request", f"{name} must be a finite number, got {value!r}"
        )
    return float(value)


def ok_response(op: str, **payload: Any) -> dict[str, Any]:
    """An ``ok: true`` response envelope for ``op``."""
    return {"schema": DECISION_SCHEMA, "op": op, "ok": True, **payload}


def error_response(op: str | None, error: ServiceError) -> dict[str, Any]:
    """An ``ok: false`` response carrying the named error."""
    return {
        "schema": DECISION_SCHEMA,
        "op": op,
        "ok": False,
        "error": {"name": error.name, "message": error.message},
    }


def _slot_lists(mask: np.ndarray) -> list[list[int]]:
    """Per-episode slot-index lists of a boolean ``(B, S)`` mask.

    One ``np.nonzero`` for the whole mask; the set entries are few, so a
    Python pass over them is cheaper than any per-row NumPy call.
    """
    rows, slots = np.nonzero(mask)
    lists: list[list[int]] = [[] for _ in range(mask.shape[0])]
    for row, slot in zip(rows.tolist(), slots.tolist()):
        lists[row].append(slot)
    return lists


def encode_event(event) -> dict[str, Any]:
    """Encode one :class:`~repro.control.TwoLevelStepEvent` as a JSON object.

    Recoveries and evictions are sparse slot-index lists; the system-level
    decision contributes its CMDP state, add/emergency flags and the chosen
    container class (``-1`` for classless strategies / no add).  Every
    field is converted with one ``tolist`` — no per-episode NumPy calls.
    """
    decision = event.decision
    add_class = decision.add_class
    return {
        "t": int(event.t),
        "recoveries": _slot_lists(event.executed_recoveries),
        "evicted": _slot_lists(event.crashed),
        "added": event.activated.tolist(),
        "add": decision.add_node.tolist(),
        "emergency": decision.emergency_add.tolist(),
        "add_class": (
            [-1] * event.active.shape[0] if add_class is None else add_class.tolist()
        ),
        "state": decision.state.tolist(),
        "node_counts": event.active.sum(axis=1).tolist(),
        "available": event.available.tolist(),
    }
