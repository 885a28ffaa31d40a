"""Newline-delimited-JSON socket front of the decision service.

``python -m repro serve`` binds a :class:`DecisionServer` — a threading TCP
server whose connections speak the ``repro/decision-v1`` schema
(:mod:`repro.serve.protocol`): one JSON request per line in, one JSON
response per line out.  Every connection shares ONE
:class:`~repro.serve.DecisionService`, so fleets registered over separate
connections fuse into shared engine batches exactly as in-process sessions
do; the service's reentrant lock serializes the per-tick state while the
per-connection threads overlap parsing and I/O.

On startup the server prints a single ``listening`` line to its
announce stream::

    {"schema": "repro/decision-v1", "event": "listening",
     "host": "127.0.0.1", "port": 40217}

so callers binding port 0 (the tests and the soak benchmark) learn the
assigned port without racing the log.  A ``shutdown`` request stops the
server after answering.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import Any, TextIO

from .protocol import (
    DECISION_SCHEMA,
    ServiceError,
    encode_event,
    error_response,
    integer_field,
    ok_response,
    validate_request,
)
from .service import DecisionService

__all__ = ["DecisionServer", "serve_forever"]


def _result_payload(result) -> dict[str, Any]:
    """Encode a :class:`~repro.control.TwoLevelResult` for the wire.

    Mirrors the ``repro/result-v1`` metric conventions (mean/ci95 pairs
    from :meth:`~repro.control.TwoLevelResult.summary`) and adds the raw
    per-episode arrays so clients can assert bit-parity, not just
    aggregate closeness.
    """
    payload: dict[str, Any] = {
        "steps": int(result.steps),
        "metrics": {
            name: {"mean": float(mean), "ci95": float(ci)}
            for name, (mean, ci) in result.summary().items()
        },
        "episodes": {
            "availability": [float(v) for v in result.availability],
            "average_nodes": [float(v) for v in result.average_nodes],
            "average_cost": [float(v) for v in result.average_cost],
            "recovery_frequency": [float(v) for v in result.recovery_frequency],
            "additions": [int(v) for v in result.additions],
            "emergency_additions": [int(v) for v in result.emergency_additions],
            "evictions": [int(v) for v in result.evictions],
        },
    }
    return payload


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, answer response lines."""

    def handle(self) -> None:  # pragma: no cover - exercised via ServiceClient
        server: DecisionServer = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            response = server.handle_request_line(line)
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if server.stopping:
                break


class DecisionServer(socketserver.ThreadingTCPServer):
    """Threading TCP server exposing one shared :class:`DecisionService`.

    Args:
        address: ``(host, port)`` bind address; port ``0`` asks the OS for
            a free port (read the resolved one off ``server_address``).
        service: The shared service; a fresh coalescing one by default.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        service: DecisionService | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service if service is not None else DecisionService()
        self.stopping = False

    # -- request dispatch ---------------------------------------------------------
    def handle_request_line(self, line: str) -> dict[str, Any]:
        """Answer one raw request line; never raises (errors become named
        ``ok: false`` responses)."""
        op = None
        try:
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServiceError("bad-request", f"invalid JSON: {exc}") from exc
            request = validate_request(request)
            op = request["op"]
            return self._dispatch(op, request)
        except ServiceError as error:
            return error_response(op, error)
        except Exception as exc:  # pragma: no cover - defensive
            return error_response(op, ServiceError("internal-error", str(exc)))

    def _dispatch(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        service = self.service
        if op == "register":
            scenario = request.get("scenario")
            if scenario is None:
                raise ServiceError(
                    "bad-request", "register requires a 'scenario' document"
                )
            payload = service.register_document(
                scenario, overrides=request.get("overrides")
            )
            return ok_response(op, **payload)
        if op == "tick":
            events = service.tick(
                self._session_of(request),
                count=integer_field(request.get("count", 1), "count", minimum=1),
            )
            return ok_response(op, events=[encode_event(e) for e in events])
        if op == "result":
            result = service.result(self._session_of(request))
            return ok_response(op, result=_result_payload(result))
        if op == "close":
            service.close(self._session_of(request))
            return ok_response(op)
        if op == "stats":
            return ok_response(op, stats=service.stats())
        # shutdown
        self.stopping = True
        threading.Thread(target=self.shutdown, daemon=True).start()
        return ok_response(op)

    @staticmethod
    def _session_of(request: dict[str, Any]) -> str:
        session = request.get("session")
        if not isinstance(session, str):
            raise ServiceError(
                "bad-request", f"a 'session' id string is required, got {session!r}"
            )
        return session

    # -- lifecycle ----------------------------------------------------------------
    def announce(self, stream: TextIO) -> None:
        """Print the single-line ``listening`` announcement to ``stream``."""
        host, port = self.server_address[:2]
        print(
            json.dumps(
                {
                    "schema": DECISION_SCHEMA,
                    "event": "listening",
                    "host": host,
                    "port": port,
                }
            ),
            file=stream,
            flush=True,
        )


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 0,
    service: DecisionService | None = None,
    announce_stream: TextIO | None = None,
) -> int:
    """Run a decision server until a ``shutdown`` request (or KeyboardInterrupt).

    The CLI's ``serve`` subcommand lands here.  Returns ``0``.
    """
    import sys

    with DecisionServer((host, port), service=service) as server:
        server.announce(announce_stream if announce_stream is not None else sys.stdout)
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    return 0
