"""MinBFT client: issues signed requests and waits for ``f + 1`` matching replies.

Clients in the paper send each request to all replicas and accept the result
once ``f + 1`` replicas return identical replies with valid signatures
(Section VII-B): since at most ``f`` replicas are faulty, at least one of the
matching replies comes from a healthy replica, so the result is correct.
The :class:`MinBFTClient` below implements that rule on top of the simulated
network and also records per-request latency, which the throughput benchmark
of Figure 10 uses.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .messages import ClientRequest, Reply
from .minbft import MinBFTCluster

__all__ = ["CompletedRequest", "MinBFTClient", "ClientWorkload"]


@dataclass
class CompletedRequest:
    """A request that gathered a quorum of matching replies."""

    request: ClientRequest
    result: object
    submitted_at: int
    completed_at: int

    @property
    def latency(self) -> int:
        return self.completed_at - self.submitted_at


class MinBFTClient:
    """A client of the replicated service."""

    def __init__(self, client_id: str, cluster: MinBFTCluster) -> None:
        self.process_id = client_id
        self.client_id = client_id
        self.cluster = cluster
        self._key = cluster.registry.get_or_create(client_id)
        self._request_counter = itertools.count(1)
        self._reply_votes: dict[int, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._reply_values: dict[tuple[int, str], object] = {}
        self._pending: dict[int, tuple[ClientRequest, int]] = {}
        self.completed: dict[int, CompletedRequest] = {}
        cluster.network.register(self)

    # -- network interface ---------------------------------------------------------
    def on_message(self, sender: str, payload: object, tick: int) -> None:
        if not isinstance(payload, Reply):
            return
        if payload.client_id != self.client_id:
            return
        request_id = payload.request_id
        if request_id in self.completed or request_id not in self._pending:
            return
        result_key = repr(payload.result)
        self._reply_votes[request_id][result_key].add(sender)
        self._reply_values[(request_id, result_key)] = payload.result
        quorum = self.cluster.f + 1
        if len(self._reply_votes[request_id][result_key]) >= quorum:
            request, submitted_at = self._pending.pop(request_id)
            self.completed[request_id] = CompletedRequest(
                request=request,
                result=self._reply_values[(request_id, result_key)],
                submitted_at=submitted_at,
                completed_at=tick,
            )

    # -- request submission -----------------------------------------------------------
    def _build_request(self, operation: str, key: str, value: object | None) -> ClientRequest:
        request_id = next(self._request_counter)
        unsigned = ClientRequest(
            client_id=self.client_id,
            request_id=request_id,
            operation=operation,
            key=key,
            value=value,
        )
        signature = self._key.sign(unsigned.payload_bytes)
        return ClientRequest(
            client_id=self.client_id,
            request_id=request_id,
            operation=operation,
            key=key,
            value=value,
            signature=signature,
        )

    def submit(self, operation: str, key: str, value: object | None = None) -> int:
        """Send a request to all replicas; returns the request id."""
        request = self._build_request(operation, key, value)
        self._pending[request.request_id] = (request, self.cluster.network.tick)
        for replica_id in self.cluster.membership:
            self.cluster.network.send(self.client_id, replica_id, request)
        return request.request_id

    def write(self, key: str, value: object) -> int:
        return self.submit("write", key, value)

    def read(self, key: str) -> int:
        return self.submit("read", key)

    # -- blocking helpers ---------------------------------------------------------------
    def await_request(self, request_id: int, max_ticks: int = 200) -> CompletedRequest | None:
        """Drive the cluster until the request completes or the budget runs out."""
        for _ in range(max_ticks):
            if request_id in self.completed:
                return self.completed[request_id]
            self.cluster.run(ticks=1)
        return self.completed.get(request_id)

    def write_and_wait(self, key: str, value: object, max_ticks: int = 200) -> CompletedRequest | None:
        return self.await_request(self.write(key, value), max_ticks)

    def read_and_wait(self, key: str, max_ticks: int = 200) -> CompletedRequest | None:
        return self.await_request(self.read(key), max_ticks)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_since(self, request_id: int) -> int | None:
        """Tick at which an outstanding request was submitted (``None`` if done)."""
        pending = self._pending.get(request_id)
        return pending[1] if pending is not None else None

    def resend(self, request_id: int) -> None:
        """Re-broadcast an outstanding request to the *current* membership.

        Requests caught mid-reconfiguration can be lost (the leader was
        evicted before preparing, or replies raced a crash); re-sending the
        same signed request is safe — replicas deduplicate by identifier and
        re-reply for already-executed requests — and restores liveness.
        """
        pending = self._pending.get(request_id)
        if pending is None:
            return
        request, _ = pending
        for replica_id in self.cluster.membership:
            self.cluster.network.send(self.client_id, replica_id, request)


class ClientWorkload:
    """Closed-loop workload driver used by the throughput benchmark (Fig. 10).

    Each of ``num_clients`` clients keeps up to ``pipeline`` requests
    outstanding; as soon as a request completes the client submits the next
    one.  Throughput is the number of completed requests divided by the
    number of simulated ticks (scaled by the tick duration to obtain
    requests per second).

    The workload can be driven *stepwise*: :meth:`start` submits the initial
    window and :meth:`pump` advances the cluster a few ticks at a time, so a
    controller (``repro.control.consensus_loop``) can interleave
    reconfigurations with a continuously running client population.  With a
    ``deadline_ticks`` bound the workload also measures **served
    availability** — the fraction of due requests that completed within the
    deadline — the client-observed counterpart of the controller-side
    time-average availability T(A).  A request becomes *due* when it
    completes or when it ages past the deadline while outstanding, whichever
    happens first; only requests completing within the deadline count as
    served.  ``retry_interval`` re-broadcasts outstanding requests to the
    current membership (replicas deduplicate and re-reply), restoring
    liveness for requests caught mid-reconfiguration.
    """

    def __init__(
        self,
        cluster: MinBFTCluster,
        num_clients: int = 1,
        pipeline: int = 1,
        deadline_ticks: int | None = None,
        retry_interval: int = 0,
    ) -> None:
        if pipeline < 1:
            raise ValueError("pipeline must be at least 1")
        if retry_interval < 0:
            raise ValueError("retry_interval must be non-negative")
        self.cluster = cluster
        self.pipeline = pipeline
        self.deadline_ticks = deadline_ticks
        self.retry_interval = retry_interval
        self.clients = [MinBFTClient(f"client-{i}", cluster) for i in range(num_clients)]
        self._outstanding: dict[str, set[int]] = {
            client.client_id: set() for client in self.clients
        }
        self._deadline_missed: set[tuple[str, int]] = set()
        self._value_counter = itertools.count(1)
        self._started = False
        self.ticks_pumped = 0
        self.submitted = 0
        self.completed_requests = 0
        self.served_requests = 0
        self.missed_requests = 0
        self._latency_sum = 0
        self._latency_count = 0

    # -- stepwise driving ---------------------------------------------------------------
    def start(self) -> None:
        """Submit the initial window of ``pipeline`` requests per client."""
        if self._started:
            return
        self._started = True
        for client in self.clients:
            for _ in range(self.pipeline):
                self._submit_one(client)

    def _submit_one(self, client: MinBFTClient) -> None:
        request_id = client.write("x", next(self._value_counter))
        self._outstanding[client.client_id].add(request_id)
        self.submitted += 1

    def pump(self, ticks: int) -> None:
        """Advance the cluster ``ticks`` ticks, keeping the windows full."""
        self.start()
        for _ in range(ticks):
            self.cluster.run(ticks=1)
            self.ticks_pumped += 1
            tick = self.cluster.network.tick
            for client in self.clients:
                outstanding = self._outstanding[client.client_id]
                for request_id in sorted(outstanding):
                    finished = client.completed.get(request_id)
                    if finished is not None:
                        outstanding.discard(request_id)
                        self._account_completion(client.client_id, finished)
                        self._submit_one(client)
                        continue
                    submitted_at = client.pending_since(request_id)
                    if submitted_at is None:
                        outstanding.discard(request_id)
                        continue
                    age = tick - submitted_at
                    key = (client.client_id, request_id)
                    if (
                        self.deadline_ticks is not None
                        and age > self.deadline_ticks
                        and key not in self._deadline_missed
                    ):
                        # Due but not served: counted once, at expiry.
                        self._deadline_missed.add(key)
                        self.missed_requests += 1
                    if self.retry_interval and age > 0 and age % self.retry_interval == 0:
                        client.resend(request_id)

    def _account_completion(self, client_id: str, finished: CompletedRequest) -> None:
        self.completed_requests += 1
        self._latency_sum += finished.latency
        self._latency_count += 1
        key = (client_id, finished.request.request_id)
        if key in self._deadline_missed:
            # Already counted as missed when it aged past the deadline.
            self._deadline_missed.discard(key)
            return
        if self.deadline_ticks is None or finished.latency <= self.deadline_ticks:
            self.served_requests += 1
        else:
            self.missed_requests += 1

    # -- metrics -----------------------------------------------------------------------
    @property
    def due_requests(self) -> int:
        """Requests that completed or aged past the deadline (denominator)."""
        return self.served_requests + self.missed_requests

    @property
    def served_availability(self) -> float:
        """Fraction of due requests served within the deadline (1.0 if none due)."""
        due = self.due_requests
        return self.served_requests / due if due else 1.0

    def stats(self, tick_seconds: float = 0.01) -> dict[str, float]:
        elapsed_seconds = max(self.ticks_pumped * tick_seconds, 1e-9)
        mean_latency = (
            self._latency_sum / self._latency_count if self._latency_count else 0.0
        )
        return {
            "completed_requests": float(self.completed_requests),
            "throughput_rps": self.completed_requests / elapsed_seconds,
            "mean_latency_ticks": float(mean_latency),
            "ticks": float(self.ticks_pumped),
            "submitted_requests": float(self.submitted),
            "served_requests": float(self.served_requests),
            "due_requests": float(self.due_requests),
            "served_availability": float(self.served_availability),
        }

    def run(self, total_ticks: int, tick_seconds: float = 0.01) -> dict[str, float]:
        """Run the closed-loop workload; returns throughput and latency stats."""
        self.pump(total_ticks)
        return self.stats(tick_seconds)
