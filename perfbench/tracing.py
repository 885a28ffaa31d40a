"""Spans around the calls the benchmark makes into each layer of ``repro``.

Only the traced process imports this module.  :meth:`Tracer.install`
replaces public callables of ``repro`` with wrappers that record a span —
name, start, end, parent span and repetition — and :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/repro`` is edited; the
wrappers live only in the traced process.  Spans stay in memory and are
written out as JSON lines by :meth:`Tracer.write` when the run ends.

A span's *self time* is its duration minus the time its child spans cover.
:func:`layer_metrics` turns the spans of the traced repetitions (plus the
workload's exact counts) into the per-layer metrics of ``BENCHMARK.json``;
``perfbench/README.md`` says which end-to-end metric each should move.
"""

from __future__ import annotations

import functools
import json
import statistics
import types
from collections import Counter, defaultdict
from pathlib import Path

import repro.control
import repro.control.consensus_loop
import repro.serve.server
from repro.consensus import ClientWorkload, KeyRegistry, MinBFTCluster
from repro.control import TwoLevelLoop, VectorSystemController
from repro.envs import VectorRecoveryEnv
from repro.serve import DecisionServer, DecisionService
from repro.sim import BatchRecoveryEngine
from calibration import clock
from workloads import latency_ms

#: (owner, attribute, span name) of every callable wrapped in a span.  A
#: function is wrapped where its caller looks it up: the benchmark calls
#: ``repro.control.identify_replication_strategies``, the consensus loop
#: its own ``audit_safety`` and the server its own ``encode_event``.
SPAN_TARGETS = (
    (BatchRecoveryEngine, "__init__", "sim.compile"),
    (BatchRecoveryEngine, "draw_uniforms", "sim.seed"),
    (BatchRecoveryEngine, "run", "sim.run"),
    (BatchRecoveryEngine, "begin", "sim.begin"),
    (BatchRecoveryEngine, "step", "sim.step"),
    (BatchRecoveryEngine, "finalize", "sim.finalize"),
    (VectorRecoveryEnv, "reset", "envs.reset"),
    (VectorRecoveryEnv, "step", "envs.step"),
    (TwoLevelLoop, "pre_step", "control.pre_step"),
    (TwoLevelLoop, "post_step", "control.post_step"),
    (VectorSystemController, "step", "control.system_step"),
    (repro.control, "identify_replication_strategies", "control.sysid"),
    (DecisionServer, "handle_request_line", "serve.request"),
    (DecisionService, "register_document", "serve.service"),
    (DecisionService, "register_controller", "serve.service"),
    (DecisionService, "tick", "serve.service"),
    (DecisionService, "result", "serve.service"),
    (DecisionService, "close", "serve.service"),
    (DecisionService, "stats", "serve.service"),
    (repro.serve.server, "encode_event", "serve.encode"),
    (ClientWorkload, "pump", "consensus.pump"),
    (MinBFTCluster, "recover_replica", "consensus.reconfig"),
    (MinBFTCluster, "add_replica", "consensus.reconfig"),
    (MinBFTCluster, "evict_replica", "consensus.reconfig"),
    (MinBFTCluster, "crash", "consensus.reconfig"),
    (MinBFTCluster, "compromise", "consensus.reconfig"),
    (repro.control.consensus_loop, "audit_safety", "consensus.audit"),
)

#: Callables too hot for a span: only their calls are counted.
COUNT_TARGETS = ((KeyRegistry, "verify", "consensus.verify"),)

#: Every per-layer metric with its unit, in the order they are printed.
LAYER_METRICS = (
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("sim.seed_ms", "ms"),
    ("sim.seed_calls", "count"),
    ("sim.run_self_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.step_calls", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.begin_ms", "ms"),
    ("sim.finalize_ms", "ms"),
    ("envs.step_self_ms", "ms"),
    ("envs.reset_ms", "ms"),
    ("control.pre_step_self_ms", "ms"),
    ("control.post_step_self_ms", "ms"),
    ("control.system_step_ms", "ms"),
    ("control.loop_calls", "count"),
    ("control.sysid_ms", "ms"),
    ("control.policy_cache.hits", "count"),
    ("control.policy_cache.misses", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.service_self_ms", "ms"),
    ("serve.bytes_per_decision", "B"),
    ("serve.cohort_advances", "count"),
    ("serve.live_row_share", "share"),
    ("serve.cohorts_retained", "count"),
    ("consensus.pump_ms", "ms"),
    ("consensus.reconfig_ms", "ms"),
    ("consensus.audit_ms", "ms"),
    ("consensus.verify_calls", "count"),
    ("consensus.messages_delivered", "count"),
    ("consensus.messages_dropped", "count"),
    ("consensus.messages_per_request", "count"),
    ("consensus.deadline_misses", "count"),
    ("trace.overhead_pct", "%"),
)

#: Span index of a span's parent when it has none.
NO_PARENT = -1


class Tracer:
    """In-memory span recorder over the wrapped ``repro`` callables.

    Each span is ``[name, start_ns, end_ns, parent_index, rep]``; ``rep``
    is the id shared by the spans of one unit of work: the repetition,
    :attr:`SETUP` during set-up or :attr:`CHECKING` while its outputs are
    checked (check spans count towards no metric).
    """

    SETUP = -1
    CHECKING = -2

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.rep = self.SETUP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        parent = stack[-1] if stack else NO_PARENT
        self.spans.append([name, clock(), 0, parent, self.rep])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = clock()

    def traced(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attribute: str, wrapper) -> None:
        original = (
            owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        )
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("the tracer is already installed")
        for owner, attribute, name in SPAN_TARGETS:
            self._patch(owner, attribute, functools.partial(self.traced, name))
        for owner, attribute, name in COUNT_TARGETS:
            self._patch(owner, attribute, functools.partial(self._counted, name))
        # The server decodes request lines with ``json.loads`` from its own
        # module namespace; give it a namespace whose ``loads`` is traced.
        real_json = repro.serve.server.json
        self._patches.append((repro.serve.server, "json", real_json))
        repro.serve.server.json = types.SimpleNamespace(
            loads=self.traced("serve.decode", real_json.loads),
            dumps=real_json.dumps,
            JSONDecodeError=real_json.JSONDecodeError,
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path, header: dict) -> None:
        """Write the header and one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            stream.write(json.dumps(header) + "\n")
            for name, start, end, parent, rep in self.spans:
                stream.write(json.dumps([name, start, end, parent, rep]) + "\n")


def span_totals(spans: list[list], speeds: dict[int, float]) -> tuple[dict, dict, dict]:
    """Per-name inclusive time, self time (ns) and call counts.

    Only spans whose ``rep`` is a key of ``speeds`` count, and their times
    are scaled by that machine speed to the reference VM's.  Inclusive time
    counts only the outermost span of a name, so a call that re-enters its
    own layer is not counted twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            child_ns[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, parent, rep) in enumerate(spans):
        speed = speeds.get(rep)
        if speed is None:
            continue
        duration = (end - start) * speed
        own[name] += duration - child_ns[index] * speed
        calls[name] += 1
        ancestor = parent
        while ancestor != NO_PARENT and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor == NO_PARENT:
            inclusive[name] += duration
    return inclusive, own, calls


def layer_metrics(
    tracer: Tracer,
    traced_reps: list,
    untraced_reps: list,
    setup: dict,
    build_counts: dict,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Times and counts are per repetition of the traced phase, except the
    ``setup.*``, ``control.sysid_ms`` and ``control.policy_cache.*``
    metrics, which describe the one set-up of the run.  Times are scaled to
    the reference VM's speed.  A layer the workload never reaches reads 0.
    """
    count = len(traced_reps)
    inclusive, own, calls = span_totals(
        tracer.spans, {index: rep.speed for index, rep in enumerate(traced_reps)}
    )
    setup_inclusive, _, _ = span_totals(tracer.spans, {Tracer.SETUP: setup["speed"]})

    def per_rep_ms(table: dict, *names: str) -> float:
        return sum(table.get(name, 0) for name in names) / count / 1e6

    def per_rep_calls(*names: str) -> float:
        return sum(calls.get(name, 0) for name in names) / count

    def summed(key: str) -> float:
        return sum(rep.counts.get(key, 0) for rep in traced_reps)

    decisions = summed("decisions")
    rows = summed("rows_stepped")
    requests = summed("requests_completed")
    throughput_untraced = statistics.median(r.rate for r in untraced_reps)
    throughput_traced = statistics.median(r.rate for r in traced_reps)
    return {
        "setup.import_s": setup["import_s"] * setup["speed"],
        "setup.build_s": setup["build_s"] * setup["speed"],
        "sim.seed_ms": per_rep_ms(inclusive, "sim.seed"),
        "sim.seed_calls": per_rep_calls("sim.seed"),
        "sim.run_self_ms": per_rep_ms(own, "sim.run"),
        "sim.step_ms": per_rep_ms(inclusive, "sim.step"),
        "sim.step_calls": per_rep_calls("sim.step"),
        "sim.compile_ms": per_rep_ms(inclusive, "sim.compile"),
        "sim.begin_ms": per_rep_ms(inclusive, "sim.begin"),
        "sim.finalize_ms": per_rep_ms(inclusive, "sim.finalize"),
        "envs.step_self_ms": per_rep_ms(own, "envs.step"),
        "envs.reset_ms": per_rep_ms(inclusive, "envs.reset"),
        "control.pre_step_self_ms": per_rep_ms(own, "control.pre_step"),
        "control.post_step_self_ms": per_rep_ms(own, "control.post_step"),
        "control.system_step_ms": per_rep_ms(inclusive, "control.system_step"),
        "control.loop_calls": per_rep_calls("control.pre_step", "control.post_step"),
        "control.sysid_ms": setup_inclusive.get("control.sysid", 0) / 1e6,
        "control.policy_cache.hits": build_counts.get("hits", 0),
        "control.policy_cache.misses": build_counts.get("misses", 0),
        "serve.latency_p50_ms": (
            latency_ms(untraced_reps, 50) if untraced_reps[0].latencies_ns else 0.0
        ),
        "serve.latency_p99_ms": (
            latency_ms(untraced_reps, 99) if untraced_reps[0].latencies_ns else 0.0
        ),
        "serve.decode_ms": per_rep_ms(inclusive, "serve.decode"),
        "serve.encode_ms": per_rep_ms(inclusive, "serve.encode"),
        "serve.service_self_ms": per_rep_ms(own, "serve.request", "serve.service"),
        "serve.bytes_per_decision": summed("tick_bytes") / decisions if decisions else 0.0,
        "serve.cohort_advances": summed("cohort_advances") / count,
        "serve.live_row_share": decisions / rows if rows else 0.0,
        "serve.cohorts_retained": traced_reps[-1].counts.get("cohorts_retained", 0),
        "consensus.pump_ms": per_rep_ms(inclusive, "consensus.pump"),
        "consensus.reconfig_ms": per_rep_ms(inclusive, "consensus.reconfig"),
        "consensus.audit_ms": per_rep_ms(inclusive, "consensus.audit"),
        "consensus.verify_calls": tracer.calls["consensus.verify"] / count,
        "consensus.messages_delivered": summed("messages_delivered") / count,
        "consensus.messages_dropped": summed("messages_dropped") / count,
        "consensus.messages_per_request": (
            summed("messages_delivered") / requests if requests else 0.0
        ),
        "consensus.deadline_misses": summed("deadline_misses") / count,
        "trace.overhead_pct": 100.0 * (1.0 - throughput_traced / throughput_untraced),
    }
