"""Fitted-model-keyed cache of replication-policy solves.

The system-identification loop and the class-aware planners re-solve
Algorithm 2 (and its Theorem 2 Lagrangian relaxation) every time they are
called — even when the fitted kernel did not change, which is the common
case for periodic refits on a converged estimate and for benchmark loops
that rebuild the pipeline per cell.  An LP/bisection solve costs orders of
magnitude more than a hash, so :class:`PolicySolveCache` caches solver
outcomes keyed by **what the solver actually consumes**:

* a stable content hash of the fitted model
  (:meth:`~repro.core.system_model.SystemModel.content_hash`, the SHA-256
  of a canonical serialization of the kernel, ``smax``, ``f`` and
  ``epsilon_a`` — plus class names, survivals and add costs for
  :class:`~repro.core.system_model.ClassAwareSystemModel`), and
* the solver's name and parameters (:func:`fitted_model_key`).

Two models fitted from different episode orders but identical statistics
hash identically; a kernel perturbed in any entry hashes differently —
the hypothesis tests in ``tests/test_parallel_sweeps.py`` pin both
properties down.  Infeasible Lagrangian outcomes (a ``ValueError`` from
the bisection) are cached too, so repeated refits on an infeasible model
are hits rather than repeated bisection runs.

Solver functions are resolved **through the** :mod:`repro.solvers.cmdp`
**module at call time** (``cmdp.solve_replication_lp(model)``), so tests
that monkeypatch a solver to count invocations observe exactly the solves
the cache did not absorb — the CI cache-effectiveness step relies on
this.

Invalidation is explicit: :meth:`PolicySolveCache.invalidate` drops every
entry of one model (or one hash), :meth:`PolicySolveCache.clear` drops
everything; beyond that the cache is a bounded LRU.  Hit/miss/invalidation
counters (:meth:`PolicySolveCache.stats`) make effectiveness measurable.

The cache is **thread-safe**: every lookup, insertion, LRU move/eviction,
counter update and invalidation happens under one reentrant lock, so the
decision service (:mod:`repro.serve`) can serve policy solves for
concurrently registering sessions from the process-wide
:data:`DEFAULT_POLICY_CACHE`.  Misses are **single-flight per key**: the
first thread to miss a key registers an in-flight event for it and runs
``solve()`` *outside* the lock; threads missing the same key wait on that
event and then read the stored outcome as a hit — never two concurrent
solves of one kernel — while lookups of every other key proceed, so a
slow LP for one model never blocks a hit for another.
(``tests/test_parallel_sweeps.py`` stampedes and hammers the cache from
many threads and asserts the counters stay consistent.)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from ..core.system_model import SystemModel
from ..solvers import cmdp

__all__ = [
    "fitted_model_key",
    "PolicySolveCache",
    "DEFAULT_POLICY_CACHE",
]


def fitted_model_key(
    model: SystemModel, solver: str, **params: float | int
) -> tuple:
    """Stable cache key of one solve: ``(solver, model hash, params)``.

    The model contributes only its content hash — order-insensitive over
    however the fit enumerated transitions, collision-distinct for any
    perturbed kernel entry — and the parameters are canonicalized by
    sorted name, so keyword order cannot split the cache.
    """
    return (
        solver,
        model.content_hash(),
        tuple(sorted((name, value) for name, value in params.items())),
    )


#: Sentinel tag for cached infeasibility outcomes (re-raised on hit).
_INFEASIBLE = "__infeasible__"


class PolicySolveCache:
    """Bounded LRU cache of replication-policy solves, keyed by model content.

    Args:
        maxsize: Maximum number of cached solver outcomes; the least
            recently used entry is evicted beyond it.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.RLock()
        #: Keys being solved right now, each with the event its waiters block on.
        self._inflight: dict[tuple, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- core ---------------------------------------------------------------------
    def get_or_solve(
        self,
        model: SystemModel,
        solver: str,
        solve: Callable[[], object],
        **params: float | int,
    ):
        """Return the cached outcome of ``solve()`` for this model, or run it.

        A ``ValueError`` raised by ``solve`` (the Lagrangian bisection's
        infeasibility signal) is cached and re-raised on subsequent hits,
        so infeasible refits stop re-running the bisection.

        Single-flight per key: concurrent misses on the same key run the
        solver exactly once (the others wait, then hit), and ``solve()``
        runs without the cache lock, so other keys stay servable.
        """
        key = fitted_model_key(model, solver, **params)
        while True:
            with self._lock:
                if key in self._entries:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    outcome = self._entries[key]
                    if isinstance(outcome, tuple) and outcome[:1] == (_INFEASIBLE,):
                        raise ValueError(outcome[1])
                    return outcome
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = threading.Event()
                    self.misses += 1
                    break
            # Another thread is solving this key: wait, then look again
            # (a hit, unless its solve raised something other than
            # ValueError and stored nothing).
            flight.wait()
        try:
            outcome = solve()
        except ValueError as error:
            with self._lock:
                self._store(key, (_INFEASIBLE, str(error)))
            raise
        else:
            with self._lock:
                self._store(key, outcome)
            return outcome
        finally:
            with self._lock:
                del self._inflight[key]
            flight.set()

    def _store(self, key: tuple, outcome: object) -> None:
        self._entries[key] = outcome
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    # -- solver fronts ------------------------------------------------------------
    def solve_lp(self, model: SystemModel):
        """Cached :func:`~repro.solvers.cmdp.solve_replication_lp`."""
        return self.get_or_solve(
            model, "replication_lp", lambda: cmdp.solve_replication_lp(model)
        )

    def solve_lagrangian(
        self,
        model: SystemModel,
        lambda_max: float = 1000.0,
        tolerance: float = 1e-4,
        max_bisections: int = 60,
    ):
        """Cached :func:`~repro.solvers.cmdp.solve_replication_lagrangian`."""
        return self.get_or_solve(
            model,
            "replication_lagrangian",
            lambda: cmdp.solve_replication_lagrangian(
                model,
                lambda_max=lambda_max,
                tolerance=tolerance,
                max_bisections=max_bisections,
            ),
            lambda_max=lambda_max,
            tolerance=tolerance,
            max_bisections=max_bisections,
        )

    def solve_class_aware_lp(self, model):
        """Cached :func:`~repro.solvers.cmdp.solve_class_aware_replication_lp`."""
        return self.get_or_solve(
            model,
            "class_aware_replication_lp",
            lambda: cmdp.solve_class_aware_replication_lp(model),
        )

    def solve_class_aware_lagrangian(
        self,
        model,
        lambda_max: float = 1000.0,
        tolerance: float = 1e-4,
        max_bisections: int = 60,
    ):
        """Cached :func:`~repro.solvers.cmdp.solve_class_aware_replication_lagrangian`."""
        return self.get_or_solve(
            model,
            "class_aware_replication_lagrangian",
            lambda: cmdp.solve_class_aware_replication_lagrangian(
                model,
                lambda_max=lambda_max,
                tolerance=tolerance,
                max_bisections=max_bisections,
            ),
            lambda_max=lambda_max,
            tolerance=tolerance,
            max_bisections=max_bisections,
        )

    # -- invalidation and introspection --------------------------------------------
    def invalidate(self, model: SystemModel | str) -> int:
        """Drop every cached solve of one model (or one content hash).

        Call this when a kernel is refitted in place or its outcomes must
        not be served anymore; returns the number of entries dropped.
        """
        content_hash = model if isinstance(model, str) else model.content_hash()
        with self._lock:
            stale = [key for key in self._entries if key[1] == content_hash]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop every entry (counters survive); returns the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        """``hits``/``misses``/``invalidations``/``size`` snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries),
            }


#: Process-wide default used by :func:`~repro.control.sysid.identify_replication_strategies`
#: when no cache is passed explicitly.
DEFAULT_POLICY_CACHE = PolicySolveCache()
