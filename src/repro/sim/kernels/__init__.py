"""The batch engine's HMM-forward belief kernel.

:class:`FusedKernel` is the one kernel every :class:`~repro.sim.engine.
BatchRecoveryEngine` runs: precomputed per-``(node, action, observation)``
tables turn the belief update across all ``(B, N)`` streams into one flat
gather plus a fused multiply-add — no per-node Python loop, no per-step
matmul pair, no ``np.where`` over the recover mask.  It is bit-exact
against the scalar :class:`~repro.solvers.evaluation.RecoverySimulator`
(the parity suites are the gate), including the degenerate-observation
fallback.  :class:`EngineProfile` attributes its wall-clock time to the
simulation phases in :data:`PHASES`.
"""

from __future__ import annotations

from .fused import FusedKernel
from .profile import PHASES, EngineProfile

__all__ = ["PHASES", "EngineProfile", "FusedKernel"]
