"""Global system model: the replication-factor CMDP of Problem 2.

The system controller observes the state ``s_t``, the expected number of
healthy nodes, and chooses ``a_t in {0, 1}`` (add a node or not).  The
transition function ``f_S`` (Eq. 8) is defined by

.. math::

    f_S(s_{t+1} | s_t, a_t) = P\\Big[\\Big\\lfloor \\sum_{i} (1 - B_{i,t})
        \\Big\\rfloor = s_{t+1} - a_t\\Big],

i.e. the next state is the number of nodes believed healthy plus the node
added.  In this reproduction we expose two concrete instantiations of
``f_S``:

* :class:`BinomialSystemModel` -- each of the ``s_t`` healthy nodes stays
  healthy with probability ``p_stay`` and new compromises/crashes occur
  independently; this is the model used for the analytical experiments
  (Figures 9, 13, 16) and corresponds to estimating ``f_S`` from simulations
  of Problem 1, as Appendix E describes;
* :class:`EmpiricalSystemModel` -- ``f_S`` estimated from observed
  ``(s_t, a_t, s_{t+1})`` transitions produced by the emulation layer.

Both satisfy the interface :class:`SystemModel`, which the CMDP solver
(Algorithm 2) consumes.

Heterogeneous (Table 6 style) fleets additionally get the **class-aware**
variant :class:`ClassAwareSystemModel`: the action space grows from
``{wait, add}`` to ``{wait, add(class c_1), ..., add(class c_C)}``, where
adding a node of class ``c`` shifts the successor state up by one with the
class's *fresh-node survival probability* ``q_c`` (a hardened container is
more likely to still be healthy one step after activation than a vulnerable
one).  :func:`class_aware_system_model` builds the stacked kernel from any
fitted two-action model plus per-class survivals; with a single class and
``q = 1`` the stack reproduces the classless kernel bit for bit, which is
what keeps homogeneous results unchanged (regression-tested in
``tests/test_class_aware_cmdp.py``).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SystemModel",
    "BinomialSystemModel",
    "EmpiricalSystemModel",
    "ClassAwareSystemModel",
    "class_aware_system_model",
    "fresh_node_survival",
    "system_model_from_node_beliefs",
]


class SystemModel:
    """Finite CMDP model of the replication control problem.

    Attributes:
        smax: Maximum number of nodes; states are ``{0, ..., smax}``.
        f: Tolerance threshold; availability requires ``s >= f + 1``.
        epsilon_a: Lower bound on the average availability (Eq. 10b).
        transition: Array ``T[a, s, s']`` with ``a in {0, 1}`` for the
            classless model (``a >= 2`` only in the class-aware subclass).
    """

    def __init__(
        self,
        transition: np.ndarray,
        f: int,
        epsilon_a: float,
    ) -> None:
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 3 or transition.shape[0] < 2:
            raise ValueError("transition must have shape (A >= 2, smax+1, smax+1)")
        if transition.shape[1] != transition.shape[2]:
            raise ValueError("transition matrices must be square")
        if not np.allclose(transition.sum(axis=2), 1.0, atol=1e-8):
            raise ValueError("transition rows must sum to one")
        if np.any(transition < -1e-12):
            raise ValueError("transition probabilities must be non-negative")
        if f < 0:
            raise ValueError("f must be non-negative")
        if not 0.0 < epsilon_a <= 1.0:
            raise ValueError("epsilon_a must lie in (0, 1]")
        self.transition = np.clip(transition, 0.0, None)
        # Renormalize to wash out clipping noise.
        self.transition /= self.transition.sum(axis=2, keepdims=True)
        self.smax = transition.shape[1] - 1
        self.f = f
        self.epsilon_a = epsilon_a

    # -- basic queries ----------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.smax + 1

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.num_states)

    @property
    def num_actions(self) -> int:
        """Size of the action space (2 for the classless ``{wait, add}``)."""
        return int(self.transition.shape[0])

    @property
    def actions(self) -> tuple[int, ...]:
        return tuple(range(self.num_actions))

    def probability(self, next_state: int, state: int, action: int) -> float:
        return float(self.transition[action, state, next_state])

    def cost(self, state: int, action: int = 0) -> float:
        """Immediate cost: the number of nodes (Eq. 9)."""
        del action
        return float(state)

    def availability_indicator(self, state: int) -> float:
        """``[s >= f + 1]`` used by the availability constraint (Eq. 10b)."""
        return 1.0 if state >= self.f + 1 else 0.0

    # -- canonical serialization -------------------------------------------------
    def canonical_bytes(self) -> bytes:
        """Deterministic byte serialization of the fitted model.

        Two models whose CMDPs are numerically identical — same transition
        kernel bit for bit, same ``f`` and ``epsilon_a`` — serialize to the
        same bytes regardless of how they were constructed (constructor,
        ``from_counts``, a pickling round-trip); any bitwise perturbation
        of the kernel changes the bytes.  This is the content the policy
        solve cache (:mod:`repro.control.policy_cache`) keys solved
        recovery/replication policies on, so sysid refits that land on an
        unchanged kernel can skip the LP/Lagrangian re-solve.

        Subclasses whose solutions depend on more than ``(transition, f,
        epsilon_a)`` — :class:`ClassAwareSystemModel` with its class names
        and add costs — extend the payload.
        """
        transition = np.ascontiguousarray(self.transition, dtype=np.float64)
        header = struct.pack(
            "<3sqqd", b"sys", int(transition.shape[0]), int(self.smax), float(self.epsilon_a)
        )
        return header + struct.pack("<q", int(self.f)) + transition.tobytes()

    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_bytes` (the cache key)."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- sampling ---------------------------------------------------------------
    def step(self, state: int, action: int, rng: np.random.Generator) -> int:
        probs = self.transition[action, state]
        return int(rng.choice(self.num_states, p=probs))

    # -- Theorem 2 assumptions ----------------------------------------------------
    def satisfies_assumption_b(self) -> bool:
        """Assumption B of Theorem 2: all transition probabilities are positive."""
        return bool(np.all(self.transition > 0.0))

    def satisfies_assumption_c(self) -> bool:
        """Assumption C: tail sums are non-decreasing in the current state."""
        for action in self.actions:
            matrix = self.transition[action]
            tails = np.cumsum(matrix[:, ::-1], axis=1)[:, ::-1]
            for s in range(self.num_states):
                for s_hat in range(self.num_states - 1):
                    if tails[s_hat + 1, s] < tails[s_hat, s] - 1e-9:
                        return False
        return True

    def satisfies_assumption_d(self) -> bool:
        """Assumption D: the add-action advantage in tail-sum is increasing in s."""
        matrix_0 = self.transition[0]
        matrix_1 = self.transition[1]
        tails_0 = np.cumsum(matrix_0[:, ::-1], axis=1)[:, ::-1]
        tails_1 = np.cumsum(matrix_1[:, ::-1], axis=1)[:, ::-1]
        for s_hat in range(self.num_states):
            diffs = tails_1[s_hat] - tails_0[s_hat]
            if np.any(np.diff(diffs) < -1e-9):
                return False
        return True


class BinomialSystemModel(SystemModel):
    """``f_S`` where each healthy node survives a step independently.

    With ``s`` healthy nodes, each survives (stays healthy) with probability
    ``p_stay = (1 - p_fail)`` and failed nodes are replaced only through the
    add action.  A small ``regeneration`` probability models recoveries at
    the local level restoring nodes to health without the system controller
    acting, which keeps all transition probabilities positive (assumption B).
    """

    def __init__(
        self,
        smax: int,
        f: int,
        per_node_failure_probability: float = 0.05,
        regeneration_probability: float = 0.02,
        epsilon_a: float = 0.9,
    ) -> None:
        if smax < 1:
            raise ValueError("smax must be >= 1")
        if not 0.0 <= per_node_failure_probability < 1.0:
            raise ValueError("per_node_failure_probability must lie in [0, 1)")
        if not 0.0 <= regeneration_probability < 1.0:
            raise ValueError("regeneration_probability must lie in [0, 1)")
        self.per_node_failure_probability = per_node_failure_probability
        self.regeneration_probability = regeneration_probability
        transition = self._build(smax, per_node_failure_probability, regeneration_probability)
        super().__init__(transition, f=f, epsilon_a=epsilon_a)

    @staticmethod
    def _build(
        smax: int, p_fail: float, p_regen: float
    ) -> np.ndarray:
        from scipy import stats

        num_states = smax + 1
        transition = np.zeros((2, num_states, num_states))
        for action in (0, 1):
            for s in range(num_states):
                # Survivors among the s healthy nodes.
                survivor_counts = np.arange(s + 1)
                survivor_probs = stats.binom.pmf(survivor_counts, s, 1.0 - p_fail)
                # Unhealthy capacity that may regenerate back to healthy.
                capacity = smax - s
                regen_counts = np.arange(capacity + 1)
                regen_probs = stats.binom.pmf(regen_counts, capacity, p_regen)
                for survivors, p_s in zip(survivor_counts, survivor_probs):
                    for regen, p_r in zip(regen_counts, regen_probs):
                        next_state = min(survivors + regen + action, smax)
                        transition[action, s, next_state] += p_s * p_r
        # Keep every probability strictly positive (assumption B) by mixing in
        # a vanishing uniform component.
        epsilon = 1e-9
        transition = (1.0 - epsilon) * transition + epsilon / num_states
        return transition


class EmpiricalSystemModel(SystemModel):
    """``f_S`` estimated from observed transitions ``(s_t, a_t, s_{t+1})``.

    This mirrors how the paper instantiates Problem 2 for the evaluation in
    Section VIII: ``f_S`` is "estimated from simulations of Problem 1"
    (Appendix E).  Laplace smoothing keeps the chain unichain.
    """

    def __init__(
        self,
        transitions: Iterable[tuple[int, int, int]],
        smax: int,
        f: int,
        epsilon_a: float = 0.9,
        smoothing: float = 0.5,
    ) -> None:
        num_states = smax + 1
        counts = np.full((2, num_states, num_states), smoothing, dtype=float)
        observed = 0
        for state, action, next_state in transitions:
            if not 0 <= state <= smax or not 0 <= next_state <= smax:
                raise ValueError("transition outside the state space")
            if action not in (0, 1):
                raise ValueError("action must be 0 or 1")
            counts[action, state, next_state] += 1.0
            observed += 1
        if observed == 0:
            raise ValueError("at least one observed transition is required")
        transition = counts / counts.sum(axis=2, keepdims=True)
        super().__init__(transition, f=f, epsilon_a=epsilon_a)
        self.num_observed_transitions = observed

    @classmethod
    def from_counts(
        cls,
        counts: np.ndarray,
        f: int,
        epsilon_a: float = 0.9,
        num_observed: int | None = None,
    ) -> "EmpiricalSystemModel":
        """Build the model from a pre-aggregated count matrix.

        ``counts`` has shape ``(2, smax + 1, smax + 1)`` and already
        includes any smoothing mass; callers with large transition sets
        (the vectorized ``f_S`` fit in :mod:`repro.control.sysid`)
        aggregate with ``np.add.at`` instead of the per-triple Python loop
        of the constructor.

        Args:
            counts: Transition counts ``[a, s, s']`` including smoothing.
            f: Tolerance threshold.
            epsilon_a: Availability bound.
            num_observed: Number of raw observed transitions behind the
                counts (reported by :attr:`num_observed_transitions`);
                defaults to the rounded count total.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 3 or counts.shape[0] != 2 or counts.shape[1] != counts.shape[2]:
            raise ValueError(
                f"counts must have shape (2, smax+1, smax+1), got {counts.shape}"
            )
        model = cls.__new__(cls)
        SystemModel.__init__(
            model, counts / counts.sum(axis=2, keepdims=True), f=f, epsilon_a=epsilon_a
        )
        model.num_observed_transitions = (
            num_observed if num_observed is not None else int(round(counts.sum()))
        )
        return model


class ClassAwareSystemModel(SystemModel):
    """Replication CMDP with one add action per container class.

    Actions are ``{0: wait, 1: add(c_1), ..., C: add(c_C)}`` over the same
    CMDP state space ``{0, ..., smax}`` (expected healthy nodes, Eq. 8).
    Adding a node of class ``c`` is worth the class's fresh-node survival:
    the successor distribution is the Eq. 8 shift with probability ``q_c``
    and the passive kernel with probability ``1 - q_c`` (see
    :func:`class_aware_system_model`).

    Unlike the base constructor, this one takes *already normalized*
    kernels (as produced by :func:`class_aware_system_model` from a fitted
    base model) and does **not** renormalize them: renormalization is not
    bit-stable, and preserving the base model's rows exactly is what makes
    the single-class reduction bit-for-bit.

    Attributes:
        class_names: The container-class label behind each add action, in
            action order (``class_names[c]`` is action ``c + 1``).
        add_costs: Extra per-step cost of each action, shape ``(1 + C,)``
            with ``add_costs[0] = 0``; lets a deployment price the classes
            differently on top of the Eq. 9 node count.
    """

    def __init__(
        self,
        transition: np.ndarray,
        f: int,
        epsilon_a: float,
        class_names: Sequence[str],
        add_costs: Sequence[float] | None = None,
    ) -> None:
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 3 or transition.shape[0] != len(class_names) + 1:
            raise ValueError(
                "transition must have shape (1 + num_classes, smax+1, smax+1); "
                f"got {transition.shape} for {len(class_names)} classes"
            )
        names = tuple(str(name) for name in class_names)
        if len(set(names)) != len(names) or not names:
            raise ValueError(f"class names must be unique and non-empty, got {names}")
        if transition.shape[1] != transition.shape[2]:
            raise ValueError("transition matrices must be square")
        if not np.allclose(transition.sum(axis=2), 1.0, atol=1e-8):
            raise ValueError("transition rows must sum to one")
        if np.any(transition < -1e-12):
            raise ValueError("transition probabilities must be non-negative")
        if f < 0:
            raise ValueError("f must be non-negative")
        if not 0.0 < epsilon_a <= 1.0:
            raise ValueError("epsilon_a must lie in (0, 1]")
        self.transition = transition
        self.smax = transition.shape[1] - 1
        self.f = f
        self.epsilon_a = epsilon_a
        self.class_names = names
        if add_costs is None:
            costs = np.zeros(self.num_actions)
        else:
            costs = np.asarray(add_costs, dtype=float)
            if costs.shape != (self.num_actions,):
                raise ValueError(
                    f"add_costs must have one entry per action "
                    f"({self.num_actions}), got shape {costs.shape}"
                )
            if costs[0] != 0.0:
                raise ValueError("the wait action must carry zero add cost")
        self.add_costs = costs

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def canonical_bytes(self) -> bytes:
        """Class-aware canonical serialization.

        Extends the base payload with the class-name tuple (in action
        order — reordering the classes permutes the action space and is a
        different CMDP) and the per-action add costs, so two class-aware
        models hash equal exactly when they would produce the same
        solution.
        """
        names = b"".join(
            struct.pack("<q", len(encoded)) + encoded
            for encoded in (name.encode("utf-8") for name in self.class_names)
        )
        costs = np.ascontiguousarray(self.add_costs, dtype=np.float64).tobytes()
        return (
            b"class-aware" + super().canonical_bytes()
            + struct.pack("<q", len(self.class_names)) + names + costs
        )

    def cost(self, state: int, action: int = 0) -> float:
        """Eq. 9 node count plus the action's class-specific add cost."""
        return float(state) + float(self.add_costs[action])


def fresh_node_survival(p_a: float, p_c1: float) -> float:
    """Model-based fresh-node survival ``q = (1 - p_A)(1 - p_C1)``.

    The probability that a node activated fresh (healthy, prior belief
    ``p_A``) is still healthy one step later: not compromised and not
    crashed.  The model-based counterpart of the empirical estimate in
    :func:`repro.control.sysid.fresh_node_survival_from_model`.
    """
    if not 0.0 <= p_a <= 1.0 or not 0.0 <= p_c1 <= 1.0:
        raise ValueError("p_a and p_c1 must be probabilities")
    return (1.0 - p_a) * (1.0 - p_c1)


def class_aware_system_model(
    base: SystemModel,
    class_names: Sequence[str],
    survival_probabilities: Sequence[float],
    add_costs: Sequence[float] | None = None,
) -> ClassAwareSystemModel:
    """Build the class-indexed kernel stack from a fitted two-action model.

    The wait kernel is ``base``'s; the add kernel of class ``c`` mixes the
    base model's add kernel (the Eq. 8 shift) with its wait kernel by the
    class's fresh-node survival ``q_c``:

    .. math::

        f_S(s' | s, \\text{add}(c)) = q_c f_S(s' | s, 1)
            + (1 - q_c) f_S(s' | s, 0).

    With a single class and ``q = 1`` the stacked kernel *is* the base
    kernel (``0 \\cdot T_0 + 1 \\cdot T_1 = T_1`` exactly in floating
    point), which makes the class-aware solvers reduce bit for bit to the
    classless ones on homogeneous fleets.

    Args:
        base: A fitted classless model (``num_actions == 2``), e.g. an
            :class:`EmpiricalSystemModel` from the system-identification
            pipeline.
        class_names: Container-class labels in action order.
        survival_probabilities: Per-class fresh-node survivals ``q_c``.
        add_costs: Optional per-action extra costs (``1 + C`` entries,
            leading zero for wait).
    """
    if base.num_actions != 2:
        raise ValueError(
            f"base must be a classless two-action model, got {base.num_actions} actions"
        )
    names = tuple(class_names)
    survivals = [float(q) for q in survival_probabilities]
    if len(survivals) != len(names):
        raise ValueError(
            f"need one survival probability per class ({len(names)}), "
            f"got {len(survivals)}"
        )
    for name, q in zip(names, survivals):
        if not 0.0 <= q <= 1.0:
            raise ValueError(
                f"survival probability of class {name!r} must lie in [0, 1], got {q}"
            )
    wait, add = base.transition[0], base.transition[1]
    stack = np.empty((1 + len(names), base.num_states, base.num_states))
    stack[0] = wait
    for c, q in enumerate(survivals):
        stack[1 + c] = (1.0 - q) * wait + q * add
    return ClassAwareSystemModel(
        stack,
        f=base.f,
        epsilon_a=base.epsilon_a,
        class_names=names,
        add_costs=add_costs,
    )


def system_model_from_node_beliefs(
    beliefs: Sequence[float],
    smax: int,
    f: int,
    epsilon_a: float = 0.9,
    per_node_crash_probability: float = 1e-3,
) -> BinomialSystemModel:
    """Construct ``f_S`` from the current node beliefs (Eq. 8).

    The expected per-node failure probability is the average belief that a
    node is compromised plus the crash probability; this gives the binomial
    healthy-count kernel that the system controller plans against between
    belief transmissions.
    """
    if not beliefs:
        raise ValueError("at least one node belief is required")
    mean_belief = float(np.clip(np.mean(np.asarray(beliefs, dtype=float)), 0.0, 1.0))
    p_fail = min(mean_belief + per_node_crash_probability, 0.999)
    return BinomialSystemModel(
        smax=smax,
        f=f,
        per_node_failure_probability=p_fail,
        epsilon_a=epsilon_a,
    )
