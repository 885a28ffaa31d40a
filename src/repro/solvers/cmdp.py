"""Algorithm 2: the occupancy-measure linear program for the replication CMDP.

Problem 2 is a constrained MDP: minimize the long-run average number of
nodes subject to the availability constraint ``T^(A) >= epsilon_A``.  The
paper solves it exactly with the classical linear programming formulation of
average-cost CMDPs (Altman, Thm. 4.3): optimize over the stationary
state-action occupancy measure ``rho(s, a)`` subject to

* non-negativity (14b),
* normalization ``sum rho = 1`` (14c),
* stationarity ``sum_a rho(s, a) = sum_{s', a} rho(s', a) f_S(s | s', a)`` (14d),
* the availability constraint ``sum_{s,a} rho(s, a) [s >= f + 1] >= epsilon_A`` (14e),

and recover the randomized strategy ``pi*(a | s) = rho*(s, a) / sum_a rho*(s, a)``.

This module implements Algorithm 2 on top of :func:`scipy.optimize.linprog`
(the HiGHS solver plays the role of the paper's CBC), plus the Lagrangian
relaxation route of Theorem 2, which yields the two threshold strategies
``pi_{lambda_1}`` and ``pi_{lambda_2}`` and the mixing coefficient ``kappa``.

Class-aware extension (heterogeneous fleets).  On a Table 6 style mixed
fleet the add action is class-indexed: the CMDP action space becomes
``{wait, add(c_1), ..., add(c_C)}`` over a
:class:`~repro.core.system_model.ClassAwareSystemModel` whose per-class add
kernels weight the Eq. 8 shift by each class's fresh-node survival.  Both
solution routes generalize:
:func:`solve_class_aware_replication_lp` runs the same occupancy-measure LP
over ``1 + C`` actions and recovers a
:class:`~repro.core.strategies.ClassTabularReplicationStrategy`;
:func:`solve_class_aware_replication_lagrangian` runs the Theorem 2
bisection with ``(1 + C)``-action relative value iteration and mixes the
two bracketing deterministic policies.  With a single class the LP matrices
and the relaxed MDPs are float-for-float the classless ones, so both
solvers reduce **bit for bit** to :func:`solve_replication_lp` /
:func:`solve_replication_lagrangian` (pinned in
``tests/test_class_aware_cmdp.py``) — growing a homogeneous fleet's action
space never changes its solution.

**Layer contract.**  This module is pure planning: it consumes a fitted
:class:`~repro.core.system_model.SystemModel` (no simulation, no RNG except
HiGHS-internal pivoting, which is deterministic) and returns strategy
objects plus stationary-analysis diagnostics.  Monte-Carlo counterparts of
the evaluation live in :mod:`repro.control`
(:func:`~repro.control.evaluate_replication_closed_loop`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.strategies import (
    ClassTabularReplicationStrategy,
    MixedReplicationStrategy,
    ReplicationThresholdStrategy,
    TabularReplicationStrategy,
)
from ..core.system_model import ClassAwareSystemModel, SystemModel
from .mdp import relative_value_iteration

__all__ = [
    "CMDPSolution",
    "solve_replication_lp",
    "LagrangianSolution",
    "solve_replication_lagrangian",
    "ClassAwareCMDPSolution",
    "solve_class_aware_replication_lp",
    "ClassAwareLagrangianSolution",
    "solve_class_aware_replication_lagrangian",
    "policy_stationary_distribution",
    "evaluate_replication_strategy",
    "evaluate_class_aware_strategy",
]


@dataclass
class CMDPSolution:
    """Solution of the occupancy-measure LP (Algorithm 2).

    Attributes:
        strategy: The randomized replication strategy ``pi*(a | s)``.
        occupancy: The optimal occupancy measure ``rho*(s, a)``.
        expected_cost: Optimal objective ``J`` (average number of nodes).
        availability: Achieved average availability under ``pi*``.
        feasible: Whether the LP was feasible (assumption A of Theorem 2).
    """

    strategy: TabularReplicationStrategy
    occupancy: np.ndarray
    expected_cost: float
    availability: float
    feasible: bool


def _solve_occupancy_lp(
    model: SystemModel, num_actions: int
) -> tuple[np.ndarray, float, float, bool]:
    """The Eq. 14 occupancy-measure LP over an arbitrary action count.

    Shared core of the classless and class-aware Algorithm 2: with
    ``num_actions == 2`` it performs float-for-float the arithmetic the
    classless solver always performed, which is what keeps the class-aware
    route bit-identical on single-class models.

    Returns ``(occupancy, expected_cost, availability, feasible)``.
    """
    num_states = model.num_states
    num_vars = num_states * num_actions

    def var(s: int, a: int) -> int:
        return s * num_actions + a

    # Objective (14a): minimize sum_s sum_a cost(s, a) * rho(s, a).
    objective = np.zeros(num_vars)
    for s in range(num_states):
        for a in range(num_actions):
            objective[var(s, a)] = model.cost(s, a)

    # Equality constraints: normalization (14c) and stationarity (14d).
    equality_rows: list[np.ndarray] = []
    equality_rhs: list[float] = []

    normalization = np.ones(num_vars)
    equality_rows.append(normalization)
    equality_rhs.append(1.0)

    for s in range(num_states):
        row = np.zeros(num_vars)
        for a in range(num_actions):
            row[var(s, a)] += 1.0
        for s_prev in range(num_states):
            for a in range(num_actions):
                row[var(s_prev, a)] -= model.probability(s, s_prev, a)
        equality_rows.append(row)
        equality_rhs.append(0.0)

    # Inequality constraint (14e): availability >= epsilon_A, expressed as
    # -sum rho(s,a) [s >= f+1] <= -epsilon_A for linprog's A_ub x <= b_ub.
    availability_row = np.zeros(num_vars)
    for s in range(num_states):
        indicator = model.availability_indicator(s)
        for a in range(num_actions):
            availability_row[var(s, a)] = -indicator
    inequality_matrix = availability_row.reshape(1, -1)
    inequality_rhs = np.array([-model.epsilon_a])

    from scipy.optimize import linprog

    result = linprog(
        c=objective,
        A_ub=inequality_matrix,
        b_ub=inequality_rhs,
        A_eq=np.vstack(equality_rows),
        b_eq=np.array(equality_rhs),
        bounds=[(0.0, None)] * num_vars,
        method="highs",
    )

    if not result.success:
        return np.zeros((num_states, num_actions)), float("inf"), 0.0, False

    occupancy = np.asarray(result.x).reshape(num_states, num_actions)
    occupancy = np.clip(occupancy, 0.0, None)
    expected_cost = float(objective @ result.x)
    availability = float(
        sum(
            occupancy[s, a] * model.availability_indicator(s)
            for s in range(num_states)
            for a in range(num_actions)
        )
    )
    return occupancy, expected_cost, availability, True


def _require_classless(model: SystemModel, solver: str) -> None:
    """Reject class-aware models: solving only their first add action would
    silently answer a truncated problem."""
    if model.num_actions != 2:
        raise ValueError(
            f"{solver} handles the classless two-action CMDP, but the model "
            f"has {model.num_actions} actions; use the class-aware "
            "counterpart (solve_class_aware_replication_lp / "
            "solve_class_aware_replication_lagrangian / "
            "evaluate_class_aware_strategy)"
        )


def solve_replication_lp(model: SystemModel) -> CMDPSolution:
    """Solve Problem 2 exactly via the LP of Equation (14).

    Decision variables are ``rho(s, a)`` flattened in state-major order.
    """
    _require_classless(model, "solve_replication_lp")
    num_states = model.num_states
    occupancy, expected_cost, availability, feasible = _solve_occupancy_lp(
        model, num_actions=2
    )

    if not feasible:
        empty = TabularReplicationStrategy({}, default_add_probability=1.0)
        return CMDPSolution(
            strategy=empty,
            occupancy=occupancy,
            expected_cost=expected_cost,
            availability=availability,
            feasible=False,
        )

    add_probabilities: dict[int, float] = {}
    for s in range(num_states):
        mass = occupancy[s].sum()
        if mass > 1e-12:
            add_probabilities[s] = float(occupancy[s, 1] / mass)
    strategy = TabularReplicationStrategy(
        add_probabilities=add_probabilities,
        # States never visited under rho*: act conservatively and add a node,
        # which can only help availability.
        default_add_probability=1.0,
    )
    return CMDPSolution(
        strategy=strategy,
        occupancy=occupancy,
        expected_cost=expected_cost,
        availability=availability,
        feasible=True,
    )


@dataclass
class ClassAwareCMDPSolution:
    """Solution of the class-indexed occupancy-measure LP.

    Attributes:
        strategy: The randomized class-indexed strategy ``pi*(a | s)``.
        occupancy: The optimal occupancy measure, shape ``(S, 1 + C)``.
        expected_cost: Optimal objective ``J`` (average node count plus any
            per-class add costs).
        availability: Achieved average availability under ``pi*``.
        feasible: Whether the LP was feasible.
    """

    strategy: ClassTabularReplicationStrategy
    occupancy: np.ndarray
    expected_cost: float
    availability: float
    feasible: bool


def solve_class_aware_replication_lp(
    model: ClassAwareSystemModel,
) -> ClassAwareCMDPSolution:
    """Class-indexed Algorithm 2: the Eq. 14 LP over ``{wait, add(c)}``.

    Identical to :func:`solve_replication_lp` except that the action
    dimension enumerates the container classes; on a single-class model the
    LP matrices coincide bit for bit with the classless ones, so the
    occupancy measure, cost and availability are exactly the classless
    solution (the homogeneous-reduction regression).
    """
    num_states = model.num_states
    num_actions = model.num_actions
    occupancy, expected_cost, availability, feasible = _solve_occupancy_lp(
        model, num_actions=num_actions
    )

    probabilities = np.zeros((num_states, num_actions))
    # States never visited under rho*: act conservatively and add a node
    # (uniformly over the classes), which can only help availability.
    probabilities[:, 1:] = 1.0 / (num_actions - 1)
    if feasible:
        for s in range(num_states):
            mass = occupancy[s].sum()
            if mass > 1e-12:
                probabilities[s] = occupancy[s] / mass
    strategy = ClassTabularReplicationStrategy(
        class_names=model.class_names, probabilities=probabilities
    )
    return ClassAwareCMDPSolution(
        strategy=strategy,
        occupancy=occupancy,
        expected_cost=expected_cost,
        availability=availability,
        feasible=feasible,
    )


# ---------------------------------------------------------------------------
# Lagrangian relaxation route (Theorem 2)
# ---------------------------------------------------------------------------
@dataclass
class LagrangianSolution:
    """Result of the Lagrangian relaxation of Problem 2 (Theorem 2).

    Attributes:
        strategy: The mixed threshold strategy ``kappa pi_1 + (1-kappa) pi_2``.
        threshold_low: Threshold ``beta_1`` of the low-multiplier policy.
        threshold_high: Threshold ``beta_2`` of the high-multiplier policy.
        kappa: Mixing coefficient.
        lambda_low: Lagrange multiplier of the first policy.
        lambda_high: Lagrange multiplier of the second policy.
    """

    strategy: MixedReplicationStrategy
    threshold_low: int
    threshold_high: int
    kappa: float
    lambda_low: float
    lambda_high: float


def _lagrangian_mdp(model: SystemModel, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition and cost arrays of the Lagrangian-relaxed MDP (Appendix D)."""
    num_states = model.num_states
    costs = np.zeros((2, num_states))
    for a in (0, 1):
        for s in range(num_states):
            penalty = lam * (1.0 - model.availability_indicator(s))
            costs[a, s] = model.cost(s, a) + penalty
    return model.transition, costs


def _threshold_of_policy(policy: np.ndarray) -> int:
    """Largest state in which the policy adds a node; -1 when it never adds."""
    add_states = np.nonzero(policy == 1)[0]
    if add_states.size == 0:
        return -1
    return int(add_states.max())


def _policy_availability(model: SystemModel, policy: np.ndarray) -> float:
    """Average availability of a deterministic policy via its stationary distribution."""
    distribution = policy_stationary_distribution(model, policy)
    return float(
        sum(distribution[s] * model.availability_indicator(s) for s in range(model.num_states))
    )


def policy_stationary_distribution(model: SystemModel, policy: np.ndarray) -> np.ndarray:
    """Stationary distribution of the Markov chain induced by a policy.

    Solved as the left eigenvector problem via a least-squares linear
    system; assumes the chain is unichain (assumption B of Theorem 2).
    Edge cases are handled deterministically rather than silently:

    * an *absorbing* kernel concentrates the distribution on its absorbing
      class (the least-squares system is consistent there);
    * a *degenerate* kernel with several closed classes (e.g. the identity
      chain, where every distribution is stationary) returns the
      minimum-norm stationary distribution the least-squares solve picks;
    * invalid policies (entries outside the action set) and non-finite
      solves raise instead of propagating NaNs.
    """
    num_states = model.num_states
    policy = np.asarray(policy, dtype=int)
    if policy.shape != (num_states,):
        raise ValueError(f"policy must have shape ({num_states},), got {policy.shape}")
    if np.any((policy < 0) | (policy >= model.transition.shape[0])):
        raise ValueError("policy entries must index a valid action")
    chain = np.array([model.transition[policy[s], s] for s in range(num_states)])
    # Solve pi (P - I) = 0 with sum(pi) = 1.
    a_matrix = np.vstack([chain.T - np.eye(num_states), np.ones(num_states)])
    b_vector = np.zeros(num_states + 1)
    b_vector[-1] = 1.0
    distribution, *_ = np.linalg.lstsq(a_matrix, b_vector, rcond=None)
    if not np.all(np.isfinite(distribution)):
        raise RuntimeError("stationary-distribution solve produced non-finite values")
    distribution = np.clip(distribution, 0.0, None)
    total = distribution.sum()
    if total <= 0:
        raise RuntimeError("failed to compute a stationary distribution")
    return distribution / total


def solve_replication_lagrangian(
    model: SystemModel,
    lambda_max: float = 1000.0,
    tolerance: float = 1e-4,
    max_bisections: int = 60,
) -> LagrangianSolution:
    """Solve Problem 2 via Lagrangian relaxation and bisection on ``lambda``.

    Following Appendix D, for each multiplier ``lambda`` the relaxed MDP has
    an optimal threshold policy.  Availability is monotone in ``lambda``, so
    bisection finds the two adjacent multipliers ``lambda_1 < lambda_2``
    whose policies bracket the availability constraint; mixing them with the
    coefficient ``kappa`` that meets the constraint with equality yields the
    Theorem 2 strategy.
    """
    _require_classless(model, "solve_replication_lagrangian")

    def solve_for(lam: float) -> tuple[np.ndarray, float]:
        transition, costs = _lagrangian_mdp(model, lam)
        solution = relative_value_iteration(transition, costs, max_iterations=5000, tolerance=1e-8)
        availability = _policy_availability(model, solution.policy)
        return solution.policy, availability

    policy_low, availability_low = solve_for(0.0)
    if availability_low >= model.epsilon_a:
        threshold = _threshold_of_policy(policy_low)
        base = ReplicationThresholdStrategy(beta=threshold)
        return LagrangianSolution(
            strategy=MixedReplicationStrategy(base, base, kappa=1.0),
            threshold_low=threshold,
            threshold_high=threshold,
            kappa=1.0,
            lambda_low=0.0,
            lambda_high=0.0,
        )

    policy_high, availability_high = solve_for(lambda_max)
    if availability_high < model.epsilon_a:
        raise ValueError(
            "availability constraint infeasible even with the maximum Lagrange "
            "multiplier; assumption A of Theorem 2 is violated"
        )

    low, high = 0.0, lambda_max
    for _ in range(max_bisections):
        mid = 0.5 * (low + high)
        policy_mid, availability_mid = solve_for(mid)
        if availability_mid >= model.epsilon_a:
            high, policy_high, availability_high = mid, policy_mid, availability_mid
        else:
            low, policy_low, availability_low = mid, policy_mid, availability_mid
        if high - low < tolerance:
            break

    threshold_low = _threshold_of_policy(policy_low)
    threshold_high = _threshold_of_policy(policy_high)
    strategy_low = ReplicationThresholdStrategy(beta=threshold_low)
    strategy_high = ReplicationThresholdStrategy(beta=threshold_high)

    # Mixing coefficient: meet the availability constraint with equality.
    if abs(availability_high - availability_low) < 1e-12:
        kappa = 0.0
    else:
        kappa = (availability_high - model.epsilon_a) / (availability_high - availability_low)
        kappa = float(np.clip(kappa, 0.0, 1.0))

    strategy = MixedReplicationStrategy(strategy_low, strategy_high, kappa=kappa)
    return LagrangianSolution(
        strategy=strategy,
        threshold_low=threshold_low,
        threshold_high=threshold_high,
        kappa=kappa,
        lambda_low=low,
        lambda_high=high,
    )


@dataclass
class ClassAwareLagrangianSolution:
    """Result of the class-indexed Lagrangian relaxation (Theorem 2 route).

    Attributes:
        strategy: The mixture ``kappa pi_1 + (1 - kappa) pi_2`` of the two
            bracketing deterministic class-indexed policies, as one
            probability table.
        policy_low: Deterministic policy of the low-multiplier MDP
            (action indices, 0 = wait, ``c + 1`` = add class ``c``).
        policy_high: Deterministic policy of the high-multiplier MDP.
        kappa: Mixing coefficient.
        lambda_low: Lagrange multiplier of the first policy.
        lambda_high: Lagrange multiplier of the second policy.
    """

    strategy: ClassTabularReplicationStrategy
    policy_low: np.ndarray
    policy_high: np.ndarray
    kappa: float
    lambda_low: float
    lambda_high: float


def _complete_threshold_policy(policy: np.ndarray) -> np.ndarray:
    """Impose the Theorem 2 order-up-to structure on a VI policy.

    Value iteration is indifferent at states that are unreachable under the
    relaxed-optimal policy, so the raw policy may wait below its largest
    add state.  Theorem 2 guarantees a threshold-structured optimum exists;
    this completes the policy to it by assigning every waiting state below
    the threshold the add action of the nearest add state at or above it
    (in the classless case this is exactly the
    ``ReplicationThresholdStrategy(beta)`` coercion of
    :func:`_threshold_of_policy`, which keeps the single-class reduction
    bit-for-bit).
    """
    policy = np.asarray(policy, dtype=int)
    add_states = np.nonzero(policy > 0)[0]
    if add_states.size == 0:
        return policy.copy()
    beta = int(add_states.max())
    completed = policy.copy()
    for s in range(beta + 1):
        if completed[s] == 0:
            nearest = int(add_states[add_states >= s].min())
            completed[s] = policy[nearest]
    return completed


def _mix_deterministic_policies(
    model: ClassAwareSystemModel,
    policy_low: np.ndarray,
    policy_high: np.ndarray,
    kappa: float,
) -> ClassTabularReplicationStrategy:
    """Probability table of ``kappa pi_low + (1 - kappa) pi_high``."""
    num_states, num_actions = model.num_states, model.num_actions
    probabilities = np.zeros((num_states, num_actions))
    for s in range(num_states):
        probabilities[s, policy_low[s]] += kappa
        probabilities[s, policy_high[s]] += 1.0 - kappa
    return ClassTabularReplicationStrategy(
        class_names=model.class_names, probabilities=probabilities
    )


def solve_class_aware_replication_lagrangian(
    model: ClassAwareSystemModel,
    lambda_max: float = 1000.0,
    tolerance: float = 1e-4,
    max_bisections: int = 60,
) -> ClassAwareLagrangianSolution:
    """Theorem 2 route over the class-indexed action space.

    For each multiplier ``lambda`` the relaxed MDP (costs
    ``cost(s, a) + lambda [s unavailable]``) is solved with relative value
    iteration over all ``1 + C`` actions; availability is monotone in
    ``lambda``, so the same bisection as the classless
    :func:`solve_replication_lagrangian` brackets the constraint and the
    two bracketing deterministic policies are mixed with the coefficient
    ``kappa`` that meets it with equality.  On a single-class model the
    relaxed MDPs are float-for-float the classless ones, so the policies,
    multipliers and ``kappa`` reduce bit for bit.
    """

    def solve_for(lam: float) -> tuple[np.ndarray, float]:
        num_states = model.num_states
        costs = np.zeros((model.num_actions, num_states))
        for a in range(model.num_actions):
            for s in range(num_states):
                penalty = lam * (1.0 - model.availability_indicator(s))
                costs[a, s] = model.cost(s, a) + penalty
        solution = relative_value_iteration(
            model.transition, costs, max_iterations=5000, tolerance=1e-8
        )
        availability = _policy_availability(model, solution.policy)
        return solution.policy, availability

    policy_low, availability_low = solve_for(0.0)
    if availability_low >= model.epsilon_a:
        completed = _complete_threshold_policy(policy_low)
        return ClassAwareLagrangianSolution(
            strategy=_mix_deterministic_policies(model, completed, completed, 1.0),
            policy_low=completed,
            policy_high=completed,
            kappa=1.0,
            lambda_low=0.0,
            lambda_high=0.0,
        )

    policy_high, availability_high = solve_for(lambda_max)
    if availability_high < model.epsilon_a:
        raise ValueError(
            "availability constraint infeasible even with the maximum Lagrange "
            "multiplier; assumption A of Theorem 2 is violated"
        )

    low, high = 0.0, lambda_max
    for _ in range(max_bisections):
        mid = 0.5 * (low + high)
        policy_mid, availability_mid = solve_for(mid)
        if availability_mid >= model.epsilon_a:
            high, policy_high, availability_high = mid, policy_mid, availability_mid
        else:
            low, policy_low, availability_low = mid, policy_mid, availability_mid
        if high - low < tolerance:
            break

    if abs(availability_high - availability_low) < 1e-12:
        kappa = 0.0
    else:
        kappa = (availability_high - model.epsilon_a) / (
            availability_high - availability_low
        )
        kappa = float(np.clip(kappa, 0.0, 1.0))

    # The bisection and kappa use the raw VI policies' availabilities (like
    # the classless route); the returned strategy mixes their Theorem 2
    # threshold completions.
    policy_low = _complete_threshold_policy(policy_low)
    policy_high = _complete_threshold_policy(policy_high)
    return ClassAwareLagrangianSolution(
        strategy=_mix_deterministic_policies(model, policy_low, policy_high, kappa),
        policy_low=policy_low,
        policy_high=policy_high,
        kappa=kappa,
        lambda_low=low,
        lambda_high=high,
    )


def evaluate_class_aware_strategy(
    model: ClassAwareSystemModel,
    probabilities: np.ndarray,
) -> tuple[float, float]:
    """Expected cost and availability of a class-indexed strategy table.

    The class-aware counterpart of :func:`evaluate_replication_strategy`:
    builds the chain induced by mixing all ``1 + C`` action kernels with
    the per-state action probabilities, computes its stationary
    distribution, and returns ``(J, T^(A))``.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    num_states, num_actions = model.num_states, model.num_actions
    if probabilities.shape != (num_states, num_actions):
        raise ValueError(
            f"probabilities must have shape ({num_states}, {num_actions}), "
            f"got {probabilities.shape}"
        )
    chain = np.einsum("sa,ast->st", probabilities, model.transition)
    a_matrix = np.vstack([chain.T - np.eye(num_states), np.ones(num_states)])
    b_vector = np.zeros(num_states + 1)
    b_vector[-1] = 1.0
    distribution, *_ = np.linalg.lstsq(a_matrix, b_vector, rcond=None)
    distribution = np.clip(distribution, 0.0, None)
    distribution /= distribution.sum()
    cost = float(
        sum(
            distribution[s] * probabilities[s, a] * model.cost(s, a)
            for s in range(num_states)
            for a in range(num_actions)
        )
    )
    availability = float(
        sum(distribution[s] * model.availability_indicator(s) for s in range(num_states))
    )
    return cost, availability


def evaluate_replication_strategy(
    model: SystemModel,
    add_probabilities: np.ndarray,
) -> tuple[float, float]:
    """Expected cost and availability of a randomized strategy ``pi(1 | s)``.

    Builds the induced Markov chain, computes its stationary distribution,
    and returns ``(J, T^(A))``.  This is the *model-side* evaluation
    (stationary analysis of ``f_S``); its Monte-Carlo counterpart on the
    batched two-level control plane is
    :func:`repro.control.evaluate_replication_closed_loop`, which measures
    the same pair against the actual closed-loop simulation dynamics.
    """
    _require_classless(model, "evaluate_replication_strategy")
    add_probabilities = np.asarray(add_probabilities, dtype=float)
    num_states = model.num_states
    if add_probabilities.shape != (num_states,):
        raise ValueError("add_probabilities must have one entry per state")
    chain = np.zeros((num_states, num_states))
    for s in range(num_states):
        p_add = float(np.clip(add_probabilities[s], 0.0, 1.0))
        chain[s] = (1.0 - p_add) * model.transition[0, s] + p_add * model.transition[1, s]
    a_matrix = np.vstack([chain.T - np.eye(num_states), np.ones(num_states)])
    b_vector = np.zeros(num_states + 1)
    b_vector[-1] = 1.0
    distribution, *_ = np.linalg.lstsq(a_matrix, b_vector, rcond=None)
    distribution = np.clip(distribution, 0.0, None)
    distribution /= distribution.sum()
    cost = float(sum(distribution[s] * model.cost(s) for s in range(num_states)))
    availability = float(
        sum(distribution[s] * model.availability_indicator(s) for s in range(num_states))
    )
    return cost, availability
