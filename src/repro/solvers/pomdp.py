"""POMDP machinery for the intrusion recovery problem (Problem 1).

The node-level control problem is a partially observed MDP over the live
states ``{H, C}`` with actions ``{W, R}`` and alert observations.  This
module provides:

* :class:`RecoveryPOMDP` -- the discounted two-state POMDP induced by a
  :class:`~repro.core.node_model.NodeParameters` and an observation model;
* :func:`belief_value_iteration` -- value iteration on a discretized belief
  grid, used to compute (near-) optimal value functions and thresholds;
* :class:`AlphaVector` and :func:`incremental_pruning` -- the exact dynamic
  programming baseline *Incremental Pruning* (IP) of Table 2, which
  represents the value function as the lower envelope of alpha-vectors
  (Figure 4) and prunes dominated vectors after every backup;
* :func:`extract_threshold` -- recover the Theorem 1 threshold from a value
  function or policy.

The paper optimizes the long-run average cost; as is standard we solve the
discounted problem with a discount factor close to one, which yields the
same threshold structure (the paper's Appendix B argument applies verbatim
through the vanishing-discount approach).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.belief import CachedBeliefDynamics, update_compromise_belief
from ..core.costs import expected_node_cost
from ..core.node_model import NodeAction, NodeParameters, NodeState, NodeTransitionModel
from ..core.observation import ObservationModel

__all__ = [
    "RecoveryPOMDP",
    "BeliefValueIterationResult",
    "belief_value_iteration",
    "AlphaVector",
    "IncrementalPruningResult",
    "incremental_pruning",
    "extract_threshold",
]

_LIVE_STATES = (NodeState.HEALTHY, NodeState.COMPROMISED)


class RecoveryPOMDP:
    """Two-state POMDP of the intrusion recovery problem.

    States are the live node states ``(H, C)``; the crashed state is
    excluded because it is observable in practice (the node stops reporting)
    and contributes no recoverable cost.  Transition probabilities are the
    live-state restriction of ``f_N`` renormalized over ``{H, C}``.
    """

    def __init__(
        self,
        params: NodeParameters,
        observation_model: ObservationModel,
        discount: float = 0.95,
    ) -> None:
        if not 0.0 < discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        self.params = params
        self.observation_model = observation_model
        self.discount = discount
        self.transition_model = NodeTransitionModel(params)
        self.transition = self._live_transition(self.transition_model)
        self.observation = self._observation_matrix(observation_model)
        self.costs = np.array(
            [
                [expected_node_cost(0.0, a, params.eta), expected_node_cost(1.0, a, params.eta)]
                for a in (NodeAction.WAIT, NodeAction.RECOVER)
            ]
        )
        #: Exact memo for tau(b, a, o) / P[o | b, a]: backward-induction
        #: sweeps revisit the same grid beliefs at every stage, so both
        #: become dictionary lookups after the first sweep.
        self.dynamics_cache = CachedBeliefDynamics()

    @staticmethod
    def _live_transition(model: NodeTransitionModel) -> np.ndarray:
        """Transition kernel restricted and renormalized to the live states."""
        transition = np.zeros((2, 2, 2))
        for a_index, action in enumerate((NodeAction.WAIT, NodeAction.RECOVER)):
            full = model.matrix(action)
            for s_index, state in enumerate(_LIVE_STATES):
                live_mass = sum(full[state, s_next] for s_next in _LIVE_STATES)
                if live_mass <= 0.0:
                    transition[a_index, s_index, :] = [0.0, 1.0]
                    continue
                for n_index, next_state in enumerate(_LIVE_STATES):
                    transition[a_index, s_index, n_index] = full[state, next_state] / live_mass
        return transition

    @staticmethod
    def _observation_matrix(model: ObservationModel) -> np.ndarray:
        """Observation likelihoods ``Z[s, o]`` over the live states."""
        return np.vstack(
            [model.pmf(NodeState.HEALTHY), model.pmf(NodeState.COMPROMISED)]
        )

    # -- belief-space primitives -------------------------------------------------
    @property
    def num_observations(self) -> int:
        return self.observation.shape[1]

    def belief_cost(self, belief: float, action: NodeAction) -> float:
        return expected_node_cost(belief, action, self.params.eta)

    def belief_update(self, belief: float, action: NodeAction, observation_index: int) -> float:
        key = ("bu", float(belief), int(action), int(observation_index))
        return self.dynamics_cache.get(
            key, lambda: self._belief_update(belief, action, observation_index)
        )

    def _belief_update(
        self, belief: float, action: NodeAction, observation_index: int
    ) -> float:
        observation = int(self.observation_model.observations[observation_index])
        return update_compromise_belief(
            belief, action, observation, self.transition_model, self.observation_model
        )

    def observation_probability(
        self, belief: float, action: NodeAction, observation_index: int
    ) -> float:
        """``P[o | b, a]`` over the live states."""
        key = ("op", float(belief), int(action), int(observation_index))
        return self.dynamics_cache.get(
            key, lambda: self._observation_probability(belief, action, observation_index)
        )

    def _observation_probability(
        self, belief: float, action: NodeAction, observation_index: int
    ) -> float:
        prior = np.array([1.0 - belief, belief]) @ self.transition[action]
        return float(prior @ self.observation[:, observation_index])


# ---------------------------------------------------------------------------
# Belief-grid value iteration
# ---------------------------------------------------------------------------
@dataclass
class BeliefValueIterationResult:
    """Result of :func:`belief_value_iteration`."""

    belief_grid: np.ndarray
    values: np.ndarray
    policy: np.ndarray  # 0 = WAIT, 1 = RECOVER per grid point
    iterations: int
    residual: float

    def value_at(self, belief: float) -> float:
        return float(np.interp(belief, self.belief_grid, self.values))

    def action_at(self, belief: float) -> NodeAction:
        index = int(np.clip(np.searchsorted(self.belief_grid, belief), 0, len(self.belief_grid) - 1))
        return NodeAction.RECOVER if self.policy[index] else NodeAction.WAIT

    def threshold(self) -> float:
        return extract_threshold(self.belief_grid, self.policy)


def belief_value_iteration(
    pomdp: RecoveryPOMDP,
    grid_size: int = 101,
    max_iterations: int = 2000,
    tolerance: float = 1e-7,
) -> BeliefValueIterationResult:
    """Value iteration on a uniform belief grid.

    The belief-MDP Bellman operator is applied on ``grid_size`` equally
    spaced beliefs; successor beliefs are evaluated by linear interpolation.
    This converges to the optimal discounted value function as the grid is
    refined and is the reference solution used by the tests of Theorem 1.
    """
    grid = np.linspace(0.0, 1.0, grid_size)
    values = np.zeros(grid_size)
    policy = np.zeros(grid_size, dtype=int)

    # Precompute successor beliefs and observation probabilities per (b, a).
    successors: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for b_index, belief in enumerate(grid):
        for action in (NodeAction.WAIT, NodeAction.RECOVER):
            entries = []
            for o_index in range(pomdp.num_observations):
                prob = pomdp.observation_probability(belief, action, o_index)
                if prob <= 1e-14:
                    continue
                next_belief = pomdp.belief_update(belief, action, o_index)
                entries.append((prob, next_belief))
            total = sum(p for p, _ in entries)
            if total > 0:
                entries = [(p / total, nb) for p, nb in entries]
            successors[(b_index, int(action))] = entries

    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        new_values = np.empty_like(values)
        for b_index, belief in enumerate(grid):
            action_values = []
            for action in (NodeAction.WAIT, NodeAction.RECOVER):
                immediate = pomdp.belief_cost(belief, action)
                expected_next = sum(
                    prob * np.interp(next_belief, grid, values)
                    for prob, next_belief in successors[(b_index, int(action))]
                )
                action_values.append(immediate + pomdp.discount * expected_next)
            best_action = int(np.argmin(action_values))
            new_values[b_index] = action_values[best_action]
            policy[b_index] = best_action
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < tolerance:
            break

    return BeliefValueIterationResult(
        belief_grid=grid,
        values=values,
        policy=policy,
        iterations=iteration,
        residual=residual,
    )


def extract_threshold(belief_grid: np.ndarray, policy: np.ndarray) -> float:
    """Smallest belief at which the policy recovers (Theorem 1 threshold).

    Returns ``1.0`` when the policy never recovers on the grid.
    """
    recover_indices = np.nonzero(policy > 0)[0]
    if recover_indices.size == 0:
        return 1.0
    return float(belief_grid[recover_indices[0]])


# ---------------------------------------------------------------------------
# Incremental pruning (exact alpha-vector dynamic programming)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AlphaVector:
    """A linear piece ``alpha(b) = (1 - b) * values[0] + b * values[1]`` of V*.

    Alpha-vectors represent the value function of a finite-horizon POMDP as a
    piecewise-linear concave (here: convex, since we minimize costs)
    function of the belief (Figure 4).
    """

    values: tuple[float, float]
    action: NodeAction

    def value(self, belief: float) -> float:
        return (1.0 - belief) * self.values[0] + belief * self.values[1]


@dataclass
class IncrementalPruningResult:
    """Result of :func:`incremental_pruning`."""

    alpha_vectors: list[AlphaVector]
    iterations: int
    backups: int

    def value_at(self, belief: float) -> float:
        return min(alpha.value(belief) for alpha in self.alpha_vectors)

    def action_at(self, belief: float) -> NodeAction:
        best = min(self.alpha_vectors, key=lambda alpha: alpha.value(belief))
        return best.action

    def threshold(self, grid_size: int = 201) -> float:
        grid = np.linspace(0.0, 1.0, grid_size)
        policy = np.array([1 if self.action_at(b) is NodeAction.RECOVER else 0 for b in grid])
        return extract_threshold(grid, policy)


def _prune(vectors: list[tuple[np.ndarray, NodeAction]], grid: np.ndarray) -> list[tuple[np.ndarray, NodeAction]]:
    """Keep only vectors that attain the minimum somewhere on the belief grid.

    This is a grid-based variant of Lark's LP pruning: exact for the
    two-state case up to grid resolution and dramatically faster.
    """
    if not vectors:
        return vectors
    matrix = np.array([v for v, _ in vectors])  # (num_vectors, 2)
    values = np.outer(1.0 - grid, matrix[:, 0]) + np.outer(grid, matrix[:, 1])
    winners = set(np.argmin(values, axis=1).tolist())
    return [vectors[i] for i in sorted(winners)]


def incremental_pruning(
    pomdp: RecoveryPOMDP,
    horizon: int = 50,
    prune_grid_size: int = 401,
    max_vectors: int = 2000,
) -> IncrementalPruningResult:
    """Incremental pruning DP over alpha-vectors (Cassandra et al., the IP baseline).

    Performs ``horizon`` exact backups of the finite-horizon value function.
    After the cross-sum for each action, and again after the union over
    actions, dominated vectors are pruned.  The number of vectors (and hence
    the running time) grows quickly with the horizon, which is exactly the
    scaling behaviour Table 2 reports for IP as ``Delta_R`` grows.
    """
    grid = np.linspace(0.0, 1.0, prune_grid_size)
    backups = 0
    # Terminal value: zero.
    current: list[tuple[np.ndarray, NodeAction]] = [
        (np.zeros(2), NodeAction.WAIT)
    ]

    for _ in range(horizon):
        all_action_vectors: list[tuple[np.ndarray, NodeAction]] = []
        for action in (NodeAction.WAIT, NodeAction.RECOVER):
            # For each observation, project the future vectors.
            per_observation: list[list[np.ndarray]] = []
            for o_index in range(pomdp.num_observations):
                projected = []
                for vector, _ in current:
                    # gamma_{a,o}(s) = sum_{s'} T[a,s,s'] Z[s',o] alpha(s')
                    gamma = np.array(
                        [
                            sum(
                                pomdp.transition[action, s, s_next]
                                * pomdp.observation[s_next, o_index]
                                * vector[s_next]
                                for s_next in range(2)
                            )
                            for s in range(2)
                        ]
                    )
                    projected.append(gamma)
                # Prune per-observation sets to keep cross-sums tractable.
                pruned = _prune([(g, action) for g in projected], grid)
                per_observation.append([g for g, _ in pruned])

            # Cross-sum over observations, pruning incrementally.
            immediate = pomdp.costs[action]
            partial: list[np.ndarray] = [immediate.astype(float)]
            for obs_vectors in per_observation:
                combined = [
                    base + pomdp.discount * gamma for base in partial for gamma in obs_vectors
                ]
                pruned = _prune([(c, action) for c in combined], grid)
                partial = [c for c, _ in pruned]
                if len(partial) > max_vectors:
                    partial = partial[:max_vectors]
            all_action_vectors.extend((vector, action) for vector in partial)
            backups += len(partial)

        current = _prune(all_action_vectors, grid)

    alpha_vectors = [AlphaVector((float(v[0]), float(v[1])), action) for v, action in current]
    return IncrementalPruningResult(alpha_vectors=alpha_vectors, iterations=horizon, backups=backups)
