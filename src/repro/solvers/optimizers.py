"""Black-box parametric optimizers used by Algorithm 1.

Algorithm 1 reduces Problem 1 to optimizing a ``d``-dimensional threshold
vector ``theta in [0, 1]^d`` against the simulated objective
``J(theta)``.  The paper evaluates four optimizers:

* **CEM** -- the cross-entropy method: sample a population from a Gaussian,
  keep the elite fraction, refit the Gaussian;
* **DE**  -- differential evolution: mutation + crossover over a population;
* **SPSA** -- simultaneous perturbation stochastic approximation: two-sided
  gradient estimates from random +/- perturbations;
* **BO**  -- Bayesian optimization with a Matern-2.5 Gaussian process
  surrogate and a lower-confidence-bound acquisition function.

All optimizers implement :class:`ParametricOptimizer` and operate on a
bounded box ``[0, 1]^d``, which is the threshold space ``Theta`` of
Algorithm 1.  Hyper-parameter defaults follow Appendix E (Table 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "ObjectiveFunction",
    "OptimizationResult",
    "ParametricOptimizer",
    "CrossEntropyMethod",
    "DifferentialEvolution",
    "SPSA",
    "BayesianOptimization",
    "RandomSearch",
]

ObjectiveFunction = Callable[[np.ndarray], float]


@dataclass
class OptimizationResult:
    """Result of one optimizer run.

    Attributes:
        best_parameters: The best threshold vector found.
        best_value: Estimated objective at the best parameters.
        history: Best-so-far objective after each iteration (convergence
            curve, Fig. 7).
        evaluations: Total number of objective evaluations.
    """

    best_parameters: np.ndarray
    best_value: float
    history: list[float] = field(default_factory=list)
    evaluations: int = 0


class ParametricOptimizer(Protocol):
    """Interface of the ``PO`` argument of Algorithm 1."""

    name: str

    def optimize(
        self,
        objective: ObjectiveFunction,
        dimension: int,
        seed: int | None = None,
    ) -> OptimizationResult:
        """Minimize ``objective`` over ``[0, 1]^dimension``."""
        ...


def _clip_box(theta: np.ndarray) -> np.ndarray:
    return np.clip(theta, 0.0, 1.0)


def _evaluate_population(
    objective: ObjectiveFunction, population: np.ndarray
) -> np.ndarray:
    """Evaluate a ``(K, d)`` candidate population, batched when possible.

    Objectives exposing an ``evaluate_population(thetas)`` method (e.g. the
    batch-engine objective built by
    :func:`~repro.solvers.parametric.solve_recovery_problem`) score the
    whole population in one vectorized simulation; plain callables are
    evaluated candidate by candidate in population order.  Both paths return
    the same values, so optimizer trajectories do not depend on which one
    runs.
    """
    batch = getattr(objective, "evaluate_population", None)
    if batch is not None:
        return np.asarray(batch(np.asarray(population)), dtype=float)
    return np.array([objective(theta) for theta in population], dtype=float)


@dataclass
class CrossEntropyMethod:
    """Cross-entropy method (Rubinstein; Appendix E: K=100, elite fraction 0.15)."""

    population_size: int = 100
    elite_fraction: float = 0.15
    iterations: int = 30
    initial_std: float = 0.3
    min_std: float = 0.02
    name: str = "cem"

    def optimize(
        self, objective: ObjectiveFunction, dimension: int, seed: int | None = None
    ) -> OptimizationResult:
        rng = np.random.default_rng(seed)
        mean = np.full(dimension, 0.5)
        std = np.full(dimension, self.initial_std)
        num_elite = max(int(self.population_size * self.elite_fraction), 2)
        best_theta = mean.copy()
        best_value = objective(best_theta)
        evaluations = 1
        history = [best_value]
        for _ in range(self.iterations):
            population = _clip_box(
                rng.normal(mean, std, size=(self.population_size, dimension))
            )
            values = _evaluate_population(objective, population)
            evaluations += self.population_size
            order = np.argsort(values)
            elites = population[order[:num_elite]]
            mean = elites.mean(axis=0)
            std = np.maximum(elites.std(axis=0), self.min_std)
            if values[order[0]] < best_value:
                best_value = float(values[order[0]])
                best_theta = population[order[0]].copy()
            history.append(best_value)
        return OptimizationResult(best_theta, best_value, history, evaluations)


@dataclass
class DifferentialEvolution:
    """Differential evolution (Storn & Price; Appendix E: K=10, F=0.2, CR=0.7)."""

    population_size: int = 10
    mutation: float = 0.2
    recombination: float = 0.7
    iterations: int = 50
    name: str = "de"

    def optimize(
        self, objective: ObjectiveFunction, dimension: int, seed: int | None = None
    ) -> OptimizationResult:
        rng = np.random.default_rng(seed)
        population = rng.uniform(0.0, 1.0, size=(self.population_size, dimension))
        values = _evaluate_population(objective, population)
        evaluations = self.population_size
        best_index = int(np.argmin(values))
        best_theta = population[best_index].copy()
        best_value = float(values[best_index])
        history = [best_value]
        for _ in range(self.iterations):
            for i in range(self.population_size):
                candidates = [j for j in range(self.population_size) if j != i]
                a, b, c = rng.choice(candidates, size=3, replace=False)
                mutant = _clip_box(
                    population[a] + self.mutation * (population[b] - population[c])
                )
                crossover_mask = rng.random(dimension) < self.recombination
                # Guarantee at least one coordinate from the mutant.
                crossover_mask[rng.integers(dimension)] = True
                trial = np.where(crossover_mask, mutant, population[i])
                trial_value = objective(trial)
                evaluations += 1
                if trial_value <= values[i]:
                    population[i] = trial
                    values[i] = trial_value
                    if trial_value < best_value:
                        best_value = float(trial_value)
                        best_theta = trial.copy()
            history.append(best_value)
        return OptimizationResult(best_theta, best_value, history, evaluations)


@dataclass
class SPSA:
    """Simultaneous perturbation stochastic approximation (Spall).

    Gain sequences follow the standard recipe ``a_k = a / (k + A)^alpha`` and
    ``c_k = c / k^gamma``; defaults mirror Table 8 (``c=10`` is scaled to the
    unit box).
    """

    iterations: int = 50
    a: float = 0.2
    c: float = 0.1
    big_a: float = 10.0
    alpha: float = 0.602
    gamma: float = 0.101
    name: str = "spsa"

    def optimize(
        self, objective: ObjectiveFunction, dimension: int, seed: int | None = None
    ) -> OptimizationResult:
        rng = np.random.default_rng(seed)
        theta = np.full(dimension, 0.5)
        best_theta = theta.copy()
        best_value = objective(theta)
        evaluations = 1
        history = [best_value]
        for k in range(1, self.iterations + 1):
            a_k = self.a / (k + self.big_a) ** self.alpha
            c_k = self.c / k ** self.gamma
            delta = rng.choice([-1.0, 1.0], size=dimension)
            theta_plus = _clip_box(theta + c_k * delta)
            theta_minus = _clip_box(theta - c_k * delta)
            # The two perturbed points are independent: score them as one
            # two-candidate population so batch objectives simulate them in a
            # single pass (plain callables are evaluated in the same order).
            value_plus, value_minus = _evaluate_population(
                objective, np.stack([theta_plus, theta_minus])
            )
            evaluations += 2
            gradient = (value_plus - value_minus) / (2.0 * c_k * delta)
            theta = _clip_box(theta - a_k * gradient)
            current_value = objective(theta)
            evaluations += 1
            if current_value < best_value:
                best_value = float(current_value)
                best_theta = theta.copy()
            history.append(best_value)
        return OptimizationResult(best_theta, best_value, history, evaluations)


@dataclass
class BayesianOptimization:
    """Bayesian optimization with a Matern-2.5 GP and an LCB acquisition.

    A lightweight NumPy implementation: exact GP regression with a fixed
    length-scale Matern kernel, candidate points sampled uniformly, and the
    lower-confidence-bound acquisition ``mu(x) - beta * sigma(x)`` of
    Srinivas et al. (Appendix E: ``beta = 2.5``).
    """

    iterations: int = 30
    initial_samples: int = 8
    candidate_pool: int = 256
    beta: float = 2.5
    length_scale: float = 0.25
    noise: float = 1e-3
    name: str = "bo"

    def _matern_kernel(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        distances = np.sqrt(
            np.maximum(
                np.sum(x1 ** 2, axis=1)[:, None]
                + np.sum(x2 ** 2, axis=1)[None, :]
                - 2.0 * x1 @ x2.T,
                0.0,
            )
        )
        scaled = np.sqrt(5.0) * distances / self.length_scale
        return (1.0 + scaled + scaled ** 2 / 3.0) * np.exp(-scaled)

    def optimize(
        self, objective: ObjectiveFunction, dimension: int, seed: int | None = None
    ) -> OptimizationResult:
        from scipy import linalg

        rng = np.random.default_rng(seed)
        observed_x = rng.uniform(0.0, 1.0, size=(self.initial_samples, dimension))
        observed_y = _evaluate_population(objective, observed_x)
        evaluations = self.initial_samples
        best_index = int(np.argmin(observed_y))
        best_theta = observed_x[best_index].copy()
        best_value = float(observed_y[best_index])
        history = [best_value]

        for _ in range(self.iterations):
            kernel = self._matern_kernel(observed_x, observed_x)
            kernel[np.diag_indices_from(kernel)] += self.noise
            try:
                cho = linalg.cho_factor(kernel, lower=True)
            except linalg.LinAlgError:
                kernel[np.diag_indices_from(kernel)] += 1e-6
                cho = linalg.cho_factor(kernel, lower=True)
            y_mean = observed_y.mean()
            alpha_weights = linalg.cho_solve(cho, observed_y - y_mean)

            candidates = rng.uniform(0.0, 1.0, size=(self.candidate_pool, dimension))
            cross = self._matern_kernel(candidates, observed_x)
            mu = y_mean + cross @ alpha_weights
            v = linalg.cho_solve(cho, cross.T)
            var = np.maximum(1.0 - np.sum(cross * v.T, axis=1), 1e-12)
            acquisition = mu - self.beta * np.sqrt(var)
            next_x = candidates[int(np.argmin(acquisition))]

            next_y = objective(next_x)
            evaluations += 1
            observed_x = np.vstack([observed_x, next_x])
            observed_y = np.append(observed_y, next_y)
            if next_y < best_value:
                best_value = float(next_y)
                best_theta = next_x.copy()
            history.append(best_value)

        return OptimizationResult(best_theta, best_value, history, evaluations)


@dataclass
class RandomSearch:
    """Uniform random search; a sanity baseline and a fast fallback for tests."""

    iterations: int = 100
    name: str = "random"

    def optimize(
        self, objective: ObjectiveFunction, dimension: int, seed: int | None = None
    ) -> OptimizationResult:
        rng = np.random.default_rng(seed)
        # Candidates are independent of past evaluations, so they can be
        # drawn up front (the same draws as the sequential loop) and scored
        # as one population; the best-so-far fold preserves the original
        # history semantics.
        candidates = rng.uniform(0.0, 1.0, size=(self.iterations + 1, dimension))
        values = _evaluate_population(objective, candidates)
        evaluations = self.iterations + 1
        best_theta = candidates[0]
        best_value = float(values[0])
        history = [best_value]
        for theta, value in zip(candidates[1:], values[1:]):
            if value < best_value:
                best_value = float(value)
                best_theta = theta
            history.append(best_value)
        return OptimizationResult(best_theta, best_value, history, evaluations)
