"""Background services and client populations (Section VIII-A).

To make the IDS alert streams realistic, every replica in the paper's
testbed runs a set of background services (Table 5) consumed by a population
of background clients that "arrive with a Poisson rate lambda = 20 and have
exponentially distributed service times with mean mu = 4 time-steps".

:class:`BackgroundClientPopulation` models that load: an M/M/inf-style
population whose size modulates the benign IDS alert rate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BackgroundClientPopulation"]


class BackgroundClientPopulation:
    """Poisson-arrival background clients with exponential service times.

    At every time-step ``Poisson(arrival_rate)`` new clients arrive, and each
    active client departs with probability ``1 / mean_service_time`` (the
    discrete-time analogue of exponential service times with that mean).
    """

    def __init__(
        self,
        arrival_rate: float = 20.0,
        mean_service_time: float = 4.0,
        seed: int | None = None,
    ) -> None:
        if arrival_rate < 0.0:
            raise ValueError("arrival_rate must be non-negative")
        if mean_service_time <= 0.0:
            raise ValueError("mean_service_time must be positive")
        self.arrival_rate = arrival_rate
        self.mean_service_time = mean_service_time
        self._rng = np.random.default_rng(seed)
        self.active_clients = 0
        self.total_arrivals = 0

    def step(self) -> int:
        """Advance one time-step; returns the active client count."""
        arrivals = int(self._rng.poisson(self.arrival_rate))
        self.total_arrivals += arrivals
        departure_probability = min(1.0 / self.mean_service_time, 1.0)
        departures = int(self._rng.binomial(self.active_clients, departure_probability))
        self.active_clients = max(self.active_clients + arrivals - departures, 0)
        return self.active_clients

    def expected_steady_state(self) -> float:
        """Expected active clients in steady state (Little's law)."""
        return self.arrival_rate * self.mean_service_time

