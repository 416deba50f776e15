"""Graphical-model descriptions of the data generation process.

Section 4.1: the first step in designing a T operator is a probabilistic
model -- a joint distribution over hidden variables (what we want, e.g.
object locations) and evidence variables (what the device reports,
e.g. RFID readings) -- factored into local components: how the state of
the world evolves (transition model) and how observations are generated
from it (observation model).

This module provides:

* the :class:`TransitionModel` / :class:`ObservationModel` interfaces
  used by the particle filter, and
* a small :class:`FactorGraph` for describing and scoring the joint
  distribution explicitly, which tests use to validate that the
  factored inference targets the correct posterior.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "TransitionModel",
    "ObservationModel",
    "StateSpaceModel",
    "Factor",
    "FactorGraph",
]


class TransitionModel(abc.ABC):
    """How a hidden state evolves between consecutive time steps."""

    @abc.abstractmethod
    def propagate(self, states: np.ndarray, dt: float, rng: np.random.Generator) -> np.ndarray:
        """Sample next states for an ``(n, d)`` array of current states."""

    def log_density(self, previous: np.ndarray, current: np.ndarray, dt: float) -> np.ndarray:
        """Optional: log transition density (used by factor-graph scoring)."""
        raise NotImplementedError


class ObservationModel(abc.ABC):
    """How evidence is generated from the hidden state."""

    @abc.abstractmethod
    def likelihood(self, states: np.ndarray, observation) -> np.ndarray:
        """Return ``p(observation | state)`` for an ``(n, d)`` state array."""

    def log_likelihood(self, states: np.ndarray, observation) -> np.ndarray:
        return np.log(np.maximum(self.likelihood(states, observation), 1e-300))


@dataclass
class StateSpaceModel:
    """A pairing of transition and observation models for one hidden variable.

    The prior sampler draws the initial particle set; it receives the
    particle count and a random generator.
    """

    transition: TransitionModel
    observation: ObservationModel
    prior_sampler: Callable[[int, np.random.Generator], np.ndarray]
    state_dim: int = 2

    def sample_prior(self, n: int, rng: np.random.Generator) -> np.ndarray:
        states = np.asarray(self.prior_sampler(n, rng), dtype=float)
        if states.shape != (n, self.state_dim):
            raise ValueError(
                f"prior sampler returned shape {states.shape}, expected {(n, self.state_dim)}"
            )
        return states


# ----------------------------------------------------------------------
# Factor graph (explicit joint distribution, used for validation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Factor:
    """A local log-potential over a subset of variables."""

    name: str
    variables: Tuple[str, ...]
    log_potential: Callable[[Mapping[str, np.ndarray]], float]

    def score(self, assignment: Mapping[str, np.ndarray]) -> float:
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise KeyError(f"factor {self.name!r} is missing variables {missing}")
        return float(self.log_potential(assignment))


class FactorGraph:
    """A set of variables and log-potential factors over them.

    The graph stores structure only; values are supplied at scoring
    time.  It supports joint log-density evaluation and a listing of
    the Markov blanket of each variable, which is what the paper's
    factorisation optimisation exploits (object locations are
    conditionally independent given the reader trajectory).
    """

    def __init__(self) -> None:
        self._variables: Dict[str, str] = {}
        self._factors: List[Factor] = []

    def add_variable(self, name: str, kind: str = "hidden") -> None:
        """Declare a variable; ``kind`` is ``"hidden"`` or ``"evidence"``."""
        if kind not in ("hidden", "evidence"):
            raise ValueError("variable kind must be 'hidden' or 'evidence'")
        if name in self._variables:
            raise ValueError(f"variable {name!r} already declared")
        self._variables[name] = kind

    def add_factor(self, factor: Factor) -> None:
        unknown = [v for v in factor.variables if v not in self._variables]
        if unknown:
            raise ValueError(f"factor {factor.name!r} references undeclared variables {unknown}")
        self._factors.append(factor)

    @property
    def variables(self) -> Mapping[str, str]:
        return dict(self._variables)

    @property
    def factors(self) -> Sequence[Factor]:
        return tuple(self._factors)

    def hidden_variables(self) -> List[str]:
        return [v for v, kind in self._variables.items() if kind == "hidden"]

    def evidence_variables(self) -> List[str]:
        return [v for v, kind in self._variables.items() if kind == "evidence"]

    def log_joint(self, assignment: Mapping[str, np.ndarray]) -> float:
        """Return the unnormalised joint log-density of a full assignment."""
        return float(sum(factor.score(assignment) for factor in self._factors))

    def markov_blanket(self, variable: str) -> List[str]:
        """Return the variables sharing a factor with ``variable``."""
        if variable not in self._variables:
            raise KeyError(f"unknown variable {variable!r}")
        neighbours = set()
        for factor in self._factors:
            if variable in factor.variables:
                neighbours.update(factor.variables)
        neighbours.discard(variable)
        return sorted(neighbours)

    def independent_components(self) -> List[List[str]]:
        """Return groups of hidden variables not linked by any factor.

        Variables in different components can be tracked by independent
        particle filters -- the formal justification for the paper's
        factorisation optimisation.
        """
        hidden = self.hidden_variables()
        index = {name: i for i, name in enumerate(hidden)}
        parent = list(range(len(hidden)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        for factor in self._factors:
            involved = [index[v] for v in factor.variables if v in index]
            for a, b in zip(involved, involved[1:]):
                union(a, b)

        groups: Dict[int, List[str]] = {}
        for name, i in index.items():
            groups.setdefault(find(i), []).append(name)
        return [sorted(group) for group in groups.values()]
