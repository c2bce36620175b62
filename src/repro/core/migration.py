"""Data migration under topology drift (the paper's §VII future work).

"Over time, data items may become obsolete, and nodes will also change the
location.  The distributed storage will not remain optimal during that
time.  Calculating the optimal storage problem is not necessary if the
change over the network is small.  In the future, we will discuss the data
migration problem, which will study how to use less operation to achieve
less offset from the optimal result."

This module implements that study:

* :func:`placement_drift` — how far a placement has drifted from optimal
  on the *current* UFL instance (cost ratio ≥ 1).
* :func:`plan_migration` — a bounded-operation greedy repair: starting
  from the current replica set, apply the single most cost-reducing
  add / drop / swap move, up to ``max_operations`` moves.  Each move is
  one "operation" (a swap transfers the item once; an add copies it once;
  a drop is free storage-wise but counts as a management operation).
* :class:`MigrationPlan` — the resulting move list with before/after
  costs, so callers can decide whether the improvement justifies the
  transfer traffic.

The ablation bench (``bench_ablation_migration.py``) sweeps the operation
budget and plots the drift-vs-operations frontier the paper asks about.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.facility.incremental import IncrementalUFLSolver
from repro.facility.problem import UFLProblem, solution_cost_of_open_set


class MoveKind(enum.Enum):
    ADD = "add"  # open a new replica (one data copy transferred)
    DROP = "drop"  # retire a replica (no transfer)
    SWAP = "swap"  # move a replica between nodes (one transfer)


@dataclass(frozen=True)
class MigrationMove:
    """One repair operation on a placement."""

    kind: MoveKind
    source: Optional[int]  # node losing the replica (DROP/SWAP)
    target: Optional[int]  # node gaining the replica (ADD/SWAP)

    def __post_init__(self) -> None:
        if self.kind is MoveKind.ADD and (self.target is None or self.source is not None):
            raise ValueError("ADD needs a target and no source")
        if self.kind is MoveKind.DROP and (self.source is None or self.target is not None):
            raise ValueError("DROP needs a source and no target")
        if self.kind is MoveKind.SWAP and (self.source is None or self.target is None):
            raise ValueError("SWAP needs both source and target")

    @property
    def transfers_data(self) -> bool:
        """Whether executing this move ships a data copy over the network."""
        return self.kind is not MoveKind.DROP


@dataclass(frozen=True)
class MigrationPlan:
    """The outcome of planning: ordered moves plus the cost trajectory."""

    moves: Tuple[MigrationMove, ...]
    initial_cost: float
    final_cost: float
    optimal_cost: float

    @property
    def operations(self) -> int:
        return len(self.moves)

    @property
    def transfers(self) -> int:
        return sum(1 for move in self.moves if move.transfers_data)

    @property
    def initial_drift(self) -> float:
        """Cost ratio before migration (≥ 1; 1 means already optimal)."""
        return _ratio(self.initial_cost, self.optimal_cost)

    @property
    def final_drift(self) -> float:
        """Cost ratio after applying the plan."""
        return _ratio(self.final_cost, self.optimal_cost)

    def final_open_set(self, current: Iterable[int]) -> Tuple[int, ...]:
        """Apply the moves to a replica set and return the result."""
        replicas: Set[int] = set(current)
        for move in self.moves:
            if move.kind is MoveKind.ADD:
                replicas.add(move.target)
            elif move.kind is MoveKind.DROP:
                replicas.discard(move.source)
            else:
                replicas.discard(move.source)
                replicas.add(move.target)
        return tuple(sorted(replicas))


def _ratio(cost: float, optimal: float) -> float:
    if optimal <= 0:
        return 1.0 if cost <= 0 else math.inf
    return cost / optimal


def placement_drift(problem: UFLProblem, current_replicas: Sequence[int]) -> float:
    """How sub-optimal the current replica set is on the current instance.

    Returns ``cost(current) / cost(greedy-optimal)``; ``inf`` when the
    current placement is infeasible on the new topology (e.g. all replicas
    ended up unreachable from some client).
    """
    current_cost = solution_cost_of_open_set(problem, current_replicas)
    optimal_cost = IncrementalUFLSolver().solve(problem).total_cost(problem)
    return _ratio(current_cost, optimal_cost)


def plan_migration(
    problem: UFLProblem,
    current_replicas: Sequence[int],
    max_operations: int = 3,
    min_relative_gain: float = 0.02,
) -> MigrationPlan:
    """Greedy bounded-operation repair of a drifted placement.

    Each round evaluates every single add / drop / swap against the
    current set and applies the best one, stopping when the budget is
    spent or no move improves cost by at least ``min_relative_gain``
    (relative to the current cost) — the "not necessary if the change over
    the network is small" rule.
    """
    if max_operations < 0:
        raise ValueError("operation budget cannot be negative")
    optimal_cost = IncrementalUFLSolver().solve(problem).total_cost(problem)
    current: Set[int] = set(current_replicas)
    initial_cost = solution_cost_of_open_set(problem, current)
    current_cost = initial_cost
    openable = set(int(i) for i in problem.openable_facilities())

    moves: List[MigrationMove] = []
    for _ in range(max_operations):
        best_cost = current_cost
        best_move: Optional[MigrationMove] = None
        best_set: Optional[Set[int]] = None

        for target in sorted(openable - current):
            candidate = current | {target}
            cost = solution_cost_of_open_set(problem, candidate)
            if cost < best_cost:
                best_cost, best_set = cost, candidate
                best_move = MigrationMove(MoveKind.ADD, None, target)
        if len(current) > 1:
            for source in sorted(current):
                candidate = current - {source}
                cost = solution_cost_of_open_set(problem, candidate)
                if cost < best_cost:
                    best_cost, best_set = cost, candidate
                    best_move = MigrationMove(MoveKind.DROP, source, None)
        for source in sorted(current):
            for target in sorted(openable - current):
                candidate = (current - {source}) | {target}
                cost = solution_cost_of_open_set(problem, candidate)
                if cost < best_cost:
                    best_cost, best_set = cost, candidate
                    best_move = MigrationMove(MoveKind.SWAP, source, target)

        if best_move is None:
            break
        # Infeasible current placements (inf cost) always accept repairs;
        # finite ones require the minimum relative gain.
        if math.isfinite(current_cost):
            gain = (current_cost - best_cost) / current_cost
            if gain < min_relative_gain:
                break
        moves.append(best_move)
        current = best_set
        current_cost = best_cost

    return MigrationPlan(
        moves=tuple(moves),
        initial_cost=initial_cost,
        final_cost=current_cost,
        optimal_cost=optimal_cost,
    )
