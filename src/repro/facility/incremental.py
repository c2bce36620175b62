"""Incremental / warm-started UFL solver for per-item replays.

The simulation solves one UFL instance per placed item, and consecutive
instances are nearly identical: the connection matrix (RDC, Eq. 2) only
changes at mobility epochs or churn events, while the facility costs
(FDC, Eq. 1) change at a handful of nodes — exactly the facilities the
previous solve opened.  :class:`IncrementalUFLSolver` exploits that
structure while staying **bit-identical** to the from-scratch greedy
(:func:`repro.facility.greedy.solve_greedy`).  That is what lets the
allocator run it for every ``placement_solver="greedy"`` placement: the
chain and ledger digests are the ones the from-scratch greedy gives
(proven by ``tests/property/test_fastpath_equivalence.py``, which keeps
:func:`solve_greedy` as the reference).

Three reuse layers, all exact:

1. **Solution memo** — instances are fingerprinted (connection-matrix
   token + facility-cost bytes); an exact repeat (validators re-deriving
   a miner's placements, repeated steady states) returns the cached
   solution without solving at all.
2. **Sorted-row reuse** — while the connection matrix is unchanged, each
   facility's stable cost ordering, sorted finite costs, and their
   prefix sums are computed once instead of once per solve per round.
   The greedy's first round (``unassigned`` = all clients, the dominant
   cost) reduces to a cached ``(ratio, star)`` per facility.
3. **Warm candidate cache** — between solves, only facilities whose
   opening cost changed have their first-round candidate recomputed;
   untouched facilities reuse the previous candidate verbatim (the
   ratio depends only on the opening cost and the — unchanged — sorted
   connection row).

A **structural change** (connection matrix shape or contents changed:
mobility epoch, node offline/online, different cluster) drops every
cache and rebuilds it for the epoch that follows.  The rebuilt caches
immediately serve the solve through the same exact warm path (it is
bit-identical from a cold cache too).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open
from repro.obs import runtime as _obs

#: Bound on memoised solutions; evicting only costs a re-solve.
_MEMO_LIMIT = 4096

def _matrix_token(matrix: np.ndarray) -> bytes:
    """Cheap identity token for a float matrix (shape + content hash)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(matrix.shape).encode())
    digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.digest()


class IncrementalUFLSolver:
    """Warm-started greedy UFL, digest-identical to :func:`solve_greedy`.

    One instance is shared by a whole cluster (the allocator owns it):
    every cached artefact is a pure function of the problem instance, so
    sharing across miner and validators only increases the hit rate —
    it can never make two nodes disagree.
    """

    def __init__(self):
        # -- per-connection-matrix state (layer 2) -------------------------
        self._conn_token: Optional[bytes] = None
        self._orders: List[np.ndarray] = []  # stable cost order per facility
        self._prefix: List[np.ndarray] = []  # cumsum of sorted finite costs
        self._finite_counts: List[int] = []
        # -- warm first-round candidates (layer 3) -------------------------
        #: facility → (opening_cost, ratio, star_k) valid for the current
        #: connection matrix; ``None`` marks "no finite star".
        self._round1: Dict[int, Optional[Tuple[float, float, int]]] = {}
        self._last_facility_costs: Optional[np.ndarray] = None
        # -- exact-instance memo (layer 1) ---------------------------------
        self._memo: "OrderedDict[bytes, UFLSolution]" = OrderedDict()
        # -- statistics ----------------------------------------------------
        self.reuse_hits = 0  # memo hits + warm candidates reused
        self.fast_solves = 0  # solves served by the warm greedy path
        self.fallbacks = 0  # structural changes → cache rebuilds

    # ------------------------------------------------------------------ cache plumbing

    def _reset_epoch(self, problem: UFLProblem, token: bytes) -> None:
        """Rebuild the per-connection-matrix caches (structural change)."""
        self._conn_token = token
        self._orders = []
        self._prefix = []
        self._finite_counts = []
        self._round1 = {}
        self._last_facility_costs = None
        self._memo.clear()
        for facility in range(problem.num_facilities):
            row = problem.connection_costs[facility]
            # Stable argsort of the full row: finite costs first in
            # (cost, client-id) order — the exact order the greedy's
            # filter-then-stable-argsort produces for a full client set.
            order = np.argsort(row, kind="stable")
            finite = int(np.isfinite(row).sum())
            sorted_costs = row[order[:finite]]
            self._orders.append(order)
            self._prefix.append(np.cumsum(sorted_costs))
            self._finite_counts.append(finite)

    def _memo_get(self, key: bytes) -> Optional[UFLSolution]:
        solution = self._memo.get(key)
        if solution is not None:
            self._memo.move_to_end(key)
        return solution

    def _memo_put(self, key: bytes, solution: UFLSolution) -> None:
        self._memo[key] = solution
        if len(self._memo) > _MEMO_LIMIT:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------ candidates

    def _first_round_candidate(
        self, facility: int, opening_cost: float
    ) -> Optional[Tuple[float, float, int]]:
        """The greedy's round-1 star for ``facility`` (all clients open).

        Returns ``(opening_cost, ratio, k)`` where the star is the first
        ``k + 1`` clients of the facility's sorted order, or ``None``
        when the row has no finite cost.  Bitwise identical to the ratio
        :func:`solve_greedy` computes: same sorted costs, same prefix
        sums, same element-wise arithmetic.
        """
        finite = self._finite_counts[facility]
        if finite == 0:
            return None
        prefix = self._prefix[facility]
        counts = np.arange(1, finite + 1)
        ratios = (opening_cost + prefix) / counts
        k = int(np.argmin(ratios))
        return (opening_cost, float(ratios[k]), k)

    def _refresh_round1(self, facility_costs: np.ndarray) -> None:
        """Recompute candidates only for facilities whose FDC changed."""
        previous = self._last_facility_costs
        for facility in range(facility_costs.shape[0]):
            cost = facility_costs[facility]
            if not math.isfinite(cost):
                self._round1[facility] = None
                continue
            cached = self._round1.get(facility)
            if (
                previous is not None
                and cached is not None
                and cached[0] == cost
            ):
                self.reuse_hits += 1
                if _obs.is_enabled():
                    _obs.add("facility.incremental_reuse")
                continue
            self._round1[facility] = self._first_round_candidate(
                facility, float(cost)
            )
        self._last_facility_costs = facility_costs.copy()

    # ------------------------------------------------------------------ solving

    def solve(self, problem: UFLProblem) -> UFLSolution:
        """Solve ``problem``; the result always equals :func:`solve_greedy`'s."""
        token = _matrix_token(problem.connection_costs)
        if token != self._conn_token:
            # Structural change: topology moved under us.  Rebuild the
            # per-matrix caches; the warm path is exact from a cold cache
            # too (the vectorised rounds mirror the reference move for
            # move).
            self.fallbacks += 1
            if _obs.is_enabled():
                _obs.add("facility.incremental_fallback")
            self._reset_epoch(problem, token)
        key = self._fingerprint(problem)
        cached = self._memo_get(key)
        if cached is not None:
            self.reuse_hits += 1
            if _obs.is_enabled():
                _obs.add("facility.incremental_reuse")
            return cached
        solution = self._fast_greedy(problem)
        self.fast_solves += 1
        self._memo_put(key, solution)
        return solution

    def _fingerprint(self, problem: UFLProblem) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._conn_token or b"")
        digest.update(np.ascontiguousarray(problem.facility_costs).tobytes())
        return digest.digest()

    def _fast_greedy(self, problem: UFLProblem) -> UFLSolution:
        """The greedy of :func:`solve_greedy`, replayed over warm caches.

        The control flow, ratio arithmetic, and tie-breaking mirror the
        reference implementation move for move; only redundant work
        (re-sorting unchanged rows, recomputing unchanged round-1 stars)
        is skipped.
        """
        if not problem.is_feasible():
            raise ValueError(
                "infeasible UFL instance: a client has no reachable facility"
            )
        num_facilities = problem.num_facilities
        num_clients = problem.num_clients
        facility_costs = problem.facility_costs
        connection = problem.connection_costs
        self._refresh_round1(facility_costs)

        unassigned: Set[int] = set(range(num_clients))
        open_set: List[int] = []
        opened = np.zeros(num_facilities, dtype=bool)
        first_round = True

        while unassigned:
            best_ratio = math.inf
            best_choice: Optional[Tuple[int, List[int]]] = None
            if first_round:
                # Round 1: every client unassigned → the cached stars
                # are exactly what the reference greedy would derive.
                best_facility = -1
                best_k = -1
                for facility in range(num_facilities):
                    candidate = self._round1.get(facility)
                    if candidate is None:
                        continue
                    _, ratio, k = candidate
                    if ratio < best_ratio - 1e-12:
                        best_ratio = ratio
                        best_facility = facility
                        best_k = k
                if best_facility >= 0:
                    order = self._orders[best_facility]
                    star = [int(c) for c in order[: best_k + 1]]
                    best_choice = (best_facility, star)
            else:
                # Later rounds: one vectorised pass over ALL facilities.
                # Row f of ``sub`` is exactly the cost vector the reference
                # greedy builds for facility f; the row-wise stable argsort,
                # cumulative sums, and ratio divisions perform the identical
                # float operations, just batched — so every ratio (and the
                # first-minimum argmin) is bitwise what the reference sees.
                unassigned_list = sorted(unassigned)
                sub = connection[:, unassigned_list]
                order = np.argsort(sub, kind="stable", axis=1)
                sorted_costs = np.take_along_axis(sub, order, axis=1)
                finite_counts = np.isfinite(sub).sum(axis=1)
                opening = np.where(opened, 0.0, facility_costs)
                prefix = np.cumsum(sorted_costs, axis=1)
                counts = np.arange(1, len(unassigned_list) + 1)
                ratios = (opening[:, None] + prefix) / counts[None, :]
                k_per_facility = np.argmin(ratios, axis=1)
                for facility in range(num_facilities):
                    if not math.isfinite(opening[facility]):
                        continue
                    if finite_counts[facility] == 0:
                        continue
                    k = int(k_per_facility[facility])
                    ratio = float(ratios[facility, k])
                    if ratio < best_ratio - 1e-12:
                        best_ratio = ratio
                        star = [
                            unassigned_list[idx]
                            for idx in order[facility, : k + 1]
                        ]
                        best_choice = (facility, star)
            if best_choice is None:
                raise ValueError("greedy could not serve all clients (infeasible)")
            facility, star_clients = best_choice
            opened[facility] = True
            if facility not in open_set:
                open_set.append(facility)
            unassigned.difference_update(star_clients)
            first_round = False

        return assign_to_open(problem, open_set)
