"""Shared builders for the test-suite: clusters, configs, seeded runs.

Integration tests used to copy-paste the same three blocks — a small
:class:`SystemConfig`, a ``build_cluster(...)`` call, and a seeded
``run_experiment(...)`` — with slightly different literals.  This module
is the single home for that boilerplate:

* :func:`make_config` — a quick-protocol-test config with overridable
  fields;
* :func:`make_cluster` — a wired cluster (PoS by default, PoW via
  ``consensus="pow"`` which also tunes difficulty to the node count);
* :func:`make_raft_cluster` — a Raft cluster over a connected geometric
  topology;
* :func:`fixed_seed_run` — a full seeded experiment, memoised per
  ``cache_scope`` so a module's tests can share one multi-second run the
  way module-scoped fixtures used to, without re-declaring the fixture
  everywhere;
* :func:`reference_paths` — swaps the production fast paths for the slow
  references they must match (cold :func:`solve_greedy` placement and
  one event-queue entry per delivery), for the differential suite.

The ``make_cluster`` / ``fixed_seed_run`` conftest fixtures re-export
these for tests that prefer fixture injection over imports.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.pow import pow_difficulty_for
from repro.facility.greedy import solve_greedy
from repro.facility.incremental import IncrementalUFLSolver
from repro.raft.cluster import RaftCluster
from repro.sim.cluster import EdgeCluster, build_cluster
from repro.sim.runner import (
    ChurnSpec,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Topology, connected_random_positions
from repro.simnet.transport import Network

#: Hash rate matching the paper's handset (difficulty 4 at 25 s/block).
POW_TEST_HASH_RATE = 16**4 / 25.0


def make_config(**overrides) -> SystemConfig:
    """A small-scale config for quick protocol tests, field-overridable."""
    defaults = dict(
        storage_capacity=60,
        expected_block_interval=30.0,
        data_items_per_minute=2.0,
        recent_cache_capacity=5,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def make_pow_config(node_count: int, t0: float = 20.0, **overrides) -> SystemConfig:
    """The PoW-baseline config, difficulty tuned to the cluster size."""
    defaults = dict(
        consensus="pow",
        data_items_per_minute=0.0,
        expected_block_interval=t0,
        pow_hash_rate=POW_TEST_HASH_RATE,
        pow_difficulty=pow_difficulty_for(t0, node_count, POW_TEST_HASH_RATE),
    )
    defaults.update(overrides)
    return replace(PAPER_CONFIG, **defaults)


def make_cluster(
    node_count: int,
    *,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
    consensus: str = "pos",
    t0: Optional[float] = None,
    start: bool = True,
    run_until: Optional[float] = None,
    with_energy_meters: bool = False,
    node_classes: Optional[Dict[int, type]] = None,
    **config_overrides,
) -> EdgeCluster:
    """Build (and by default start) a wired simulation cluster.

    ``config_overrides`` land on :func:`make_config` (PoS) or
    :func:`make_pow_config` (PoW); pass an explicit ``config`` to bypass
    both.  ``run_until`` additionally advances the engine that far.
    """
    if config is None:
        if consensus == "pow":
            config = make_pow_config(
                node_count, **({"t0": t0} if t0 is not None else {}), **config_overrides
            )
        else:
            config = make_config(**config_overrides)
    cluster = build_cluster(
        node_count,
        config,
        seed=seed,
        with_energy_meters=with_energy_meters,
        node_classes=node_classes,
    )
    if start:
        cluster.start()
    if run_until is not None:
        cluster.engine.run_until(run_until)
    return cluster


def make_raft_cluster(
    size: int = 5, seed: int = 0, **raft_kwargs
) -> Tuple[EventEngine, Network, RaftCluster]:
    """A Raft cluster over a connected geometric radio topology."""
    engine = EventEngine(seed=seed)
    positions = connected_random_positions(size, engine.np_rng)
    topology = Topology(positions)
    # Raft over multi-hop radio: give timeouts headroom over path latency.
    network = Network(engine, topology, ChannelModel(bandwidth=None))
    cluster = RaftCluster(list(range(size)), network, engine, **raft_kwargs)
    return engine, network, cluster


def digest_run(
    node_count: int = 8,
    seed: int = 5,
    duration_minutes: float = 5.0,
    *,
    timeline_interval: float = 30.0,
    mobility_epoch_minutes: float = 10.0,
    churn: Optional[ChurnSpec] = None,
    config: Optional[SystemConfig] = None,
    **config_overrides,
) -> Tuple[str, str, Optional[dict]]:
    """One seeded run's full fingerprint: chain digest, ledger digest, verdict.

    The differential fast-path harness runs the same scenario on the
    production paths and inside :func:`reference_paths`, and asserts the
    triples are equal — digest equality pins every block, placement, and
    balance; verdict equality pins the sampled protocol timeline the
    monitors watched.  Observability is enabled around the run (it is
    non-perturbing; the overhead guard proves that separately).
    """
    from repro import obs  # local import: obs state is process-global

    if config is None:
        config = make_config(**config_overrides)
    elif config_overrides:
        config = replace(config, **config_overrides)
    spec = ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
        mobility_epoch_minutes=mobility_epoch_minutes,
        churn=churn,
    )
    session = obs.enable(timeline_interval=timeline_interval)
    try:
        result = run_experiment(spec)
        verdict = session.monitors.verdict() if session.monitors is not None else None
    finally:
        obs.disable()
    chain = result.cluster.longest_chain_node().chain
    return chain.chain_digest(), chain.state.ledger_digest(), verdict


#: Memoised seeded runs, keyed by (cache scope, full spec).
_RUN_CACHE: Dict[tuple, ExperimentResult] = {}


def fixed_seed_run(
    node_count: int = 10,
    seed: int = 21,
    duration_minutes: float = 20.0,
    *,
    mobility_epoch_minutes: float = 10.0,
    churn: Optional[ChurnSpec] = None,
    config: Optional[SystemConfig] = None,
    cache_scope: Optional[str] = None,
    **config_overrides,
) -> ExperimentResult:
    """Run one seeded end-to-end experiment (deterministic given the args).

    With ``cache_scope`` set (the conftest fixture passes the requesting
    test module's name), identical invocations share one result — the
    replacement for per-module session fixtures around multi-second runs.
    Tests sharing a cached run must treat the cluster the way they treated
    a module-scoped fixture: advancing its engine is visible to the
    module's other tests.
    """
    if config is None:
        config = make_config(**config_overrides)
    elif config_overrides:
        config = replace(config, **config_overrides)
    spec = ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
        mobility_epoch_minutes=mobility_epoch_minutes,
        churn=churn,
    )
    if cache_scope is None:
        return run_experiment(spec)
    key = (cache_scope, spec.node_count, spec.seed, spec.duration_minutes,
           spec.mobility_epoch_minutes, spec.churn, spec.config)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_experiment(spec)
    return _RUN_CACHE[key]


@dataclass
class ReferenceCounts:
    """How much work :func:`reference_paths` routed through the references."""

    #: Placements solved by the cold :func:`solve_greedy`.
    cold_solves: int = 0
    #: Deliveries posted as their own event-queue entry.
    unbatched_deliveries: int = 0


@contextmanager
def reference_paths() -> Iterator[ReferenceCounts]:
    """Run the slow reference paths in place of the production fast paths.

    * Placement: :meth:`IncrementalUFLSolver.solve` becomes a cold
      :func:`solve_greedy` call, with no cache of any kind.
    * Delivery: :meth:`EventEngine.call_at_batch` posts one heap entry per
      call, as N :meth:`EventEngine.call_at` calls would.  Its handle
      covers the first call only; production fan-outs never cancel.

    The yielded counts let a test assert that each reference really ran,
    so a differential test cannot pass by comparing a path with itself.
    """
    counts = ReferenceCounts()

    def cold_solve(self, problem):
        counts.cold_solves += 1
        return solve_greedy(problem)

    def unbatched(self, when, calls):
        handles = [self.call_at(when, callback, *args) for callback, args in calls]
        counts.unbatched_deliveries += len(handles)
        return handles[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalUFLSolver, "solve", cold_solve)
        patch.setattr(EventEngine, "call_at_batch", unbatched)
        yield counts
