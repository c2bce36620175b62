"""The benchmark's workloads: one seeded, fixed-size cell recipe each.

A run of a workload executes its cells for a set of sub-seeds derived
from the run's ``--seed``.  Every cell is a batch job at a stated size:
data production is an open Poisson loop in simulated time and requests
fire at planned offsets whether or not earlier ones finished; every link
uses the configured 10 ms per hop and 5 MB/s.  Simulated-time outcomes
are a pure function of the sub-seed, so they must not move under a
speed-only change; host-time outcomes are what the simulator costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Seed kept out of tuning; a later performance claim must also hold on it.
HELD_OUT_SEED = 9173

#: Snapshot cadence of durable workloads, in simulated seconds.
DURABLE_SNAPSHOT_SECONDS = 900.0

#: Sub-seeds of one run are ``seed * SUB_SEED_STRIDE + j``.
SUB_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    minutes: float
    #: Cells per run, each with its own sub-seed; outcomes pool over them.
    sub_seeds: int
    nodes: int
    items_per_minute: float
    block_interval: float
    solver: str = "greedy"
    clusters: int = 1
    super_peers: int = 0
    #: (node fraction, outages per node, mean downtime seconds)
    churn: Optional[Tuple[float, float, float]] = None
    #: Run through ``run_persistent``: journal every 30 sim-s, snapshot
    #: (and compact) every ``DURABLE_SNAPSHOT_SECONDS``.
    durable: bool = False
    checkpoint_interval: int = 0
    retain_blocks: Optional[int] = None

    @property
    def federated(self) -> bool:
        return self.clusters > 1

    def seeds(self, seed: int) -> Tuple[int, ...]:
        return tuple(seed * SUB_SEED_STRIDE + j for j in range(self.sub_seeds))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-n30",
            why="the paper's Section VI cell: cold greedy UFL placement and per-item ECDSA signing dominate",
            minutes=60.0,
            sub_seeds=4,
            nodes=30,
            items_per_minute=2.0,
            block_interval=60.0,
        ),
        Workload(
            name="scale-n200",
            why="n=200 past the empty-storage transient: warm placement, Eq. 14 stake sums, keygen and routing",
            minutes=20.0,
            sub_seeds=2,
            nodes=200,
            items_per_minute=2.0,
            block_interval=30.0,
            solver="incremental",
        ),
        Workload(
            name="churn-durable",
            why="churn with a journaled, snapshotted, pruned run: persistence, lifecycle and gap recovery",
            minutes=90.0,
            sub_seeds=4,
            nodes=30,
            items_per_minute=1.0,
            block_interval=60.0,
            churn=(0.3, 2.0, 150.0),
            durable=True,
            checkpoint_interval=10,
            retain_blocks=32,
        ),
        Workload(
            name="fed-4x8",
            why="4 clusters of 8 under 2 fog super-peers: the only cell running Raft, SWIM membership and the directory",
            minutes=20.0,
            sub_seeds=2,
            nodes=8,
            items_per_minute=2.0,
            block_interval=30.0,
            clusters=4,
            super_peers=2,
        ),
    )
}


def system_config(workload: Workload):
    from repro.core.config import LifecycleSpec, SystemConfig

    return SystemConfig(
        data_items_per_minute=workload.items_per_minute,
        expected_block_interval=workload.block_interval,
        placement_solver=workload.solver,
        checkpoint_interval=workload.checkpoint_interval,
        lifecycle=(
            None
            if workload.retain_blocks is None
            else LifecycleSpec(retain_blocks=workload.retain_blocks)
        ),
    )


def experiment_spec(workload: Workload, seed: int):
    from repro.sim.runner import ChurnSpec, ExperimentSpec

    churn = None
    if workload.churn is not None:
        fraction, events, downtime = workload.churn
        churn = ChurnSpec(
            node_fraction=fraction,
            events_per_node=events,
            mean_downtime_seconds=downtime,
        )
    return ExperimentSpec(
        node_count=workload.nodes,
        config=system_config(workload),
        seed=seed,
        duration_minutes=workload.minutes,
        churn=churn,
    )


def federation_spec(workload: Workload, seed: int):
    from repro.federation.spec import FederationSpec

    return FederationSpec(
        cluster_count=workload.clusters,
        nodes_per_cluster=workload.nodes,
        config=system_config(workload),
        seed=seed,
        duration_minutes=workload.minutes,
        super_peer_count=workload.super_peers,
        with_raft=True,
    )
