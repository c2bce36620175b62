"""Federation run specification: K edge clusters plus a fog tier.

A :class:`FederationSpec` is to ``repro run --clusters K`` what
:class:`~repro.sim.runner.ExperimentSpec` is to ``repro run``: the whole
run as data, persisted into a durable run's manifest the same way
(:func:`repro.persist.resume.spec_to_dict`; planted adversary classes
refuse to serialise).  Every per-cluster random stream — SWIM formation, layout /
mobility / allocation, the workload — is seeded from a value *derived*
from the root seed and the cluster id, so the federation is a pure
function of ``seed`` no matter how the shared engine interleaves the
clusters' events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import SystemConfig
from repro.crypto.hashing import hash_items
from repro.sim.runner import ChurnSpec, ExperimentSpec

#: Raft timing for the per-cluster general-information groups.  The
#: single-cluster benchmarks run Raft at its testbed defaults (100 ms
#: heartbeats); a federation multiplies that by K clusters for the whole
#: run, so the fog tier runs its Raft groups at gossip-compatible pace.
FED_RAFT_ELECTION_TIMEOUT = (3.0, 6.0)
FED_RAFT_HEARTBEAT_SECONDS = 1.0


class FederationSpecError(ValueError):
    """A :class:`FederationSpec` constraint is violated.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites (the CLI, older tests) keep working, while new callers
    can catch the typed error specifically.
    """


def cluster_seed(root_seed: int, cluster_id: int) -> int:
    """The derived seed for one cluster, a pure function of the root."""
    digest = hash_items("federation-cluster", root_seed, cluster_id)
    return int.from_bytes(digest[:8], "big")


def derived_seed(root_seed: int, label: str, index: int) -> int:
    """A named per-stream seed (swim / workload / fog-peer / lookups)."""
    digest = hash_items("federation-stream", label, root_seed, index)
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FederationSpec:
    """Everything that defines one federated run."""

    cluster_count: int
    nodes_per_cluster: int
    config: SystemConfig
    seed: int = 0
    duration_minutes: Optional[float] = None  # default: config.simulation_minutes
    #: Fog tier size; clusters home to peer ``cluster_id % super_peer_count``.
    super_peer_count: int = 2
    #: SWIM runs from t=0; chains and workload start once this window
    #: closes and every cluster's membership view has converged.
    membership_window_seconds: float = 20.0
    #: Home super-peer refresh period for its clusters' summaries.
    directory_refresh_seconds: float = 30.0
    #: Anti-entropy gossip period between super-peers.
    gossip_period_seconds: float = 15.0
    #: One-way edge↔fog latency (fog links are fast backhaul, not radio).
    fog_latency_seconds: float = 0.05
    #: Fraction of produced items that attract a cross-cluster lookup.
    cross_lookup_fraction: float = 0.3
    #: Fraction of successful cross-cluster lookups that migrate the item.
    migrate_fraction: float = 0.5
    #: Lookup delay window after production (directory must refresh first).
    lookup_min_delay: float = 120.0
    lookup_max_delay: float = 300.0
    mobility_epoch_minutes: float = 10.0
    #: Run the per-cluster Raft general-information groups.
    with_raft: bool = True
    #: Churn overlay confined to one cluster (blast-radius experiments).
    churn_cluster: Optional[int] = None
    churn: Optional[ChurnSpec] = None
    #: cluster id → (node id → EdgeNode subclass); the federated chaos
    #: harness plants whole-cluster adversaries through this.
    node_classes_by_cluster: Optional[Dict[int, Dict[int, type]]] = None
    #: super-peer id → SuperPeer subclass; the federated chaos harness
    #: plants fog-tier adversaries through this.
    fog_peer_classes: Optional[Dict[int, type]] = None

    def __post_init__(self) -> None:
        if self.cluster_count < 1:
            raise FederationSpecError("a federation needs at least one cluster")
        if self.nodes_per_cluster < 2:
            raise FederationSpecError("each cluster needs at least 2 nodes")
        if self.super_peer_count < 1:
            raise FederationSpecError(
                "the fog tier needs at least one super-peer"
            )
        if self.membership_window_seconds < 0:
            raise FederationSpecError("membership window cannot be negative")
        if self.directory_refresh_seconds <= 0 or self.gossip_period_seconds <= 0:
            raise FederationSpecError("directory periods must be positive")
        if not (0.0 <= self.cross_lookup_fraction <= 1.0):
            raise FederationSpecError("cross-lookup fraction must be in [0, 1]")
        if not (0.0 <= self.migrate_fraction <= 1.0):
            raise FederationSpecError("migrate fraction must be in [0, 1]")
        if self.lookup_max_delay < self.lookup_min_delay:
            raise FederationSpecError(
                "lookup_max_delay must be ≥ lookup_min_delay"
            )
        if self.churn_cluster is not None and not (
            0 <= self.churn_cluster < self.cluster_count
        ):
            raise FederationSpecError("churn_cluster out of range")
        if self.fog_peer_classes is not None and any(
            not (0 <= peer_id < self.super_peer_count)
            for peer_id in self.fog_peer_classes
        ):
            raise FederationSpecError("fog peer class id out of range")
        if self.membership_window_seconds >= self.duration_seconds:
            raise FederationSpecError("membership window consumes the whole run")

    @property
    def duration_seconds(self) -> float:
        minutes = (
            self.duration_minutes
            if self.duration_minutes is not None
            else self.config.simulation_minutes
        )
        return minutes * 60.0

    @property
    def total_nodes(self) -> int:
        return self.cluster_count * self.nodes_per_cluster

    def seed_for(self, cluster_id: int) -> int:
        return cluster_seed(self.seed, cluster_id)

    def home_peer_of(self, cluster_id: int) -> int:
        return cluster_id % self.super_peer_count

    def cluster_spec(self, cluster_id: int) -> ExperimentSpec:
        """The single-cluster spec this cluster runs under the hood."""
        classes = None
        if self.node_classes_by_cluster:
            classes = self.node_classes_by_cluster.get(cluster_id)
        return ExperimentSpec(
            node_count=self.nodes_per_cluster,
            config=self.config,
            seed=self.seed_for(cluster_id),
            duration_minutes=self.duration_seconds / 60.0,
            mobility_epoch_minutes=self.mobility_epoch_minutes,
            churn=self.churn if cluster_id == self.churn_cluster else None,
            node_classes=classes,
        )
