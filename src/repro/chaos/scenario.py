"""Seeded chaos scenario specification.

A :class:`ChaosSpec` pins everything that defines one adversarial run:
the run itself — one cluster (:class:`~repro.sim.runner.ExperimentSpec`)
or a federation of K clusters
(:class:`~repro.federation.spec.FederationSpec`), the same union the
durable driver takes — plus the adversary overlay and its activity
window.  A single cluster takes node adversaries and a partition (sim)
or kill (live) fault; a federation takes whole Byzantine clusters and
compromised fog super-peers.  The spec refuses an overlay that does not
fit its run kind, so two runs of the same spec produce identical
verdicts and honest-chain digests on the simulator.

:func:`node_classes_for` and :func:`fog_peer_classes_for` turn the
overlay into the class maps both run kinds and both fabrics accept: for
each adversary a dynamic subclass of the behavior class with the
scenario's window baked in as class attributes (see
:mod:`repro.chaos.adversaries` and :mod:`repro.federation.adversaries`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.chaos.adversaries import ADVERSARY_TYPES
from repro.core.config import SystemConfig
from repro.federation.adversaries import FOG_ADVERSARY_TYPES
from repro.federation.spec import FederationSpec
from repro.sim.runner import ExperimentSpec


@dataclass(frozen=True)
class PartitionSpec:
    """One scheduled partition window (sim fabric only).

    Empty groups mean "split the node ids in half" — the common case for
    CLI-driven scenarios.
    """

    at_minutes: float
    heal_minutes: float
    group_a: Tuple[int, ...] = ()
    group_b: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.at_minutes < 0:
            raise ValueError("partition start must be non-negative")
        if self.heal_minutes <= self.at_minutes:
            raise ValueError("partition heal must come after the split")

    def groups(self, node_count: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if self.group_a and self.group_b:
            return self.group_a, self.group_b
        half = node_count // 2
        return tuple(range(half)), tuple(range(half, node_count))


@dataclass(frozen=True)
class KillPlan:
    """Kill + restart one node mid-run (live fabric only)."""

    node_id: int
    at_minutes: float
    down_minutes: float


def _check_assignments(
    assignments: Mapping[str, Tuple[int, ...]],
    known: Mapping[str, type],
    kind: str,
    count: int,
) -> int:
    """Validate a behavior → ids map; returns how many ids it names."""
    seen: Dict[int, str] = {}
    for behavior, ids in assignments.items():
        if behavior not in known:
            raise ValueError(
                f"unknown {kind} behavior {behavior!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        for member in ids:
            if not 0 <= member < count:
                raise ValueError(f"{kind} {member} out of range")
            if member in seen:
                raise ValueError(
                    f"{kind} {member} assigned to both "
                    f"{seen[member]!r} and {behavior!r}"
                )
            seen[member] = behavior
    return len(seen)


@dataclass(frozen=True)
class ChaosSpec:
    """Everything that defines one chaos run."""

    #: The run under attack; its type decides the run kind.
    run: Union[ExperimentSpec, FederationSpec]
    #: Single cluster: behavior name (see ADVERSARY_TYPES) → node ids.
    adversaries: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Minutes into the run the misbehavior switches on / off
    #: (None = active to the end of the run).
    start_minutes: float = 0.0
    stop_minutes: Optional[float] = None
    partition: Optional[PartitionSpec] = None
    kill: Optional[KillPlan] = None
    #: "sim" or "live" (the live fabric runs a single cluster).
    fabric: str = "sim"
    #: Wall seconds per logical second for the live fabric.
    time_scale: float = 0.02
    #: Federation: clusters whose every node runs ``behavior``.
    byzantine_clusters: Tuple[int, ...] = ()
    behavior: str = "equivocator"
    #: Federation: fog behavior name → super-peer ids running it.
    fog_adversaries: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("a blockchain network needs at least 2 nodes")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if self.fabric not in ("sim", "live"):
            raise ValueError(f"unknown fabric {self.fabric!r}")
        if self.start_minutes < 0:
            raise ValueError("adversary start must be non-negative")
        if self.stop_minutes is not None and self.stop_minutes <= self.start_minutes:
            raise ValueError("adversary stop must come after start")
        if self.behavior not in ADVERSARY_TYPES:
            raise ValueError(
                f"unknown behavior {self.behavior!r} "
                f"(known: {', '.join(sorted(ADVERSARY_TYPES))})"
            )
        if self.federated:
            self._check_federated()
        else:
            self._check_single()

    def _check_single(self) -> None:
        if self.byzantine_clusters or self.fog_adversaries:
            raise ValueError(
                "byzantine clusters and fog adversaries need a federated run"
            )
        _check_assignments(self.adversaries, ADVERSARY_TYPES, "node", self.node_count)
        if self.fabric == "live" and (self.run.churn or self.partition):
            raise ValueError(
                "churn/partition overlays are sim-fabric only; "
                "use kill for live-fabric faults"
            )
        if self.kill is not None and self.fabric != "live":
            raise ValueError("kill plans are live-fabric only")

    def _check_federated(self) -> None:
        if self.fabric == "live":
            raise ValueError("the live fabric runs a single cluster")
        if self.adversaries or self.partition or self.kill:
            raise ValueError(
                "node adversaries, partition and kill overlays are "
                "single-cluster only"
            )
        clusters = self.run.cluster_count
        named = set()
        for cluster_id in self.byzantine_clusters:
            if not 0 <= cluster_id < clusters:
                raise ValueError(f"byzantine cluster {cluster_id} out of range")
            if cluster_id in named:
                raise ValueError(f"byzantine cluster {cluster_id} named twice")
            named.add(cluster_id)
        if len(named) >= clusters:
            raise ValueError("at least one cluster must stay honest")
        peers = self.run.super_peer_count
        compromised = _check_assignments(
            self.fog_adversaries, FOG_ADVERSARY_TYPES, "fog peer", peers
        )
        if compromised >= peers:
            raise ValueError("at least one super-peer must stay honest")

    @property
    def federated(self) -> bool:
        return isinstance(self.run, FederationSpec)

    @property
    def node_count(self) -> int:
        """Nodes per cluster."""
        if self.federated:
            return self.run.nodes_per_cluster
        return self.run.node_count

    @property
    def config(self) -> SystemConfig:
        return self.run.config

    @property
    def seed(self) -> int:
        return self.run.seed

    @property
    def duration_seconds(self) -> float:
        return self.run.duration_seconds

    @property
    def adversary_ids(self) -> Tuple[int, ...]:
        return tuple(
            sorted(
                node_id
                for node_ids in self.adversaries.values()
                for node_id in node_ids
            )
        )

    @property
    def honest_ids(self) -> Tuple[int, ...]:
        bad = set(self.adversary_ids)
        return tuple(n for n in range(self.node_count) if n not in bad)

    @property
    def fog_adversary_peers(self) -> Tuple[int, ...]:
        """All compromised super-peer ids, sorted."""
        return tuple(
            sorted(
                peer_id
                for peer_ids in self.fog_adversaries.values()
                for peer_id in peer_ids
            )
        )

    def cluster_adversaries(self, cluster_id: int = 0) -> Mapping[str, Tuple[int, ...]]:
        """Behavior → adversarial node ids inside one cluster."""
        if not self.federated:
            return self.adversaries
        if cluster_id in self.byzantine_clusters:
            return {self.behavior: tuple(range(self.node_count))}
        return {}


def _windowed(base: type, spec: ChaosSpec) -> type:
    """``base`` with the scenario's activity window baked in."""
    stop = spec.stop_minutes * 60.0 if spec.stop_minutes is not None else math.inf
    return type(
        f"{base.__name__}Windowed",
        (base,),
        {"chaos_start": spec.start_minutes * 60.0, "chaos_stop": stop},
    )


def node_classes_for(spec: ChaosSpec, cluster_id: int = 0) -> Dict[int, type]:
    """One cluster's per-node adversary classes, window baked in."""
    classes: Dict[int, type] = {}
    for behavior, node_ids in sorted(spec.cluster_adversaries(cluster_id).items()):
        windowed = _windowed(ADVERSARY_TYPES[behavior], spec)
        for node_id in node_ids:
            classes[node_id] = windowed
    return classes


def fog_peer_classes_for(spec: ChaosSpec) -> Dict[int, type]:
    """Super-peer id → fog adversary class, window baked in."""
    classes: Dict[int, type] = {}
    for behavior, peer_ids in spec.fog_adversaries.items():
        windowed = _windowed(FOG_ADVERSARY_TYPES[behavior], spec)
        for peer_id in peer_ids:
            classes[peer_id] = windowed
    return classes
