"""Fog-tier adversaries: super-peers that attack the federation itself.

The single-cluster adversary catalogue (:mod:`repro.chaos.adversaries`)
covers byzantine *edge nodes*; these are their fog-layer counterparts —
a compromised :class:`~repro.federation.fog.SuperPeer` attacking the
directory and the cross-cluster paths that trust it:

* :class:`SummaryPoisonerPeer` — publishes entries with forged blooms,
  inflated heights, and false checkpoint digests for its home clusters.
* :class:`GossipSuppressorPeer` — silently withholds its anti-entropy
  pushes, so siblings' views of its home clusters go stale.
* :class:`VersionInflatorPeer` — publishes garbage at astronomically
  high versions, trying to win every monotone merge forever.
* :class:`GatewayTampererPeer` — pushes forged/tampered metadata
  migrations at sibling clusters' gateways.

All follow the node-adversary conventions: behavior is gated by the
``chaos_start``/``chaos_stop`` class-attribute window (baked into a
dynamic subclass by :func:`repro.chaos.scenario.fog_peer_classes_for`), outside the window the
peer is bit-identical to an honest one, actions are counted in
``chaos_actions``, and **no adversary draws its own randomness** —
forged payloads are pure functions of observed state and a local
counter, so adversarial runs replay deterministically.

Defenses live in :mod:`repro.federation.fog`: gateway attestation stops
the poisoner and inflator at every honest receiver, staleness scoring
catches the suppressor's silence, and structural admission at the target
gateway bounces the tamperer's pushes back onto its misbehavior score.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional

from repro.core.metadata import MetadataItem
from repro.federation.directory import BloomFilter
from repro.federation.fog import SuperPeer


class FogAdversaryPeer(SuperPeer):
    """Base class: an adversarial super-peer active inside a time window."""

    #: Attack window in simulation seconds (class attributes so the
    #: chaos spec can bake them into a dynamic subclass).
    chaos_start: float = 0.0
    chaos_stop: float = math.inf

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chaos_actions = 0

    def _chaos_active(self) -> bool:
        now = self.fog.engine.now
        return self.chaos_start <= now < self.chaos_stop


class SummaryPoisonerPeer(FogAdversaryPeer):
    """Publishes forged directory entries for its home clusters.

    Each refresh inside the window builds the honest summary, then
    rewrites the body — height inflated, chain/checkpoint digests
    replaced with garbage, bloom swapped for one full of junk keys, item
    count zeroed — while keeping the honest attestation, which now
    covers the wrong bytes.  The poison lands in the peer's own replica
    (so lookups it serves are poisoned immediately) and rides its gossip
    pushes; every honest receiver rejects it for the broken attestation
    and charges the sender.
    """

    def refresh_home(self) -> None:
        if not self._chaos_active():
            super().refresh_home()
            return
        if self.fog.admission.is_quarantined(self.peer_id):
            return
        now = self.fog.engine.now
        for cluster_id in list(self.home_clusters):
            version = self._versions.get(cluster_id, 0) + 1
            self._versions[cluster_id] = version
            honest = self.fog.build_summary(cluster_id, version, now)
            junk_bloom = BloomFilter.sized_for(64)
            for salt in range(8):
                junk_bloom.add(
                    f"poison:{self.peer_id}:{cluster_id}:{self.chaos_actions}:{salt}"
                )
            poisoned = replace(
                honest,
                height=honest.height + 50,
                chain_digest="f" * 32,
                checkpoint_height=honest.height + 50,
                checkpoint_digest="f" * 64,
                item_count=0,
                bloom=junk_bloom,
            )
            self.replica.merge(poisoned)
            self.fog.counters.refreshes += 1
            self.chaos_actions += 1


class GossipSuppressorPeer(FogAdversaryPeer):
    """Withholds anti-entropy pushes so siblings' views go stale.

    Refreshes stay honest — the peer's own replica is perfectly current —
    but inside the window nothing leaves it, starving every sibling of
    updates for the clusters it homes.  The only trace is silence, which
    is exactly what the staleness scoring in ``_flag_stale_homes``
    measures.
    """

    def gossip(self) -> None:
        if not self._chaos_active():
            super().gossip()
            return
        self.chaos_actions += 1


class VersionInflatorPeer(FogAdversaryPeer):
    """Publishes garbage at astronomically high versions.

    The monotone merge rule keeps the highest version it has seen, so an
    unchecked inflated entry would shadow every honest refresh until its
    version is outbid — effectively forever.  The defense is that the
    garbage never merges anywhere honest (broken attestation), and after
    quarantine the re-homed rebuild only has to outbid the honest
    version floor its new home actually adopted.
    """

    VERSION_LEAP = 1_000_000

    def refresh_home(self) -> None:
        if not self._chaos_active():
            super().refresh_home()
            return
        if self.fog.admission.is_quarantined(self.peer_id):
            return
        now = self.fog.engine.now
        for cluster_id in list(self.home_clusters):
            version = self._versions.get(cluster_id, 0) + 1 + self.VERSION_LEAP
            self._versions[cluster_id] = version
            honest = self.fog.build_summary(cluster_id, version, now)
            saturated = BloomFilter.sized_for(64)
            saturated._bits = bytearray(b"\xff" * len(saturated._bits))
            inflated = replace(
                honest,
                version=version,
                chain_digest="0" * 32,
                checkpoint_digest="0" * 64,
                bloom=saturated,
                attestation_hex="",
            )
            self.replica.merge(inflated)
            self.fog.counters.refreshes += 1
            self.chaos_actions += 1


class GatewayTampererPeer(FogAdversaryPeer):
    """Pushes forged metadata migrations at sibling clusters' gateways.

    Every gossip period inside the window it picks a victim item from a
    cluster's reference chain (round-robin over clusters, first packed
    item — deterministic), forges it — alternating between a rewritten
    ``data_type`` (breaks the producer signature) and a swapped
    ``producer_address`` (breaks address derivation) — and pushes the
    forgery at a sibling cluster's gateway as an unsolicited migration.
    The gateway's structural admission rejects it and the fog charges
    the pusher.
    """

    def start(self) -> None:
        engine = self.fog.engine
        engine.call_at(max(self.chaos_start, engine.now), self._chaos_tamper)

    def _pick_victim(self) -> Optional[MetadataItem]:
        cluster_count = self.fog.spec.cluster_count
        for probe in range(cluster_count):
            cluster_id = (self.chaos_actions + probe) % cluster_count
            chain = self.fog.domains[cluster_id].cluster.longest_chain_node().chain
            for block in chain.blocks:
                if block.metadata_items:
                    return block.metadata_items[0]
        return None

    def _chaos_tamper(self) -> None:
        fog = self.fog
        if fog.engine.now >= self.chaos_stop:
            return
        victim = self._pick_victim()
        if victim is not None:
            if self.chaos_actions % 2 == 0:
                forged = replace(victim, data_type="Forged/Tampered")
            else:
                forged = replace(victim, producer_address="f0" * 20)
            target = (self.chaos_actions + 1) % fog.spec.cluster_count
            fog.push_migration(target, forged, self.peer_id)
            self.chaos_actions += 1
        fog.engine.schedule(fog.spec.gossip_period_seconds, self._chaos_tamper)


#: Registry used by the chaos spec / CLI (``--fog-behavior``).
FOG_ADVERSARY_TYPES: Dict[str, type] = {
    "summary_poisoner": SummaryPoisonerPeer,
    "gossip_suppressor": GossipSuppressorPeer,
    "version_inflator": VersionInflatorPeer,
    "gateway_tamperer": GatewayTampererPeer,
}
