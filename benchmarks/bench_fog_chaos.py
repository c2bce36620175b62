"""Fog-chaos headline: lookup availability and recovery latency under attack.

One super-peer runs the summary-poisoner adversary against a 3-cluster
federation while the defenses (gateway attestation, checkpoint cross-check,
misbehavior scoring) detect, quarantine, and re-home around it.  The bench
pins the two numbers the threat model promises: the cross-cluster lookup
success rate stays at or above the containment floor, and the directory
self-heals within a bounded latency of the attack window opening.

The cell is merged into the repo-root ``BENCH_headline.json`` under a
``fog_chaos`` key (read-modify-write — sibling sections are preserved).
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos import ChaosSpec, run_chaos
from repro.core.config import PAPER_CONFIG
from repro.federation import FOG_LOOKUP_SUCCESS_FLOOR, FederationSpec

#: The attacked super-peer and when its window opens (simulated seconds).
ADVERSARY_PEER = 0
ATTACK_START_MINUTES = 1.5

#: Recovery bound: the poisoner must be quarantined (and its clusters
#: re-homed — both happen atomically) within two directory refresh /
#: gossip cycles of the window opening.  At the default 30 s cadence
#: that is one poisoned refresh, one gossiped rejection at each honest
#: peer, and one digest cross-check — far under this ceiling.
MAX_RECOVERY_SECONDS = 120.0


def test_fog_chaos_headline(headline_sink, bench_seed):
    config = replace(
        PAPER_CONFIG, data_items_per_minute=2.0, expected_block_interval=30.0
    )
    spec = ChaosSpec(
        run=FederationSpec(
            cluster_count=3,
            nodes_per_cluster=4,
            config=config,
            seed=bench_seed,
            duration_minutes=8.0,
            super_peer_count=2,
        ),
        fog_adversaries={"summary_poisoner": (ADVERSARY_PEER,)},
        start_minutes=ATTACK_START_MINUTES,
    )
    result = run_chaos(spec)
    fog = result.verdict["fog"]

    assert fog["ok"], f"fog containment violated: {fog}"
    assert fog["quarantined_peers"] == [ADVERSARY_PEER]
    assert fog["honest_peers_quarantined"] == []
    assert fog["replicas_converged"]

    assert fog["success_floor_applies"]
    assert fog["lookup_success_rate"] >= FOG_LOOKUP_SUCCESS_FLOOR

    quarantined_at = fog["quarantined_at"][str(ADVERSARY_PEER)]
    recovery_seconds = quarantined_at - ATTACK_START_MINUTES * 60.0
    assert 0.0 <= recovery_seconds <= MAX_RECOVERY_SECONDS, (
        f"quarantine landed {recovery_seconds:.1f}s after the window opened "
        f"(bound {MAX_RECOVERY_SECONDS:.0f}s)"
    )

    cell = {
        "adversary": "summary_poisoner",
        "adversary_peer": ADVERSARY_PEER,
        "clusters": spec.run.cluster_count,
        "super_peers": spec.run.super_peer_count,
        "seed": bench_seed,
        "lookups_ok": fog["lookups_ok"],
        "lookups_failed": fog["lookups_failed"],
        "lookup_success_rate": fog["lookup_success_rate"],
        "lookup_fallbacks": fog["lookup_fallbacks"],
        "attestation_rejected": fog["attestation_rejected"],
        "recovery_seconds": recovery_seconds,
        "rehomed_clusters": fog["rehomed_clusters"],
    }
    print(headline_sink({"fog_chaos": cell}))
