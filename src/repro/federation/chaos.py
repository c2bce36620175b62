"""Federated chaos verdict: blast radius and fog containment.

The single-cluster chaos verdict (:mod:`repro.chaos.verdict`) asks "did
safety and liveness survive N adversaries *inside* the cluster?".
Federation adds a containment question: if an entire cluster turns
Byzantine — every node running a windowed adversary class — or a fog
super-peer lies, does the damage stay contained?  The architecture says
it must: clusters share no network plane, only the fog directory, and
the directory carries summaries that sibling clusters never execute.
The **blast-radius check** pins that invariant: every sibling
(non-Byzantine) cluster's end-of-run safety verdict, computed by the
unchanged single-cluster :func:`repro.chaos.verdict.compute_verdict`,
must come back clean.

The one chaos runner (:func:`repro.chaos.run_chaos`, ``repro chaos run
--clusters K``) judges the clusters and hands the verdicts here.  The
combined artifact is written under the same ``chaos_verdict.json`` name
as a single-cluster verdict, version-stamped the same way, with
``blast_radius`` and ``fog`` sections on top of the per-cluster verdicts.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.version import package_version

FEDERATED_CHAOS_SCHEMA = "repro.chaos.federated/v1"

#: Minimum cross-cluster lookup success rate the fog section demands when
#: every cluster is honest: directory failover must keep the majority of
#: lookups resolving even while a super-peer misbehaves and is cut out.
FOG_LOOKUP_SUCCESS_FLOOR = 0.5


def compute_federated_verdict(
    spec: Any,
    verdicts: Dict[int, Dict[str, Any]],
    runtime: Any,
    aggregate: Dict[str, Any],
) -> Dict[str, Any]:
    """Per-cluster verdicts plus the blast-radius containment check.

    ``spec`` is a federated :class:`~repro.chaos.scenario.ChaosSpec`,
    ``verdicts`` maps each honest cluster id to its single-cluster
    verdict, and ``runtime`` / ``aggregate`` are the finished federation
    and its aggregate record.  Byzantine clusters are *sacrificed by
    construction* — with zero honest members there is no honest invariant
    to evaluate, so they get a marker entry instead of a verdict.  The
    blast radius is ``ok`` iff every sibling cluster's safety section is
    clean.
    """
    clusters: Dict[str, Any] = {
        str(cluster_id): {
            "status": "sacrificed",
            "note": f"whole cluster ran {spec.behavior}; no honest invariant",
        }
        for cluster_id in spec.byzantine_clusters
    }
    sibling_safety: Dict[str, bool] = {}
    for cluster_id, verdict in verdicts.items():
        clusters[str(cluster_id)] = verdict
        sibling_safety[str(cluster_id)] = bool(verdict["safety"]["ok"])
    blast_ok = all(sibling_safety.values()) if sibling_safety else False
    sibling_statuses = [verdict["status"] for verdict in verdicts.values()]
    fog = compute_fog_section(spec, runtime, aggregate)
    if not blast_ok or "critical" in sibling_statuses or not fog["ok"]:
        status = "critical"
    elif "warning" in sibling_statuses:
        status = "warning"
    else:
        status = "ok"
    return {
        "schema": FEDERATED_CHAOS_SCHEMA,
        "version": package_version(),
        "status": status,
        "behavior": spec.behavior,
        "seed": spec.seed,
        "clusters": clusters,
        "blast_radius": {
            "ok": blast_ok,
            "byzantine_clusters": sorted(spec.byzantine_clusters),
            "sibling_safety": sibling_safety,
        },
        "fog": fog,
    }


def compute_fog_section(
    spec: Any, runtime: Any, aggregate: Dict[str, Any]
) -> Dict[str, Any]:
    """The fog containment section of the federated verdict.

    ``ok`` demands three things of the fog tier, adversaries or not:

    * **honest-replica convergence** — every non-quarantined replica
      holds an entry for every cluster and none of those entries
      contradicts the cluster chain it summarises (byzantine clusters,
      sacrificed by construction, are exempt from the contradiction
      check — their chains owe nobody append-only behavior);
    * **lookup-success floor** — when every cluster is honest and
      lookups were attempted, at least
      :data:`FOG_LOOKUP_SUCCESS_FLOOR` of them resolved (failover must
      actually carry the load of a cut-out super-peer);
    * **no honest super-peer quarantined** — scoring never turned on
      a peer that wasn't compromised.
    """
    fog = runtime.fog
    adversary_peers = spec.fog_adversary_peers
    quarantined = sorted(fog.admission.quarantined)
    honest_quarantined = sorted(set(quarantined) - set(adversary_peers))
    attempted = aggregate["lookups_ok"] + aggregate["lookups_failed"]
    success_rate = (
        aggregate["lookups_ok"] / attempted if attempted > 0 else None
    )
    floor_applies = not spec.byzantine_clusters and attempted > 0
    divergent = fog.directory_divergence(
        exclude_clusters=spec.byzantine_clusters
    )
    active = [
        peer
        for peer in fog.peers
        if not fog.admission.is_quarantined(peer.peer_id)
    ]
    entries_complete = bool(active) and all(
        len(peer.replica.entries) == spec.run.cluster_count
        for peer in active
    )
    replicas_converged = entries_complete and divergent == 0
    floor_met = (
        not floor_applies
        or (success_rate is not None and success_rate >= FOG_LOOKUP_SUCCESS_FLOOR)
    )
    return {
        "ok": bool(replicas_converged and floor_met and not honest_quarantined),
        "adversaries": {
            behavior: sorted(peer_ids)
            for behavior, peer_ids in sorted(spec.fog_adversaries.items())
        },
        "replicas_converged": replicas_converged,
        "divergent_entries": divergent,
        "lookups_ok": aggregate["lookups_ok"],
        "lookups_failed": aggregate["lookups_failed"],
        "lookup_success_rate": success_rate,
        "lookup_success_floor": FOG_LOOKUP_SUCCESS_FLOOR,
        "success_floor_applies": floor_applies,
        "lookup_fallbacks": aggregate["lookup_fallbacks"],
        "bloom_fp_probes": aggregate["bloom_fp_probes"],
        "verify_rejected": aggregate["verify_rejected"],
        "attestation_rejected": aggregate["attestation_rejected"],
        "migrations": aggregate["migrations"],
        "migrations_rejected": aggregate["migrations_rejected"],
        "quarantined_peers": quarantined,
        "honest_peers_quarantined": honest_quarantined,
        "quarantined_at": {
            str(peer_id): when
            for peer_id, when in sorted(fog.admission.quarantined_at.items())
        },
        "rehomed_clusters": {
            str(cluster_id): peer_id
            for cluster_id, peer_id in sorted(fog.rehomed.items())
        },
        "scores": {
            str(peer_id): score
            for peer_id, score in sorted(fog.admission.scores.items())
        },
    }
