"""One benchmark cell: build, advance, collect and check one seeded run.

A cell always runs in a freshly forked child of a parent that imported
the program but never executed it, so no per-process memo (for example
``Account.for_node``'s key memo) carries work over from an earlier cell.
"""

from __future__ import annotations

import functools
import os
import resource
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

from workloads import (
    DURABLE_SNAPSHOT_SECONDS,
    Workload,
    experiment_spec,
    federation_spec,
)


class CellError(RuntimeError):
    """The cell could not run as a cold, independent measurement."""


def _timed(phases: Dict[str, float], name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[name] = phases.get(name, 0.0) + time.perf_counter() - start

    return wrapper


def run_cell(workload: Workload, seed: int, workdir: Path) -> Dict[str, Any]:
    """Run one cell and return its measurements, outcomes and checks."""
    from repro.core import account

    if account._FOR_NODE_MEMO:
        raise CellError("account memo already populated: the cell would not be cold")
    phases: Dict[str, float] = {}
    start = time.perf_counter()
    if workload.federated:
        clusters, extra = _run_federation(workload, seed, phases)
    elif workload.durable:
        clusters, extra = _run_durable(workload, seed, workdir, phases)
    else:
        clusters, extra = _run_single(workload, seed, phases)
    wall = time.perf_counter() - start
    record = _outcomes(clusters)
    record["checks"].extend(extra.pop("checks", []))
    record.update(extra)
    record["seed"] = seed
    record["setup_s"] = phases["setup"]
    record["collect_s"] = phases["collect"]
    record["advance_s"] = wall - phases["setup"] - phases["collect"]
    record["wall_s"] = wall
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["sim_minutes"] = workload.minutes
    return record


# -- the three run kinds --------------------------------------------------------------


def _run_single(workload: Workload, seed: int, phases: Dict[str, float]):
    from repro.sim.runner import build_runtime, collect_metrics

    spec = experiment_spec(workload, seed)
    runtime = _timed(phases, "setup", build_runtime)(spec)
    runtime.engine.run_until(spec.duration_seconds)
    _timed(phases, "collect", collect_metrics)(runtime)
    return [runtime.cluster], {"counters": _work_counters([runtime.cluster])}


def _run_durable(
    workload: Workload, seed: int, workdir: Path, phases: Dict[str, float]
):
    from repro.persist import resume

    spec = experiment_spec(workload, seed)
    directory = workdir / f"run-{seed}-{os.getpid()}"
    # run_persistent builds and collects internally; time those phases by
    # wrapping the names it calls (this child exits after the cell).
    resume.build_runtime = _timed(phases, "setup", resume.build_runtime)
    resume.collect_metrics = _timed(phases, "collect", resume.collect_metrics)
    result = resume.run_persistent(
        spec,
        directory,
        resume.PersistConfig(snapshot_every_seconds=DURABLE_SNAPSHOT_SECONDS),
    )
    if not result.completed:
        raise CellError(f"durable run stopped at clock {result.clock}")
    cluster = result.result.cluster
    # Not a work counter: snapshot blobs pickle sets, whose order (and so
    # the compressed size) follows the interpreter's string-hash seed.
    disk_bytes = sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())
    checks = _durable_checks(cluster, directory)
    shutil.rmtree(directory)
    return [cluster], {
        "counters": _work_counters([cluster]),
        "checks": checks,
        "disk_bytes": disk_bytes,
    }


def _run_federation(workload: Workload, seed: int, phases: Dict[str, float]):
    from repro.federation.runner import collect_federation_metrics
    from repro.federation.runtime import build_federation_runtime

    spec = federation_spec(workload, seed)
    runtime = _timed(phases, "setup", build_federation_runtime)(spec)
    runtime.engine.run_until(spec.duration_seconds)
    result = _timed(phases, "collect", collect_federation_metrics)(runtime)
    aggregate = result.aggregate
    clusters = [domain.cluster for domain in runtime.domains]
    counters = _work_counters(clusters)
    counters["raft.msgs_sent"] = sum(
        domain.raft_network.messages_sent
        for domain in runtime.domains
        if domain.raft_network is not None
    )
    counters["membership.msgs_sent"] = sum(
        domain.swim_network.messages_sent for domain in runtime.domains
    )
    counters["fog.gossip_rounds"] = aggregate["gossip_rounds"]
    counters["fog.bloom_fp_probes"] = aggregate["bloom_fp_probes"]
    checks = [
        f"cluster {entry['cluster_id']} formation did not converge"
        for entry in aggregate["per_cluster"]
        if not entry["formation_converged"]
    ]
    for key in ("attestation_rejected", "verify_rejected", "migrations_rejected"):
        if aggregate[key]:
            checks.append(f"honest federation rejected {aggregate[key]} ({key})")
    if aggregate["fog_quarantined"]:
        checks.append(f"honest super-peers quarantined: {aggregate['fog_quarantined']}")
    lookups = aggregate["lookups_ok"] + aggregate["lookups_failed"]
    return clusters, {
        "counters": counters,
        "checks": checks,
        "directory_digest": aggregate["directory_digest"],
        "lookups_attempted": lookups,
        "lookups_failed": aggregate["lookups_failed"],
    }


# -- outcomes and checks --------------------------------------------------------------


def _work_counters(clusters: List[Any]) -> Dict[str, int]:
    # Federated clusters share one engine: count each engine once.
    engines = {id(c.engine): c.engine for c in clusters}.values()
    messages: Dict[str, int] = {}
    for cluster in clusters:
        for category, count in cluster.network.trace.category_messages().items():
            messages[category] = messages.get(category, 0) + count
    return {
        "facility.fallbacks": sum(c.allocator.fallback_placements for c in clusters),
        "lifecycle.pruned_blocks": sum(
            node.chain.first_retained_index
            for c in clusters
            for node in c.nodes.values()
        ),
        "simnet.events": sum(engine.events_processed for engine in engines),
        "simnet.msgs_sent": sum(c.network.messages_sent for c in clusters),
        "simnet.bytes_sent": sum(c.network.trace.total_bytes() for c in clusters),
        "simnet.hops_by_category": messages,
    }


def _outcomes(clusters: List[Any]) -> Dict[str, Any]:
    from repro.lifecycle.spec import retention_horizon
    from repro.metrics.gini import gini_coefficient

    deliveries: List[float] = []
    recoveries: List[float] = []
    intervals: List[float] = []
    replicas: List[int] = []
    ginis: List[float] = []
    megabytes: List[float] = []
    served = failed = sent = 0
    chain_digests: List[str] = []
    ledger_digests: List[str] = []
    checks: List[str] = []
    for cluster in clusters:
        node_ids = cluster.node_ids
        used = []
        for node_id in node_ids:
            node = cluster.nodes[node_id]
            deliveries.extend(node.delivery_times)
            recoveries.extend(node.sync.completed_durations)
            served += node.counters.data_requests_served
            failed += node.counters.data_requests_failed
            sent += node.counters.data_requests_sent
            slots = node.storage.used_slots()
            if not 0 <= slots <= node.storage.capacity:
                checks.append(
                    f"node {node_id} uses {slots} of {node.storage.capacity} slots"
                )
            used.append(slots)
        ginis.append(gini_coefficient(used))
        per_node = cluster.network.trace.per_node_bytes(node_ids)
        megabytes.append(sum(per_node) / len(per_node) / 1e6)
        chain = cluster.longest_chain_node().chain
        chain_digests.append(chain.chain_digest())
        ledger_digests.append(chain.state.ledger_digest())
        floor = retention_horizon(chain.config, chain.height)
        stamps = [block.timestamp for block in chain.blocks if block.index >= floor]
        intervals.extend(later - earlier for earlier, later in zip(stamps, stamps[1:]))
        replicas.extend(
            len(item.storing_nodes)
            for block in chain.blocks
            for item in block.metadata_items
        )
        if chain.first_retained_index == 0:
            checks.extend(_audit(chain.blocks, node_ids, chain))
    return {
        "deliveries": deliveries,
        "local_hits": sum(1 for value in deliveries if value == 0.0),
        "requests_attempted": served + failed,
        "requests_failed": failed,
        "requests_sent": sent,
        "recoveries": recoveries,
        "intervals": intervals,
        "replicas": replicas,
        "gini": sum(ginis) / len(ginis),
        "mb_per_node": sum(megabytes) / len(megabytes),
        "chain_digests": chain_digests,
        "ledger_digests": ledger_digests,
        "checks": checks,
    }


def _audit(blocks, node_ids, chain) -> List[str]:
    """The chain must replay through core.audit to the ledger's balances."""
    from repro.core.audit import audit_chain

    report = audit_chain(blocks, node_ids, chain.config)
    wrong = [
        (node_id, report.balance(node_id), chain.state.tokens(node_id))
        for node_id in node_ids
        if abs(report.balance(node_id) - chain.state.tokens(node_id))
        > 1e-9 * max(1.0, abs(chain.state.tokens(node_id)))
    ]
    if not wrong:
        return []
    node_id, replayed, held = wrong[0]
    return [
        f"audit replay disagrees with the ledger on {len(wrong)} nodes "
        f"(node {node_id}: replay {replayed}, ledger {held})"
    ]


def _durable_checks(cluster: Any, directory: Path) -> List[str]:
    """Replay the whole durable chain (cold archive + hot store) through audit."""
    from repro.lifecycle.archive import ARCHIVE_NAME, BlockArchive
    from repro.persist.chainstore import ChainStore
    from repro.persist.resume import STORE_NAME

    chain = cluster.longest_chain_node().chain
    checks: List[str] = []
    store = ChainStore(directory / STORE_NAME)
    try:
        hot = list(store.iter_blocks(verify_hashes=True))
        floor = store.pruned_below()
        problems = store.verify_integrity()
    finally:
        store.close()
    cold = []
    if floor > 0:
        cold = list(BlockArchive(directory / ARCHIVE_NAME).fetch_range(0, floor))
    blocks = cold + hot
    checks.extend(f"chain store: {problem}" for problem in problems)
    if [block.index for block in blocks] != list(range(len(blocks))):
        checks.append("durable chain is not a contiguous prefix from genesis")
    elif not blocks or blocks[-1].current_hash != chain.tip.current_hash:
        checks.append("durable chain tip differs from the reference chain tip")
    else:
        checks.extend(_audit(blocks, cluster.node_ids, chain))
    return checks
