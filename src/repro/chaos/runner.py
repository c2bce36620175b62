"""Chaos scenario runner: drive a ChaosSpec through either fabric.

The sim path runs single-cluster and federated scenarios alike: it plants
the scenario's windowed adversary classes into the run spec, builds and
collects the run through the durable driver's dispatch
(:func:`repro.persist.resume.build_run` / :func:`~repro.persist.resume.collect_run`),
schedules a partition overlay if there is one, and judges every cluster
in ``runtime.clusters`` with the unchanged single-cluster
:func:`~repro.chaos.verdict.compute_verdict`.  A federated scenario adds
the blast-radius and fog sections (:mod:`repro.federation.chaos`).  The
live path runs the same adversary classes over real sockets via the live
cluster harness, optionally with a kill/restart fault.

Either way the result carries the finished run (its metrics) plus the
chaos verdict, and writes the verdict as ``chaos_verdict.json``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.chaos.scenario import ChaosSpec, fog_peer_classes_for, node_classes_for
from repro.chaos.verdict import compute_verdict
from repro.obs import runtime as _obs

PathLike = Union[str, Path]

CHAOS_VERDICT_NAME = "chaos_verdict.json"


@dataclass
class ChaosRunResult:
    """A finished chaos run: its verdict plus the run it judged.

    ``run`` is an :class:`~repro.sim.runner.ExperimentResult`, a
    :class:`~repro.federation.runner.FederationResult`, or (live fabric)
    a :class:`~repro.net.harness.LiveRunResult`.
    """

    spec: ChaosSpec
    verdict: Dict[str, Any]
    run: Any

    @property
    def status(self) -> str:
        return self.verdict["status"]

    @property
    def honest_digest(self) -> str:
        return self.verdict["honest_digest"]

    def write_verdict(self, path: PathLike) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            json.dump(self.verdict, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return target


def _planted(spec: ChaosSpec):
    """The run spec with the scenario's adversary classes planted."""
    if not spec.federated:
        return replace(spec.run, node_classes=node_classes_for(spec))
    return replace(
        spec.run,
        node_classes_by_cluster={
            cluster_id: node_classes_for(spec, cluster_id)
            for cluster_id in spec.byzantine_clusters
        },
        fog_peer_classes=fog_peer_classes_for(spec) or None,
        # A Byzantine cluster's migrations would push tampered metadata at
        # sibling gateways; with clusters sacrificed, lookups are expected
        # to fail against them instead.  Fog-only chaos keeps migration on
        # — driver-initiated pulls are part of what failover must protect.
        migrate_fraction=0.0 if spec.byzantine_clusters else spec.run.migrate_fraction,
    )


def _judged_as(spec: ChaosSpec, cluster_id: int) -> ChaosSpec:
    """The single-cluster spec one honest cluster's verdict is judged by.

    A federated run's Byzantine clusters have no honest member and are
    never judged; every other cluster ran adversary-free.
    """
    if not spec.federated:
        return spec
    return ChaosSpec(run=spec.run.cluster_spec(cluster_id))


def run_chaos_sim(spec: ChaosSpec) -> ChaosRunResult:
    """Run a chaos scenario, single-cluster or federated, on the simulator."""
    from repro.federation.chaos import compute_federated_verdict
    from repro.persist.resume import build_run, collect_run
    from repro.simnet.faults import PartitionInjector

    runtime = build_run(_planted(spec))
    if spec.partition is not None:
        group_a, group_b = spec.partition.groups(spec.node_count)
        injector = PartitionInjector(runtime.cluster.network, runtime.engine)
        injector.schedule(
            list(group_a),
            list(group_b),
            at=spec.partition.at_minutes * 60.0,
            heal_at=spec.partition.heal_minutes * 60.0,
        )
    with _obs.span(
        "chaos.simulate", "chaos", seed=spec.seed, nodes=spec.node_count
    ):
        runtime.engine.run_until(spec.duration_seconds)
    run, _record = collect_run(runtime)
    verdicts = {
        cluster_id: compute_verdict(_judged_as(spec, cluster_id), cluster.nodes)
        for cluster_id, cluster in enumerate(runtime.clusters)
        if cluster_id not in spec.byzantine_clusters
    }
    if spec.federated:
        verdict = compute_federated_verdict(spec, verdicts, runtime, run.aggregate)
    else:
        verdict = verdicts[0]
    return ChaosRunResult(spec=spec, verdict=verdict, run=run)


def run_chaos_live(spec: ChaosSpec) -> ChaosRunResult:
    """Run a single-cluster chaos scenario over real sockets (live fabric)."""
    from repro.net.harness import KillSpec, LiveClusterHarness, LiveSpec

    kill: Optional[KillSpec] = None
    if spec.kill is not None:
        kill = KillSpec(
            node_id=spec.kill.node_id,
            at_minutes=spec.kill.at_minutes,
            down_minutes=spec.kill.down_minutes,
        )
    live_spec = LiveSpec(
        node_count=spec.node_count,
        config=spec.config,
        seed=spec.seed,
        duration_minutes=spec.duration_seconds / 60.0,
        time_scale=spec.time_scale,
        kill=kill,
        node_classes=node_classes_for(spec),
    )
    harness = LiveClusterHarness(live_spec)

    async def _main():
        with _obs.span(
            "chaos.live", "chaos", seed=spec.seed, nodes=spec.node_count
        ):
            return await harness.run()

    live_result = asyncio.run(_main())
    nodes = {node_id: live.node for node_id, live in harness.nodes.items()}
    verdict = compute_verdict(spec, nodes)
    verdict["live"] = {
        "healthy": live_result.healthy,
        "restarted": list(live_result.restarted),
        "resynced": live_result.resynced,
        "reconnects": live_result.reconnects,
    }
    return ChaosRunResult(spec=spec, verdict=verdict, run=live_result)


def run_chaos(spec: ChaosSpec) -> ChaosRunResult:
    """Fabric-dispatching front door."""
    if spec.fabric == "live":
        return run_chaos_live(spec)
    return run_chaos_sim(spec)
