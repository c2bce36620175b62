"""Repository benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-n30 --seed 1 --seconds 20 --trace 0

A run executes the workload's cells, one per sub-seed derived from
``--seed``, each in a freshly forked child of this process, and keeps
cycling through them until ``--seconds`` have passed.  Host-time metrics
are medians over all cells; simulated-time outcomes pool the sub-seeds.
``--trace 1`` then runs every sub-seed once more with each layer wrapped
in spans and prints the per-layer metrics instead.

Every cell of one sub-seed, traced or not, and in any run of the same
program, must agree exactly on digests, work counters and outcomes.  The
last line of standard output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

#: The p95 needs ten samples beyond it.
MIN_DELIVERY_SAMPLES = 200

#: Outputs that must repeat exactly across cells of one sub-seed.
DETERMINISTIC_KEYS = (
    "chain_digests",
    "ledger_digests",
    "directory_digest",
    "counters",
    "deliveries",
    "recoveries",
    "intervals",
    "replicas",
    "gini",
    "mb_per_node",
    "requests_attempted",
    "requests_failed",
    "requests_sent",
    "lookups_attempted",
    "lookups_failed",
)

END_TO_END = {
    "setup_s": "s",
    "sim_min_per_s": "sim-min/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

#: Per-layer metrics that are not a layer's calls and self time.
PER_LAYER_EXTRA = {
    "facility.fallbacks": "count",
    "facility.replicas_mean": "count",
    "facility.replicas_max": "count",
    "node.requests_sent": "count",
    "node.local_hit_ratio": "ratio",
    "sync.recoveries": "count",
    "simnet.events": "count",
    "simnet.us_per_event": "us",
    "simnet.msgs_sent": "count",
    "simnet.bytes_sent": "B",
    "persist.disk_bytes": "B",
    "lifecycle.pruned_blocks": "count",
    "raft.msgs_sent": "count",
    "membership.msgs_sent": "count",
    "fog.gossip_rounds": "count",
    "fog.bloom_fp_per_lookup": "ratio",
    "mb_per_node": "MB",
    "delivery_samples": "count",
    "delivery_mean_sim_s": "sim-s",
    "delivery_p50_sim_s": "sim-s",
    "delivery_p95_sim_s": "sim-s",
    "storage_gini": "ratio",
    "interval_drift": "ratio",
    "recovery_p50_sim_s": "sim-s",
    "request_fail_ratio": "ratio",
    "lookup_fail_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.untraced_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class CellFailed(RuntimeError):
    pass


def parse_args(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import the program from the checkout's ``src`` (never run it here)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path.insert(0, str(src))
    import importlib

    import layers

    for module in layers.MODULES:
        importlib.import_module(module)


def layer_names() -> List[str]:
    import layers

    names = {layer for layer, _, _ in layers.TARGETS}
    names |= set(layers.DELIVERY_LAYERS.values()) | {layers.NODE_DELIVERY_LAYER}
    return sorted(names)


# -- cells ------------------------------------------------------------------------------


def fork_cell(workload, seed: int, workdir: Path, trace: bool) -> Dict[str, Any]:
    """Run one cell in a forked child and return its record."""
    import cell
    import layers

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: run the cell, send one JSON record, exit
        os.close(read_fd)
        status = 0
        try:
            probe = layers.Probe(trace=trace)
            layers.install(probe)
            record = cell.run_cell(workload, seed, workdir)
            calls = probe.counts()
            record["counters"].update(
                {f"{layer}_calls": calls[layer] for layer in sorted(layers.COUNTED)}
            )
            if trace:
                record["calls"] = calls
                record["self_s"] = probe.self_seconds()
            payload = json.dumps(record)
        except BaseException:  # report any failure to the parent, then exit
            payload = json.dumps({"error": traceback.format_exc()})
            status = 1
        with os.fdopen(write_fd, "w") as out:
            out.write(payload)
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "r") as incoming:
        payload = incoming.read()
    _, status = os.waitpid(pid, 0)
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        record = {"error": f"cell exited with status {status} and no record"}
    if "error" not in record and status != 0:
        record = {"error": f"cell exited with status {status}"}
    if "error" in record:
        raise CellFailed(record["error"])
    return record


def run_cells(workload, seed: int, seconds: float, workdir: Path) -> List[Dict[str, Any]]:
    """Cycle through the sub-seeds until each ran and ``seconds`` passed."""
    seeds = workload.seeds(seed)
    cells: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(cells) < len(seeds) or time.perf_counter() < deadline:
        cells.append(fork_cell(workload, seeds[len(cells) % len(seeds)], workdir, False))
    return cells


# -- checks -----------------------------------------------------------------------------


def first_by_seed(cells: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    seen: Dict[int, Dict[str, Any]] = {}
    for record in cells:
        seen.setdefault(record["seed"], record)
    return [seen[key] for key in sorted(seen)]


def signature(record: Dict[str, Any]) -> Dict[str, Any]:
    return {key: record.get(key) for key in DETERMINISTIC_KEYS}


def program_fingerprint() -> str:
    """Hash of the program and benchmark sources (keys the run records)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_problems(workload, cells: List[Dict[str, Any]]) -> List[str]:
    """Cells of one sub-seed must agree, here and across runs of this program."""
    problems = []
    reference = {record["seed"]: signature(record) for record in first_by_seed(cells)}
    for record in cells:
        mine = signature(record)
        for key in DETERMINISTIC_KEYS:
            if mine[key] != reference[record["seed"]][key]:
                problems.append(f"sub-seed {record['seed']}: {key} differs between cells")
    records = OUT / "records" / program_fingerprint()
    records.mkdir(parents=True, exist_ok=True)
    for seed, mine in reference.items():
        path = records / f"{workload.name}-{seed}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            for key in DETERMINISTIC_KEYS:
                if mine[key] != earlier[key]:
                    problems.append(f"sub-seed {seed}: {key} differs from an earlier run")
        else:
            temp = path.with_suffix(".tmp")
            temp.write_text(json.dumps(mine))
            temp.replace(path)
    return problems


def regime_problems(result: Dict[str, Any]) -> List[str]:
    """Latency gates must not pass on too few or only-local deliveries."""
    problems = []
    if result["delivery_samples"] < MIN_DELIVERY_SAMPLES:
        problems.append(
            f"only {result['delivery_samples']} deliveries; "
            f"a p95 needs {MIN_DELIVERY_SAMPLES}"
        )
    if result["node.local_hit_ratio"] >= 1.0:
        problems.append("every delivery was a local hit: latency gates are vacuous")
    return problems


# -- aggregation ------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: always an observed sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def host_metrics(cells: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in cells),
        "sim_min_per_s": statistics.median(r["sim_minutes"] / r["advance_s"] for r in cells),
        "wall_s": statistics.median(r["wall_s"] for r in cells),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in cells),
    }


def outcomes(workload, cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Simulated-time outcomes and work counters over the run's sub-seeds."""
    unique = first_by_seed(cells)

    def pooled(key: str) -> List[float]:
        return [value for record in unique for value in record[key]]

    def per_cell(key: str) -> float:
        return statistics.fmean(record["counters"].get(key, 0) for record in unique)

    deliveries = pooled("deliveries")
    intervals = pooled("intervals")
    recoveries = pooled("recoveries")
    replicas = pooled("replicas")
    requests = sum(r["requests_attempted"] for r in unique)
    lookups = sum(r.get("lookups_attempted", 0) for r in unique)
    advance = {
        r["seed"]: statistics.median(c["advance_s"] for c in cells if c["seed"] == r["seed"])
        for r in unique
    }
    return {
        "requests": requests,
        "requests_failed": sum(r["requests_failed"] for r in unique),
        "lookups": lookups,
        "lookups_failed": sum(r.get("lookups_failed", 0) for r in unique),
        "delivery_samples": len(deliveries),
        "node.local_hit_ratio": (
            sum(r["local_hits"] for r in unique) / len(deliveries) if deliveries else 0.0
        ),
        "delivery_p50_sim_s": percentile(deliveries, 50) if deliveries else 0.0,
        "delivery_p95_sim_s": percentile(deliveries, 95) if deliveries else 0.0,
        "delivery_mean_sim_s": statistics.fmean(deliveries) if deliveries else 0.0,
        "mb_per_node": statistics.fmean(r["mb_per_node"] for r in unique),
        "storage_gini": statistics.fmean(r["gini"] for r in unique),
        "interval_drift": (
            abs(statistics.fmean(intervals) - workload.block_interval)
            / workload.block_interval
            if intervals
            else 0.0
        ),
        "recovery_p50_sim_s": statistics.median(recoveries) if recoveries else 0.0,
        "request_fail_ratio": (
            sum(r["requests_failed"] for r in unique) / requests if requests else 0.0
        ),
        "lookup_fail_ratio": (
            sum(r.get("lookups_failed", 0) for r in unique) / lookups if lookups else 0.0
        ),
        "facility.fallbacks": per_cell("facility.fallbacks"),
        "facility.replicas_mean": statistics.fmean(replicas) if replicas else 0.0,
        "facility.replicas_max": max(replicas, default=0),
        "node.requests_sent": statistics.fmean(r["requests_sent"] for r in unique),
        "sync.recoveries": len(recoveries) / len(unique),
        "simnet.events": per_cell("simnet.events"),
        "simnet.us_per_event": statistics.fmean(
            1e6 * advance[r["seed"]] / r["counters"]["simnet.events"] for r in unique
        ),
        "simnet.msgs_sent": per_cell("simnet.msgs_sent"),
        "simnet.bytes_sent": per_cell("simnet.bytes_sent"),
        "persist.disk_bytes": statistics.fmean(r.get("disk_bytes", 0) for r in unique),
        "lifecycle.pruned_blocks": per_cell("lifecycle.pruned_blocks"),
        "raft.msgs_sent": per_cell("raft.msgs_sent"),
        "membership.msgs_sent": per_cell("membership.msgs_sent"),
        "fog.gossip_rounds": per_cell("fog.gossip_rounds"),
        "fog.bloom_fp_per_lookup": (
            sum(r["counters"].get("fog.bloom_fp_probes", 0) for r in unique) / lookups
            if lookups
            else 0.0
        ),
    }


def layer_metrics(cells: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per traced cell: each layer's calls and self time, the rest, the overhead."""
    metrics: Dict[str, float] = {}
    for layer in layer_names():
        metrics[f"{layer}_calls"] = statistics.fmean(r["calls"].get(layer, 0) for r in traced)
        metrics[f"{layer}_s"] = statistics.fmean(r["self_s"].get(layer, 0.0) for r in traced)
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    untraced_wall = statistics.fmean(
        statistics.median(c["wall_s"] for c in cells if c["seed"] == r["seed"]) for r in traced
    )
    remainder = traced_wall - statistics.fmean(sum(r["self_s"].values()) for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_s"] = remainder
    metrics["trace.untraced_share"] = remainder / traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER_EXTRA:
        return PER_LAYER_EXTRA[name]
    return "count" if name.endswith("_calls") else "s"


def report(workload, seed: int, cells, traced, values: Dict[str, Any]) -> None:
    """Human-readable lines ahead of the result object."""
    print(
        f"workload {workload.name} seed {seed}: {len(cells)} cells over "
        f"{len(workload.seeds(seed))} sub-seeds of {workload.minutes:g} sim-min"
        + (f", {len(traced)} traced" if traced else "")
    )
    print(
        f"  deliveries {values['delivery_samples']} (local-hit ratio "
        f"{values['node.local_hit_ratio']:.3f}): p50 {values['delivery_p50_sim_s']:.3f} sim-s, "
        f"p95 {values['delivery_p95_sim_s']:.3f} sim-s, mean {values['delivery_mean_sim_s']:.3f} sim-s"
    )
    print(
        f"  requests {values['requests']} failed {values['requests_failed']}; "
        f"lookups {values['lookups']} failed {values['lookups_failed']}"
    )
    for name in [*END_TO_END, *PER_LAYER_EXTRA]:
        if name in values:
            print(f"  {name:28s} {values[name]:>14.6g} {unit_of(name)}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cells = run_cells(workload, args.seed, args.seconds, workdir)
        traced = []
        if args.trace:
            traced = [fork_cell(workload, s, workdir, True) for s in workload.seeds(args.seed)]
    except CellFailed as failure:
        print(f"error: a cell failed:\n{failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {**host_metrics(cells), **outcomes(workload, cells)}
    attempted = values["requests"] + values["lookups"]
    failed = values["requests_failed"] + values["lookups_failed"]
    values["success_ratio"] = 1.0 - failed / attempted if attempted else 0.0
    problems = [f"sub-seed {r['seed']}: {c}" for r in cells + traced for c in r["checks"]]
    problems += determinism_problems(workload, cells + traced)
    problems += regime_problems(values)
    if traced:
        values.update(layer_metrics(cells, traced))
        spans = [{k: r[k] for k in ("seed", "wall_s", "calls", "self_s")} for r in traced]
        (OUT / f"trace-{workload.name}-{args.seed}.json").write_text(json.dumps(spans, indent=1))
    report(workload, args.seed, cells, traced, values)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        names = [f"{layer}{suffix}" for layer in layer_names() for suffix in ("_calls", "_s")]
        names += list(PER_LAYER_EXTRA)
    else:
        names = list(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)} for name in names},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
