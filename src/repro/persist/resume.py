"""Durable runs: journaled execution, crash recovery, deterministic resume.

One driver for both run kinds — a single cluster
(:class:`~repro.sim.runner.ExperimentSpec`) and a federation of K
clusters (:class:`~repro.federation.spec.FederationSpec`):

* :func:`run_persistent` — run an experiment inside a run directory,
  journaling every mined block of every cluster (write-ahead of that
  cluster's SQLite store), snapshotting the full runtime periodically,
  and finalising metrics on completion.  ``stop_after_seconds`` pauses
  cleanly mid-run (chunked long sweeps); a crash/kill at any point is
  equally recoverable.
* :func:`resume_run` — recover a run directory: journal tail recovery,
  store catch-up from the journal (journal is the source of truth),
  restore of the newest valid snapshot (falling back to older ones, or
  to a from-genesis deterministic replay when none survive), and
  continuation to the end of the run.

A single-cluster directory is flat: manifest, journal, store, archive,
snapshots and results side by side.  A federated directory keeps
``manifest.json``, ``metrics.json`` and the snapshots at its root and
gives each cluster a ``cluster-<k>/`` directory with its own journal,
store, archive and chain summary.

Determinism is the load-bearing invariant: the simulation is a closed
system over its seeded RNGs, so *run → kill → resume* must reproduce the
uninterrupted run byte for byte.  Resume enforces this actively — every
block re-mined after the snapshot is checked against the journal records
written before the crash, and any divergence aborts with
:class:`~repro.core.errors.PersistError` instead of silently forking
history.  The persistence hooks themselves never touch simulation state
or RNGs, so a durable run also produces exactly the same metrics as a
plain :func:`~repro.sim.runner.run_experiment` (or
:func:`~repro.federation.runner.run_federation`) with the same spec.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.errors import PersistError
from repro.core.serialization import block_from_dict, block_to_dict
from repro.federation.runner import FederationResult, collect_federation_metrics
from repro.federation.runtime import build_federation_runtime
from repro.federation.spec import FederationSpec
from repro.lifecycle.archive import ARCHIVE_NAME, BlockArchive
from repro.metrics.collector import RunMetrics
from repro.metrics.export import metrics_to_record, store_chain_record
from repro.obs import runtime as _obs
from repro.persist.chainstore import ChainStore
from repro.persist.journal import (
    REC_ALLOC,
    REC_BLOCK,
    REC_CHECKPOINT,
    REC_COMPLETE,
    REC_REORG,
    REC_RUN_START,
    JournalRecord,
    RunJournal,
    recover_journal,
)
from repro.persist.snapshot import (
    SnapshotInfo,
    inspect_snapshot,
    load_latest_snapshot,
    snapshot_paths,
    write_snapshot,
)
from repro.sim.cluster import EdgeCluster
from repro.sim.runner import (
    ChurnSpec,
    ExperimentResult,
    ExperimentSpec,
    build_runtime,
    collect_metrics,
)

PathLike = Union[str, Path]

#: Bumped on breaking changes to the run-directory layout.
MANIFEST_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
STORE_NAME = "chain.sqlite"
METRICS_NAME = "metrics.json"
CHAIN_SUMMARY_NAME = "chain_summary.json"
#: Per-cluster subdirectory of a federated run directory.
CLUSTER_DIR_PREFIX = "cluster-"

STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"


@dataclass(frozen=True)
class PersistConfig:
    """Tunables of the durable-run machinery (all in simulated seconds)."""

    journal_every_seconds: float = 30.0
    snapshot_every_seconds: float = 600.0
    snapshot_retain: int = 2
    fsync_every: int = 32

    def __post_init__(self) -> None:
        if self.journal_every_seconds <= 0:
            raise ValueError("journal interval must be positive")
        if self.snapshot_every_seconds <= 0:
            raise ValueError("snapshot interval must be positive")


# -- the two run kinds ----------------------------------------------------------------

Spec = Union[ExperimentSpec, FederationSpec]

_SPEC_KINDS = {"experiment": ExperimentSpec, "federation": FederationSpec}

#: Spec fields carrying planted adversary classes, which cannot serialise.
_CLASS_FIELDS = ("node_classes", "node_classes_by_cluster", "fog_peer_classes")


def spec_to_dict(spec: Spec) -> Dict[str, Any]:
    kind = "federation" if isinstance(spec, FederationSpec) else "experiment"
    payload: Dict[str, Any] = {"kind": kind}
    for item in fields(spec):
        value = getattr(spec, item.name)
        if item.name in _CLASS_FIELDS:
            if value:
                raise PersistError(
                    f"runs with custom {item.name} (planted adversaries) cannot "
                    "be persisted: classes do not serialise into a run manifest"
                )
            continue
        payload[item.name] = asdict(value) if is_dataclass(value) else value
    return payload


def spec_from_dict(payload: Dict[str, Any]) -> Spec:
    kind = payload.get("kind")
    spec_type = _SPEC_KINDS.get(kind)
    if spec_type is None:
        raise PersistError(f"unknown run kind {kind!r} in spec")
    try:
        values = {key: value for key, value in payload.items() if key != "kind"}
        config_payload = dict(values["config"])
        lifecycle = config_payload.get("lifecycle")
        if isinstance(lifecycle, dict):
            # ``asdict`` flattens the nested dataclass on the way out.
            config_payload["lifecycle"] = LifecycleSpec(**lifecycle)
        values["config"] = SystemConfig(**config_payload)
        if values.get("churn") is not None:
            values["churn"] = ChurnSpec(**values["churn"])
        return spec_type(**values)
    except (KeyError, TypeError, ValueError) as error:
        raise PersistError(f"malformed {kind} spec: {error}") from error


def build_run(spec: Spec):
    """Build the runtime for either run kind (the chaos runner shares this)."""
    if isinstance(spec, FederationSpec):
        return build_federation_runtime(spec)
    return build_runtime(spec)


def collect_run(runtime) -> Tuple[Union[ExperimentResult, FederationResult], Dict[str, Any]]:
    """The run's result object and the record ``metrics.json`` holds."""
    if isinstance(runtime.spec, FederationSpec):
        result = collect_federation_metrics(runtime)
        return result, result.aggregate
    metrics = collect_metrics(runtime)
    result = ExperimentResult(spec=runtime.spec, metrics=metrics, cluster=runtime.cluster)
    return result, metrics_to_record(metrics, seed=runtime.spec.seed)


def _cluster_dirs(directory: Path, spec: Spec) -> List[Path]:
    """Where each cluster's journal and store live, in cluster order."""
    if isinstance(spec, FederationSpec):
        return [
            directory / f"{CLUSTER_DIR_PREFIX}{k}" for k in range(spec.cluster_count)
        ]
    return [directory]


# -- manifest ------------------------------------------------------------------------


def _write_json_atomic(path: Path, document: Dict[str, Any]) -> None:
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    path = Path(directory) / MANIFEST_NAME
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as error:
        raise PersistError(f"{directory} is not a run directory: {error}") from error
    except json.JSONDecodeError as error:
        raise PersistError(f"manifest {path} is corrupt: {error}") from error
    version = manifest.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise PersistError(
            f"manifest {path} has schema v{version!r}, "
            f"this build reads v{MANIFEST_SCHEMA_VERSION}"
        )
    return manifest


# -- the session: everything holding OS resources (never pickled) --------------------


class PersistSession:
    """Open handles on one run directory (journal, store, snapshots)."""

    def __init__(
        self, directory: PathLike, persist: PersistConfig, journal: RunJournal,
        store: ChainStore,
    ):
        self.directory = Path(directory)
        self.persist = persist
        self.journal = journal
        self.store = store
        #: Journal records ahead of the restored snapshot: height → hash.
        #: Re-mined blocks must match these exactly (determinism check).
        self.verify_tail: Dict[int, str] = {}
        self.blocks_verified = 0
        #: Cold-archive handle, opened on the first compaction.
        self.archive: Optional[BlockArchive] = None

    def compact_to(self, horizon: int, checkpoints=None) -> int:
        """Move store rows below ``horizon`` into the cold archive."""
        if horizon <= self.store.pruned_below():
            return 0
        if self.archive is None:
            self.archive = BlockArchive(self.directory / ARCHIVE_NAME)
        return self.store.compact(self.archive, horizon, checkpoints)

    def record_block(self, block, clock: float) -> None:
        expected = self.verify_tail.pop(block.index, None)
        if expected is not None:
            if expected != block.current_hash:
                raise PersistError(
                    f"resumed run diverged from journal at block {block.index}: "
                    f"journal has {expected[:12]}…, re-mined "
                    f"{block.current_hash[:12]}…"
                )
            self.blocks_verified += 1
            # Already journaled before the crash — only ensure the store
            # caught up (idempotent).
            self.store.put_block(block)
            return
        self.journal.append(
            REC_BLOCK,
            clock,
            {
                "index": block.index,
                "hash": block.current_hash,
                "block": block_to_dict(block),
            },
        )
        if not block.is_genesis:
            self.journal.append(
                REC_ALLOC,
                clock,
                {
                    "index": block.index,
                    "block_storing": list(block.storing_nodes),
                    "recent_cache": list(block.recent_cache_nodes),
                    "data_storing": {
                        item.data_id: list(item.storing_nodes)
                        for item in block.metadata_items
                    },
                },
            )
        # Write-ahead: the journal hits the OS before the store row.
        self.store.put_block(block)

    def record_reorg(self, from_height: int, clock: float) -> None:
        self.journal.append(REC_REORG, clock, {"from": from_height})
        self.verify_tail = {
            height: block_hash
            for height, block_hash in self.verify_tail.items()
            if height < from_height
        }

    def close(self) -> None:
        self.journal.close()
        self.store.close()


class _ChainJournal:
    """Journals one cluster's reference chain through its own session."""

    def __init__(self, cluster: EdgeCluster):
        self.cluster = cluster
        #: -1 so the very first flush journals the genesis block too.
        self.journaled_height = -1
        self.journaled_hashes: Dict[int, str] = {}
        #: Transient OS-resource holder; re-attached after every restore.
        self.session: Optional[PersistSession] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["session"] = None  # open files never enter snapshots
        return state

    def flush(self, clock: float) -> None:
        """Journal every block the longest chain gained since last time."""
        if self.session is None:
            return
        chain = self.cluster.longest_chain_node().chain
        floor = chain.first_retained_index
        agree = min(self.journaled_height, chain.height)
        while agree > 0:
            if agree < floor:
                raise PersistError(
                    f"journal agreement point fell below the pruning "
                    f"horizon {floor}: cannot journal a pruned reorg"
                )
            if self.journaled_hashes.get(agree) == chain.block_at(agree).current_hash:
                break
            agree -= 1
        if agree < self.journaled_height:
            self.session.record_reorg(agree + 1, clock)
            for height in range(agree + 1, self.journaled_height + 1):
                self.journaled_hashes.pop(height, None)
        if agree + 1 < floor:
            raise PersistError(
                f"journal height {agree} fell behind the pruning horizon "
                f"{floor}: the bodies to journal were already pruned"
            )
        for height in range(agree + 1, chain.height + 1):
            block = chain.block_at(height)
            self.session.record_block(block, clock)
            self.journaled_hashes[height] = block.current_hash
        self.journaled_height = chain.height
        # Pruning must never outrun the journal: any node may become the
        # reference chain, so cap every node's prune floor at the height
        # just journaled — a fast-block burst between ticks then retains
        # its bodies until the next flush instead of dropping rows the
        # store has never seen.
        for node in self.cluster.nodes.values():
            node.chain.prune_floor_limit = self.journaled_height

    def checkpoint(self, clock: float) -> None:
        self.session.journal.append(
            REC_CHECKPOINT, clock, {"height": self.journaled_height}
        )
        self.session.journal.sync()

    def compact(self) -> None:
        # Chainstore compaction rides the snapshot cadence: once the
        # in-memory chain has pruned past the store's floor, migrate the
        # corresponding rows to the cold archive.  The snapshot is
        # already durable, so a crash mid-compaction loses nothing.
        chain = self.cluster.longest_chain_node().chain
        floor = chain.first_retained_index
        if floor > 0:
            self.session.compact_to(
                min(floor, self.journaled_height), chain.checkpoints
            )

    def complete(self, clock: float) -> str:
        """Seal this cluster's journal and store; returns the final tip hash."""
        chain = self.cluster.longest_chain_node().chain
        session = self.session
        session.journal.append(
            REC_COMPLETE,
            clock,
            {
                "height": chain.height,
                "tip_hash": chain.tip.current_hash,
                "chain_digest": chain.chain_digest(),
            },
        )
        session.journal.sync()
        session.store.set_meta("status", STATUS_COMPLETE)
        session.store.set_meta("final_chain_digest", chain.chain_digest())
        _write_json_atomic(
            session.directory / CHAIN_SUMMARY_NAME, store_chain_record(session.store)
        )
        return chain.tip.current_hash


class _PersistTask:
    """The in-simulation persistence hook (pickled with the runtime).

    Ticks on the event engine every ``journal_every_seconds`` of simulated
    time: journals newly mined blocks of every cluster (following each
    longest chain, with explicit reorg records), and periodically
    snapshots the whole runtime.  The tick never mutates protocol state
    or RNGs, so durable runs remain bit-identical to non-durable ones.
    """

    def __init__(self, runtime: Any, persist: PersistConfig):
        self.runtime = runtime
        self.persist = persist
        self.journals = [_ChainJournal(cluster) for cluster in runtime.clusters]
        self.next_snapshot_at = persist.snapshot_every_seconds
        #: Run directory the snapshots go to; transient like the sessions.
        self.directory: Optional[Path] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["directory"] = None
        return state

    def attach(self, directory: Path, sessions: List[PersistSession]) -> None:
        self.directory = directory
        for journal, session in zip(self.journals, sessions):
            journal.session = session

    def start(self) -> None:
        self.runtime.engine.schedule(self.persist.journal_every_seconds, self.tick)

    def tick(self) -> None:
        engine = self.runtime.engine
        # Re-arm first so any snapshot written below already contains the
        # next tick in its pending-event queue.
        engine.schedule(self.persist.journal_every_seconds, self.tick)
        if self.directory is None:
            return  # detached (restored but not yet re-adopted)
        self.flush()
        if engine.now >= self.next_snapshot_at:
            self.next_snapshot_at = engine.now + self.persist.snapshot_every_seconds
            self.snapshot()

    def flush(self) -> None:
        for journal in self.journals:
            journal.flush(self.runtime.engine.now)

    def snapshot(self) -> None:
        if self.directory is None:
            return
        for journal in self.journals:
            journal.checkpoint(self.runtime.engine.now)
        write_snapshot(self.directory, self.runtime, retain=self.persist.snapshot_retain)
        for journal in self.journals:
            journal.compact()


# -- run / resume --------------------------------------------------------------------


@dataclass
class PersistentRunResult:
    """Outcome of one durable run (or resume) invocation."""

    directory: Path
    completed: bool
    clock: float
    #: An :class:`ExperimentResult` or, for a federated run, a
    #: :class:`~repro.federation.runner.FederationResult`.
    result: Optional[Union[ExperimentResult, FederationResult]] = None
    #: Simulation clock the run was restored from (resume only).
    resumed_from: Optional[float] = None
    #: Blocks re-mined after restore that were verified against the
    #: pre-crash journal (resume only).
    blocks_verified: int = 0

    @property
    def metrics(self) -> Optional[RunMetrics]:
        """The single-cluster run's metrics."""
        return None if self.result is None else self.result.metrics


def _open_session(
    directory: Path, persist: PersistConfig, fresh: bool
) -> PersistSession:
    journal_path = directory / JOURNAL_NAME
    if fresh:
        directory.mkdir(parents=True, exist_ok=True)
        if journal_path.exists():
            raise PersistError(
                f"{directory} already holds a run (journal exists); "
                "resume it or pick a fresh directory"
            )
    elif not directory.is_dir():
        raise PersistError(f"run directory {directory} is missing")
    journal = RunJournal.open(journal_path, fsync_every=persist.fsync_every)
    store = ChainStore(directory / STORE_NAME)
    return PersistSession(directory, persist, journal, store)


def _open_sessions(
    directories: List[Path], persist: PersistConfig, fresh: bool
) -> List[PersistSession]:
    sessions: List[PersistSession] = []
    try:
        for directory in directories:
            sessions.append(_open_session(directory, persist, fresh))
    except BaseException:
        _close_sessions(sessions)
        raise
    return sessions


def _close_sessions(sessions: List[PersistSession]) -> None:
    for session in sessions:
        session.close()


def _finalize(task: _PersistTask, runtime: Any):
    task.flush()
    for journal in task.journals:
        if journal.session.verify_tail:
            unmatched = sorted(journal.session.verify_tail)
            raise PersistError(
                f"resumed run never re-mined journaled block(s) {unmatched[:5]} "
                f"in {journal.session.directory} — the journal and the "
                "replay disagree"
            )
    result, record = collect_run(runtime)
    clock = runtime.engine.now
    tips = [journal.complete(clock) for journal in task.journals]
    _write_json_atomic(task.directory / METRICS_NAME, record)
    manifest = read_manifest(task.directory)
    manifest["status"] = STATUS_COMPLETE
    manifest["completed_at_clock"] = clock
    manifest["final_tip_hashes"] = tips
    _write_json_atomic(task.directory / MANIFEST_NAME, manifest)
    return result


def _pause(task: _PersistTask, runtime: Any) -> None:
    task.flush()
    task.snapshot()
    manifest = read_manifest(task.directory)
    manifest["paused_at_clock"] = runtime.engine.now
    _write_json_atomic(task.directory / MANIFEST_NAME, manifest)


def run_persistent(
    spec: Spec,
    directory: PathLike,
    persist: Optional[PersistConfig] = None,
    stop_after_seconds: Optional[float] = None,
) -> PersistentRunResult:
    """Run one experiment (single-cluster or federated) durably in ``directory``.

    ``stop_after_seconds`` (simulated) pauses the run cleanly after that
    much progress — the orderly form of interruption; a SIGKILL at any
    point is the disorderly form, and both resume identically.
    """
    persist = persist or PersistConfig()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / MANIFEST_NAME).exists() or snapshot_paths(directory):
        raise PersistError(
            f"{directory} already holds a run; resume it or pick a fresh directory"
        )
    spec_payload = spec_to_dict(spec)  # validates persistability up front
    sessions = _open_sessions(_cluster_dirs(directory, spec), persist, fresh=True)
    try:
        _write_json_atomic(
            directory / MANIFEST_NAME,
            {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "status": STATUS_RUNNING,
                "spec": spec_payload,
                "persist": asdict(persist),
            },
        )
        runtime = build_run(spec)
        for session, cluster in zip(sessions, runtime.clusters):
            session.journal.append(
                REC_RUN_START,
                0.0,
                {
                    "seed": spec.seed,
                    "node_count": len(cluster.node_ids),
                    "duration_seconds": spec.duration_seconds,
                },
            )
            session.store.put_accounts(cluster.accounts)
        task = _PersistTask(runtime, persist)
        task.attach(directory, sessions)
        runtime.persist_task = task
        task.start()
        task.flush()  # journals + stores every genesis block
        return _advance(task, runtime, stop_after_seconds)
    finally:
        _close_sessions(sessions)


def _advance(
    task: _PersistTask,
    runtime: Any,
    stop_after_seconds: Optional[float],
    resumed_from: Optional[float] = None,
) -> PersistentRunResult:
    duration = runtime.spec.duration_seconds
    target = duration
    if stop_after_seconds is not None:
        target = min(duration, runtime.engine.now + stop_after_seconds)
    with _obs.span("run.simulate", "run", duration_seconds=duration):
        runtime.engine.run_until(target)
    result = None
    if runtime.finished:
        result = _finalize(task, runtime)
    else:
        _pause(task, runtime)
    return PersistentRunResult(
        directory=task.directory,
        completed=result is not None,
        clock=runtime.engine.now,
        result=result,
        resumed_from=resumed_from,
        blocks_verified=sum(
            journal.session.blocks_verified for journal in task.journals
        ),
    )


def _journal_chain_view(records: List[JournalRecord]) -> Dict[int, Dict[str, Any]]:
    """Fold block/reorg records into the journal's final height → record view."""
    view: Dict[int, Dict[str, Any]] = {}
    for record in records:
        if record.type == REC_BLOCK:
            view[int(record.payload["index"])] = record.payload
        elif record.type == REC_REORG:
            cut = int(record.payload["from"])
            view = {h: p for h, p in view.items() if h < cut}
    return view


def _catch_up_store(session: PersistSession, view: Dict[int, Dict[str, Any]]) -> None:
    """Re-apply journaled blocks the store missed: the journal is the truth.

    Heights below the compaction floor already moved to the cold archive;
    re-inserting them would undo the compaction.
    """
    pruned_floor = session.store.pruned_below()
    for height in sorted(view):
        if height < pruned_floor:
            continue
        payload = view[height]
        stored = session.store.block_by_index(height)
        if stored is None or stored.current_hash != payload["hash"]:
            session.store.put_block(block_from_dict(payload["block"]))


def resume_run(
    directory: PathLike,
    persist: Optional[PersistConfig] = None,
    stop_after_seconds: Optional[float] = None,
) -> PersistentRunResult:
    """Recover ``directory`` and drive the run to completion (or next pause).

    Recovery order: every cluster's journal prefix (torn tail dropped),
    SQLite store catch-up from the journal, newest loadable snapshot
    (corrupt ones are skipped; none at all means a deterministic
    from-genesis replay), then continuation with every re-mined block
    verified against its cluster's journal.  ``stop_after_seconds`` is
    additional simulated time from the restored clock.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("status") == STATUS_COMPLETE:
        raise PersistError(f"run in {directory} already completed; nothing to resume")
    spec = spec_from_dict(manifest["spec"])
    if persist is None:
        persist = PersistConfig(**manifest.get("persist", {}))

    cluster_dirs = _cluster_dirs(directory, spec)
    views = []
    for cluster_dir in cluster_dirs:
        recovery = recover_journal(cluster_dir / JOURNAL_NAME)
        if recovery.corrupt:
            raise PersistError(
                f"journal in {cluster_dir} is corrupt mid-file ({recovery.reason}); "
                "refusing to resume — run `repro inspect` for details"
            )
        views.append(_journal_chain_view(recovery.records))

    sessions = _open_sessions(cluster_dirs, persist, fresh=False)
    try:
        for session, view in zip(sessions, views):
            _catch_up_store(session, view)

        runtime, info, _skipped = load_latest_snapshot(directory)
        if runtime is not None:
            _obs.set_sim_clock(runtime.engine.clock_reader())
            _obs.attach_runtime(runtime)
            task = runtime.persist_task
            if not isinstance(task, _PersistTask):
                raise PersistError(
                    f"snapshot in {directory} carries no persistence task"
                )
            resumed_from: Optional[float] = info.clock
        else:
            # No usable snapshot: deterministically replay from genesis.
            runtime = build_run(spec)
            task = _PersistTask(runtime, persist)
            runtime.persist_task = task
            task.start()
            resumed_from = 0.0
        task.attach(directory, sessions)
        for journal, session, view in zip(task.journals, sessions, views):
            session.verify_tail = {
                height: str(payload["hash"])
                for height, payload in view.items()
                if height > journal.journaled_height
            }
        return _advance(task, runtime, stop_after_seconds, resumed_from)
    finally:
        _close_sessions(sessions)


# -- inspection ----------------------------------------------------------------------


@dataclass
class RunReport:
    """Health report for one run directory (``repro inspect``)."""

    directory: Path
    status: str
    journal_records: int = 0
    journal_height: int = -1
    torn_tail_bytes: int = 0
    dropped_records: int = 0
    store_height: int = -1
    store_blocks: int = 0
    store_metadata: int = 0
    store_tip: Optional[str] = None
    #: First block index still in the hot store (0 = never compacted).
    store_pruned_below: int = 0
    #: On-disk byte footprints, hot tier vs cold tier.
    journal_bytes: int = 0
    store_bytes: int = 0
    snapshot_bytes: int = 0
    archive_bytes: int = 0
    archive_blocks: int = 0
    archive_checkpoints: int = 0
    snapshots: List[SnapshotInfo] = field(default_factory=list)
    #: Recoverable oddities (torn tail, store behind journal) — resume
    #: handles these; listed for transparency.
    notes: List[str] = field(default_factory=list)
    #: Unrecoverable corruption — ``repro inspect`` exits non-zero.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def inspect_run(directory: PathLike) -> RunReport:
    """Examine a run directory without mutating anything.

    Checks the manifest, then for every cluster recovers the journal in
    memory (the file is not truncated), verifies SQLite store integrity,
    and cross-checks the store against the journal's final chain view;
    finally reads every snapshot's state card.  A federated directory's
    counts and byte sizes are summed over its clusters and its heights
    are the highest cluster's.  Corruption that resume could not
    transparently heal lands in ``problems``; self-healing oddities land
    in ``notes``.
    """
    directory = Path(directory)
    report = RunReport(directory=directory, status="unknown")

    try:
        manifest = read_manifest(directory)
        report.status = str(manifest.get("status", "unknown"))
        spec = spec_from_dict(manifest["spec"])
    except (KeyError, PersistError) as error:
        report.problems.append(str(error))
        return report

    for cluster_dir in _cluster_dirs(directory, spec):
        prefix = "" if cluster_dir == directory else f"{cluster_dir.name}: "
        problems: List[str] = []
        notes: List[str] = []
        _inspect_chain_dir(cluster_dir, report, problems, notes)
        report.problems.extend(prefix + problem for problem in problems)
        report.notes.extend(prefix + note for note in notes)

    for path in snapshot_paths(directory):
        try:
            report.snapshots.append(inspect_snapshot(path))
        except PersistError as error:
            report.problems.append(str(error))
        try:
            report.snapshot_bytes += path.stat().st_size
        except OSError:
            pass

    if report.status == STATUS_RUNNING and not report.snapshots:
        report.notes.append(
            "no usable snapshot; resume replays deterministically from genesis"
        )
    return report


def _inspect_chain_dir(
    directory: Path, report: RunReport, problems: List[str], notes: List[str]
) -> None:
    """Fold one cluster's journal, archive and store into ``report``."""
    recovery = recover_journal(directory / JOURNAL_NAME)
    report.journal_records += len(recovery.records)
    report.torn_tail_bytes += recovery.torn_tail_bytes
    report.dropped_records += recovery.dropped_records
    if recovery.corrupt:
        problems.append(
            f"journal corrupt mid-file ({recovery.reason}); "
            f"{recovery.dropped_records} record(s) unreadable"
        )
    elif recovery.torn_tail_bytes:
        notes.append(
            f"journal has a torn final record ({recovery.torn_tail_bytes} bytes); "
            "resume drops it"
        )
    journal_view = _journal_chain_view(recovery.records)
    if journal_view:
        report.journal_height = max(report.journal_height, max(journal_view))

    journal_path = directory / JOURNAL_NAME
    if journal_path.exists():
        report.journal_bytes += journal_path.stat().st_size

    archive = None
    archive_path = directory / ARCHIVE_NAME
    if archive_path.exists():
        try:
            archive = BlockArchive(archive_path)
            stats = archive.stats()
            report.archive_bytes += stats.bytes
            report.archive_blocks += stats.blocks
            report.archive_checkpoints += len(stats.checkpoints)
            if stats.torn_tail_bytes:
                notes.append(
                    f"archive had a torn final record "
                    f"({stats.torn_tail_bytes} bytes); truncated on open"
                )
            problems.extend(archive.verify_integrity())
        except PersistError as error:
            problems.append(f"cold archive unreadable: {error}")
            archive = None

    store_path = directory / STORE_NAME
    if not store_path.exists():
        problems.append(f"chain store {STORE_NAME} is missing")
        return
    try:
        with ChainStore(store_path) as store:
            height = store.height()
            pruned_below = store.pruned_below()
            if height > report.store_height:
                report.store_height = height
                report.store_tip = store.tip_hash()
            report.store_blocks += store.block_count()
            report.store_metadata += store.metadata_count()
            report.store_pruned_below = max(report.store_pruned_below, pruned_below)
            report.store_bytes += store.footprint_bytes()
            problems.extend(store.verify_integrity())
            if pruned_below > 0 and (
                archive is None or archive.archived_below < pruned_below
            ):
                held = 0 if archive is None else archive.archived_below
                problems.append(
                    f"store is compacted below {pruned_below} "
                    f"but the archive only holds [0, {held})"
                )
            for height in sorted(journal_view):
                if height < pruned_below:
                    # Compacted out of the hot store; the archive walk
                    # above already re-verified the cold copy.
                    continue
                stored = store.block_by_index(height)
                if stored is None:
                    notes.append(
                        f"store is missing journaled block {height}; "
                        "resume re-applies it"
                    )
                elif stored.current_hash != journal_view[height]["hash"]:
                    problems.append(
                        f"store block {height} disagrees with the journal "
                        f"({stored.current_hash[:12]}… vs "
                        f"{journal_view[height]['hash'][:12]}…)"
                    )
    except Exception as error:  # sqlite raises a zoo of types on corruption
        problems.append(f"chain store unreadable: {error}")
