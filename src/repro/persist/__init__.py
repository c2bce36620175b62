"""Durable persistence: run journal, SQLite chain store, snapshots, resume.

The paper's edge nodes churn, disconnect, and recover (Sections IV-C and
IV-D); this package gives the *simulator itself* the same resilience,
for single-cluster and federated runs alike.  A durable run directory
holds four artefacts:

* ``journal.jsonl`` — append-only, CRC-checked write-ahead journal of
  simulation events (:mod:`repro.persist.journal`);
* ``chain.sqlite`` — indexed, queryable chain/metadata/account store
  (:mod:`repro.persist.chainstore`);
* ``snapshot-*.json`` — versioned atomic checkpoints of the full runtime
  (:mod:`repro.persist.snapshot`);
* ``manifest.json`` / ``metrics.json`` — run identity and final results
  (:mod:`repro.persist.resume`).

A federated run keeps the manifest, snapshots and metrics at the root
and one journal + store (+ archive) per cluster under ``cluster-<k>/``.

``repro run [--clusters K] --persist DIR`` and ``repro resume DIR`` are
the CLI faces; :func:`run_persistent` / :func:`resume_run` the library
ones.
"""

from repro.persist.chainstore import ChainStore, STORE_SCHEMA_VERSION
from repro.persist.journal import (
    JournalRecord,
    JournalRecovery,
    RunJournal,
    recover_journal,
)
from repro.persist.resume import (
    PersistConfig,
    PersistentRunResult,
    RunReport,
    inspect_run,
    resume_run,
    run_persistent,
)
from repro.persist.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotInfo,
    inspect_snapshot,
    load_latest_snapshot,
    load_snapshot,
    snapshot_paths,
    write_snapshot,
)

__all__ = [
    "ChainStore",
    "STORE_SCHEMA_VERSION",
    "JournalRecord",
    "JournalRecovery",
    "RunJournal",
    "recover_journal",
    "PersistConfig",
    "PersistentRunResult",
    "RunReport",
    "inspect_run",
    "resume_run",
    "run_persistent",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotInfo",
    "inspect_snapshot",
    "load_latest_snapshot",
    "load_snapshot",
    "snapshot_paths",
    "write_snapshot",
]
