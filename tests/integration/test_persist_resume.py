"""Integration tests: durable runs, crash recovery, CLI resume determinism."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.config import PAPER_CONFIG
from repro.core.errors import PersistError
from repro.metrics.export import metrics_to_record
from repro.persist import (
    PersistConfig,
    inspect_run,
    resume_run,
    run_persistent,
    snapshot_paths,
)
from repro.persist.resume import (
    CHAIN_SUMMARY_NAME,
    JOURNAL_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    STORE_NAME,
    spec_from_dict,
    spec_to_dict,
)
from repro.sim.runner import ChurnSpec, ExperimentSpec, run_experiment

pytestmark = pytest.mark.persist

#: Snappy intervals so short test runs still journal and snapshot.
FAST_PERSIST = PersistConfig(
    journal_every_seconds=20.0, snapshot_every_seconds=120.0
)


def small_spec(seed: int = 7, churn: bool = False) -> ExperimentSpec:
    config = replace(
        PAPER_CONFIG, simulation_minutes=15.0, data_items_per_minute=2.0
    )
    return ExperimentSpec(
        node_count=6,
        config=config,
        seed=seed,
        churn=ChurnSpec() if churn else None,
    )


def record_text(metrics, seed: int) -> str:
    # json.dumps renders NaN stably, making records comparable even when
    # a metric (e.g. mean recovery with zero recoveries) is NaN.
    return json.dumps(metrics_to_record(metrics, seed=seed), sort_keys=True)


class TestDurableEqualsPlain:
    def test_persisted_run_matches_plain_run(self, tmp_path):
        spec = small_spec()
        plain = run_experiment(spec)
        durable = run_persistent(spec, tmp_path / "run", persist=FAST_PERSIST)
        assert durable.completed
        assert record_text(durable.metrics, 7) == record_text(plain.metrics, 7)

    def test_run_directory_layout(self, tmp_path):
        durable = run_persistent(
            small_spec(), tmp_path / "run", persist=FAST_PERSIST
        )
        names = {p.name for p in durable.directory.iterdir()}
        for required in (
            MANIFEST_NAME,
            JOURNAL_NAME,
            STORE_NAME,
            METRICS_NAME,
            CHAIN_SUMMARY_NAME,
        ):
            assert required in names
        manifest = json.loads((durable.directory / MANIFEST_NAME).read_text())
        assert manifest["status"] == "complete"

    def test_existing_run_directory_refused(self, tmp_path):
        run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)
        with pytest.raises(PersistError, match="already holds a run"):
            run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)


class TestKillAndResume:
    def reference_record(self, spec) -> str:
        return record_text(run_experiment(spec).metrics, spec.seed)

    def test_pause_then_resume_is_deterministic(self, tmp_path):
        spec = small_spec()
        reference = self.reference_record(spec)
        paused = run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        assert not paused.completed
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert resumed.resumed_from == pytest.approx(400.0)
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_hard_kill_torn_journal_resumes(self, tmp_path):
        spec = small_spec()
        reference = self.reference_record(spec)
        run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        with (tmp_path / "run" / JOURNAL_NAME).open("ab") as handle:
            handle.write(b'{"v": 1, "seq": 9999, "type": "blo')  # torn write
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_resume_without_snapshots_replays_from_genesis(self, tmp_path):
        spec = small_spec()
        reference = self.reference_record(spec)
        run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        for path in snapshot_paths(tmp_path / "run"):
            path.unlink()
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert resumed.resumed_from == 0.0
        # Replayed blocks must hash-match the pre-kill journal.
        assert resumed.blocks_verified > 0
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_resume_with_churn_spec_round_trips(self, tmp_path):
        spec = small_spec(seed=3, churn=True)
        reference = self.reference_record(spec)
        run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_completed_run_refuses_resume(self, tmp_path):
        run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)
        with pytest.raises(PersistError, match="already completed"):
            resume_run(tmp_path / "run")

    def test_retired_config_key_refuses_resume(self, tmp_path):
        # A run directory written while SystemConfig still had the
        # ``batch_deliveries`` knob: resume refuses it and names the key.
        payload = spec_to_dict(small_spec())
        payload["config"]["batch_deliveries"] = True
        with pytest.raises(
            PersistError, match="malformed experiment spec.*batch_deliveries"
        ):
            spec_from_dict(payload)
        run_persistent(
            small_spec(),
            tmp_path / "run",
            persist=FAST_PERSIST,
            stop_after_seconds=400.0,
        )
        manifest_path = tmp_path / "run" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["config"]["batch_deliveries"] = True
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="batch_deliveries"):
            resume_run(tmp_path / "run")

    def test_corrupt_journal_refuses_resume(self, tmp_path):
        run_persistent(
            small_spec(),
            tmp_path / "run",
            persist=FAST_PERSIST,
            stop_after_seconds=400.0,
        )
        journal = tmp_path / "run" / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[3] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        with pytest.raises(PersistError, match="corrupt"):
            resume_run(tmp_path / "run")


class TestInspect:
    def test_healthy_run_reports_ok(self, tmp_path):
        run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)
        report = inspect_run(tmp_path / "run")
        assert report.ok
        assert report.status == "complete"
        assert report.journal_height == report.store_height
        assert report.snapshots

    def test_not_a_run_directory(self, tmp_path):
        report = inspect_run(tmp_path)
        assert not report.ok

    def test_mid_file_corruption_reported(self, tmp_path):
        run_persistent(
            small_spec(),
            tmp_path / "run",
            persist=FAST_PERSIST,
            stop_after_seconds=400.0,
        )
        journal = tmp_path / "run" / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        report = inspect_run(tmp_path / "run")
        assert not report.ok
        assert any("corrupt" in problem for problem in report.problems)


class TestCLI:
    def run_args(self, directory, extra=()):
        return [
            "run",
            "--nodes", "6",
            "--minutes", "15",
            "--rate", "2",
            "--seed", "7",
            "--persist", str(directory),
            "--journal-every", "20",
            "--snapshot-every", "120",
            *extra,
        ]

    def test_cli_kill_and_resume_matches_uninterrupted(self, tmp_path, capsys):
        full_dir = tmp_path / "full"
        assert main(self.run_args(full_dir)) == 0
        resumed_dir = tmp_path / "resumed"
        assert main(self.run_args(resumed_dir, ["--stop-after", "400"])) == 0
        assert "paused" in capsys.readouterr().out
        assert main(["resume", str(resumed_dir)]) == 0
        assert "resumed from" in capsys.readouterr().out
        full_metrics = (full_dir / METRICS_NAME).read_text()
        resumed_metrics = (resumed_dir / METRICS_NAME).read_text()
        assert full_metrics == resumed_metrics
        full_summary = json.loads((full_dir / CHAIN_SUMMARY_NAME).read_text())
        resumed_summary = json.loads(
            (resumed_dir / CHAIN_SUMMARY_NAME).read_text()
        )
        assert full_summary["tip_hash"] == resumed_summary["tip_hash"]

    def test_cli_inspect_exit_codes(self, tmp_path, capsys):
        directory = tmp_path / "run"
        assert main(self.run_args(directory, ["--stop-after", "400"])) == 0
        assert main(["inspect", str(directory)]) == 0
        journal = directory / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        assert main(["inspect", str(directory)]) == 1
        assert "PROBLEM" in capsys.readouterr().err
        assert main(["resume", str(directory)]) == 2

    def test_cli_stop_after_requires_persist(self):
        with pytest.raises(SystemExit):
            main(["run", "--stop-after", "60"])
