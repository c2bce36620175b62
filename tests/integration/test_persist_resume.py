"""Integration tests: durable runs, crash recovery, CLI resume determinism.

The kill/resume cases run over both run kinds through the one durable
driver: a single cluster and a small 2x4 federation.
"""

import functools
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.adversary import DenyingNode
from repro.core.config import PAPER_CONFIG
from repro.core.errors import PersistError
from repro.federation import FederationSpec, GossipSuppressorPeer, run_federation
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
from tests.helpers import make_config

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


def small_fed_spec(seed: int = 7, churn: bool = False) -> FederationSpec:
    return FederationSpec(
        cluster_count=2,
        nodes_per_cluster=4,
        config=make_config(),
        seed=seed,
        duration_minutes=6.0,
        churn=ChurnSpec() if churn else None,
        churn_cluster=0 if churn else None,
    )


def record_text(metrics, seed: int) -> str:
    # json.dumps renders NaN stably, making records comparable even when
    # a metric (e.g. mean recovery with zero recoveries) is NaN.
    return json.dumps(metrics_to_record(metrics, seed=seed), sort_keys=True)


@functools.lru_cache(maxsize=None)
def fed_reference(seed: int, churn: bool) -> str:
    """The uninterrupted federation's aggregate record (digests included)."""
    aggregate = run_federation(small_fed_spec(seed, churn)).aggregate
    return json.dumps(aggregate, sort_keys=True)


def file_bytes(directory):
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


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


class TestSpecSerialisation:
    @pytest.mark.parametrize(
        "spec",
        [small_spec(churn=True), small_fed_spec(churn=True)],
        ids=["experiment", "federation"],
    )
    def test_round_trip_through_json(self, spec):
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(payload) == spec

    @pytest.mark.parametrize(
        "spec",
        [
            replace(small_spec(), node_classes={0: DenyingNode}),
            replace(small_fed_spec(), node_classes_by_cluster={0: {0: DenyingNode}}),
            replace(small_fed_spec(), fog_peer_classes={0: GossipSuppressorPeer}),
        ],
        ids=["node_classes", "node_classes_by_cluster", "fog_peer_classes"],
    )
    def test_planted_classes_refused(self, spec, tmp_path):
        with pytest.raises(PersistError, match="planted adversaries"):
            run_persistent(spec, tmp_path / "run")
        assert not list((tmp_path / "run").iterdir())


class TestKillAndResume:
    """Kill/resume cases on a single-cluster run.

    :class:`TestFederatedKillAndResume` reruns every case on a 2x4
    federation by overriding the four hooks below.
    """

    kind = "experiment"
    #: Simulated seconds before the orderly pause.
    pause_at = 400.0

    def make_spec(self, seed: int = 7, churn: bool = False):
        return small_spec(seed=seed, churn=churn)

    def reference_record(self, spec) -> str:
        return record_text(run_experiment(spec).metrics, spec.seed)

    def outcome_record(self, outcome) -> str:
        return record_text(outcome.metrics, outcome.result.spec.seed)

    def journal_path(self, directory):
        return directory / JOURNAL_NAME

    def pause(self, directory, spec=None):
        return run_persistent(
            spec or self.make_spec(),
            directory,
            persist=FAST_PERSIST,
            stop_after_seconds=self.pause_at,
        )

    def test_pause_then_resume_is_deterministic(self, tmp_path):
        spec = self.make_spec()
        reference = self.reference_record(spec)
        paused = self.pause(tmp_path / "run", spec)
        assert not paused.completed
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert resumed.resumed_from == pytest.approx(self.pause_at)
        assert self.outcome_record(resumed) == reference

    def test_resume_stop_after_is_additional_time(self, tmp_path):
        self.pause(tmp_path / "run")
        again = resume_run(tmp_path / "run", stop_after_seconds=100.0)
        assert not again.completed
        assert again.clock == pytest.approx(self.pause_at + 100.0)

    def test_hard_kill_torn_journal_resumes(self, tmp_path):
        spec = self.make_spec()
        reference = self.reference_record(spec)
        self.pause(tmp_path / "run", spec)
        with self.journal_path(tmp_path / "run").open("ab") as handle:
            handle.write(b'{"v": 1, "seq": 9999, "type": "blo')  # torn write
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert self.outcome_record(resumed) == reference

    def test_resume_without_snapshots_replays_from_genesis(self, tmp_path):
        spec = self.make_spec()
        reference = self.reference_record(spec)
        self.pause(tmp_path / "run", spec)
        for path in snapshot_paths(tmp_path / "run"):
            path.unlink()
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert resumed.resumed_from == 0.0
        # Replayed blocks must hash-match the pre-kill journal.
        assert resumed.blocks_verified > 0
        assert self.outcome_record(resumed) == reference

    def test_resume_with_churn_spec_round_trips(self, tmp_path):
        spec = self.make_spec(seed=3, churn=True)
        reference = self.reference_record(spec)
        self.pause(tmp_path / "run", spec)
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert self.outcome_record(resumed) == reference

    def test_occupied_directory_refused_and_untouched(self, tmp_path):
        directory = tmp_path / "run"
        self.pause(directory)
        before = file_bytes(directory)
        with pytest.raises(PersistError, match="already holds a run"):
            run_persistent(
                self.make_spec(seed=8), directory, persist=FAST_PERSIST
            )
        assert file_bytes(directory) == before

    def test_completed_run_refuses_resume(self, tmp_path):
        run_persistent(self.make_spec(), tmp_path / "run", persist=FAST_PERSIST)
        with pytest.raises(PersistError, match="already completed"):
            resume_run(tmp_path / "run")

    def test_retired_config_key_refuses_resume(self, tmp_path):
        # A run directory written while SystemConfig still had the
        # ``batch_deliveries`` knob: resume refuses it and names the key.
        payload = spec_to_dict(self.make_spec())
        payload["config"]["batch_deliveries"] = True
        with pytest.raises(
            PersistError, match=f"malformed {self.kind} spec.*batch_deliveries"
        ):
            spec_from_dict(payload)
        self.pause(tmp_path / "run")
        manifest_path = tmp_path / "run" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["config"]["batch_deliveries"] = True
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="batch_deliveries"):
            resume_run(tmp_path / "run")

    def test_corrupt_journal_refuses_resume(self, tmp_path):
        self.pause(tmp_path / "run")
        journal = self.journal_path(tmp_path / "run")
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[3] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        with pytest.raises(PersistError, match="corrupt"):
            resume_run(tmp_path / "run")

    def test_v1_manifest_refused(self, tmp_path):
        self.pause(tmp_path / "run")
        manifest_path = tmp_path / "run" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="schema v1"):
            resume_run(tmp_path / "run")


@pytest.mark.fed
class TestFederatedKillAndResume(TestKillAndResume):
    """Every kill/resume case again, on a 2x4 federation."""

    kind = "federation"
    pause_at = 200.0

    def make_spec(self, seed: int = 7, churn: bool = False):
        return small_fed_spec(seed=seed, churn=churn)

    def reference_record(self, spec) -> str:
        return fed_reference(spec.seed, spec.churn is not None)

    def outcome_record(self, outcome) -> str:
        return json.dumps(outcome.result.aggregate, sort_keys=True)

    def journal_path(self, directory):
        return directory / "cluster-1" / JOURNAL_NAME


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


@pytest.mark.fed
class TestFederatedDirectory:
    """Layout and inspection of a durable federated run directory."""

    @pytest.fixture
    def paused_dir(self, tmp_path):
        directory = tmp_path / "run"
        run_persistent(
            small_fed_spec(), directory, persist=FAST_PERSIST,
            stop_after_seconds=200.0,
        )
        return directory

    def test_layout_puts_cluster_chains_in_subdirectories(self, paused_dir):
        root = {path.name for path in paused_dir.iterdir()}
        assert MANIFEST_NAME in root
        assert snapshot_paths(paused_dir)
        assert JOURNAL_NAME not in root and STORE_NAME not in root
        for k in (0, 1):
            names = {path.name for path in (paused_dir / f"cluster-{k}").iterdir()}
            assert {JOURNAL_NAME, STORE_NAME} <= names
        manifest = json.loads((paused_dir / MANIFEST_NAME).read_text())
        assert manifest["spec"]["kind"] == "federation"

    def test_healthy_directory_inspects_ok(self, paused_dir):
        report = inspect_run(paused_dir)
        assert report.ok, report.problems
        assert report.status == "running"
        assert report.journal_height == report.store_height
        assert report.snapshots

    def test_one_corrupt_cluster_journal_reported(self, paused_dir):
        journal = paused_dir / "cluster-1" / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[len(lines) // 2] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        report = inspect_run(paused_dir)
        assert not report.ok
        assert any(
            problem.startswith("cluster-1: ") and "corrupt" in problem
            for problem in report.problems
        )

    def test_prune_refuses_federated_directory(self, paused_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["prune", str(paused_dir), "--retain", "4",
                  "--checkpoint-every", "2"])
        assert exit_info.value.code != 0
        assert "federated run" in str(exit_info.value.code)
        assert not (paused_dir / STORE_NAME).exists()


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

    def test_cli_prune_single_cluster_without_store(self, tmp_path, capsys):
        # A missing store is not mistaken for a federated layout: prune
        # opens an empty store and finds nothing to compact.
        directory = tmp_path / "run"
        assert main(self.run_args(directory, ["--stop-after", "400"])) == 0
        for path in directory.glob(STORE_NAME + "*"):
            path.unlink()
        capsys.readouterr()
        assert main(["prune", str(directory), "--retain", "4",
                     "--checkpoint-every", "2"]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_cli_stop_after_requires_persist(self):
        with pytest.raises(SystemExit):
            main(["run", "--stop-after", "60"])

    def fed_args(self, extra=()):
        return [
            "run", "--clusters", "2", "--nodes", "4", "--minutes", "6",
            "--rate", "2", "--block-interval", "30", "--seed", "7", *extra,
        ]

    @pytest.mark.fed
    def test_cli_federated_run_resume_inspect(self, tmp_path, capsys):
        full_json = tmp_path / "full.json"
        assert main(self.fed_args(["--json", str(full_json)])) == 0
        directory = tmp_path / "run"
        assert main(
            self.fed_args(["--persist", str(directory), "--stop-after", "200"])
        ) == 0
        assert "paused at t=200s" in capsys.readouterr().out
        # --stop-after on resume is additional simulated time.
        assert main(["resume", str(directory), "--stop-after", "100"]) == 0
        assert "paused at t=300s" in capsys.readouterr().out
        assert main(["resume", str(directory)]) == 0
        assert "resumed from t=300s" in capsys.readouterr().out
        assert main(["inspect", str(directory)]) == 0
        full = json.loads(full_json.read_text())
        resumed = json.loads((directory / METRICS_NAME).read_text())
        assert resumed["chain_digests"] == full["chain_digests"]
        assert resumed["directory_digest"] == full["directory_digest"]
