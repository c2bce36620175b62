"""`repro chaos run` end to end: one command for both run kinds.

The CLI must hand the library runner exactly the spec the flags
describe — its ``--json`` verdict equals :func:`repro.chaos.run_chaos`'s
for the same spec, byte for byte — and refuse flags that mix the
single-cluster overlays (node adversaries, partition, live fabric) with
the federated ones (Byzantine clusters, fog adversaries).
"""

from dataclasses import replace

import pytest

from repro.chaos import ChaosSpec, run_chaos
from repro.cli import main
from repro.core.config import PAPER_CONFIG
from repro.federation import FederationSpec
from repro.sim.runner import ExperimentSpec

pytestmark = pytest.mark.chaos

FED_FLAGS = [
    "--clusters", "3", "--nodes", "4", "--minutes", "5", "--rate", "2",
    "--block-interval", "30",
]


def cli_config(rate=1.0, block_interval=60.0):
    """The config `chaos run` builds from its flags."""
    return replace(
        PAPER_CONFIG,
        data_items_per_minute=rate,
        expected_block_interval=block_interval,
    )


def fed_run(seed):
    return FederationSpec(
        cluster_count=3,
        nodes_per_cluster=4,
        config=cli_config(rate=2.0, block_interval=30.0),
        seed=seed,
        duration_minutes=5.0,
    )


def assert_cli_matches_library(tmp_path, argv, spec):
    cli_path = tmp_path / "cli.json"
    assert main(["chaos", "run", *argv, "--json", str(cli_path)]) == 0
    library_path = run_chaos(spec).write_verdict(tmp_path / "library.json")
    assert cli_path.read_bytes() == library_path.read_bytes()


class TestScenariosMatchLibrary:
    def test_single_cluster(self, tmp_path, capsys):
        spec = ChaosSpec(
            run=ExperimentSpec(
                node_count=6, config=cli_config(), seed=5, duration_minutes=4.0
            ),
            adversaries={"spammer": (2,)},
        )
        assert_cli_matches_library(
            tmp_path,
            ["--nodes", "6", "--minutes", "4", "--seed", "5",
             "--adversary", "spammer=2"],
            spec,
        )
        assert "Chaos: 6 nodes on sim" in capsys.readouterr().out

    def test_blast_radius(self, tmp_path, capsys):
        spec = ChaosSpec(
            run=fed_run(seed=13), byzantine_clusters=(1,), start_minutes=2.0
        )
        assert_cli_matches_library(
            tmp_path,
            [*FED_FLAGS, "--seed", "13", "--byzantine-cluster", "1",
             "--start", "2"],
            spec,
        )
        assert "blast radius ok" in capsys.readouterr().out

    def test_fog_peers_trailing_comma(self, tmp_path):
        spec = ChaosSpec(
            run=fed_run(seed=7),
            fog_adversaries={"summary_poisoner": (0,)},
            start_minutes=1.5,
        )
        assert_cli_matches_library(
            tmp_path,
            [*FED_FLAGS, "--seed", "7", "--start", "1.5",
             "--fog-behavior", "summary_poisoner", "--fog-peers", "0,"],
            spec,
        )


class TestRefusals:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--clusters", "3", "--partition", "3:6"], "single-cluster only"),
            (["--clusters", "3", "--fabric", "live"], "single cluster"),
            (["--clusters", "3", "--adversary", "spammer=1"],
             "single-cluster only"),
            (["--byzantine-cluster", "1"], "federated run"),
            (["--fog-behavior", "summary_poisoner"], "federated run"),
            (["--behavior", "spammer"], "--behavior needs --clusters"),
            (["--clusters", "3", "--churn", "0.2"], "--churn"),
            (["--clusters", "2", "--byzantine-cluster", "1",
              "--byzantine-cluster", "1"], "byzantine cluster 1 named twice"),
            (["--clusters", "3", "--fog-behavior", "summary_poisoner",
              "--fog-peers", "0,x"], "bad id list in --fog-peers"),
            (["--clusters", "3", "--fog-peers", "1"], "requires --fog-behavior"),
        ],
    )
    def test_mixed_or_malformed_flags_refused(self, extra, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "run", "--nodes", "4", "--minutes", "2", *extra])
        assert isinstance(exit_info.value.code, str)
        assert exit_info.value.code.startswith("error:")
        assert message in exit_info.value.code

    def test_fed_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fed", "chaos", "--clusters", "3"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSpecRefusals:
    def test_byzantine_cluster_named_twice(self):
        for clusters in (2, 3):
            run = replace(fed_run(seed=1), cluster_count=clusters)
            with pytest.raises(ValueError, match="byzantine cluster 1 named twice"):
                ChaosSpec(run=run, byzantine_clusters=(1, 1))

    def test_overlay_must_fit_the_run_kind(self):
        single = ExperimentSpec(node_count=4, config=cli_config(), duration_minutes=2.0)
        with pytest.raises(ValueError, match="federated run"):
            ChaosSpec(run=single, byzantine_clusters=(1,))
        with pytest.raises(ValueError, match="single-cluster only"):
            ChaosSpec(run=fed_run(seed=1), adversaries={"spammer": (1,)})
        with pytest.raises(ValueError, match="single cluster"):
            ChaosSpec(run=fed_run(seed=1), fabric="live")
