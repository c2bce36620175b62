"""Integration tests: fog-tier adversaries against the federated harness.

Each of the four fog adversaries runs solo at a fixed seed and must end
with the PR's containment contract: the offending super-peer quarantined,
its home clusters re-homed to the deterministic sibling, every
non-quarantined replica converged (complete and chain-consistent), the
lookup success rate at or above the floor, and no honest peer charged
into quarantine.  An adversary-free chaos run through the same harness
must stay entirely quiet — zero charges, zero quarantines, fog ok.
"""

import pytest

from repro.chaos import ChaosSpec, run_chaos
from repro.federation import FOG_LOOKUP_SUCCESS_FLOOR, FederationSpec
from tests.helpers import make_config

pytestmark = pytest.mark.fog

#: One poisoned super-peer (id 0) in a 3-cluster federation: peer 0 homes
#: clusters 0 and 2, so quarantine must fail both over to peer 1.
ADVERSARY_PEER = 0
EXPECTED_REHOMED = {"0": 1, "2": 1}


def chaos_spec(fog_adversaries):
    federation = FederationSpec(
        cluster_count=3,
        nodes_per_cluster=4,
        config=make_config(
            data_items_per_minute=2.0, expected_block_interval=30.0
        ),
        seed=7,
        duration_minutes=8.0,
        super_peer_count=2,
    )
    return ChaosSpec(
        run=federation,
        fog_adversaries=fog_adversaries,
        start_minutes=1.5,
    )


@pytest.fixture(
    scope="module",
    params=[
        "summary_poisoner",
        "gossip_suppressor",
        "version_inflator",
        "gateway_tamperer",
    ],
)
def solo_run(request):
    behavior = request.param
    spec = chaos_spec({behavior: (ADVERSARY_PEER,)})
    return behavior, run_chaos(spec)


class TestSoloAdversaries:
    def test_offender_quarantined_and_clusters_rehomed(self, solo_run):
        _behavior, result = solo_run
        fog = result.verdict["fog"]
        assert fog["quarantined_peers"] == [ADVERSARY_PEER]
        assert fog["honest_peers_quarantined"] == []
        assert fog["rehomed_clusters"] == EXPECTED_REHOMED
        # Detection happened inside the run, after the window opened.
        quarantined_at = fog["quarantined_at"][str(ADVERSARY_PEER)]
        assert quarantined_at >= 1.5 * 60.0

    def test_containment_verdict_ok(self, solo_run):
        behavior, result = solo_run
        fog = result.verdict["fog"]
        assert fog["ok"], f"{behavior}: fog containment violated: {fog}"
        assert fog["replicas_converged"]
        assert fog["divergent_entries"] == 0
        assert result.verdict["status"] == "ok"
        assert result.verdict["blast_radius"]["ok"]

    def test_lookup_success_floor(self, solo_run):
        _behavior, result = solo_run
        fog = result.verdict["fog"]
        assert fog["success_floor_applies"]
        assert fog["lookup_success_rate"] >= FOG_LOOKUP_SUCCESS_FLOOR
        assert fog["lookup_success_floor"] == FOG_LOOKUP_SUCCESS_FLOOR

    def test_adversary_left_its_signature(self, solo_run):
        """Each behavior is detected through the defense built for it."""
        behavior, result = solo_run
        fog = result.verdict["fog"]
        scores = fog["scores"]
        assert scores.get(str(ADVERSARY_PEER), 0.0) >= 8.0
        if behavior in ("summary_poisoner", "version_inflator"):
            assert fog["attestation_rejected"] > 0
        if behavior == "gateway_tamperer":
            assert fog["migrations_rejected"] > 0
        aggregate = result.run.aggregate
        assert aggregate["fog_quarantined"] == [ADVERSARY_PEER]
        assert aggregate["rehomed_clusters"] == EXPECTED_REHOMED


class TestHonestBaseline:
    @pytest.fixture(scope="class")
    def honest_run(self):
        return run_chaos(chaos_spec({}))

    def test_no_defense_ever_fires(self, honest_run):
        fog = honest_run.verdict["fog"]
        assert fog["quarantined_peers"] == []
        assert fog["attestation_rejected"] == 0
        assert fog["verify_rejected"] == 0
        assert fog["migrations_rejected"] == 0
        assert fog["lookup_fallbacks"] == 0
        assert fog["divergent_entries"] == 0
        assert fog["scores"] == {}
        assert fog["rehomed_clusters"] == {}

    def test_honest_verdict_ok(self, honest_run):
        assert honest_run.verdict["status"] == "ok"
        assert honest_run.verdict["fog"]["ok"]
        assert honest_run.verdict["fog"]["replicas_converged"]
