"""Unit tests: fog-tier defenses — attestation, scoring, failover, admission.

The fog tier's byzantine tolerance rests on a few small mechanisms that
must be individually airtight: gateway attestation over the canonical
summary body, the weighted misbehavior ledger and its quarantine
threshold, deterministic failover of a quarantined peer's home clusters,
the lookup driver's bounded retry/fallback budget, and structural
admission of migrated metadata at the receiving gateway.
"""

import math
from dataclasses import replace

import pytest

from repro.core.account import Account
from repro.core.admission import FOREIGN_METADATA, foreign_metadata_admissible
from repro.core.metadata import create_metadata
from repro.federation.fog import (
    FOG_BAD_ATTESTATION,
    FOG_STALE_HOME,
    LOOKUP_FALLBACK_RETRIES,
    LOOKUP_MAX_RETRIES,
    LOOKUP_RETRY_SECONDS,
    CrossLookupDriver,
    FogCounters,
    fog_ledger,
)
from repro.federation.runtime import build_federation_runtime
from repro.federation.spec import FederationSpec, FederationSpecError
from repro.obs.monitors import (
    DirectoryDivergenceMonitor,
    DirectoryStalenessMonitor,
    FogQuarantineMonitor,
)
from repro.sim.cluster import build_cluster
from repro.simnet.engine import EventEngine
from tests.helpers import make_config

pytestmark = pytest.mark.fed


def small_fed_spec(**overrides):
    params = dict(
        cluster_count=2,
        nodes_per_cluster=2,
        config=make_config(),
        seed=5,
        duration_minutes=4.0,
    )
    params.update(overrides)
    return FederationSpec(**params)


@pytest.fixture(scope="module")
def fed_runtime():
    """A built (not run) federation; read-only tests share it."""
    return build_federation_runtime(small_fed_spec())


class TestAttestation:
    def test_built_summary_verifies(self, fed_runtime):
        fog = fed_runtime.fog
        summary = fog.build_summary(0, 1, 0.0)
        assert summary.attestation_hex
        assert fog.summary_attested(summary)

    def test_tampered_body_fails(self, fed_runtime):
        fog = fed_runtime.fog
        summary = fog.build_summary(0, 2, 0.0)
        for tampered in (
            replace(summary, height=summary.height + 50),
            replace(summary, chain_digest="f" * 32),
            replace(summary, checkpoint_digest="f" * 64),
            replace(summary, version=summary.version + 1),
        ):
            assert not fog.summary_attested(tampered)

    def test_substituted_attestor_key_fails(self, fed_runtime):
        """A forger signing with its own key can't impersonate the gateway."""
        fog = fed_runtime.fog
        summary = fog.build_summary(0, 3, 0.0)
        imposter = Account.for_node(simulation_seed=999, node_id=7)
        forged = replace(
            summary,
            attestor_public_key_hex=imposter.public_key.hex(),
            attestation_hex=imposter.sign(summary.attestation_payload()).hex(),
        )
        assert not fog.summary_attested(forged)

    def test_missing_or_garbage_attestation_fails(self, fed_runtime):
        fog = fed_runtime.fog
        summary = fog.build_summary(0, 4, 0.0)
        assert not fog.summary_attested(replace(summary, attestation_hex=""))
        assert not fog.summary_attested(
            replace(summary, attestation_hex="zz-not-hex")
        )


class TestFogAdmission:
    def test_heavy_reasons_quarantine_at_two(self):
        ledger = fog_ledger()
        assert not ledger.charge(0, FOG_BAD_ATTESTATION, 1.0)
        assert ledger.charge(0, FOG_BAD_ATTESTATION, 2.0)
        assert ledger.is_quarantined(0)
        assert ledger.quarantined_at[0] == 2.0

    def test_stale_charges_accrue_slowly(self):
        ledger = fog_ledger()
        for _ in range(3):
            assert not ledger.charge(1, FOG_STALE_HOME, 0.0)
        assert ledger.charge(1, FOG_STALE_HOME, 10.0)

    def test_charges_after_quarantine_do_not_requarantine(self):
        ledger = fog_ledger()
        ledger.charge(0, FOG_BAD_ATTESTATION, 1.0)
        ledger.charge(0, FOG_BAD_ATTESTATION, 2.0)
        assert not ledger.charge(0, FOG_BAD_ATTESTATION, 3.0)
        assert ledger.quarantined_at[0] == 2.0

    def test_snapshot_shape(self):
        ledger = fog_ledger()
        ledger.charge(0, FOG_BAD_ATTESTATION, 1.0)
        snap = ledger.snapshot()
        assert snap["rejections"] == {FOG_BAD_ATTESTATION: 1}
        assert snap["scores"] == {"0": 4.0}
        assert snap["quarantined"] == []


class TestSpecValidation:
    def test_super_peer_count_must_be_positive(self):
        with pytest.raises(FederationSpecError):
            small_fed_spec(super_peer_count=0)

    def test_typed_error_is_a_value_error(self):
        """Old `except ValueError` call sites (the CLI) keep working."""
        assert issubclass(FederationSpecError, ValueError)
        with pytest.raises(ValueError):
            small_fed_spec(super_peer_count=-1)

    def test_fog_peer_class_ids_validated(self):
        with pytest.raises(FederationSpecError):
            small_fed_spec(fog_peer_classes={5: object})


class TestQuarantineFailover:
    @pytest.fixture()
    def runtime(self):
        """A private runtime — these tests mutate fog state."""
        return build_federation_runtime(small_fed_spec(seed=9))

    def test_quarantine_rehomes_to_deterministic_sibling(self, runtime):
        fog = runtime.fog
        fog.start()
        assert fog.home_of == {0: 0, 1: 1}
        fog.charge(0, FOG_BAD_ATTESTATION)
        fog.charge(0, FOG_BAD_ATTESTATION)
        assert fog.admission.is_quarantined(0)
        assert fog.home_of[0] == 1
        assert fog.rehomed == {0: 1}
        assert 0 in fog.peers[1].home_clusters
        assert fog.peers[0].home_clusters == []
        assert fog.counters.quarantines == 1
        assert fog.counters.rehomed_clusters == 1
        # The new home rebuilt the entry immediately, at a version past
        # anything it had seen, so its copy wins the monotone merge.
        entry = fog.peers[1].replica.entries[0]
        assert entry.version > 0
        assert fog.summary_attested(entry)

    def test_staleness_skips_quarantined_replicas(self, runtime):
        fog = runtime.fog
        fog.start()
        fog.charge(0, FOG_BAD_ATTESTATION)
        fog.charge(0, FOG_BAD_ATTESTATION)
        # Peer 0's frozen replica must not feed the staleness monitor.
        assert fog.directory_staleness(1e6) == (
            fog.peers[1].replica.staleness(1e6, 2)
        )

    def test_staleness_defaults_to_zero_with_no_active_peers(self, runtime):
        fog = runtime.fog
        fog.peers = []
        assert fog.directory_staleness(123.0) == 0.0


class _StubFog:
    """Just enough FogTier surface for driving CrossLookupDriver."""

    def __init__(self, engine, fallback_peer=None):
        self.engine = engine
        self.counters = FogCounters()
        self.lookup_attempts = 0
        self.fallback_attempts = 0
        self._fallback = fallback_peer
        self.peers = {} if fallback_peer is None else {
            fallback_peer.peer_id: fallback_peer
        }

    def lookup(self, origin_cluster, data_id, via_peer=None):
        if via_peer is None:
            self.lookup_attempts += 1
        else:
            self.fallback_attempts += 1
        return None

    def fallback_peer_for(self, origin_cluster):
        return self._fallback


class _StubPeer:
    peer_id = 1


class TestCrossLookupDriver:
    def test_retry_exhaustion_counts_exactly_one_failure(self):
        engine = EventEngine(seed=0)
        fog = _StubFog(engine)
        driver = CrossLookupDriver(fog)
        driver.schedule(0, "missing-id", 1.0, migrate=False)
        engine.run_until(1.0 + LOOKUP_RETRY_SECONDS * (LOOKUP_MAX_RETRIES + 2))
        assert fog.lookup_attempts == LOOKUP_MAX_RETRIES + 1
        assert fog.counters.lookups_failed == 1
        assert fog.counters.lookups_ok == 0
        assert fog.counters.lookup_fallbacks == 0

    def test_fallback_budget_then_exactly_one_failure(self):
        engine = EventEngine(seed=0)
        fog = _StubFog(engine, fallback_peer=_StubPeer())
        driver = CrossLookupDriver(fog)
        driver.schedule(0, "missing-id", 1.0, migrate=False)
        # Primary retries plus the jittered fallback budget (≤ 1.5×retry
        # interval per attempt) all land well inside this horizon.
        engine.run_until(
            LOOKUP_RETRY_SECONDS
            * (LOOKUP_MAX_RETRIES + LOOKUP_FALLBACK_RETRIES + 4)
            * 2
        )
        assert fog.lookup_attempts == LOOKUP_MAX_RETRIES + 1
        assert fog.fallback_attempts == LOOKUP_FALLBACK_RETRIES + 1
        assert fog.counters.lookup_fallbacks == 1
        assert fog.counters.lookups_failed == 1


class TestFogMonitors:
    def test_staleness_monitor_warn_critical_edges(self):
        monitor = DirectoryStalenessMonitor(30.0)  # warn > 90, critical > 300
        assert monitor.check({"t": 0.0, "fed_directory_staleness": 90.0}) == []
        warn = monitor.check({"t": 1.0, "fed_directory_staleness": 90.1})
        assert [e.severity for e in warn] == ["warning"]
        assert monitor.check({"t": 2.0, "fed_directory_staleness": 200.0}) == []
        crit = monitor.check({"t": 3.0, "fed_directory_staleness": 300.1})
        assert [e.severity for e in crit] == ["critical"]
        recovered = monitor.check({"t": 4.0, "fed_directory_staleness": 10.0})
        assert [e.severity for e in recovered] == ["info"]
        assert "recovered" in recovered[0].message

    def test_quarantine_monitor_warns_while_quarantined(self):
        monitor = FogQuarantineMonitor()
        assert monitor.check({"t": 0.0, "fed_fog_quarantined": 0}) == []
        events = monitor.check({"t": 1.0, "fed_fog_quarantined": 1})
        assert [e.severity for e in events] == ["warning"]
        assert monitor.check({"t": 2.0, "fed_fog_quarantined": 1}) == []

    def test_divergence_monitor_critical_and_recovery(self):
        monitor = DirectoryDivergenceMonitor()
        events = monitor.check({"t": 0.0, "fed_directory_divergence": 2})
        assert [e.severity for e in events] == ["critical"]
        recovered = monitor.check({"t": 1.0, "fed_directory_divergence": 0})
        assert [e.severity for e in recovered] == ["info"]

    def test_monitors_ignore_non_federated_samples(self):
        assert FogQuarantineMonitor().check({"t": 0.0}) == []
        assert DirectoryDivergenceMonitor().check({"t": 0.0}) == []


class TestForeignMetadataAdmission:
    @pytest.fixture()
    def item(self):
        account = Account.for_node(simulation_seed=77, node_id=3)
        return create_metadata(
            account=account,
            producer=3,
            sequence=0,
            created_at=0.0,
            valid_time_minutes=10.0,
        )

    def test_honest_item_admissible(self, item):
        assert foreign_metadata_admissible(item, now=1.0) is None

    def test_tampered_content_rejected(self, item):
        forged = replace(item, data_type="Forged/Tampered")
        assert foreign_metadata_admissible(forged, now=1.0) == FOREIGN_METADATA

    def test_forged_producer_address_rejected(self, item):
        forged = replace(item, producer_address="f0" * 20)
        assert foreign_metadata_admissible(forged, now=1.0) == FOREIGN_METADATA

    def test_garbage_key_rejected(self, item):
        forged = replace(item, producer_public_key_hex="zz-not-a-key")
        assert foreign_metadata_admissible(forged, now=1.0) == FOREIGN_METADATA

    def test_expired_item_rejected(self, item):
        assert (
            foreign_metadata_admissible(item, now=10.0 * 60.0 + 1.0)
            == FOREIGN_METADATA
        )

    def test_gateway_counts_rejected_migration(self, fast_config):
        cluster = build_cluster(2, fast_config, seed=3)
        gateway = cluster.nodes[min(cluster.node_ids)]
        foreign = Account.for_node(simulation_seed=88, node_id=9)
        honest = create_metadata(
            account=foreign, producer=9, sequence=0, created_at=0.0
        )
        assert gateway.adopt_foreign_metadata(honest) is not None
        forged = replace(
            create_metadata(
                account=foreign, producer=9, sequence=1, created_at=0.0
            ),
            data_type="Forged/Tampered",
        )
        assert gateway.adopt_foreign_metadata(forged) is None
        assert gateway.admission.rejections[FOREIGN_METADATA] == 1
        assert forged.data_id not in gateway.mempool
