"""Unit tests for typed admission control (repro.core.admission)."""

import dataclasses
import json
import math

import pytest

from repro.core.account import Account
from repro.core.admission import (
    BAD_HASH,
    BAD_INDEX,
    BAD_MINER,
    BAD_POS,
    BAD_PRODUCER,
    BAD_SIGNATURE,
    CHECKPOINT_REWRITE,
    EQUIVOCATION,
    FLOOD,
    INVALID,
    MALFORMED,
    REASON_WEIGHTS,
    AdmissionControl,
    EquivocationTracker,
    MisbehaviorLedger,
    RateLimiter,
    block_admissible,
    classify_rejection,
    metadata_admissible,
)
from repro.core.block import Block
from repro.core.errors import (
    ChainLinkError,
    CheckpointError,
    ConsensusError,
    SerializationError,
    ValidationError,
)
from repro.core.metadata import create_metadata
from repro.federation.fog import (
    FOG_BAD_ATTESTATION,
    FOG_QUARANTINE_THRESHOLD,
    FOG_REASON_WEIGHTS,
    FOG_STALE_HOME,
    fog_ledger,
)
from repro.obs import disable, enable


@pytest.fixture
def accounts():
    return {i: Account.for_node(3, i) for i in range(4)}


@pytest.fixture
def address_of(accounts):
    return {i: a.address for i, a in accounts.items()}


def _block(accounts, miner=1, index=5, **overrides):
    fields = dict(
        index=index,
        timestamp=100.0,
        previous_hash="aa" * 32,
        pos_hash="bb" * 32,
        miner=miner,
        miner_address=accounts[miner].address,
        hit=7,
        target_b=1.0,
    )
    fields.update(overrides)
    return Block(**fields)


class TestClassifyRejection:
    def test_typed_errors_map_to_stable_reasons(self):
        assert classify_rejection(CheckpointError("x")) == CHECKPOINT_REWRITE
        assert classify_rejection(ChainLinkError("x")) == "bad_linkage"
        assert classify_rejection(ConsensusError("x")) == BAD_POS
        assert classify_rejection(SerializationError("x")) == MALFORMED
        assert classify_rejection(ValidationError("x")) == INVALID

    def test_every_reason_has_a_weight(self):
        for error in (
            CheckpointError("x"),
            ChainLinkError("x"),
            ConsensusError("x"),
            SerializationError("x"),
            ValidationError("x"),
        ):
            assert classify_rejection(error) in REASON_WEIGHTS


class TestBlockAdmissible:
    def test_honest_block_passes(self, accounts, address_of):
        assert block_admissible(_block(accounts), address_of) is None

    def test_genesis_index_rejected(self, accounts, address_of):
        block = _block(accounts, index=0, miner=1)
        assert block_admissible(block, address_of) == BAD_INDEX

    def test_unknown_miner_rejected(self, accounts, address_of):
        block = _block(accounts)
        block = dataclasses.replace(block, miner=99, current_hash="")
        assert block_admissible(block, address_of) == BAD_MINER

    def test_forged_miner_address_rejected(self, accounts, address_of):
        block = _block(accounts, miner=1)
        forged = dataclasses.replace(
            block, miner_address=accounts[2].address, current_hash=""
        )
        assert block_admissible(forged, address_of) == BAD_MINER

    def test_garbage_content_hash_rejected(self, accounts, address_of):
        block = dataclasses.replace(_block(accounts), current_hash="00" * 32)
        assert block_admissible(block, address_of) == BAD_HASH


class TestMetadataAdmissible:
    def test_honest_item_passes(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        assert metadata_admissible(item, address_of) is None
        assert (
            metadata_admissible(item, address_of, verify_signature=True) is None
        )

    def test_forged_producer_address_rejected(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        forged = dataclasses.replace(item, producer_address="f0" * 20)
        assert metadata_admissible(forged, address_of) == BAD_PRODUCER

    def test_tampered_field_breaks_signature(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        tampered = dataclasses.replace(item, data_type="Forged/Tampered")
        # Without signature checking the tamper is invisible...
        assert metadata_admissible(tampered, address_of) is None
        # ...with it, the producer's ECDSA signature no longer verifies.
        assert (
            metadata_admissible(tampered, address_of, verify_signature=True)
            == BAD_SIGNATURE
        )

    def test_signature_cache_is_filled_and_reused(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        cache = {}
        assert (
            metadata_admissible(
                item, address_of, verify_signature=True, signature_cache=cache
            )
            is None
        )
        key = (item.signing_payload(), item.signature_hex)
        assert cache[key] is True
        # Poison the cache: the memoised answer is trusted over re-verifying.
        cache[key] = False
        assert (
            metadata_admissible(
                item, address_of, verify_signature=True, signature_cache=cache
            )
            == BAD_SIGNATURE
        )


class TestEquivocationTracker:
    def test_two_distinct_blocks_same_height_same_miner(self, accounts):
        tracker = EquivocationTracker()
        first = _block(accounts, index=5)
        twin = dataclasses.replace(
            first, timestamp=first.timestamp + 1.0, current_hash=""
        )
        assert tracker.observe(first, tip_index=5) is False
        assert tracker.observe(twin, tip_index=5) is True

    def test_duplicate_announce_is_not_equivocation(self, accounts):
        tracker = EquivocationTracker()
        block = _block(accounts, index=5)
        assert tracker.observe(block, tip_index=5) is False
        assert tracker.observe(block, tip_index=5) is False

    def test_different_miners_do_not_equivocate(self, accounts):
        tracker = EquivocationTracker()
        assert tracker.observe(_block(accounts, miner=1), tip_index=5) is False
        assert tracker.observe(_block(accounts, miner=2), tip_index=5) is False

    def test_stale_heights_outside_window_ignored(self, accounts):
        # A crash-restarted node re-mining low heights must not be flagged.
        tracker = EquivocationTracker(window=4)
        old = _block(accounts, index=2)
        twin = dataclasses.replace(old, timestamp=999.0, current_hash="")
        assert tracker.observe(old, tip_index=10) is False
        assert tracker.observe(twin, tip_index=10) is False

    def test_seen_map_is_pruned_as_tip_advances(self, accounts):
        tracker = EquivocationTracker(window=4)
        tracker.observe(_block(accounts, index=2), tip_index=4)
        assert (2, 1) in tracker.seen
        tracker.observe(_block(accounts, index=20), tip_index=20)
        assert (2, 1) not in tracker.seen


class TestRateLimiter:
    def test_allows_up_to_limit_within_window(self):
        limiter = RateLimiter(window=60.0, limit=3)
        assert [limiter.allow(7, t) for t in (0.0, 1.0, 2.0, 3.0)] == [
            True,
            True,
            True,
            False,
        ]

    def test_budget_refills_as_window_slides(self):
        limiter = RateLimiter(window=60.0, limit=2)
        assert limiter.allow(7, 0.0)
        assert limiter.allow(7, 10.0)
        assert not limiter.allow(7, 50.0)
        assert limiter.allow(7, 61.0)  # the t=0 event aged out

    def test_budgets_are_per_key(self):
        limiter = RateLimiter(window=60.0, limit=1)
        assert limiter.allow(1, 0.0)
        assert limiter.allow(2, 0.0)
        assert not limiter.allow(1, 1.0)


#: The two users of the one misbehavior ledger: an edge node's admission
#: control and the fog tier's super-peer ledger.  Each keeps its own
#: weight table, threshold, obs counter names and snapshot shape.
LEDGER_SIDES = {
    "node": dict(
        make=AdmissionControl,
        weights=REASON_WEIGHTS,
        threshold=8.0,
        heavy=BAD_HASH,
        light=FLOOD,
        counter="chaos.rejections",
        quarantine_counter="chaos.quarantined",
        snapshot_charges=((2, EQUIVOCATION), (9, FLOOD)),
        snapshot=(
            '{"rejections": {"equivocation": 1, "flood": 1}, '
            '"total_rejections": 2, "scores": {"2": 10.0, "9": 1.0}, '
            '"quarantined": [2]}'
        ),
    ),
    "fog": dict(
        make=fog_ledger,
        weights=FOG_REASON_WEIGHTS,
        threshold=FOG_QUARANTINE_THRESHOLD,
        heavy=FOG_BAD_ATTESTATION,
        light=FOG_STALE_HOME,
        counter="fog.charges",
        quarantine_counter="fog.quarantined",
        snapshot_charges=(
            (0, FOG_BAD_ATTESTATION),
            (0, FOG_BAD_ATTESTATION),
            (1, FOG_STALE_HOME),
        ),
        snapshot=(
            '{"rejections": {"bad_attestation": 2, "stale_home": 1}, '
            '"scores": {"0": 8.0, "1": 2.0}, "quarantined": [0], '
            '"quarantined_at": {"0": 2.0}}'
        ),
    ),
}


class TestAdmissionControl:
    """The misbehavior ledger, checked on each side that uses it."""

    def test_each_side_keeps_its_weights_and_threshold(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            assert isinstance(ledger, MisbehaviorLedger), name
            assert ledger.weights is side["weights"], name
            assert ledger.quarantine_threshold == side["threshold"], name

    def test_rejections_counted_by_reason(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            ledger.charge(3, side["heavy"], 1.0)
            ledger.charge(3, side["heavy"], 1.0)
            ledger.charge(4, side["light"], 1.0)
            assert ledger.rejections == {side["heavy"]: 2, side["light"]: 1}, name
            assert ledger.total_rejections == 3, name

    def test_scores_accumulate_to_quarantine(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            assert ledger.charge(3, side["heavy"], 1.0) is False, name  # score 4
            assert ledger.charge(3, side["heavy"], 2.0) is True, name  # 8: quarantined
            assert ledger.is_quarantined(3), name
            # Already quarantined: further charges score but do not
            # re-announce, and the quarantine time stays the first one.
            assert ledger.charge(3, side["heavy"], 3.0) is False, name
            assert ledger.scores == {3: 12.0}, name
            assert ledger.quarantined_at == {3: 2.0}, name

    def test_equivocation_quarantines_immediately(self):
        control = AdmissionControl(quarantine_threshold=8.0)
        assert control.charge(5, EQUIVOCATION) is True

    def test_floods_need_a_sustained_storm(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            needed = math.ceil(side["threshold"] / side["weights"][side["light"]])
            flags = [ledger.charge(6, side["light"], 0.0) for _ in range(needed)]
            assert needed > 2, name
            assert flags == [False] * (needed - 1) + [True], name

    def test_quarantine_without_a_clock_is_untimed(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            ledger.charge(0, side["heavy"])
            assert ledger.charge(0, side["heavy"]), name
            assert ledger.quarantined == {0}, name
            assert ledger.quarantined_at == {}, name

    def test_unattributed_rejection_charges_nobody(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            assert ledger.charge(None, side["heavy"]) is False, name
            assert ledger.charge(-1, side["heavy"]) is False, name
            assert ledger.rejections == {side["heavy"]: 2}, name
            assert ledger.scores == {}, name
            assert ledger.quarantined == set(), name

    def test_permitted_filters_quarantined_peers(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            ledger.charge(2, side["heavy"], 0.0)
            ledger.charge(2, side["heavy"], 0.0)
            assert ledger.permitted([1, 2, 3]) == [1, 3], name

    def test_snapshot_is_json_ready(self):
        for name, side in LEDGER_SIDES.items():
            ledger = side["make"]()
            for when, (peer, reason) in enumerate(side["snapshot_charges"], 1):
                ledger.charge(peer, reason, float(when))
            assert json.dumps(ledger.snapshot()) == side["snapshot"], name

    def test_obs_counter_names(self):
        for name, side in LEDGER_SIDES.items():
            session = enable()
            try:
                ledger = side["make"]()
                ledger.charge(0, side["heavy"], 1.0)
                ledger.charge(0, side["heavy"], 2.0)
                metrics = session.metrics
                counter = side["counter"]
                assert metrics.counter(counter).value == 2, name
                assert metrics.counter(f"{counter}.{side['heavy']}").value == 2, name
                assert metrics.counter(side["quarantine_counter"]).value == 1, name
            finally:
                disable()
