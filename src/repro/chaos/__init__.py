"""Seeded adversarial chaos suite: Byzantine fault injection + verdicts.

The paper's fault model is crash/churn (Section IV-C/D); this package
injects the *Byzantine* faults an open edge deployment must also survive
— equivocating miners, forged blocks, poisoned sync responses, tampered
metadata, request floods — and checks that the admission-hardened
protocol (see :mod:`repro.core.admission` and DESIGN.md §11) holds its
safety and liveness invariants under them.

One threat model covers both run kinds: inside a single cluster the
adversaries are individual nodes; in a federation
(:mod:`repro.federation`) they are whole Byzantine clusters or
compromised fog super-peers, and the verdict adds the blast-radius and
fog containment sections (:mod:`repro.federation.chaos`).

* :mod:`repro.chaos.adversaries` — EdgeNode subclasses implementing each
  misbehavior, active inside a configured time window, runnable on both
  fabrics (simnet and live sockets);
* :mod:`repro.chaos.scenario` — the seeded :class:`ChaosSpec` describing
  one scenario (the single-cluster or federated run, the adversary
  overlay and its window, an optional partition/kill fault);
* :mod:`repro.chaos.runner` — drives a scenario through the simulator or
  the live harness (``repro chaos run [--clusters K]``);
* :mod:`repro.chaos.verdict` — the end-of-run safety/liveness verdict.
"""

from repro.chaos.adversaries import (
    ADVERSARY_TYPES,
    EquivocatorNode,
    FlooderNode,
    InvalidBlockSpammerNode,
    MetadataTampererNode,
    SyncPoisonerNode,
)
from repro.chaos.runner import ChaosRunResult, run_chaos
from repro.chaos.scenario import ChaosSpec, PartitionSpec, node_classes_for
from repro.chaos.verdict import CHAOS_VERDICT_SCHEMA, compute_verdict

__all__ = [
    "ADVERSARY_TYPES",
    "CHAOS_VERDICT_SCHEMA",
    "ChaosRunResult",
    "ChaosSpec",
    "EquivocatorNode",
    "FlooderNode",
    "InvalidBlockSpammerNode",
    "MetadataTampererNode",
    "PartitionSpec",
    "SyncPoisonerNode",
    "compute_verdict",
    "node_classes_for",
    "run_chaos",
]
