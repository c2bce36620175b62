"""Per-layer instrumentation applied from outside the program.

:func:`install` wraps public functions and methods of the program's
layers in place (and every module-level alias of them), so the program
itself is untouched.  Two modes:

* ``count`` wraps only coarse operations (keygen, signing, verification,
  placement, block consideration, journal records, snapshots, summary
  attestation) with a call counter and no clock reads.  These counts are
  deterministic work counters and ride along on every timed cell.
* ``trace`` wraps every layer boundary below with a span: a call count
  and a self time (the span's duration minus the time its nested child
  spans cover).  Spans are aggregated in memory per layer and written
  out when the cell ends.

A call made while another call of the same layer is open (for example
``consider_chain`` calling ``consider_block``) adds to that layer's self
time but not to its call count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: (layer, "module:qualname", counted in count mode)
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("crypto.keygen", "repro.crypto.keys:generate_keypair", True),
    ("crypto.sign", "repro.crypto.signature:sign", True),
    ("crypto.verify", "repro.crypto.signature:verify", True),
    ("crypto.hash", "repro.crypto.hashing:hash_items", False),
    ("crypto.hash", "repro.crypto.hashing:sha256", False),
    ("facility.place", "repro.core.allocation:AllocationEngine.place_item", True),
    ("chain.consider", "repro.core.blockchain:Blockchain.consider_block", True),
    ("chain.consider", "repro.core.blockchain:Blockchain.consider_chain", True),
    ("chain.validate", "repro.core.blockchain:Blockchain.validate_child", False),
    ("pos.amendment", "repro.core.blockchain:ChainState.amendment", False),
    ("simnet.route", "repro.simnet.topology:Topology.shortest_path", False),
    ("simnet.hop_matrix", "repro.simnet.topology:Topology.hop_matrix", False),
    ("simnet.mobility", "repro.sim.cluster:EdgeCluster.advance_mobility_epoch", False),
    ("sim.build_cluster", "repro.sim.cluster:build_cluster", False),
    ("sim.workload", "repro.sim.runner:attach_workload", False),
    ("metrics.collect", "repro.sim.runner:collect_metrics", False),
    ("persist.journal", "repro.persist.journal:RunJournal.append", True),
    ("persist.store", "repro.persist.chainstore:ChainStore.put_block", False),
    ("persist.snapshot", "repro.persist.snapshot:write_snapshot", True),
    ("lifecycle.prune", "repro.core.blockchain:Blockchain.prune_to", False),
    ("lifecycle.compact", "repro.persist.chainstore:ChainStore.compact", False),
    ("fog.attest", "repro.federation.fog:FogTier.summary_attested", True),
    ("fog.summary_build", "repro.federation.fog:FogTier.build_summary", False),
)

#: Layers whose call counts are deterministic work counters on every cell.
COUNTED = frozenset(layer for layer, _, counted in TARGETS if counted)

#: Message categories whose deliveries are timed as their own layer; any
#: other delivery is the edge node's protocol handler.
DELIVERY_LAYERS = {"raft": "raft.handle", "swim": "membership.handle"}
NODE_DELIVERY_LAYER = "node.handle"

#: Modules the targets live in; importing them up front lets the parent
#: pay import cost once and lets :func:`install` find every alias.
MODULES = sorted(
    {target.split(":")[0] for _, target, _ in TARGETS}
    | {
        "repro.federation.runner",
        "repro.federation.runtime",
        "repro.persist.resume",
        "repro.raft.node",
        "repro.membership.node",
        "repro.simnet.transport",
    }
)


class Probe:
    """Counts (and in trace mode, times) calls into the wrapped layers."""

    def __init__(self, trace: bool):
        self.trace = trace
        #: layer → [calls, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Open spans: [layer, start, seconds covered by child spans].
        self._stack: List[List[Any]] = []
        #: Open calls per layer; only a layer's outermost call is counted.
        self._depth: Dict[str, int] = {}

    def counts(self) -> Dict[str, int]:
        return {layer: int(entry[0]) for layer, entry in sorted(self.stats.items())}

    def self_seconds(self) -> Dict[str, float]:
        return {layer: entry[1] for layer, entry in sorted(self.stats.items())}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(layer, [0, 0.0])
        depth = self._depth
        depth.setdefault(layer, 0)
        if not self.trace:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if depth[layer] == 0:
                    stats[0] += 1
                depth[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[layer] -= 1

            return counted

        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[layer] == 0:
                stats[0] += 1
            depth[layer] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                depth[layer] -= 1
                stats[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced


class _Delivery:
    """A network handler wrapped so each delivery is a span of its layer."""

    def __init__(self, probe: Probe, handler: Callable):
        self.handler = handler
        self.spans = {
            category: probe.wrap(layer, handler)
            for category, layer in DELIVERY_LAYERS.items()
        }
        self.default = probe.wrap(NODE_DELIVERY_LAYER, handler)

    def __call__(self, source: int, payload: Any, category: str) -> None:
        self.spans.get(category, self.default)(source, payload, category)

    def __reduce__(self):
        # Snapshots pickle the network's handler table: store the plain
        # bound method, never the probe.
        return (getattr, (self.handler.__self__, self.handler.__name__))


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module-level alias of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(probe: Probe) -> None:
    """Wrap this process's program layers for ``probe`` (once per cell)."""
    for layer, target, counted in TARGETS:
        if not (counted or probe.trace):
            continue
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            setattr(owner, attr, probe.wrap(layer, vars(owner)[attr]))
        else:
            original = getattr(module, qualname)
            _rebind(original, probe.wrap(layer, original))
    if probe.trace:
        from repro.simnet.transport import Network

        register = Network.register

        @functools.wraps(register)
        def register_traced(self, node, handler):
            return register(self, node, _Delivery(probe, handler))

        Network.register = register_traced
