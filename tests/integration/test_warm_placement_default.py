"""Default runs place through the warm UFL solver.

``placement_solver="greedy"`` — the default, and what ``repro run`` uses
without ``--solver`` — must run the cluster allocator's
:class:`~repro.facility.incremental.IncrementalUFLSolver`, not a cold
:func:`~repro.facility.greedy.solve_greedy` per item.  The retired
spelling ``"incremental"`` names the same configuration.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.allocation import AllocationEngine
from repro.core.config import SystemConfig
from repro.sim.runner import ExperimentSpec, run_experiment

pytestmark = pytest.mark.fastpath


def _warm_work(allocator: AllocationEngine) -> int:
    solver = allocator.warm_solver
    return solver.fast_solves + solver.reuse_hits


def test_retired_incremental_spelling_is_the_default_config():
    assert SystemConfig(placement_solver="incremental") == SystemConfig()
    assert SystemConfig(placement_solver="incremental").placement_solver == "greedy"


def test_default_config_run_places_through_the_warm_solver():
    spec = ExperimentSpec(
        node_count=6,
        config=SystemConfig(data_items_per_minute=2.0),
        seed=7,
        duration_minutes=5.0,
    )
    result = run_experiment(spec)
    assert _warm_work(result.cluster.allocator) > 0


def test_cli_run_without_solver_places_through_the_warm_solver(
    monkeypatch, capsys
):
    allocators = []
    build = AllocationEngine.__init__

    def capture(self, *args, **kwargs):
        build(self, *args, **kwargs)
        allocators.append(self)

    monkeypatch.setattr(AllocationEngine, "__init__", capture)
    argv = ["run", "--nodes", "6", "--minutes", "5", "--rate", "2", "--seed", "7"]
    assert main(argv) == 0
    capsys.readouterr()
    assert allocators
    assert sum(_warm_work(allocator) for allocator in allocators) > 0
