"""The page table's memoised bookkeeping always equals ground truth.

``PageTable`` memoises ``dram_used_bytes()``, ``access_fractions()`` and
``access_fraction_vectors()``, and each ``PagedObject`` caches its DRAM
pages and access fraction.
Residency changes only through ``set_pages``/``set_residency``, which drop
those caches; the residency arrays themselves are read-only.  These tests
recompute both quantities from the residency arrays around every engine
tick of every 2-tier policy -- with and without DRAM-pressure faults, and
across a journaled crash and rollback -- and require bit equality, not
closeness.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps import SpGEMMApp
from repro.baselines import MemoryModePolicy, MemoryOptimizerPolicy, PMOnlyPolicy
from repro.common import PAGE_SIZE
from repro.core import default_system
from repro.core.journal import SimulatedCrash, WriteAheadLog
from repro.sim import (
    Engine,
    FaultConfig,
    FaultInjector,
    MachineModel,
    optane_hm_config,
)
from repro.sim.pages import MigrationBatch, PagedObject, PageTable
from repro.tasks import DataObject

POLICIES = ("pm-only", "memory-mode", "memory-optimizer", "merchandiser")


@pytest.fixture(scope="module")
def system():
    return default_system(seed=0, fast=True)


@pytest.fixture(scope="module")
def app():
    return SpGEMMApp.small(seed=0)


@pytest.fixture(scope="module")
def workload(app):
    return app.build_workload(seed=0)


def _policy(name, system, app, workload):
    if name == "pm-only":
        return PMOnlyPolicy()
    if name == "memory-mode":
        return MemoryModePolicy()
    if name == "memory-optimizer":
        return MemoryOptimizerPolicy(seed=7)
    return system.policy(app.binding(workload), seed=5)


def _assert_memo_exact(table: PageTable) -> None:
    """Memo == from-scratch recomputation over the residency arrays."""
    fractions = {o.name: float(o.weight @ o.residency) for o in table}
    used = sum(float(o.residency.sum()) * PAGE_SIZE for o in table)
    assert table.access_fractions() == fractions
    assert table.access_fraction_vectors() == {
        name: (r, 1.0 - r) for name, r in fractions.items()
    }
    assert table.dram_used_bytes() == used
    for obj in table:
        assert obj.dram_pages() == float(obj.residency.sum())
        assert obj.dram_access_fraction() == fractions[obj.name]


def _checked(policy, ticks: list):
    """Check the memo before and after the policy's tick on this instance:
    before sees the previous tick's migrations and pressure evictions,
    after sees the policy's own direct writes (Memory Mode, staging)."""
    inner = policy.on_tick

    def on_tick(ctx, dt):
        _assert_memo_exact(ctx.page_table)
        batch = inner(ctx, dt)
        _assert_memo_exact(ctx.page_table)
        ticks.append(ctx.time)
        return batch

    policy.on_tick = on_tick
    return policy


def _engine(faults=None, journal=None):
    return Engine(MachineModel(), optane_hm_config(), faults=faults, journal=journal)


def _pressure():
    return FaultInjector(
        FaultConfig(dram_pressure_rate=0.3, dram_pressure_fraction=0.4), seed=9
    )


@pytest.mark.parametrize("pressure", [False, True], ids=["clean", "pressure"])
@pytest.mark.parametrize("name", POLICIES)
def test_memo_exact_after_every_tick(system, app, workload, name, pressure):
    ticks: list = []
    policy = _checked(_policy(name, system, app, workload), ticks)
    faults = _pressure() if pressure else None
    res = _engine(faults=faults).run(workload, policy, seed=1)
    assert len(ticks) == len(res.trace_time) > 0


@pytest.mark.parametrize("point", ["tick", "mid_batch"])
@pytest.mark.parametrize("name", POLICIES)
def test_memo_exact_across_crash_and_rollback(system, app, workload, name, point):
    ticks: list = []
    faults = FaultInjector(FaultConfig(crash_at=2, crash_point=point), seed=7)
    policy = _checked(_policy(name, system, app, workload), ticks)
    try:
        _engine(faults=faults, journal=WriteAheadLog()).run(workload, policy, seed=1)
    except SimulatedCrash as crash:
        image = crash.image
    else:
        # PM-only and Memory Mode never issue a batch to crash in
        assert point == "mid_batch" and name in ("pm-only", "memory-mode")
        return
    _assert_memo_exact(image.page_table)
    recovered = _checked(_policy(name, system, app, workload), ticks)
    result, outcome = _engine(journal=image.journal).recover(
        workload, recovered, image, seed=1
    )
    assert outcome.violations == []
    assert result.robustness.count("journal.invariant_violation") == 0
    _assert_memo_exact(image.page_table)


def _table() -> PageTable:
    objects = [DataObject(f"o{i}", 8 * PAGE_SIZE, hotness="zipf") for i in range(3)]
    return PageTable(objects, 12 * PAGE_SIZE, rng=0)


def test_in_place_writes_raise():
    t = _table()
    obj = t.object("o0")
    for arr in (obj.residency, obj.weight, t.residency_arena, t.weight_arena):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(ValueError):
        np.clip(obj.residency, 0.0, 0.5, out=obj.residency)
    with pytest.raises(ValueError):
        PagedObject(DataObject("a", 4 * PAGE_SIZE)).residency[:] = 1.0
    assert t.dram_used_bytes() == 0.0


def test_mutators_refresh_the_memo():
    t = _table()
    _assert_memo_exact(t)
    t.object("o1").set_pages(np.array([0, 3]), 1.0)
    _assert_memo_exact(t)
    t.object("o2").set_residency(0.25)
    _assert_memo_exact(t)
    moved = t.apply_batch(
        MigrationBatch(moves=(("o2", np.arange(8), True), ("o1", np.array([0]), False)))
    )
    assert moved == 9
    _assert_memo_exact(t)
    with pytest.raises(ValueError):
        t.object("o0").set_residency(2.0)  # written, then rejected
    _assert_memo_exact(t)


def test_access_fractions_hands_out_copies():
    t = _table()
    t.object("o0").set_pages(slice(0, 4), 1.0)
    first = t.access_fractions()
    first["o0"] = -1.0
    del first["o1"]
    vectors = t.access_fraction_vectors()
    vectors["o0"] = (-1.0, 2.0)
    del vectors["o1"]
    _assert_memo_exact(t)


def test_pickle_round_trip_keeps_a_valid_memo():
    t = _table()
    t.object("o0").set_pages(slice(0, 5), 1.0)
    want = (t.access_fractions(), t.dram_used_bytes())  # memo populated
    clone = pickle.loads(pickle.dumps(t))
    assert (clone.access_fractions(), clone.dram_used_bytes()) == want
    _assert_memo_exact(clone)
    for obj in clone:
        assert obj.residency.base is clone.residency_arena
        assert obj.weight.base is clone.weight_arena
        with pytest.raises(ValueError):
            obj.residency[0] = 1.0
    # the clone's objects invalidate the clone's memo, not the original's
    clone.object("o1").set_pages(0, 1.0)
    _assert_memo_exact(clone)
    assert clone.dram_used_bytes() == want[1] + PAGE_SIZE
    assert (t.access_fractions(), t.dram_used_bytes()) == want
    _assert_memo_exact(t)


def test_standalone_object_survives_pickle():
    obj = PagedObject(DataObject("a", 4 * PAGE_SIZE))
    obj.set_pages(1, 1.0)
    assert obj.dram_pages() == 1.0
    clone = pickle.loads(pickle.dumps(obj))
    clone.set_pages(2, 1.0)
    assert clone.dram_pages() == float(clone.residency.sum()) == 2.0
    assert obj.dram_pages() == 1.0
