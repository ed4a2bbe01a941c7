"""The interval backend's re-placement queue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import PAGE_SIZE, make_rng
from repro.policies.base import page_tiers
from repro.policies.interval import IntervalReconfigPolicy
from repro.sim.pages import PageTable, TieredPageTable
from repro.tasks import DataObject


class _Ctx:
    """The two things ``_replan`` reads off the engine context."""

    def __init__(self, table, rates):
        self.page_table = table
        self._rates = rates

    def page_access_rates(self):
        return self._rates


def _table(kind: str):
    objects = [
        DataObject(f"o{i}", (40 + 7 * i) * PAGE_SIZE, hotness="zipf" if i % 2 else "uniform")
        for i in range(6)
    ]
    if kind == "2tier":
        table = PageTable(objects, 60 * PAGE_SIZE, rng=3)
        for j, obj in enumerate(table):
            obj.set_pages(np.arange(j, obj.n_pages, 3), 1.0)
        return table
    caps = tuple(c * PAGE_SIZE for c in (40, 80, 1000))
    return TieredPageTable(objects, caps, rng=3)


def _rates(table, seed: int):
    rng = make_rng(seed)
    # few distinct rate levels, so heat ties and long same-object runs occur
    return {
        o.name: np.floor(rng.uniform(0, 4, o.n_pages)) * (1 + i)
        for i, o in enumerate(table)
    }


def _reference_queue(table, rates, sample):
    """The per-page loop the queue builder must agree with: walk the
    sampled pages hottest first, fill tiers in order, queue every page not
    already on its target tier and merge adjacent same-(object, tier)
    moves."""
    names, pages, heat = [], [], []
    for name, idx in sample:
        idx = np.unique(idx)
        names.extend([name] * len(idx))
        pages.append(idx)
        heat.append(rates[name][idx])
    all_pages = np.concatenate(pages)
    rank = np.argsort(-np.concatenate(heat), kind="stable")
    frac = len(all_pages) / table.total_pages
    if isinstance(table, TieredPageTable):
        caps = [max(1, int(c * frac)) for c in table.tier_capacity_pages]
    else:
        caps = [max(1, int(table.dram_capacity_bytes // PAGE_SIZE * frac)), len(all_pages)]
    queue = []
    tier, left = 0, caps[0]
    for i in rank:
        while left <= 0 and tier < len(caps) - 1:
            tier += 1
            left = caps[tier]
        left -= 1
        name, page = names[i], int(all_pages[i])
        if page_tiers(table, name)[page] == tier:
            continue
        if queue and queue[-1][0] == name and queue[-1][2] == tier:
            queue[-1][1].append(page)
        else:
            queue.append((name, [page], tier))
    return queue


@pytest.mark.parametrize("kind", ["2tier", "3tier"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replan_queue_is_coalesced_in_rank_order(kind, seed):
    table = _table(kind)
    rates = _rates(table, seed)
    policy = IntervalReconfigPolicy(sample_pages=200, seed=seed)
    policy._replan(_Ctx(table, rates))
    queue = policy._queue
    assert queue
    # no two adjacent entries share (object, tier)
    for (n1, _, t1), (n2, _, t2) in zip(queue, queue[1:]):
        assert (n1, t1) != (n2, t2)
    # pages keep rank order: heat never rises along the queue
    heat = np.concatenate([rates[name][idx] for name, idx, _ in queue])
    assert (np.diff(heat) <= 0).all()
    for name, idx, dst in queue:
        assert idx.dtype == np.intp
        assert (page_tiers(table, name)[idx] != dst).all()
    # and the queue is exactly the per-page reference
    sample = table.sample_pages(200, rng=make_rng(seed))
    want = _reference_queue(table, rates, sample)
    got = [(name, idx.tolist(), dst) for name, idx, dst in queue]
    assert got == want


def test_replan_with_nothing_to_move_leaves_an_empty_queue():
    table = TieredPageTable(
        [DataObject("a", 4 * PAGE_SIZE)], (8 * PAGE_SIZE, 8 * PAGE_SIZE), rng=0
    )
    # every page already sits on the fastest tier, where the fill puts it
    table.object("a").tier_residency[:, :] = 0.0
    table.object("a").tier_residency[0, :] = 1.0
    policy = IntervalReconfigPolicy(sample_pages=64, seed=0)
    policy._replan(_Ctx(table, {"a": np.ones(4)}))
    assert policy._queue == []
