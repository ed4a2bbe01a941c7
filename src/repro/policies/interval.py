"""Interval-based re-placement backend (Olson et al. style).

Periodically re-derives the whole placement from live hot-page telemetry:
every interval it samples page access rates, ranks the sampled pages
globally, and re-places them -- hottest toward the fastest tier, coldest
out -- regardless of which task touches them.  Between intervals nothing
moves.

This is the classic reactive-reconfiguration design point: it chases
hotness with no model and no task attribution, so it adapts quickly but
spends migration bandwidth thrashing on skewed access mixes and ignores
barrier load balance entirely.
"""

from __future__ import annotations

import numpy as np

from repro.common import PAGE_SIZE, make_rng
from repro.policies.base import (
    drain_queue,
    make_batch,
    page_tiers,
    table_n_tiers,
)
from repro.sim.engine import EngineContext, PlacementPolicy
from repro.sim.pages import TieredPageTable

__all__ = ["IntervalReconfigPolicy"]


class IntervalReconfigPolicy(PlacementPolicy):
    """Periodic hotness-ranked re-placement from sampled telemetry."""

    name = "interval"

    def __init__(
        self,
        interval_s: float = 0.5,
        sample_pages: int = 4096,
        promote_per_interval: int = 1024,
        seed=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.sample_pages = sample_pages
        self.promote_per_interval = promote_per_interval
        self._rng = make_rng(seed)
        self._last_scan = -1e30
        self._queue: list[tuple[str, np.ndarray, int]] = []

    def on_region_start(self, ctx: EngineContext) -> None:
        self._queue = []
        self._last_scan = -1e30  # re-place immediately on the first tick

    # ------------------------------------------------------------------
    def _replan(self, ctx: EngineContext) -> None:
        table = ctx.page_table
        n = table_n_tiers(table)
        rates = ctx.page_access_rates()
        sample = table.sample_pages(self.sample_pages, rng=self._rng)
        names: list[str] = []
        pages: list[np.ndarray] = []
        heat: list[np.ndarray] = []
        current: list[np.ndarray] = []
        for name, idx in sample:
            idx = np.unique(idx)
            r = rates.get(name)
            if r is None:
                continue
            names.append(name)
            pages.append(idx)
            heat.append(r[idx])
            current.append(page_tiers(table, name)[idx])
        if not pages:
            return
        all_pages = np.concatenate(pages).astype(np.intp, copy=False)
        obj = np.repeat(np.arange(len(names)), [len(p) for p in pages])
        rank = np.argsort(-np.concatenate(heat), kind="stable")

        # capacity per tier for the sampled population: scale each tier's
        # page capacity by the sample's share of all pages, so the sampled
        # re-placement reproduces the full placement in expectation
        total_pages = table.total_pages
        frac = len(all_pages) / max(total_pages, 1)
        if isinstance(table, TieredPageTable):
            caps = [max(1, int(c * frac)) for c in table.tier_capacity_pages]
        else:
            dram_cap = table.dram_capacity_bytes // PAGE_SIZE
            caps = [max(1, int(dram_cap * frac)), len(all_pages)]
        # fill tiers in rank order: the j-th hottest page lands on the first
        # tier whose cumulative capacity exceeds j (the slowest takes the rest)
        tier = np.minimum(
            np.searchsorted(np.cumsum(caps), np.arange(len(rank)), side="right"),
            n - 1,
        )
        moving = np.concatenate(current)[rank] != tier
        obj, page, tier = obj[rank][moving], all_pages[rank][moving], tier[moving]
        self._queue = []
        if not len(obj):
            return
        # one queue entry per run of adjacent moves with the same (object, tier)
        starts = np.flatnonzero(
            np.r_[True, (obj[1:] != obj[:-1]) | (tier[1:] != tier[:-1])]
        )
        ends = np.r_[starts[1:], len(obj)]
        self._queue = [
            (names[obj[a]], page[a:b], int(tier[a])) for a, b in zip(starts, ends)
        ]

    def on_tick(self, ctx: EngineContext, dt: float):
        if ctx.time - self._last_scan >= self.interval_s:
            self._last_scan = ctx.time
            self._replan(ctx)
        if not self._queue:
            return None
        budget = min(self.promote_per_interval, ctx.migration_budget_pages)
        return make_batch(ctx.page_table, drain_queue(self._queue, budget))
