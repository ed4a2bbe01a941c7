"""Per-layer span recording from outside the program.

:class:`LayerTracer` wraps the public functions of each layer of
``repro`` (listed in :data:`LAYERS`) with an in-memory span recorder.  It
patches the attribute where a function is defined *and* every loaded
``repro`` module that imported it by name (``greedy_plan`` is bound in
``repro.service.scheduler`` and ``repro.core.runtime``, for example), so
no call escapes the wrapper.  :meth:`LayerTracer.uninstall` puts every
original back, so untraced and traced passes run in one process.

Each call records one span: name, start, end and the index of the
enclosing wrapped span.  A layer's self time is its span minus the spans
of the wrapped functions it called.  Spans stay in memory until
:meth:`LayerTracer.write`.  Times are host seconds of
:func:`meter.host_clock`, so the speed probes that end measured segments
never count towards a layer; unlike the end-to-end seconds they are not
speed-corrected.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path

from meter import host_clock


def _frame_bytes(args, result) -> int:
    return len(result)


def _buffer_bytes(args, result) -> int:
    return len(args[0])


def _wal_entry_bytes(args, result) -> int:
    return len(args[0].entries[-1])


#: (metric prefix, module, attribute path, byte counter or None).  The
#: attribute path is ``function`` or ``Class.method``.
LAYERS: tuple[tuple[str, str, str, object], ...] = (
    # simulator: 2-tier page table, engine context, kernels, caches
    ("sim.pages.build", "repro.sim.pages", "PageTable.__init__", None),
    ("sim.pages.access_fractions", "repro.sim.pages", "PageTable.access_fractions", None),
    ("sim.pages.dram_free_pages", "repro.sim.pages", "PageTable.dram_free_pages", None),
    ("sim.pages.apply_batch", "repro.sim.pages", "PageTable.apply_batch", None),
    ("sim.pages.sample_pages", "repro.sim.pages", "PageTable.sample_pages", None),
    ("sim.pages.tiered_apply_batch", "repro.sim.pages", "TieredPageTable.apply_batch", None),
    ("sim.pages.tiered_access_fraction_vectors", "repro.sim.pages",
     "TieredPageTable.access_fraction_vectors", None),
    ("sim.engine.page_access_rates", "repro.sim.engine", "EngineContext.page_access_rates", None),
    ("sim.kernels.breakdown_batch", "repro.sim.kernels", "BreakdownKernel.breakdown_batch", None),
    ("sim.kernels.tiered_breakdown_batch", "repro.sim.kernels",
     "TieredBreakdownKernel.breakdown_batch", None),
    ("sim.cache.update_residency", "repro.sim.cache",
     "DirectMappedPageCache.update_residency", None),
    ("common.zipf_weights", "repro.common", "zipf_weights", None),
    # profilers and 2-tier baselines
    ("profiling.pte.sample", "repro.profiling.pte", "PTESampleProfiler.sample", None),
    ("profiling.thermostat.sample", "repro.profiling.thermostat", "ThermostatProfiler.sample", None),
    ("profiling.hotpages.top_k_hot_pages", "repro.profiling.hotpages", "top_k_hot_pages", None),
    ("baselines.memory_mode.on_tick", "repro.baselines.memorymode", "MemoryModePolicy.on_tick", None),
    ("baselines.memory_optimizer.on_tick", "repro.baselines.memoptimizer",
     "MemoryOptimizerPolicy.on_tick", None),
    # the online Merchandiser runtime and the N-tier policy registry
    ("core.runtime.on_region_start", "repro.core.runtime", "MerchandiserPolicy.on_region_start", None),
    ("core.runtime.on_tick", "repro.core.runtime", "MerchandiserPolicy.on_tick", None),
    ("policies.merchandiser.on_tick", "repro.policies.merchandiser",
     "TieredMerchandiserPolicy.on_tick", None),
    ("policies.ltr.on_tick", "repro.policies.ltr", "LearnedRankingPolicy.on_tick", None),
    ("policies.interval.on_tick", "repro.policies.interval", "IntervalReconfigPolicy.on_tick", None),
    ("runtime.planning.critical_path_plan", "repro.runtime.planning", "critical_path_plan", None),
    ("runtime.executor.run", "repro.runtime.executor", "DAGExecutor.run", None),
    # model and planner
    ("core.api.offline_setup", "repro.core.api", "Merchandiser.offline_setup", None),
    ("core.model.ratio_grids", "repro.core.model", "PerformanceModel.ratio_grids", None),
    ("core.planner.greedy_plan", "repro.core.planner", "greedy_plan", None),
    ("core.planner.tiered_greedy_plan", "repro.core.planner", "tiered_greedy_plan", None),
    # placement service: scheduler, cache, WAL, cluster, frame codec
    ("service.scheduler.plan_batch", "repro.service.scheduler", "BatchScheduler.plan_batch", None),
    ("service.cache.get", "repro.service.cache", "PredictionCache.get", None),
    ("core.journal.append", "repro.core.journal", "WriteAheadLog.append", _wal_entry_bytes),
    ("service.cluster.router_tick", "repro.service.cluster.router", "ClusterRouter.tick", None),
    ("service.cluster.shard_pump", "repro.service.cluster.shard", "PlacementShard.pump", None),
    ("service.cluster.replicate", "repro.service.cluster.shard", "PlacementShard.replicate", None),
    ("service.cluster.checkpoint", "repro.service.cluster.shard", "PlacementShard.checkpoint", None),
    ("service.cluster.follower_receive", "repro.service.cluster.replication",
     "FollowerJournal.receive", None),
    ("service.transport.encode_frame", "repro.service.transport.framing", "encode_frame", _frame_bytes),
    ("service.transport.decode_frame", "repro.service.transport.framing", "decode_frame", _buffer_bytes),
)

#: layers whose cumulative time is reported too: the entry points a
#: workload calls directly, so ``cum_s`` is the share of the run they own
TOP_LEVEL = (
    "core.api.offline_setup",
    "runtime.executor.run",
    "service.cluster.router_tick",
    "core.runtime.on_region_start",
    "core.runtime.on_tick",
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    cum_s: float = 0.0
    bytes: int = 0

    def minus(self, other: "LayerStats") -> "LayerStats":
        return LayerStats(
            self.calls - other.calls,
            self.self_s - other.self_s,
            self.cum_s - other.cum_s,
            self.bytes - other.bytes,
        )


class LayerTracer:
    """Installs span-recording wrappers on :data:`LAYERS` and aggregates them."""

    def __init__(self) -> None:
        self.names = [layer[0] for layer in LAYERS]
        self.byte_layers = {layer[0] for layer in LAYERS if layer[3] is not None}
        self.stats: dict[str, LayerStats] = {n: LayerStats() for n in self.names}
        # span arrays: name index, parent span index (-1 = root), start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._depth: dict[str, int] = {n: 0 for n in self.names}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, index: int, name: str, fn, nbytes):
        stats = self.stats[name]
        stack = self._stack
        depth = self._depth
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = host_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(span_name)
            span_name.append(index)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[span] = end
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if not depth[name]:
                    stats.cum_s += elapsed
            if nbytes is not None:
                stats.bytes += nbytes(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for index, (name, module_name, attr, nbytes) in enumerate(LAYERS):
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(index, name, raw.__func__, nbytes))
                else:
                    patched = self._wrap(index, name, raw, nbytes)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(index, name, original, nbytes)
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original
                ):
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, LayerStats]:
        """Copy of the running totals (callers difference two snapshots)."""
        return {n: LayerStats(**vars(s)) for n, s in self.stats.items()}

    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        path.write_text(json.dumps(doc))
