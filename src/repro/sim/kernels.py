"""Batched tick kernel for the virtual-time engine (PERFORMANCE.md).

The engine's phase-1 loop computes a :class:`~repro.sim.machine.TieredBreakdown`
for every active instance on every tick.  The scalar
:meth:`MachineModel.breakdown` re-derives, per call, everything that does
not depend on the placement: the per-pattern accumulation structure, tier
latencies, MLP constants, pure-compute time and the compute/memory overlap
factor.  :class:`BreakdownKernel` hoists all of that to region start:

* access tensors -- flat arrays of (instance row, pattern slot, object
  column, reads, writes) covering every ``ObjectAccess`` of the region, in
  footprint order;
* per-(tier, instance, slot) latency and per-(instance, slot) MLP
  constants, where a "slot" is a pattern's first-appearance rank within its
  footprint (<= 4 slots, one per :class:`~repro.common.AccessPattern`);
* per-instance ``cpu_s`` and overlap ``beta`` scalars.

Per tick, one ordered ``np.bincount`` scatter-add per counter (reads,
writes) rebuilds the per-(tier, instance, slot) buckets for *all* tiers
and instances at once, and the rest of the model is elementwise.
Bit-identity with the scalar model holds because every float reduction
keeps the scalar loop's order: ``np.bincount`` adds each bucket's weights
in element order (= access order, exactly like ``np.add.at``), slot
accumulation walks slots in first-appearance order, unused slots
contribute an exact ``+0.0`` (an identity on the non-negative values
involved), and the q-norm is taken per instance with Python floats.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro.common import CACHE_LINE
from repro.sim.machine import MachineModel, TieredBreakdown
from repro.sim.memspec import TopologySpec
from repro.tasks.task import Footprint

__all__ = ["BreakdownKernel", "TieredBreakdownKernel"]

#: Upper bound on pattern slots per footprint (one per AccessPattern).
_MAX_SLOTS = 4


class BreakdownKernel:
    """Region-scoped batched replacement for per-instance ``breakdown``.

    Built once per region from ``(task_id, footprint)`` pairs; each
    :meth:`breakdown_batch` call then prices any subset of those instances
    under the current placement (per-object fraction vectors, fastest tier
    first) with a handful of numpy passes.  Only the engine's configuration
    is supported (no bandwidth derates); contention is applied by the
    engine after the breakdown, exactly as on the scalar path.
    """

    def __init__(
        self,
        machine: MachineModel,
        topo: TopologySpec,
        footprints: Sequence[tuple[str, Footprint]],
    ) -> None:
        spec = machine.spec
        n_tiers = topo.n_tiers
        self._rows: dict[str, int] = {}
        self._obj_cols: dict[str, int] = {}
        n_inst = len(footprints)

        inst_idx: list[int] = []
        slot_idx: list[int] = []
        obj_idx: list[int] = []
        reads: list[float] = []
        writes: list[float] = []
        lat = np.zeros((n_tiers, n_inst, _MAX_SLOTS))
        mlp = np.ones((n_inst, _MAX_SLOTS))
        cpu: list[float] = []
        beta: list[float] = []

        for i, (task_id, fp) in enumerate(footprints):
            if task_id in self._rows:
                raise ValueError(f"duplicate task id {task_id!r}")
            self._rows[task_id] = i
            slots: dict = {}
            for a in fp.accesses:
                s = slots.setdefault(a.pattern, len(slots))
                inst_idx.append(i)
                slot_idx.append(s)
                obj_idx.append(self._obj_cols.setdefault(a.obj, len(self._obj_cols)))
                reads.append(float(a.reads))
                writes.append(float(a.writes))
            for pattern, s in slots.items():
                random = pattern.value == "random"
                for k, tier in enumerate(topo.tiers):
                    lat[k, i, s] = tier.latency_ns(random=random)
                mlp[i, s] = spec.mlp[pattern]
            cpu.append(machine.cpu_time(fp))
            mix = fp.pattern_mix()
            beta.append(
                sum(spec.overlap[p] * w for p, w in mix.items()) if mix else 0.0
            )

        # slots no instance uses would only add exact zeros: drop them
        n_slots = max(slot_idx, default=0) + 1
        lat = lat[:, :, :n_slots]
        mlp = mlp[:, :n_slots]
        n_buckets = n_inst * n_slots
        bucket = np.asarray(inst_idx, dtype=np.intp) * n_slots + np.asarray(
            slot_idx, dtype=np.intp
        )
        #: tier-major bucket ids: tier k's copy of the accesses fills
        #: buckets [k * n_buckets, (k + 1) * n_buckets) in access order
        self._bins = (np.arange(n_tiers)[:, None] * n_buckets + bucket).ravel()
        self._n_bins = n_tiers * n_buckets
        self._obj_idx = np.asarray(obj_idx, dtype=np.intp)
        self._reads = np.asarray(reads, dtype=np.float64)
        self._writes = np.asarray(writes, dtype=np.float64)
        self._lat = lat
        self._mlp = mlp
        self._cpu = cpu
        self._one_minus_beta = [1.0 - b for b in beta]
        self._q = spec.tier_overlap_q
        self._rbw = np.array([t.read_bandwidth for t in topo.tiers])[:, None]
        self._wbw = np.array([t.write_bandwidth for t in topo.tiers])[:, None]
        self._shape = (n_tiers, n_inst, n_slots)
        self._n_tiers = n_tiers
        self._default = (0.0,) * (n_tiers - 1) + (1.0,)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self._rows)

    def _object_fractions(
        self, tier_fractions: Mapping[str, Sequence[float]]
    ) -> np.ndarray:
        """(n_obj, n_tiers) clipped fraction matrix in column order.

        Missing objects default to all-in-slowest, matching the scalar
        ``breakdown``; ``clip(v, 0, 1)`` returns the same bits as the
        scalar ``min(1.0, max(0.0, v))`` for every float.
        """
        n = self._n_tiers
        get = tier_fractions.get
        rows = [get(name, self._default) for name in self._obj_cols]
        if any(len(f) != n for f in rows):
            name, f = next((k, f) for k, f in zip(self._obj_cols, rows) if len(f) != n)
            raise ValueError(
                f"object {name!r}: fraction vector has {len(f)} entries "
                f"for a {n}-tier topology"
            )
        mat = np.fromiter(
            chain.from_iterable(rows), dtype=np.float64, count=len(rows) * n
        ).reshape(len(rows), n)
        return np.minimum(np.maximum(mat, 0.0), 1.0)

    def breakdown_batch(
        self,
        task_ids: Sequence[str],
        tier_fractions: Mapping[str, Sequence[float]],
    ) -> list[TieredBreakdown]:
        """Breakdowns for ``task_ids`` under the given placement.

        Returns one :class:`TieredBreakdown` per requested id, in order,
        bit-identical to calling the scalar ``machine.breakdown`` per
        instance with the same fraction vectors.
        """
        # (n_tiers, n_access) per-tier fractions of every access, tier-major
        f = self._object_fractions(tier_fractions)[self._obj_idx].T
        reads = np.bincount(
            self._bins, weights=(self._reads * f).ravel(), minlength=self._n_bins
        ).reshape(self._shape)
        writes = np.bincount(
            self._bins, weights=(self._writes * f).ravel(), minlength=self._n_bins
        ).reshape(self._shape)

        # Vector form of MachineModel._tier_time over all tiers and
        # instances: each term keeps the scalar's ((n * lat) * 1e-9) / mlp
        # order, and slots reduce sequentially in first-appearance order
        # (the scalar's running sums start at +0.0, an identity here).
        terms = (reads + writes) * self._lat * 1e-9 / self._mlp
        reads *= CACHE_LINE
        writes *= CACHE_LINE
        latency = terms[:, :, 0]
        read_bytes = reads[:, :, 0]
        write_bytes = writes[:, :, 0]
        for s in range(1, self._shape[2]):
            latency = latency + terms[:, :, s]
            read_bytes = read_bytes + reads[:, :, s]
            write_bytes = write_bytes + writes[:, :, s]
        tier_t = np.maximum(
            latency, read_bytes / self._rbw + write_bytes / self._wbw
        )

        # Only the requested rows leave the kernel.  The q-norm stays in
        # Python floats: numpy's SIMD pow differs from libm pow in the last
        # bit for ~5% of inputs, and ``sum`` matches the scalar generator
        # sum term for term.
        rows = [self._rows[tid] for tid in task_ids]
        q = self._q
        inv_q = 1.0 / q
        cpu = self._cpu
        omb = self._one_minus_beta
        out = []
        for i, ts, rb, wb in zip(
            rows,
            zip(*tier_t[:, rows].tolist()),
            zip(*read_bytes[:, rows].tolist()),
            zip(*write_bytes[:, rows].tolist()),
        ):
            t_mem = sum([t**q for t in ts]) ** inv_q if any(ts) else 0.0
            t_cpu = cpu[i]
            out.append(
                TieredBreakdown(
                    total_s=max(t_cpu, t_mem) + omb[i] * min(t_cpu, t_mem),
                    cpu_s=t_cpu,
                    mem_s=t_mem,
                    tier_s=ts,
                    tier_read_bytes=rb,
                    tier_write_bytes=wb,
                )
            )
        return out


#: Former name of the N-tier kernel, kept so code that names it (the
#: benchmark's per-layer tracer) finds the one kernel.
TieredBreakdownKernel = BreakdownKernel
