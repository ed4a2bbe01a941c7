"""Ground-truth execution-time model.

This is the simulator's stand-in for the physical machine: given a task
instance's :class:`~repro.tasks.task.Footprint` and the current per-object
access fractions on each memory tier, it computes how long the instance
takes.  One model serves every tier count; the paper's 2-tier machine is
the topology (DRAM, PM) with per-object fractions ``(r_dram, 1 - r_dram)``.

The model (DESIGN.md Section 5) is deliberately *nonlinear* in the DRAM
ratio ``r_dram``:

* regular patterns are bandwidth-bound and deeply pipelined (high
  memory-level parallelism), random patterns are latency-bound (MLP ~ 1.5);
* memory time overlaps with compute to a pattern-dependent degree;
* traffic to the tiers partially overlaps (p-norm combination).

Merchandiser's learned correlation function ``f`` (Section 5 of the paper)
never sees these internals -- only synthetic performance counters and the two
homogeneous endpoints -- so learning ``f`` is an honest reconstruction
problem, just as learning it from real hardware is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.common import CACHE_LINE, AccessPattern
from repro.sim.memspec import HMConfig, TierSpec, TopologySpec
from repro.tasks.task import Footprint

__all__ = ["MachineSpec", "TieredBreakdown", "MachineModel"]


@dataclass(frozen=True)
class MachineSpec:
    """CPU-side parameters of the simulated node."""

    frequency_ghz: float = 2.1          # Xeon Gold 6252N base clock
    base_cpi: float = 0.55              # cycles/instruction with no mem stalls
    #: Footprint scale of the paired HM config (see repro.sim.memspec): CPU
    #: frequency is scaled down by this factor so compute times keep the
    #: unscaled machine's magnitudes, like the counter-scaled latencies.
    scale: float = 1.0 / 1024.0
    #: Memory-level parallelism per access pattern: how many outstanding
    #: misses the pattern sustains, i.e. how well latency is amortised.
    #: Stream/stencil values include the hardware prefetcher's pipelining
    #: (per-core streaming throughput ~64B * 24 / 81ns ~ 19 GB/s).
    mlp: Mapping[AccessPattern, float] = field(
        default_factory=lambda: {
            AccessPattern.STREAM: 24.0,
            AccessPattern.STRIDED: 12.0,
            AccessPattern.STENCIL: 20.0,
            AccessPattern.RANDOM: 1.6,
        }
    )
    #: Compute/memory overlap per pattern (fraction of the shorter of the
    #: two that hides under the longer): prefetchable streams overlap well,
    #: dependent random chases do not.
    overlap: Mapping[AccessPattern, float] = field(
        default_factory=lambda: {
            AccessPattern.STREAM: 0.90,
            AccessPattern.STRIDED: 0.80,
            AccessPattern.STENCIL: 0.85,
            AccessPattern.RANDOM: 0.25,
        }
    )
    #: Cross-tier overlap exponent: per-tier memory times combine as a
    #: q-norm, between max (full overlap, q->inf) and sum (none, q=1).
    tier_overlap_q: float = 1.3

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0 or self.base_cpi <= 0:
            raise ValueError("frequency and CPI must be positive")
        if self.tier_overlap_q < 1.0:
            raise ValueError("tier_overlap_q must be >= 1")


@dataclass(frozen=True)
class TieredBreakdown:
    """Where an instance's time goes, plus per-tier traffic for the engine.

    Per-tier tuples are ordered like the topology (fastest first); on the
    2-tier machine index 0 is DRAM and index 1 is PM.
    """

    total_s: float
    cpu_s: float
    mem_s: float
    tier_s: tuple[float, ...]
    tier_read_bytes: tuple[float, ...]
    tier_write_bytes: tuple[float, ...]

    def tier_bytes(self, k: int) -> float:
        return self.tier_read_bytes[k] + self.tier_write_bytes[k]


class MachineModel:
    """Computes instance execution times on a given memory topology."""

    def __init__(self, spec: MachineSpec | None = None) -> None:
        self.spec = spec or MachineSpec()

    # ------------------------------------------------------------------
    def cpu_time(self, footprint: Footprint) -> float:
        """Pure compute time (no memory stalls), seconds."""
        spec = self.spec
        prof = footprint.profile
        # branch mispredictions and poor vectorisation inflate the base CPI
        cpi = spec.base_cpi / min(prof.ilp, 4.0) * 2.0
        cpi *= 1.0 + 14.0 * prof.branch_rate * prof.branch_misp_rate
        cpi *= 1.0 - 0.35 * prof.vector_fraction
        cycles = footprint.instructions * cpi
        return cycles / (spec.frequency_ghz * spec.scale * 1e9)

    # ------------------------------------------------------------------
    def _tier_time(
        self,
        tier: TierSpec,
        derate: float,
        accesses: Mapping[AccessPattern, tuple[float, float]],
    ) -> tuple[float, float, float]:
        """Time, read bytes, write bytes for one tier.

        ``accesses[p] = (reads, writes)`` counts cache-line accesses of
        pattern ``p`` hitting this tier.  Tier time is the max of the
        latency-bound estimate (serialised by limited MLP) and the
        bandwidth-bound estimate at ``derate`` times the tier's bandwidth.
        """
        spec = self.spec
        latency_s = 0.0
        read_bytes = 0.0
        write_bytes = 0.0
        for pattern, (reads, writes) in accesses.items():
            n = reads + writes
            if n <= 0:
                continue
            lat_ns = tier.latency_ns(random=(pattern is AccessPattern.RANDOM))
            latency_s += n * lat_ns * 1e-9 / spec.mlp[pattern]
            read_bytes += reads * CACHE_LINE
            write_bytes += writes * CACHE_LINE
        bandwidth_s = read_bytes / (tier.read_bandwidth * derate) + write_bytes / (
            tier.write_bandwidth * derate
        )
        return max(latency_s, bandwidth_s), read_bytes, write_bytes

    # ------------------------------------------------------------------
    def breakdown(
        self,
        footprint: Footprint,
        topo: TopologySpec,
        tier_fractions: Mapping[str, Sequence[float]],
        bandwidth_derates: Sequence[float] | None = None,
    ) -> TieredBreakdown:
        """Full time breakdown for an instance under a placement.

        ``tier_fractions[obj]`` is the object's access-fraction vector
        across the topology's tiers, fastest first; each entry is clamped
        to ``[0, 1]`` and missing objects default to all-in-slowest.  On
        the 2-tier machine the vector is ``(r, 1 - r)`` for the paper's
        access-weighted DRAM fraction ``r``.  ``bandwidth_derates``
        optionally derates each tier's bandwidth independently
        (contention): effective bandwidth is ``bw * derate``.
        """
        tiers = topo.tiers
        n = len(tiers)
        if bandwidth_derates is None:
            derates = (1.0,) * n
        else:
            derates = tuple(map(float, bandwidth_derates))
            if len(derates) != n:
                raise ValueError("one bandwidth derate per tier required")
            for d in derates:
                if not 0.0 < d <= 1.0:
                    raise ValueError("bandwidth derates must be in (0, 1]")
        default = (0.0,) * (n - 1) + (1.0,)
        accs: list[dict[AccessPattern, tuple[float, float]]] = [{} for _ in tiers]
        for a in footprint.accesses:
            f = tier_fractions.get(a.obj, default)
            if len(f) != n:
                raise ValueError(
                    f"object {a.obj!r}: fraction vector has {len(f)} entries "
                    f"for a {n}-tier topology"
                )
            pattern, reads, writes = a.pattern, a.reads, a.writes
            for acc, fk in zip(accs, f):
                fk = min(1.0, max(0.0, float(fk)))
                r, w = acc.get(pattern, (0.0, 0.0))
                acc[pattern] = (r + reads * fk, w + writes * fk)

        times, read_b, write_b = zip(
            *[self._tier_time(t, d, acc) for t, d, acc in zip(tiers, derates, accs)]
        )
        q = self.spec.tier_overlap_q
        t_mem = sum(t**q for t in times) ** (1.0 / q) if any(times) else 0.0

        t_cpu = self.cpu_time(footprint)
        mix = footprint.pattern_mix()
        beta = sum(self.spec.overlap[p] * w for p, w in mix.items()) if mix else 0.0
        total = max(t_cpu, t_mem) + (1.0 - beta) * min(t_cpu, t_mem)
        return TieredBreakdown(
            total_s=total,
            cpu_s=t_cpu,
            mem_s=t_mem,
            tier_s=times,
            tier_read_bytes=read_b,
            tier_write_bytes=write_b,
        )

    def tier_endpoint_times(
        self, footprint: Footprint, topo: TopologySpec
    ) -> tuple[float, ...]:
        """Homogeneous execution time with *all* accesses served by each
        tier in turn (fastest first) -- the N-tier endpoints that bracket
        the effective-ratio prediction."""
        objs = footprint.objects
        out = []
        for k in range(topo.n_tiers):
            vec = tuple(1.0 if i == k else 0.0 for i in range(topo.n_tiers))
            out.append(
                self.breakdown(footprint, topo, {o: vec for o in objs}).total_s
            )
        return tuple(out)

    # -- 2-tier helpers: ``hm`` is the (DRAM, PM) topology and each
    # object's DRAM fraction ``r`` is the vector ``(r, 1 - r)``
    def instance_time(
        self,
        footprint: Footprint,
        hm: HMConfig,
        dram_fractions: Mapping[str, float],
        bandwidth_derate: float = 1.0,
    ) -> float:
        """Execution time in seconds (missing objects are all-PM)."""
        vectors = {}
        for a in footprint.accesses:
            r = dram_fractions.get(a.obj)
            if r is not None:
                r = min(1.0, max(0.0, float(r)))
                vectors[a.obj] = (r, 1.0 - r)
        return self.breakdown(
            footprint, TopologySpec.from_hm(hm), vectors, (bandwidth_derate,) * 2
        ).total_s

    def endpoint_times(self, footprint: Footprint, hm: HMConfig) -> tuple[float, float]:
        """(T_dram_only, T_pm_only) -- the bounds of Equation 2."""
        t_dram, t_pm = self.tier_endpoint_times(footprint, TopologySpec.from_hm(hm))
        return t_dram, t_pm

    def uniform_ratio_time(
        self, footprint: Footprint, hm: HMConfig, r_dram: float
    ) -> float:
        """Time when every object serves ``r_dram`` of accesses from DRAM."""
        if not 0.0 <= r_dram <= 1.0:
            raise ValueError("r_dram must be in [0, 1]")
        return self.instance_time(
            footprint, hm, {o: r_dram for o in footprint.objects}
        )
