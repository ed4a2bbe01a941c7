"""Virtual-time execution engine.

The engine runs a :class:`~repro.tasks.task.Workload` region by region under
a :class:`PlacementPolicy`.  Within a region it advances all task instances
in small virtual-time ticks:

* each tick, every unfinished instance's instantaneous execution time is
  computed from the ground-truth machine model and the *current* placement
  (page migrations mid-region change an instance's speed mid-flight);
* per-tier bandwidth demand is aggregated across instances and migration
  traffic; if it exceeds the tier's capability, progress is scaled back
  (bandwidth contention);
* the placement policy's ``on_tick`` hook may request page migrations,
  throttled to a configurable fraction of PM bandwidth;
* the region's barrier releases when every instance reaches progress 1;
  per-task busy and barrier-wait times are recorded (Figure 5's data).

All time is virtual; nothing depends on the wall clock, and the only
randomness comes from the seeded generator in :class:`EngineContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.common import PAGE_SIZE, make_rng, scalar_kernels_enabled
from repro.sim.faults import FaultInjector, RobustnessReport
from repro.sim.kernels import BreakdownKernel
from repro.sim.machine import MachineModel, TieredBreakdown
from repro.sim.memspec import HMConfig, TopologySpec
from repro.sim.pages import (
    MigrationBatch,
    PageTable,
    TieredMigrationBatch,
    TieredPageTable,
)
from repro.tasks.task import ParallelRegion, TaskInstanceSpec, Workload

if TYPE_CHECKING:  # pragma: no cover
    # imported lazily at runtime: repro.core.journal pulls in the whole
    # core package, which itself imports this module
    from repro.core.journal import CrashImage, RecoveryOutcome, WriteAheadLog
    from repro.core.telemetry import Telemetry

__all__ = [
    "EngineConfig",
    "EngineContext",
    "PlacementPolicy",
    "RegionResult",
    "RunResult",
    "Engine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs."""

    #: Target number of ticks across the fastest instance of a region;
    #: controls the time resolution of contention and migration.
    ticks_per_instance: int = 60
    #: Hard cap on ticks per region (runaway guard).
    max_ticks_per_region: int = 50_000
    #: Fraction of PM read bandwidth migrations may consume per tick.
    migration_bandwidth_fraction: float = 0.25
    #: Record the per-tick bandwidth trace (Figure 6) when True.
    record_bandwidth: bool = True
    #: With a journal attached: epochs between planner-state checkpoints
    #: (1 = checkpoint at every epoch commit).
    checkpoint_interval: int = 1


class EngineContext:
    """Mutable state the engine shares with the placement policy."""

    def __init__(
        self,
        workload: Workload,
        page_table: "PageTable | TieredPageTable",
        machine: MachineModel,
        hm: HMConfig,
        rng: np.random.Generator,
        faults: FaultInjector | None = None,
        telemetry: "Telemetry | None" = None,
        topology: TopologySpec | None = None,
    ) -> None:
        self.workload = workload
        self.page_table = page_table
        self.machine = machine
        self.hm = hm
        self.rng = rng
        #: the full topology (always set; 2-tier view of ``hm`` when the
        #: engine was built the classic way)
        self.topology = topology if topology is not None else TopologySpec.from_hm(hm)
        #: fault injector the engine and profilers consult (None = healthy)
        self.faults = faults
        #: shared telemetry (repro.core.telemetry); policies read it off the
        #: context so instrumentation follows the run, not the object graph
        self.telemetry = telemetry
        self.time = 0.0
        self.region: ParallelRegion | None = None
        self.region_index = -1
        #: instance progress in [0, 1] by task id (current region)
        self.progress: dict[str, float] = {}
        #: task ids whose intra-region gates have not opened yet (empty for
        #: classic barrier regions); gated instances make no progress and
        #: are invisible to :meth:`active_instances`
        self.gated: set[str] = set()
        #: latest instantaneous execution-time estimate by task id
        self.instance_times: dict[str, float] = {}
        self.pages_migrated = 0
        self.migration_overhead_s = 0.0
        #: pages the engine will accept per tick (set each region from the
        #: migration bandwidth budget); policies should not request more
        self.migration_budget_pages = 1
        #: migration batches (or parts of batches) that failed to apply,
        #: for policies that implement retry; cleared at each region start
        self.failed_migrations: list[MigrationBatch] = []

    # -- helpers policies rely on --------------------------------------
    def dram_fractions(self) -> dict[str, float]:
        """Current per-object access-weighted DRAM fractions."""
        return self.page_table.access_fractions()

    def tier_fraction_vectors(self) -> "dict[str, Sequence[float]]":
        """Per-object per-tier access-fraction vectors, fastest tier first
        (``(r, 1 - r)`` on a 2-tier table)."""
        return self.page_table.access_fraction_vectors()

    def active_instances(self) -> list[TaskInstanceSpec]:
        assert self.region is not None
        return [
            inst
            for inst in self.region.instances
            if self.progress.get(inst.task_id, 0.0) < 1.0
            and inst.task_id not in self.gated
        ]

    def page_access_rates(self) -> dict[str, np.ndarray]:
        """Per-page main-memory access rates (accesses/second), summed over
        the region's active instances.

        This is what the sampling profilers observe: address-level hotness
        with no task attribution unless a profiler adds it.
        """
        rates: dict[str, np.ndarray] = {}
        for inst in self.active_instances():
            t = max(self.instance_times.get(inst.task_id, 0.0), 1e-12)
            for acc in inst.footprint.accesses:
                obj = self.page_table.object(acc.obj)
                per_obj = acc.total / t
                if acc.obj in rates:
                    rates[acc.obj] = rates[acc.obj] + obj.weight * per_obj
                else:
                    rates[acc.obj] = obj.weight * per_obj
        return rates


class PlacementPolicy:
    """Base class for data-placement policies (baselines and Merchandiser).

    Policies may set residency directly in the start hooks (initial
    placement, through ``PagedObject.set_pages``/``set_residency``; the
    residency arrays are read-only) and must route mid-run movement through ``on_tick``'s
    :class:`MigrationBatch` return so the engine can charge bandwidth.
    """

    name = "policy"

    def on_workload_start(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called once before the first region."""

    def on_region_start(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called when a region's tasks become known, before they start."""

    def on_tick(self, ctx: EngineContext, dt: float) -> MigrationBatch | None:
        """Called every tick; return page moves to perform (or None)."""
        return None

    def on_region_end(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called after the region's barrier releases."""

    # -- crash consistency hooks (see repro.core.journal) --------------
    def snapshot_state(self) -> dict | None:  # pragma: no cover
        """JSON-serialisable planner state for journal checkpoints.

        ``None`` (the default) means the policy has nothing worth
        checkpointing; recovery then restarts it cold.
        """
        return None

    def restore_state(self, state: dict) -> None:  # pragma: no cover
        """Restore :meth:`snapshot_state` output on a fresh policy."""

    def on_recover(self, ctx: EngineContext) -> None:  # pragma: no cover
        """Called instead of ``on_workload_start`` when resuming after a
        crash: page placement survived, so policies must NOT reset it."""


@dataclass
class RegionResult:
    """Per-region outcome: when each task finished and how long it worked."""

    name: str
    start_s: float
    end_s: float
    #: task id -> time the task was busy executing (its own work)
    busy_s: dict[str, float] = field(default_factory=dict)
    #: task id -> time spent waiting at the barrier for slower tasks
    wait_s: dict[str, float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class RunResult:
    """Complete outcome of one engine run."""

    policy: str
    workload: str
    total_time_s: float
    regions: list[RegionResult]
    pages_migrated: int
    #: bandwidth trace: times plus per-tier bytes/second, one row per tick
    trace_time: np.ndarray
    trace_dram_bw: np.ndarray
    trace_pm_bw: np.ndarray
    trace_migration_bw: np.ndarray
    #: merged fault + guardrail events and per-kind counters for the run
    robustness: RobustnessReport = field(default_factory=RobustnessReport)

    def task_busy_times(self) -> dict[str, float]:
        """Total busy time per task across all regions (Figure 5's metric)."""
        out: dict[str, float] = {}
        for region in self.regions:
            for task, busy in region.busy_s.items():
                out[task] = out.get(task, 0.0) + busy
        return out

    def task_wait_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for region in self.regions:
            for task, wait in region.wait_s.items():
                out[task] = out.get(task, 0.0) + wait
        return out

    def mean_dram_bandwidth(self) -> float:
        """Time-averaged DRAM bandwidth (bytes/s) over the run."""
        if len(self.trace_time) == 0:
            return 0.0
        return float(np.mean(self.trace_dram_bw))

    def mean_pm_bandwidth(self) -> float:
        if len(self.trace_time) == 0:
            return 0.0
        return float(np.mean(self.trace_pm_bw))


class Engine:
    """Runs workloads on the simulated heterogeneous-memory node."""

    def __init__(
        self,
        machine: MachineModel | None = None,
        hm: HMConfig | None = None,
        config: EngineConfig | None = None,
        faults: FaultInjector | None = None,
        journal: "WriteAheadLog | None" = None,
        telemetry: "Telemetry | None" = None,
        topology: TopologySpec | None = None,
    ) -> None:
        from repro.sim.memspec import optane_hm_config

        self.machine = machine or MachineModel()
        if topology is not None:
            if hm is not None:
                raise ValueError("pass either hm or topology, not both")
            self.topology = topology
            if topology.n_tiers == 2:
                # degenerate case: run the classic 2-tier engine verbatim so
                # every float matches the HMConfig pipeline bit for bit
                self.hm = topology.to_hm()
            else:
                if journal is not None:
                    raise ValueError(
                        "crash journaling is only supported on 2-tier topologies"
                    )
                # fastest/slowest compatibility view; only consulted for
                # knobs shared with the 2-tier loop (never for pricing)
                self.hm = HMConfig(
                    dram=topology.fastest,
                    pm=topology.slowest,
                    page_migration_overhead_s=topology.page_migration_overhead_s,
                )
        else:
            self.hm = hm or optane_hm_config()
            self.topology = TopologySpec.from_hm(self.hm)
        self._tiered = self.topology.n_tiers > 2
        self.config = config or EngineConfig()
        #: optional fault injector; consulted by the tick loop and exposed
        #: to policies/profilers through the engine context
        self.faults = faults
        #: optional write-ahead log (repro.core.journal).  ``None`` keeps
        #: the engine bit-identical to the journal-free pipeline; attached,
        #: every epoch/move/commit is logged ahead of application so a
        #: crashed run can be recovered via :meth:`recover`.
        self.journal = journal
        #: optional telemetry (repro.core.telemetry.Telemetry).  ``None``
        #: (the default) keeps the engine bit-identical to the
        #: uninstrumented pipeline; attached, the engine records migration/
        #: occupancy/duration metrics and virtual-time spans, and shares the
        #: object with the policy (via the context) and the journal.
        self.telemetry = telemetry
        if journal is not None and telemetry is not None and journal.telemetry is None:
            journal.telemetry = telemetry
        self._epochs_since_checkpoint = 0

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        policy: PlacementPolicy,
        seed=0,
        page_table: PageTable | None = None,
    ) -> RunResult:
        """Execute ``workload`` under ``policy`` and return the result.

        With a journal attached and crash faults armed this may raise
        :class:`~repro.core.journal.SimulatedCrash`; the exception carries
        the surviving state, which :meth:`recover` accepts.
        """
        rng = make_rng(seed)
        if page_table is None:
            if self._tiered:
                page_table = TieredPageTable(
                    workload.objects, self.topology.capacity_vector(), rng=rng
                )
            else:
                page_table = PageTable(
                    workload.objects, self.hm.dram.capacity_bytes, rng=rng
                )
        ctx = EngineContext(
            workload, page_table, self.machine, self.hm, rng,
            faults=self.faults, telemetry=self.telemetry,
            topology=self.topology,
        )
        if self.telemetry is not None:
            self.telemetry.inc("merch_engine_runs_total")
        policy.on_workload_start(ctx)
        self._epochs_since_checkpoint = 0
        return self._run_regions(ctx, policy, start_region=0)

    # ------------------------------------------------------------------
    def recover(
        self,
        workload: Workload,
        policy: PlacementPolicy,
        image: "CrashImage",
        seed=0,
    ) -> "tuple[RunResult, RecoveryOutcome]":
        """Bring a crashed run back and finish the workload.

        ``image`` is the surviving state off a :class:`SimulatedCrash`
        (journal + page placement).  The journal is replayed: the
        uncommitted epoch is rolled back to its pre-epoch placement,
        placement invariants are verified, planner state is restored from
        the newest committed checkpoint, and execution resumes at the
        interrupted region.  ``policy`` must be a *fresh* instance (the
        crashed one died with the process); it is warmed via
        ``restore_state`` + ``on_recover``.
        """
        from repro.core.journal import recover_journal

        if self._tiered:
            raise ValueError("crash recovery is only supported on 2-tier topologies")
        journal = image.journal if image.journal is not None else self.journal
        if journal is None:
            raise ValueError("cannot recover a run that was not journaled")
        self.journal = journal
        if self.telemetry is not None and journal.telemetry is None:
            journal.telemetry = self.telemetry
        outcome = recover_journal(journal, image.page_table)
        self._verify_task_conservation(workload, image, outcome)
        if outcome.checkpoint_state is not None:
            policy.restore_state(outcome.checkpoint_state)
        rng = make_rng(seed)
        ctx = EngineContext(
            workload, image.page_table, self.machine, self.hm, rng,
            faults=self.faults, telemetry=self.telemetry,
            topology=self.topology,
        )
        ctx.time = outcome.resume_time_s
        if self.telemetry is not None:
            self.telemetry.inc("merch_engine_runs_total")
        policy.on_recover(ctx)
        journal.append(
            "recovered",
            outcome.open_epoch,
            {
                "resume_region": outcome.resume_region,
                "time_s": outcome.resume_time_s,
                "rolled_back_pages": outcome.rolled_back_pages,
                "torn_tail": outcome.torn_tail,
                "warm": outcome.checkpoint_state is not None,
            },
        )
        journal.log.record(
            "journal.recovered",
            outcome.resume_time_s,
            region=outcome.resume_region,
            warm=outcome.checkpoint_state is not None,
        )
        self._epochs_since_checkpoint = 0
        result = self._run_regions(ctx, policy, start_region=outcome.resume_region)
        return result, outcome

    def _verify_task_conservation(
        self, workload: Workload, image: "CrashImage", outcome: "RecoveryOutcome"
    ) -> None:
        """Quota conservation per task: after the rollback, each task of the
        interrupted region holds exactly the DRAM-access share it had when
        the epoch began."""
        payload = outcome.open_begin_payload
        if payload is None or outcome.resume_region >= len(workload.regions):
            return
        region = workload.regions[outcome.resume_region]
        fractions = image.page_table.access_fractions()
        want = payload.get("task_r_dram", {})
        for inst in region.instances:
            expected = want.get(inst.task_id)
            if expected is None:
                continue
            total = inst.footprint.total_accesses
            actual = (
                sum(
                    acc.total * fractions.get(acc.obj, 0.0)
                    for acc in inst.footprint.accesses
                )
                / total
                if total > 0
                else 0.0
            )
            if abs(actual - float(expected)) > 1e-6:
                text = (
                    f"task {inst.task_id!r}: r_dram {actual:.6f} after "
                    f"rollback, epoch began at {float(expected):.6f}"
                )
                outcome.violations.append(text)
                image.journal.log.record(
                    "journal.invariant_violation", image.time_s, detail_text=text
                )

    # ------------------------------------------------------------------
    def _run_regions(
        self, ctx: EngineContext, policy: PlacementPolicy, start_region: int
    ) -> RunResult:
        workload = ctx.workload
        regions: list[RegionResult] = []
        trace_t: list[float] = []
        trace_d: list[float] = []
        trace_p: list[float] = []
        trace_m: list[float] = []
        tel = self.telemetry
        run_span = (
            tel.tracer.begin(
                "run", ctx.time, track="virtual",
                workload=workload.name, policy=policy.name,
            )
            if tel is not None
            else None
        )

        for idx in range(start_region, len(workload.regions)):
            region = workload.regions[idx]
            ctx.region = region
            ctx.region_index = idx
            ctx.progress = {inst.task_id: 0.0 for inst in region.instances}
            ctx.gated = set(region.gate_map())
            region_span = (
                tel.tracer.begin(
                    "region", ctx.time, track="virtual",
                    index=idx, region=region.name, instances=len(region.instances),
                )
                if tel is not None
                else None
            )
            self._refresh_times(ctx)
            policy.on_region_start(ctx)
            self._refresh_times(ctx)

            epoch: int | None = None
            begin_payload: dict | None = None
            if self.journal is not None:
                epoch, begin_payload = self._journal_epoch_begin(ctx, policy)
            if self._tiered:
                result = self._run_tiered_region(
                    ctx, policy, trace_t, trace_d, trace_p, trace_m
                )
            else:
                result = self._run_region(
                    ctx, policy, epoch, trace_t, trace_d, trace_p, trace_m
                )
            regions.append(result)
            policy.on_region_end(ctx)
            if self.journal is not None:
                self._journal_epoch_commit(ctx, epoch, begin_payload, policy)
            if tel is not None:
                tel.tracer.end(region_span, ctx.time)
                tel.inc("merch_engine_regions_total")
                tel.observe(
                    "merch_engine_region_duration_seconds", result.duration_s
                )
                for wait in result.wait_s.values():
                    tel.observe("merch_engine_barrier_wait_seconds", wait)
        if tel is not None:
            tel.tracer.end(run_span, ctx.time)

        fault_log = self.faults.log if self.faults is not None else None
        guard_log = getattr(policy, "guardrail_log", None)
        journal_log = self.journal.log if self.journal is not None else None
        return RunResult(
            policy=policy.name,
            workload=workload.name,
            total_time_s=ctx.time,
            regions=regions,
            pages_migrated=ctx.pages_migrated,
            trace_time=np.asarray(trace_t),
            trace_dram_bw=np.asarray(trace_d),
            trace_pm_bw=np.asarray(trace_p),
            trace_migration_bw=np.asarray(trace_m),
            robustness=RobustnessReport.merged(fault_log, guard_log, journal_log),
        )

    # ------------------------------------------------------------------
    # journal integration (no-ops when self.journal is None)
    # ------------------------------------------------------------------
    def _journal_epoch_begin(
        self, ctx: EngineContext, policy: PlacementPolicy
    ) -> tuple[int, dict]:
        """Open a migration epoch: durably snapshot the pre-epoch placement."""
        assert ctx.region is not None and self.journal is not None
        table = ctx.page_table
        binary = all(
            bool(np.all(np.abs(o.residency - np.round(o.residency)) <= 1e-9))
            for o in table
        )
        payload = {
            "region": ctx.region_index,
            "name": ctx.region.name,
            "time_s": ctx.time,
            "binary": binary,
            "dram_capacity_bytes": int(table.dram_capacity_bytes),
            "dram_pages": {o.name: float(o.residency.sum()) for o in table},
            "task_r_dram": self._task_r_dram_map(ctx),
            "quota_targets": {
                str(k): float(v)
                for k, v in (getattr(policy, "_quota_targets", None) or {}).items()
            },
        }
        return self.journal.begin_epoch(payload), payload

    def _task_r_dram_map(self, ctx: EngineContext) -> dict[str, float]:
        assert ctx.region is not None
        fractions = ctx.page_table.access_fractions()
        out: dict[str, float] = {}
        for inst in ctx.region.instances:
            total = inst.footprint.total_accesses
            if total <= 0:
                out[inst.task_id] = 0.0
                continue
            out[inst.task_id] = (
                sum(
                    acc.total * fractions.get(acc.obj, 0.0)
                    for acc in inst.footprint.accesses
                )
                / total
            )
        return out

    def _journal_epoch_commit(
        self,
        ctx: EngineContext,
        epoch: int | None,
        begin_payload: dict | None,
        policy: PlacementPolicy,
    ) -> None:
        from repro.core.journal import verify_placement

        assert self.journal is not None and epoch is not None
        self.journal.commit_epoch(
            epoch,
            {
                "region": ctx.region_index,
                "time_s": ctx.time,
                "pages_migrated": ctx.pages_migrated,
            },
        )
        binary = begin_payload.get("binary", True) if begin_payload else True
        for text in verify_placement(ctx.page_table, {"binary": binary}):
            self.journal.log.record(
                "journal.invariant_violation", ctx.time, detail_text=text
            )
        if self.telemetry is not None and begin_payload is not None:
            self.telemetry.observe(
                "merch_engine_epoch_duration_seconds",
                ctx.time - float(begin_payload["time_s"]),
            )
        self._epochs_since_checkpoint += 1
        if self._epochs_since_checkpoint >= max(1, self.config.checkpoint_interval):
            state = policy.snapshot_state()
            if state is not None:
                self.journal.checkpoint(epoch, state)
                self._epochs_since_checkpoint = 0

    def _journal_batch(
        self, ctx: EngineContext, epoch: int | None, batch: MigrationBatch, cause: str
    ) -> None:
        """Write-ahead: log a batch's moves with per-page before-images
        BEFORE any residency mutation.  A kill configured for the
        "wal_append" crash point dies here -- with ``crash_torn_tail`` the
        record's bytes are cut short, and either way the mutation never
        happens."""
        if self.journal is None or epoch is None:
            return
        table = ctx.page_table
        moves = [
            {
                "obj": name,
                "pages": np.asarray(idx, dtype=np.intp),
                "before": table.object(name).residency[idx].copy(),
                "promote": bool(promote),
            }
            for name, idx, promote in batch.moves
            if len(idx)
        ]
        if not moves:
            return
        if self.faults is not None and self.faults.crash_due("wal_append", ctx.time):
            if self.faults.config.crash_torn_tail:
                self.journal.append_torn(
                    "move", epoch, {"cause": cause, "moves": moves}
                )
            else:
                self.journal.log_moves(epoch, moves, cause)
            raise self._crash(ctx)
        self.journal.log_moves(epoch, moves, cause)

    def _crash(self, ctx: EngineContext) -> Exception:
        from repro.core.journal import CrashImage, SimulatedCrash

        return SimulatedCrash(
            CrashImage(
                journal=self.journal, page_table=ctx.page_table, time_s=ctx.time
            )
        )

    # ------------------------------------------------------------------
    def _refresh_times(self, ctx: EngineContext) -> None:
        assert ctx.region is not None
        vectors = ctx.tier_fraction_vectors()
        for inst in ctx.region.instances:
            ctx.instance_times[inst.task_id] = self.machine.breakdown(
                inst.footprint, self.topology, vectors
            ).total_s

    def _region_kernel(self, region: ParallelRegion) -> BreakdownKernel | None:
        """The batched tick kernel for ``region``: it hoists the
        placement-independent parts of every instance's breakdown out of
        the tick loop (PERFORMANCE.md).  ``None`` on the MERCH_SCALAR_KERNELS
        path, which prices with the per-instance scalar model; both paths
        are bit-identical."""
        if scalar_kernels_enabled():
            return None
        return BreakdownKernel(
            self.machine,
            self.topology,
            [(inst.task_id, inst.footprint) for inst in region.instances],
        )

    def _breakdowns(
        self,
        kernel: BreakdownKernel | None,
        active: Sequence[TaskInstanceSpec],
        vectors: Mapping[str, Sequence[float]],
    ) -> "Iterable[tuple[TaskInstanceSpec, TieredBreakdown]]":
        """``(instance, breakdown)`` for every active instance under the
        per-object fraction vectors."""
        if kernel is not None:
            return zip(active, kernel.breakdown_batch([i.task_id for i in active], vectors))
        return (
            (inst, self.machine.breakdown(inst.footprint, self.topology, vectors))
            for inst in active
        )

    # ------------------------------------------------------------------
    def _run_region(
        self,
        ctx: EngineContext,
        policy: PlacementPolicy,
        epoch: int | None,
        trace_t: list[float],
        trace_d: list[float],
        trace_p: list[float],
        trace_m: list[float],
    ) -> RegionResult:
        cfg = self.config
        region = ctx.region
        assert region is not None
        tel = self.telemetry
        start = ctx.time
        finish: dict[str, float] = {}
        gates = region.gate_map()
        #: task id -> virtual time the instance was released to run (region
        #: start for ungated instances, gate-open tick for gated ones)
        released: dict[str, float] = {
            inst.task_id: start
            for inst in region.instances
            if inst.task_id not in ctx.gated
        }

        # tick size tracks the slowest instance: the region lives that long,
        # and short instances complete mid-tick via interpolation.  Tying dt
        # to the fastest instance would shrink ticks (and per-tick migration
        # budgets) arbitrarily under heavy skew.
        max_t = max(ctx.instance_times[i.task_id] for i in region.instances)
        dt = max(max_t / cfg.ticks_per_instance, 1e-9)
        mig_budget_bytes = cfg.migration_bandwidth_fraction * self.hm.pm.read_bandwidth * dt
        ctx.migration_budget_pages = max(1, int(mig_budget_bytes // PAGE_SIZE))
        ctx.failed_migrations.clear()

        kernel = self._region_kernel(region)

        ticks = 0
        while len(finish) < len(region.instances):
            ticks += 1
            if ticks > cfg.max_ticks_per_region:
                raise RuntimeError(
                    f"region {region.name!r} exceeded {cfg.max_ticks_per_region} ticks"
                )
            if self.faults is not None and self.faults.crash_due("tick", ctx.time):
                raise self._crash(ctx)
            if ctx.gated:
                # open any gates whose dependencies have all finished; the
                # released instance starts progressing from this tick
                for tid in sorted(ctx.gated):
                    if all(dep in finish for dep in gates[tid]):
                        ctx.gated.discard(tid)
                        released[tid] = ctx.time
            vectors = ctx.tier_fraction_vectors()
            active = ctx.active_instances()
            if not active and ctx.gated:
                # unreachable for validated DAG gates (ParallelRegion rejects
                # cycles), kept as a runaway guard
                raise RuntimeError(
                    f"region {region.name!r}: gated instances "
                    f"{sorted(ctx.gated)} can never be released"
                )

            # phase 1: unconstrained progress and per-tier byte demand.
            # Demand sums stay sequential Python adds in instance order so
            # both breakdown paths produce the same contention scaling.
            #: task id -> (unconstrained progress, DRAM bytes, PM bytes)
            work: dict[str, tuple[float, float, float]] = {}
            demand_dram = 0.0
            demand_pm = 0.0
            for inst, bd in self._breakdowns(kernel, active, vectors):
                ctx.instance_times[inst.task_id] = bd.total_s
                d = dt / max(bd.total_s, 1e-12)
                b_dram, b_pm = bd.tier_bytes(0), bd.tier_bytes(1)
                work[inst.task_id] = (d, b_dram, b_pm)
                demand_dram += d * b_dram
                demand_pm += d * b_pm

            # phase 2: bandwidth contention scaling per tier.  Transient
            # PM-bandwidth degradation (an injected environment fault)
            # shrinks the PM cap for the affected ticks.
            cap_dram = self.hm.dram.read_bandwidth * dt
            pm_factor = (
                self.faults.pm_bandwidth_factor(ctx.time)
                if self.faults is not None
                else 1.0
            )
            cap_pm = self.hm.pm.read_bandwidth * dt * pm_factor
            s_dram = min(1.0, cap_dram / demand_dram) if demand_dram > 0 else 1.0
            s_pm = min(1.0, cap_pm / demand_pm) if demand_pm > 0 else 1.0

            tick_dram_bytes = 0.0
            tick_pm_bytes = 0.0
            for inst in active:
                d, b_dram, b_pm = work[inst.task_id]
                total_bytes = b_dram + b_pm
                if total_bytes > 0:
                    w_d = b_dram / total_bytes
                    scale = w_d * s_dram + (1.0 - w_d) * s_pm
                else:
                    scale = 1.0
                step = d * scale
                prev = ctx.progress[inst.task_id]
                new = prev + step
                if new >= 1.0:
                    # interpolate the exact finish instant inside the tick
                    frac = (1.0 - prev) / max(step, 1e-15)
                    finish[inst.task_id] = ctx.time + frac * dt
                    new = 1.0
                ctx.progress[inst.task_id] = new
                done = new - prev
                # the bytes are whole-instance totals; this tick moved the
                # completed fraction of them
                tick_dram_bytes += done * b_dram
                tick_pm_bytes += done * b_pm

            # DRAM capacity-pressure spike: an external allocation steals
            # capacity, so the kernel demotes our coldest pages to make room
            # and promotions are admitted against the smaller DRAM.
            pressure = (
                self.faults.dram_pressure_bytes(
                    ctx.time, ctx.page_table.dram_capacity_bytes
                )
                if self.faults is not None
                else 0
            )
            if pressure > 0:
                plan = _plan_pressure_evictions(ctx.page_table, pressure)
                if plan:
                    evict_batch = MigrationBatch(
                        moves=tuple((name, idx, False) for name, idx in plan)
                    )
                    # kernel-driven demotions mutate placement too, so they
                    # are journaled like policy moves
                    self._journal_batch(ctx, epoch, evict_batch, "pressure")
                    evicted = ctx.page_table.apply_batch(evict_batch)
                    if evicted:
                        ctx.pages_migrated += evicted
                        tick_pm_bytes += evicted * PAGE_SIZE
                        tick_dram_bytes += evicted * PAGE_SIZE
                        if tel is not None:
                            tel.inc(
                                "merch_engine_pages_migrated_total",
                                evicted, cause="pressure",
                            )
                            tel.inc(
                                "merch_engine_bytes_migrated_total",
                                evicted * PAGE_SIZE, cause="pressure",
                            )

            # phase 3: policy-driven migration, throttled by bandwidth.
            # Injected faults may reject the batch or fail part of it
            # mid-copy.
            batch = policy.on_tick(ctx, dt)
            mig_bytes = 0.0
            if batch is not None and batch.n_pages > 0:
                # migrations read PM, so a degraded PM shrinks their budget
                max_pages = max(1, int(mig_budget_bytes * pm_factor // PAGE_SIZE))
                batch = _clamp_batch(batch, max_pages)
                if self.faults is not None:
                    batch, failed = self.faults.migration_outcome(batch, ctx.time)
                    if failed is not None:
                        ctx.failed_migrations.append(failed)
                if batch is not None and batch.n_pages > 0:
                    # intent is durable before any page moves; a crash past
                    # this point leaves a half-applied batch the journal can
                    # roll back exactly
                    self._journal_batch(ctx, epoch, batch, "policy")
                    crash_mid = self.faults is not None and self.faults.crash_due(
                        "mid_batch", ctx.time
                    )
                    to_apply = batch
                    if crash_mid:
                        # the kill lands mid-copy: only the first half of the
                        # batch reaches the page table
                        to_apply = _clamp_batch(batch, max(1, batch.n_pages // 2))
                    table = ctx.page_table
                    base_capacity = table.dram_capacity_bytes
                    table.dram_capacity_bytes = max(0, base_capacity - pressure)
                    try:
                        moved = table.apply_batch(to_apply)
                    finally:
                        table.dram_capacity_bytes = base_capacity
                    if crash_mid:
                        raise self._crash(ctx)
                    ctx.pages_migrated += moved
                    mig_bytes = moved * PAGE_SIZE
                    ctx.migration_overhead_s += (
                        moved * self.hm.page_migration_overhead_s
                    )
                    if tel is not None and moved:
                        overhead = moved * self.hm.page_migration_overhead_s
                        tel.inc(
                            "merch_engine_pages_migrated_total", moved, cause="policy"
                        )
                        tel.inc(
                            "merch_engine_bytes_migrated_total",
                            mig_bytes, cause="policy",
                        )
                        tel.inc(
                            "merch_engine_migration_overhead_seconds_total", overhead
                        )
                        tel.tracer.add_complete(
                            "migrate", ctx.time, overhead,
                            track="virtual", pages=moved, cause="policy",
                        )
                    # migration reads PM and writes DRAM (promotions) or the
                    # reverse; charge both tiers the full copy traffic
                    tick_pm_bytes += mig_bytes
                    tick_dram_bytes += mig_bytes

            if cfg.record_bandwidth:
                trace_t.append(ctx.time)
                trace_d.append(tick_dram_bytes / dt)
                trace_p.append(tick_pm_bytes / dt)
                trace_m.append(mig_bytes / dt)

            if tel is not None:
                tel.inc("merch_engine_ticks_total")
                tel.set(
                    "merch_engine_dram_occupancy_ratio",
                    ctx.page_table.dram_used_bytes()
                    / max(ctx.page_table.dram_capacity_bytes, 1),
                )

            ctx.time += dt

        # the barrier releases at the last finish time; snap region end there
        end = max(finish.values())
        ctx.time = end
        if tel is not None:
            first = min(finish.values())
            tel.tracer.add_complete(
                "barrier", first, end - first,
                track="virtual", tasks=len(finish),
            )
        busy = {t: finish[t] - released.get(t, start) for t in finish}
        wait = {t: end - finish[t] for t in finish}
        return RegionResult(
            name=region.name, start_s=start, end_s=end, busy_s=busy, wait_s=wait
        )

    # ------------------------------------------------------------------
    def _run_tiered_region(
        self,
        ctx: EngineContext,
        policy: PlacementPolicy,
        trace_t: list[float],
        trace_d: list[float],
        trace_p: list[float],
        trace_m: list[float],
    ) -> RegionResult:
        """N-tier twin of :meth:`_run_region` (>2 tiers only).

        Same three phases per tick, generalised: per-tier byte demand and
        contention scaling, pressure spikes steal fastest-tier capacity,
        and policies move pages with :class:`TieredMigrationBatch`.  Crash
        journaling is excluded by construction (guarded in ``__init__``).
        """
        cfg = self.config
        topo = self.topology
        n = topo.n_tiers
        region = ctx.region
        assert region is not None
        table = ctx.page_table
        assert isinstance(table, TieredPageTable)
        tel = self.telemetry
        start = ctx.time
        finish: dict[str, float] = {}
        gates = region.gate_map()
        released: dict[str, float] = {
            inst.task_id: start
            for inst in region.instances
            if inst.task_id not in ctx.gated
        }

        max_t = max(ctx.instance_times[i.task_id] for i in region.instances)
        dt = max(max_t / cfg.ticks_per_instance, 1e-9)
        mig_budget_bytes = (
            cfg.migration_bandwidth_fraction * topo.slowest.read_bandwidth * dt
        )
        ctx.migration_budget_pages = max(1, int(mig_budget_bytes // PAGE_SIZE))
        ctx.failed_migrations.clear()

        kernel = self._region_kernel(region)

        ticks = 0
        while len(finish) < len(region.instances):
            ticks += 1
            if ticks > cfg.max_ticks_per_region:
                raise RuntimeError(
                    f"region {region.name!r} exceeded {cfg.max_ticks_per_region} ticks"
                )
            if ctx.gated:
                for tid in sorted(ctx.gated):
                    if all(dep in finish for dep in gates[tid]):
                        ctx.gated.discard(tid)
                        released[tid] = ctx.time
            vectors = ctx.tier_fraction_vectors()
            active = ctx.active_instances()
            if not active and ctx.gated:
                raise RuntimeError(
                    f"region {region.name!r}: gated instances "
                    f"{sorted(ctx.gated)} can never be released"
                )

            # phase 1: unconstrained progress and per-tier byte demand
            dprog: dict[str, float] = {}
            bds: dict[str, TieredBreakdown] = {}
            demand = [0.0] * n
            for inst, bd in self._breakdowns(kernel, active, vectors):
                bds[inst.task_id] = bd
                ctx.instance_times[inst.task_id] = bd.total_s
                d = dt / max(bd.total_s, 1e-12)
                dprog[inst.task_id] = d
                for k in range(n):
                    demand[k] += d * bd.tier_bytes(k)

            # phase 2: per-tier bandwidth contention.  The injected
            # "pm bandwidth degraded" environment fault hits the slowest
            # tier, like its 2-tier counterpart.
            bw_factors = (
                self.faults.tier_bandwidth_factors(ctx.time, n)
                if self.faults is not None
                else (1.0,) * n
            )
            scales = []
            for k in range(n):
                cap = topo.tiers[k].read_bandwidth * dt * bw_factors[k]
                scales.append(min(1.0, cap / demand[k]) if demand[k] > 0 else 1.0)

            tick_bytes = [0.0] * n
            for inst in active:
                bd = bds[inst.task_id]
                total_bytes = sum(bd.tier_bytes(k) for k in range(n))
                if total_bytes > 0:
                    scale = sum(
                        (bd.tier_bytes(k) / total_bytes) * scales[k]
                        for k in range(n)
                    )
                else:
                    scale = 1.0
                step = dprog[inst.task_id] * scale
                prev = ctx.progress[inst.task_id]
                new = prev + step
                if new >= 1.0:
                    frac = (1.0 - prev) / max(step, 1e-15)
                    finish[inst.task_id] = ctx.time + frac * dt
                    new = 1.0
                ctx.progress[inst.task_id] = new
                done = new - prev
                for k in range(n):
                    tick_bytes[k] += done * bd.tier_bytes(k)

            # capacity-pressure spike steals fastest-tier capacity: demote
            # its coldest pages to the nearest tier with room
            pressure = (
                self.faults.tier_pressure_bytes(ctx.time, table.capacities_bytes)[0]
                if self.faults is not None
                else 0
            )
            if pressure > 0:
                evict_batch = _plan_tiered_pressure_evictions(table, pressure)
                if evict_batch is not None:
                    evicted = table.apply_batch(evict_batch)
                    if evicted:
                        ctx.pages_migrated += evicted
                        tick_bytes[0] += evicted * PAGE_SIZE
                        tick_bytes[-1] += evicted * PAGE_SIZE
                        if tel is not None:
                            tel.inc(
                                "merch_engine_pages_migrated_total",
                                evicted, cause="pressure",
                            )
                            tel.inc(
                                "merch_engine_bytes_migrated_total",
                                evicted * PAGE_SIZE, cause="pressure",
                            )

            # phase 3: policy-driven migration, throttled and fault-checked
            batch = policy.on_tick(ctx, dt)
            mig_bytes = 0.0
            if batch is not None and batch.n_pages > 0:
                max_pages = max(1, int(mig_budget_bytes * bw_factors[-1] // PAGE_SIZE))
                batch = _clamp_batch(batch, max_pages)
                if self.faults is not None:
                    batch, failed = self.faults.migration_outcome(batch, ctx.time)
                    if failed is not None:
                        ctx.failed_migrations.append(failed)
                if batch is not None and batch.n_pages > 0:
                    base = table.capacities_bytes
                    table.capacities_bytes = (
                        max(0, base[0] - pressure),
                    ) + base[1:]
                    try:
                        moved = table.apply_batch(batch)
                    finally:
                        table.capacities_bytes = base
                    ctx.pages_migrated += moved
                    mig_bytes = moved * PAGE_SIZE
                    overhead = moved * topo.page_migration_overhead_s
                    ctx.migration_overhead_s += overhead
                    if tel is not None and moved:
                        tel.inc(
                            "merch_engine_pages_migrated_total", moved, cause="policy"
                        )
                        tel.inc(
                            "merch_engine_bytes_migrated_total",
                            mig_bytes, cause="policy",
                        )
                        tel.inc(
                            "merch_engine_migration_overhead_seconds_total", overhead
                        )
                        tel.tracer.add_complete(
                            "migrate", ctx.time, overhead,
                            track="virtual", pages=moved, cause="policy",
                        )
                    # copies read the source tier and write the destination;
                    # charge the fast end and the slow aggregate like the
                    # 2-tier loop does
                    tick_bytes[0] += mig_bytes
                    tick_bytes[-1] += mig_bytes

            if cfg.record_bandwidth:
                trace_t.append(ctx.time)
                trace_d.append(tick_bytes[0] / dt)
                trace_p.append(sum(tick_bytes[1:]) / dt)
                trace_m.append(mig_bytes / dt)

            if tel is not None:
                tel.inc("merch_engine_ticks_total")
                tel.set(
                    "merch_engine_dram_occupancy_ratio",
                    table.tier_used_bytes(0) / max(table.capacities_bytes[0], 1),
                )

            ctx.time += dt

        end = max(finish.values())
        ctx.time = end
        if tel is not None:
            first = min(finish.values())
            tel.tracer.add_complete(
                "barrier", first, end - first,
                track="virtual", tasks=len(finish),
            )
        busy = {t: finish[t] - released.get(t, start) for t in finish}
        wait = {t: end - finish[t] for t in finish}
        return RegionResult(
            name=region.name, start_s=start, end_s=end, busy_s=busy, wait_s=wait
        )


def _plan_tiered_pressure_evictions(
    table: TieredPageTable, pressure_bytes: int
) -> TieredMigrationBatch | None:
    """Coldest fastest-tier pages out to the nearest tier with free pages.

    Same deterministic victim order as the 2-tier planner: objects by
    ``(tier-0 access fraction, name)``, pages coldest-first with stable
    id tie-breaks.  Destinations fill slower tiers in order (1, 2, ...),
    so demoted pages land as close to the fast tier as space allows.
    """
    if pressure_bytes <= 0:
        return None
    capacity_pages = max(0, (table.capacities_bytes[0] - pressure_bytes) // PAGE_SIZE)
    used = int(table.tier_used_pages(0))
    need = used - capacity_pages
    if need <= 0:
        return None
    free = [table.tier_free_pages(k) for k in range(table.n_tiers)]
    moves: list[tuple[str, np.ndarray, int]] = []
    picked = 0
    dst = 1
    for obj in sorted(
        table, key=lambda o: (float(o.tier_access_fractions()[0]), o.name)
    ):
        if picked >= need:
            break
        cold = obj.coldest_pages_in(0, limit=need - picked)
        pos = 0
        while pos < len(cold):
            while dst < table.n_tiers and free[dst] <= 0:
                dst += 1
            if dst >= table.n_tiers:
                break
            take = cold[pos : pos + free[dst]]
            moves.append((obj.name, take, dst))
            free[dst] -= len(take)
            picked += len(take)
            pos += len(take)
        if dst >= table.n_tiers:
            break
    return TieredMigrationBatch(moves=tuple(moves)) if moves else None


def _plan_pressure_evictions(
    table: PageTable, pressure_bytes: int
) -> list[tuple[str, np.ndarray]]:
    """Pick the coldest DRAM pages to demote so the table fits the capacity
    left over by an external pressure spike.  Pure planning (no mutation) so
    the choice can be journaled before it is applied.

    Victim order is a deterministic function of the placement: objects by
    ``(dram_access_fraction, name)`` -- the name tie-break pins the order
    when fractions tie, independent of dict insertion order -- and pages
    within an object coldest-first with id tie-breaks
    (:meth:`PagedObject.coldest_dram_pages` uses a stable sort).
    """
    if pressure_bytes <= 0:
        return []
    capacity_pages = max(0, (table.dram_capacity_bytes - pressure_bytes) // PAGE_SIZE)
    used = int(sum(obj.dram_pages() for obj in table))
    need = used - capacity_pages
    if need <= 0:
        return []
    plan: list[tuple[str, np.ndarray]] = []
    picked = 0
    for obj in sorted(table, key=lambda o: (o.dram_access_fraction(), o.name)):
        if picked >= need:
            break
        cold = obj.coldest_dram_pages(limit=need - picked)
        if len(cold):
            plan.append((obj.name, cold))
            picked += len(cold)
    return plan


def _clamp_batch(batch: MigrationBatch, max_pages: int) -> MigrationBatch:
    """Limit a batch to ``max_pages`` promotions+demotions (keep order).

    A non-positive budget yields an empty batch, and moves with no pages are
    dropped rather than carried along as zero-length entries.  The batch
    class is preserved so :class:`TieredMigrationBatch` (same move-triple
    shape, destination tier in the third slot) clamps identically.
    """
    cls = type(batch)
    if max_pages <= 0:
        return cls(moves=())
    if batch.n_pages <= max_pages:
        return batch
    moves: list[tuple[str, np.ndarray, bool]] = []
    left = max_pages
    for name, idx, promote in batch.moves:
        if left <= 0:
            break
        take = idx[:left]
        if len(take) == 0:
            continue
        moves.append((name, take, promote))
        left -= len(take)
    return cls(moves=tuple(moves))
