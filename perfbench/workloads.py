"""The benchmark's three workloads.

Each workload is built from the benchmark seed alone and runs in one
process.  :meth:`setup` trains the Merchandiser system and generates the
inputs; :meth:`run_pass` runs the workload's fixed unit of work once and
returns a :class:`PassResult`; :meth:`verify` runs the checks that need
extra engine runs.  Every simulated or decided output comes from virtual
time only, so two passes over the same inputs must give identical
digests; host time appears only in the latency samples.

* ``paper_2tier`` -- Figure 4's matrix (SpGEMM and WarpX at the paper's
  input scale x PM-only, Memory Mode, MemoryOptimizer, Merchandiser) on
  the 2-tier Optane machine, driven the way ``ExperimentContext.run``
  drives it.
* ``ntier_dag`` -- SpGEMM on the 3- and 4-tier presets through the
  ``repro.policies`` registry, and the Fox and Cholesky DAGs through
  ``DAGExecutor`` with ``DAGMerchandiserPolicy`` (gated regions,
  ``critical_path_plan``).
* ``service_cluster`` -- placement requests through an in-process
  ``ClusterRouter`` over three WAL-journaled, replicated shards, on a
  virtual clock; no simulator.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field

from repro.apps import DAG_APPS, SpGEMMApp, WarpXApp
from repro.baselines import MemoryModePolicy, MemoryOptimizerPolicy, PMOnlyPolicy
from repro.common import PAGE_SIZE
from repro.core import Merchandiser
from repro.core.model import PerformanceModel
from repro.experiments import cluster_failover
from repro.experiments.common import ExperimentContext, acv
from repro.experiments.dag_apps import check_barrier_bitexact
from repro.experiments.service_load import _arrivals, _region_catalogue
from repro.policies import PolicyBuildContext, build_policy
from repro.runtime import DAGExecutor, DAGMerchandiserPolicy
from repro.service import PlacementRequest, PlacementServer, PredictionCache
from repro.service.cluster import ClusterRouter, PlacementShard, QuotaCoordinator
from repro.service.protocol import encode_decision
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.memspec import topology_preset

from meter import Meter


def offline_system(seed: int) -> Merchandiser:
    """The trained system, sized like ``ExperimentContext(fast=True)``."""
    return Merchandiser.offline_setup(
        n_samples=80, placements_per_sample=8, select_events=False, seed=seed
    )


class Digest:
    """Order-sensitive hash of a stream of outputs."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        self._h.update(repr(parts).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@dataclass
class PassResult:
    """Outputs and host-side counts of one pass of a workload."""

    #: hash of every placement decision made (plans, grants)
    decisions: Digest = field(default_factory=Digest)
    #: hash of every simulated result (virtual times, ACVs, counters)
    results: Digest = field(default_factory=Digest)
    attempted: int = 0
    failed: int = 0
    #: units of work delivered (engine runs, or placement decisions)
    requests: int = 0
    #: virtual-clock ticks advanced (engine ticks, or router ticks)
    ticks: int = 0
    #: corrected host seconds per latency sample (engine tick, or
    #: submit-to-decision); filled from the pass's meter
    latencies: list[float] = field(default_factory=list)
    #: Merchandiser's speedup over the baseline, per cell or decision
    speedups: list[float] = field(default_factory=list)
    #: A.C.V. of Merchandiser's per-task times, per cell or decision
    acvs: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    problems: list[str] = field(default_factory=list)
    #: speed-corrected and raw host seconds of the pass (see meter.Meter)
    wall_s: float = 0.0
    raw_wall_s: float = 0.0


def time_each_tick(policy, meter: Meter) -> None:
    """Record the host time from one engine tick to the next as a latency
    sample, and let the meter end a measured segment between ticks.

    Shadows the bound ``on_tick`` on this one instance, so the policy's
    class (and every ``isinstance`` check on it) is unchanged.
    """
    inner = policy.on_tick
    last = None

    def on_tick(ctx, dt):
        nonlocal last
        if last is not None:
            meter.samples.append(meter.now() - last)
        meter.poll()
        last = meter.now()
        return inner(ctx, dt)

    policy.on_tick = on_tick


class _SimWorkload:
    """Shared bookkeeping of the two simulator workloads."""

    def _cell(self, out: PassResult, meter: Meter, label: str, policy, run):
        """One engine run: counted, per-tick timed, failure-isolated."""
        out.attempted += 1
        time_each_tick(policy, meter)
        try:
            result = run()
        except Exception:  # a raising engine run is a failed operation
            out.failed += 1
            out.problems.append(f"{label}: engine run raised\n{traceback.format_exc()}")
            return None
        out.requests += 1
        return result

    @staticmethod
    def _record(out: PassResult, label: str, policy, res, busy) -> None:
        out.ticks += len(res.trace_time)
        out.decisions.add(label, res.pages_migrated, repr(getattr(policy, "plans", ())))
        out.results.add(label, res.total_time_s, len(res.trace_time), acv(busy))

    @staticmethod
    def _compare(out: PassResult, label: str, base_s: float, merch_s: float, busy) -> None:
        out.speedups.append(base_s / merch_s)
        out.acvs.append(acv(busy))
        if not merch_s < base_s:
            out.problems.append(
                f"{label}: Merchandiser {merch_s!r} s does not beat its "
                f"baseline {base_s!r} s"
            )


# ----------------------------------------------------------------------
# paper_2tier
# ----------------------------------------------------------------------
@dataclass
class Paper2TierInputs:
    seed: int
    system: Merchandiser
    #: (app name, workload, binding), one per application
    apps: list


#: the Figure 4 applications one pass runs, at the paper's input scale
#: (``ExperimentContext.app``).  All five take about a minute of host
#: time per pass, too long for a run; these two take about 20 s.  One is
#: irregular and one regular, the two kinds Figure 4 contrasts, and at
#: this scale their host time is mostly page-table bookkeeping.
APPS_2TIER = (SpGEMMApp, WarpXApp)


class Paper2Tier(_SimWorkload):
    """Figure 4's policy matrix on the 2-tier Optane machine."""

    name = "paper_2tier"
    POLICIES = ("pm-only", "memory-mode", "memory-optimizer", "merchandiser")

    def setup(self, seed: int) -> Paper2TierInputs:
        system = offline_system(seed)
        apps = []
        for app_cls in APPS_2TIER:
            app = app_cls.paper_scale(seed=seed)
            wl = app.build_workload(seed=seed)
            apps.append((app.name, wl, app.binding(wl)))
        return Paper2TierInputs(seed, system, apps)

    def _policy(self, name: str, inputs: Paper2TierInputs, binding):
        # the comparison set and seeds of ExperimentContext.policies
        if name == "pm-only":
            return PMOnlyPolicy()
        if name == "memory-mode":
            return MemoryModePolicy()
        if name == "memory-optimizer":
            return MemoryOptimizerPolicy(seed=inputs.seed + 7)
        return inputs.system.policy(binding, seed=inputs.seed + 5)

    def run_pass(self, inputs: Paper2TierInputs, meter: Meter) -> PassResult:
        out = PassResult()
        for app_name, wl, binding in inputs.apps:
            times: dict[str, float] = {}
            for name in self.POLICIES:
                label = f"{app_name}/{name}"
                policy = self._policy(name, inputs, binding)
                engine = Engine(MachineModel(), optane_hm_config())
                res = self._cell(
                    out, meter, label, policy,
                    lambda: engine.run(wl, policy, seed=inputs.seed + 1),
                )
                if res is None:
                    continue
                busy = list(res.task_busy_times().values())
                self._record(out, label, policy, res, busy)
                times[name] = res.total_time_s
                if name == "merchandiser" and "pm-only" in times:
                    self._compare(out, app_name, times["pm-only"], res.total_time_s, busy)
        return out

    def verify(self, inputs: Paper2TierInputs) -> PassResult:
        return PassResult()


# ----------------------------------------------------------------------
# ntier_dag
# ----------------------------------------------------------------------
#: N-tier presets raced through the registry, and the backends run on each
NTIER_CELLS = (
    ("hbm_dram_pm", ("static", "merchandiser", "ltr", "interval")),
    ("hbm_dram_cxl_pm", ("static", "merchandiser", "ltr")),
)


@dataclass
class NTierDagInputs:
    seed: int
    system: Merchandiser
    model: PerformanceModel
    spgemm: object
    #: (app, dags, binding), one per DAG application
    dag_apps: list


class NTierDag(_SimWorkload):
    """The N-tier engine path and the DAG runtime."""

    name = "ntier_dag"

    def setup(self, seed: int) -> NTierDagInputs:
        system = offline_system(seed)
        spgemm = SpGEMMApp.small(seed=seed).build_workload(seed=seed)
        dag_apps = []
        for app_cls in DAG_APPS:
            app = app_cls.small(seed=seed)
            dags = app.build_dags()
            dag_apps.append((app, dags, app.binding(dags)))
        return NTierDagInputs(
            seed, system, PerformanceModel(system.correlation), spgemm, dag_apps
        )

    def run_pass(self, inputs: NTierDagInputs, meter: Meter) -> PassResult:
        out = PassResult()
        machine = MachineModel()
        seed = inputs.seed + 1
        for preset, backends in NTIER_CELLS:
            topo = topology_preset(preset)
            bctx = PolicyBuildContext(
                machine=machine, topology=topo, model=inputs.model, seed=seed
            )
            times: dict[str, float] = {}
            for name in backends:
                label = f"SpGEMM@{preset}/{name}"
                policy = build_policy(name, bctx)
                engine = Engine(machine, topology=topo)
                res = self._cell(
                    out, meter, label, policy,
                    lambda: engine.run(inputs.spgemm, policy, seed=seed),
                )
                if res is None:
                    continue
                busy = list(res.task_busy_times().values())
                self._record(out, label, policy, res, busy)
                times[name] = res.total_time_s
                if name == "merchandiser" and "static" in times:
                    self._compare(out, f"SpGEMM@{preset}", times["static"], res.total_time_s, busy)
        for app, dags, binding in inputs.dag_apps:
            times = {}
            for name in ("pm-only", "merchandiser-dag"):
                label = f"{app.name}/{name}"
                if name == "pm-only":
                    policy = PMOnlyPolicy()
                else:
                    policy = inputs.system.policy(
                        binding, seed=inputs.seed + 5, policy_cls=DAGMerchandiserPolicy
                    )
                executor = DAGExecutor(Engine(machine, optane_hm_config()))
                res = self._cell(
                    out, meter, label, policy,
                    lambda: executor.run(dags, policy, seed=seed),
                )
                if res is None:
                    continue
                busy = list(res.node_busy_times().values())
                self._record(out, label, policy, res.run, busy)
                out.results.add(label, res.mode)
                times[name] = res.makespan_s
                if name == "merchandiser-dag" and "pm-only" in times:
                    if res.mode != "gated":
                        out.problems.append(f"{label}: ran as {res.mode!r}, not gated")
                    if not policy.dag_plans:
                        out.problems.append(f"{label}: no critical-path plan was made")
                    self._compare(out, app.name, times["pm-only"], res.makespan_s, busy)
        return out

    def verify(self, inputs: NTierDagInputs) -> PassResult:
        """2-tier ``topology=`` path == classic ``HMConfig`` path, and the
        level-sequence DAGs == their hand-built barrier programs."""
        out = PassResult()
        machine = MachineModel()
        seed = inputs.seed + 1
        wl = inputs.spgemm
        two_tier = topology_preset("dram_pm")
        bctx = PolicyBuildContext(
            machine=machine, topology=two_tier, model=inputs.model, seed=seed
        )
        out.attempted += 2
        classic = Engine(machine, optane_hm_config()).run(
            wl, build_policy("static", bctx), seed=seed
        )
        via_topo = Engine(machine, topology=two_tier).run(
            wl, build_policy("static", bctx), seed=seed
        )
        if classic.total_time_s != via_topo.total_time_s:
            out.problems.append(
                f"2-tier topology path {via_topo.total_time_s!r} s != "
                f"HMConfig path {classic.total_time_s!r} s"
            )
        ctx = ExperimentContext(seed=inputs.seed, _system=inputs.system)
        for app, _dags, _binding in inputs.dag_apps:
            out.attempted += 2
            check = check_barrier_bitexact(ctx, app)
            if not (check["plans_bitexact"] and check["makespan_bitexact"]):
                out.problems.append(f"{app.name}: barrier fallback not bit-exact: {check}")
        return out


# ----------------------------------------------------------------------
# service_cluster
# ----------------------------------------------------------------------
# The traffic and cluster shape are the repository's own service
# experiments', not tuned here: the cluster, lease and quota constants of
# ``cluster_failover`` (fast mode: three shards), and the request mix of
# ``service_load`` (its full-mode 16 region shapes x 4 tasks, shape and
# tenant picked uniformly by its ``_arrivals`` generator, a 512-entry
# cache per server).  Only the length of a pass is the benchmark's choice.
TICK_S = cluster_failover.TICK_S
REQUESTS_PER_TICK = cluster_failover.ARRIVALS_PER_TICK
N_TICKS = 500
DRAIN_TICKS = cluster_failover.DRAIN_TICKS
N_SHAPES = 16
TASKS_PER_SHAPE = 4
N_SHARDS = 3
GLOBAL_QUOTA_PAGES = cluster_failover.GLOBAL_QUOTA_PAGES
BASE_DEMAND_PAGES = cluster_failover.BASE_DEMAND_PAGES
LEASE_TTL_S = cluster_failover.LEASE_TTL_S
CACHE_CAPACITY = 512
MAX_BATCH = 16
CHECKPOINT_EVERY = 4
HEARTBEAT_MISS_THRESHOLD = 2


class VirtualClock:
    """Time source every server and cache reads (one fixed tick per loop)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass
class ServiceInputs:
    seed: int
    system: Merchandiser
    requests: list


class ServiceCluster:
    """Placement requests through an in-process sharded cluster."""

    name = "service_cluster"

    def setup(self, seed: int) -> ServiceInputs:
        system = offline_system(seed)
        catalogue = _region_catalogue(
            ExperimentContext(seed=seed), n_shapes=N_SHAPES, tasks_per_shape=TASKS_PER_SHAPE
        )
        # service_load's seeded picks; the arrival times are not used,
        # because requests enter a fixed number per virtual tick
        picks = _arrivals(
            catalogue, N_TICKS * REQUESTS_PER_TICK, mean_interarrival_s=TICK_S,
            seed=seed + 101, tag="r",
        )
        requests = [request for _, request in picks]
        return ServiceInputs(seed, system, requests)

    def _cluster(self, system: Merchandiser, clock: VirtualClock):
        model = system.performance_model
        coordinator = QuotaCoordinator(GLOBAL_QUOTA_PAGES, ttl_s=LEASE_TTL_S)
        caches: list[PredictionCache] = []

        def factory(shard_id, journal):
            cache = PredictionCache(capacity=CACHE_CAPACITY, clock=clock)
            caches.append(cache)
            server = PlacementServer(
                model,
                dram_capacity_bytes=GLOBAL_QUOTA_PAGES * PAGE_SIZE,
                window_s=TICK_S,
                max_batch=MAX_BATCH,
                cache=cache,
                clock=clock,
            )
            return PlacementShard(
                shard_id,
                server,
                coordinator,
                journal,
                checkpoint_every=CHECKPOINT_EVERY,
                base_demand_pages=BASE_DEMAND_PAGES,
            )

        router = ClusterRouter(
            coordinator,
            factory,
            heartbeat_interval_s=TICK_S,
            heartbeat_miss_threshold=HEARTBEAT_MISS_THRESHOLD,
        )
        for s in range(N_SHARDS):
            router.add_shard(f"shard-{s}", now=0.0)
        return router, coordinator, caches

    def run_pass(self, inputs: ServiceInputs, meter: Meter) -> PassResult:
        out = PassResult()
        clock = VirtualClock()
        router, coordinator, caches = self._cluster(inputs.system, clock)
        submitted_at: dict[str, float] = {}
        delivered: dict[str, int] = {}
        statuses: dict[str, int] = {}
        quota_breaches = 0
        max_granted = 0
        by_id = {r.request_id: r for r in inputs.requests}

        def deliver(batch) -> None:
            done = meter.now()
            for d in batch:
                meter.samples.append(done - submitted_at[d.request_id])
                delivered[d.request_id] = delivered.get(d.request_id, 0) + 1
                statuses[d.status] = statuses.get(d.status, 0) + 1
                out.decisions.add(encode_decision(d))
                if d.status == "shed" or d.policy == "daemon":
                    out.failed += 1
                if d.status != "planned":
                    continue
                # each fresh plan once: cached and deduplicated copies
                # would weight the mean by shape popularity
                out.speedups.append(
                    max(t.t_pm_only for t in by_id[d.request_id].tasks)
                    / d.predicted_makespan_s
                )
                out.acvs.append(acv(p.predicted_time_s for p in d.placements))

        pending = iter(inputs.requests)
        tick = 0
        while True:
            clock.now = tick * TICK_S
            draining = tick >= N_TICKS
            if not draining:
                for _ in range(REQUESTS_PER_TICK):
                    request = next(pending)
                    out.attempted += 1
                    submitted_at[request.request_id] = meter.now()
                    answered = router.submit(request, clock.now)
                    if answered is not None:
                        deliver([answered])
            deliver(router.tick(clock.now, flush=draining))
            out.ticks += 1
            granted = coordinator.granted_pages(clock.now)
            max_granted = max(max_granted, granted)
            quota_breaches += granted > GLOBAL_QUOTA_PAGES
            tick += 1
            meter.poll()
            if draining and (
                router.inflight_count() == 0 or tick >= N_TICKS + DRAIN_TICKS
            ):
                break

        lost = [r.request_id for r in inputs.requests if r.request_id not in delivered]
        doubled = [rid for rid, n in delivered.items() if n > 1]
        out.failed += len(lost)
        out.requests = sum(delivered.values())
        if lost:
            out.problems.append(f"{len(lost)} requests never answered (e.g. {lost[:3]})")
        if doubled:
            out.problems.append(f"{len(doubled)} request ids answered twice (e.g. {doubled[:3]})")
        if quota_breaches:
            out.problems.append(f"granted pages exceeded the global quota on {quota_breaches} ticks")
        out.cache_hits = sum(c.hits for c in caches)
        out.cache_lookups = out.cache_hits + sum(c.misses for c in caches)
        out.results.add(
            sorted(statuses.items()),
            out.cache_hits,
            out.cache_lookups,
            max_granted,
            sorted(router.stats.items()),
            [len(s.journal.entries) for _, s in sorted(router.shards.items())],
            math.fsum(out.speedups),
            math.fsum(out.acvs),
        )
        return out

    def verify(self, inputs: ServiceInputs) -> PassResult:
        return PassResult()


WORKLOADS = {w.name: w for w in (Paper2Tier(), NTierDag(), ServiceCluster())}
