"""Differential suite: scalar vs vectorized kernels must be bit-identical.

Every dispatch point behind the ``MERCH_SCALAR_KERNELS`` escape hatch
(PERFORMANCE.md) is driven with both implementations over seeded random
task sets, quotas, placements, and fault schedules, and the outputs are
compared at the byte level -- plans, predictions, migration schedules,
traces.  Value-level closeness is not good enough: the replay gate
(PR 7's golden fixture) asserts byte equality of served plans across
releases, so a last-bit drift between the paths is a real regression.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.codesamples import generate_corpus
from repro.apps.spgemm import SpGEMMApp
from repro.common import make_rng, scalar_kernels_enabled
from repro.core.model import TaskModelInputs
from repro.core.planner import greedy_plan, optimal_quotas, throughput_plan
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.kernels import (
    forest_apply,
    forest_predict,
    pack_forest,
    stacked_features,
    tree_apply,
)
from repro.ml.tree import DecisionTreeRegressor
from repro.sim.counters import collect_pmcs
from repro.sim.engine import Engine
from repro.sim.kernels import BreakdownKernel
from repro.sim.machine import MachineModel
from repro.sim.memspec import optane_hm_config
from repro.sim.pages import PageTable

_BD_FIELDS = (
    "total_s", "cpu_s", "mem_s", "dram_s", "pm_s",
    "dram_read_bytes", "dram_write_bytes", "pm_read_bytes", "pm_write_bytes",
)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.fixture
def scalar_mode(monkeypatch):
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")


@pytest.fixture
def kernel_mode(monkeypatch):
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")


def test_escape_hatch_reads_environment(monkeypatch):
    monkeypatch.delenv("MERCH_SCALAR_KERNELS", raising=False)
    assert not scalar_kernels_enabled()
    for truthy in ("1", "true", "YES", " on "):
        monkeypatch.setenv("MERCH_SCALAR_KERNELS", truthy)
        assert scalar_kernels_enabled()
    for falsy in ("0", "false", "", "off"):
        monkeypatch.setenv("MERCH_SCALAR_KERNELS", falsy)
        assert not scalar_kernels_enabled()


# ---------------------------------------------------------------------------
# ml: tree / forest kernels
# ---------------------------------------------------------------------------

def _fitted_models(seed: int, n: int = 240, d: int = 9):
    rng = make_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] * 2.0 - np.abs(X[:, 1]) + 0.3 * rng.normal(size=n)
    tree = DecisionTreeRegressor(max_depth=7).fit(X, y)
    gbr = GradientBoostedRegressor(
        n_estimators=40, max_depth=4, rng=make_rng(seed + 1)
    ).fit(X, y)
    return tree, gbr, rng


def _query_rows(rng, n: int, d: int = 9) -> np.ndarray:
    """``n`` normal rows, then rows carrying NaN, +-inf, subnormals and
    signed zeros (the PMC-corrupt fault injects NaN counters): each value
    filling a whole row, and each alone in every column of a normal row."""
    specials = (np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 0.0, -0.0)
    rows = [np.full(d, v) for v in specials]
    for v in specials:
        for j in range(d):
            row = rng.normal(size=d)
            row[j] = v
            rows.append(row)
    return np.vstack([rng.normal(size=(n, d)), *rows])


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_tree_predictions_bit_identical(seed, monkeypatch):
    tree, _, rng = _fitted_models(seed)
    Xq = _query_rows(rng, 300)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = tree.predict(Xq)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = tree.predict(Xq)
    assert ref.tobytes() == vec.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_gbr_predictions_bit_identical(seed, monkeypatch):
    _, gbr, rng = _fitted_models(seed)
    Xq = _query_rows(rng, 500)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = gbr.predict(Xq)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = gbr.predict(Xq)
    assert ref.tobytes() == vec.tobytes()


def test_forest_apply_matches_per_tree_apply():
    _, gbr, rng = _fitted_models(3)
    Xq = _query_rows(rng, 128)
    forest = pack_forest(gbr.trees_)
    leaves = forest_apply(forest, Xq)
    assert leaves.shape == (len(gbr.trees_), len(Xq))
    for k, tree in enumerate(gbr.trees_):
        assert leaves[k].tobytes() == tree_apply(tree.arrays(), Xq).tobytes()


def test_forest_predict_row_independence():
    """The batching contract: stacked evaluation == per-row evaluation."""
    _, gbr, rng = _fitted_models(5)
    Xq = _query_rows(rng, 64)
    forest = gbr.forest()
    stacked = forest_predict(forest, Xq, gbr.init_, gbr.learning_rate)
    for i in range(0, len(Xq), 17):
        row = forest_predict(forest, Xq[i : i + 1], gbr.init_, gbr.learning_rate)
        assert _bits(stacked[i]) == _bits(row[0])


def test_forest_cache_invalidated_by_refit():
    _, gbr, rng = _fitted_models(2)
    first = gbr.forest()
    X = rng.normal(size=(100, 9))
    gbr.fit(X, X[:, 0])
    assert gbr.forest() is not first


def test_fitted_models_survive_pickle(monkeypatch):
    tree, gbr, rng = _fitted_models(9)
    Xq = rng.normal(size=(50, 9))
    tree2 = pickle.loads(pickle.dumps(tree))
    gbr2 = pickle.loads(pickle.dumps(gbr))
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    assert tree2.predict(Xq).tobytes() == tree.predict(Xq).tobytes()
    assert gbr2.predict(Xq).tobytes() == gbr.predict(Xq).tobytes()


def test_stacked_features_matches_block_loop():
    rng = make_rng(4)
    base = rng.normal(size=(6, 8))
    ratios = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    X = stacked_features(base, ratios)
    n_r = len(ratios)
    ref = np.empty((6 * n_r, 9))
    for i in range(6):
        block = slice(i * n_r, (i + 1) * n_r)
        ref[block, :-1] = base[i]
        ref[block, -1] = ratios
    assert X.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# correlation / model stack
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def system():
    from repro.experiments.common import ExperimentContext

    return ExperimentContext(seed=0, fast=True).system


def _random_tasks(system, n_tasks: int, seed: int):
    machine, hm = system.machine, system.hm
    rng = make_rng(seed)
    tasks, task_bytes = [], {}
    for i, sample in enumerate(generate_corpus(n_tasks, seed=seed)):
        fp = sample.footprint(1.0)
        t_dram, t_pm = machine.endpoint_times(fp, hm)
        tid = f"t{i}"
        tasks.append(
            TaskModelInputs(
                task_id=tid,
                t_pm_only=t_pm,
                t_dram_only=t_dram,
                total_accesses=fp.total_accesses,
                pmcs=collect_pmcs(fp, machine, hm, rng=rng),
            )
        )
        task_bytes[tid] = fp.total_bytes
    return tasks, task_bytes


def test_predict_stacked_bit_identical(system, monkeypatch):
    tasks, _ = _random_tasks(system, 6, seed=11)
    corr = system.correlation
    ratios = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    pmcs_seq = [t.pmcs for t in tasks]
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = corr.predict_stacked(pmcs_seq, ratios)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = corr.predict_stacked(pmcs_seq, ratios)
    assert ref.tobytes() == vec.tobytes()


def test_ratio_grids_match_per_task_grids(system, kernel_mode):
    """The batching contract at the model layer: one stacked call per
    batch returns the same bits as a grid call per task."""
    tasks, _ = _random_tasks(system, 5, seed=13)
    model = system.performance_model
    levels = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    grids = model.ratio_grids(tasks, levels)
    for t in tasks:
        assert grids[t.task_id].tobytes() == model.ratio_grid(t, levels).tobytes()


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------

def _plan_fingerprint(plan) -> tuple:
    return (
        plan.rounds,
        plan.dram_pages_used,
        _bits(plan.predicted_makespan_s),
        tuple(
            (q.task_id, _bits(q.r_dram), q.dram_pages,
             _bits(q.predicted_time_s), _bits(q.dram_accesses))
            for q in plan.quotas
        ),
    )


@pytest.mark.parametrize("planner", [greedy_plan, optimal_quotas, throughput_plan])
@pytest.mark.parametrize("seed,n_tasks,cap_frac", [
    (3, 12, 0.40),
    (21, 4, 0.05),    # tight capacity: exercises the overshoot clamp
    (22, 9, 0.15),
    (23, 16, 0.65),
    (24, 7, 0.95),    # near-everything fits: exercises saturation
])
def test_planners_bit_identical(system, monkeypatch, planner, seed, n_tasks, cap_frac):
    tasks, task_bytes = _random_tasks(system, n_tasks, seed=seed)
    model = system.performance_model
    cap = int(sum(task_bytes.values()) * cap_frac)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = planner(tasks, model, cap, task_bytes)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = planner(tasks, model, cap, task_bytes)
    assert _plan_fingerprint(ref) == _plan_fingerprint(vec)


def test_greedy_plan_with_precomputed_grids_bit_identical(system, monkeypatch):
    """The service path: quotas priced from one stacked grids call."""
    tasks, task_bytes = _random_tasks(system, 10, seed=31)
    model = system.performance_model
    cap = int(sum(task_bytes.values()) * 0.3)
    levels = np.round(np.arange(0.0, 1.0 + 0.025, 0.05), 10)
    levels[-1] = min(levels[-1], 1.0)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    grids = model.ratio_grids(tasks, levels)
    vec = greedy_plan(tasks, model, cap, task_bytes, grids=grids)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = greedy_plan(tasks, model, cap, task_bytes, grids=grids)
    assert _plan_fingerprint(ref) == _plan_fingerprint(vec)


# ---------------------------------------------------------------------------
# sim: breakdown kernel, page-table arena, engine runs
# ---------------------------------------------------------------------------

def test_breakdown_kernel_bit_identical():
    machine, hm = MachineModel(), optane_hm_config()
    fps = [
        (f"t{i}", s.footprint(1.0))
        for i, s in enumerate(generate_corpus(8, seed=5))
    ]
    kernel = BreakdownKernel(machine, hm, fps)
    rng = make_rng(7)
    objs = sorted({o for _, fp in fps for o in fp.objects})
    for _ in range(10):
        fractions = {o: float(rng.uniform(0.0, 1.0)) for o in objs}
        batch = kernel.breakdown_batch([tid for tid, _ in fps], fractions)
        for (tid, fp), bd in zip(fps, batch):
            ref = machine.breakdown(fp, hm, fractions)
            for f in _BD_FIELDS:
                assert _bits(getattr(ref, f)) == _bits(getattr(bd, f)), (tid, f)


def test_page_table_arena_aliases_objects():
    wl = SpGEMMApp.paper_scale(seed=0).build_workload(seed=0)
    hm = optane_hm_config()
    table = PageTable(wl.objects, hm.dram.capacity_bytes, rng=0)
    for obj in table:
        sl = table.object_slice(obj.name)
        assert obj.residency.base is table.residency_arena
        assert obj.weight.base is table.weight_arena
        assert sl.stop - sl.start == obj.n_pages
        obj.set_residency(0.5)
        assert float(table.residency_arena[sl][0]) == 0.5
        obj.set_residency(0.0)
    # padding lanes between segments stay zero
    covered = np.zeros(len(table.residency_arena), dtype=bool)
    for obj in table:
        sl = table.object_slice(obj.name)
        covered[sl] = True
    table.place_all(1.0) if table.total_bytes <= hm.dram.capacity_bytes else None
    assert not table.residency_arena[~covered].any()
    assert not table.weight_arena[~covered].any()


def test_page_table_weights_match_prearena_construction():
    """Arena adoption must not change the sampled page weights."""
    wl = SpGEMMApp.paper_scale(seed=0).build_workload(seed=0)
    hm = optane_hm_config()
    a = PageTable(wl.objects, hm.dram.capacity_bytes, rng=42)
    b = PageTable(wl.objects, hm.dram.capacity_bytes, rng=42)
    for obj in a:
        assert obj.weight.tobytes() == b.object(obj.name).weight.tobytes()
        assert _bits(obj.dram_access_fraction()) == _bits(
            b.object(obj.name).dram_access_fraction()
        )


def test_page_table_survives_pickle():
    wl = SpGEMMApp.paper_scale(seed=0).build_workload(seed=0)
    hm = optane_hm_config()
    table = PageTable(wl.objects, hm.dram.capacity_bytes, rng=1)
    first = next(iter(table))
    first.set_residency(1.0)
    clone = pickle.loads(pickle.dumps(table))
    obj = clone.object(first.name)
    assert obj.residency.base is clone.residency_arena
    assert obj.residency.tobytes() == first.residency.tobytes()
    assert _bits(clone.dram_used_bytes()) == _bits(table.dram_used_bytes())


def _engine_run_fingerprint(system, seed: int, faults=None) -> tuple:
    app = SpGEMMApp.paper_scale(seed=seed)
    wl = app.build_workload(seed=seed)
    engine = Engine(machine=system.machine, hm=system.hm, faults=faults)
    policy = system.policy(app.binding(wl), seed=seed + 5)
    res = engine.run(wl, policy, seed=seed)
    return (
        _bits(res.total_time_s),
        res.pages_migrated,
        res.trace_time.tobytes(),
        res.trace_dram_bw.tobytes(),
        res.trace_pm_bw.tobytes(),
        res.trace_migration_bw.tobytes(),
        tuple(
            (r.name, _bits(r.start_s), _bits(r.end_s),
             tuple(sorted((t, _bits(v)) for t, v in r.busy_s.items())),
             tuple(sorted((t, _bits(v)) for t, v in r.wait_s.items())))
            for r in res.regions
        ),
    )


def test_engine_run_bit_identical(system, monkeypatch):
    """Whole-pipeline differential: plans, migration schedule, traces."""
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = _engine_run_fingerprint(system, seed=0)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = _engine_run_fingerprint(system, seed=0)
    assert ref == vec


def test_engine_run_bit_identical_under_faults(system, monkeypatch):
    """Fault schedules (bandwidth dips, pressure spikes, failed batches)
    must replay identically on both paths."""
    from repro.sim.faults import FaultConfig, FaultInjector

    def make_faults():
        return FaultInjector(
            FaultConfig(
                pm_bw_degradation_rate=0.2,
                pm_bw_degradation_factor=0.5,
                dram_pressure_rate=0.15,
                dram_pressure_fraction=0.2,
                migration_fail_rate=0.2,
                migration_reject_rate=0.1,
            ),
            seed=9,
        )

    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = _engine_run_fingerprint(system, seed=2, faults=make_faults())
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = _engine_run_fingerprint(system, seed=2, faults=make_faults())
    assert ref == vec


# ---------------------------------------------------------------------------
# sim: N-tier breakdown kernel and tiered engine runs
# ---------------------------------------------------------------------------

def _tiered_bd_fingerprint(bd) -> tuple:
    return (
        _bits(bd.total_s), _bits(bd.cpu_s), _bits(bd.mem_s),
        tuple(_bits(t) for t in bd.tier_s),
        tuple(_bits(b) for b in bd.tier_read_bytes),
        tuple(_bits(b) for b in bd.tier_write_bytes),
    )


@pytest.mark.parametrize("preset", ["dram_pm", "hbm_dram_pm", "hbm_dram_cxl_pm"])
def test_tiered_breakdown_kernel_bit_identical(preset):
    from repro.sim.kernels import TieredBreakdownKernel
    from repro.sim.memspec import topology_preset

    machine, topo = MachineModel(), topology_preset(preset)
    fps = [
        (f"t{i}", s.footprint(1.0))
        for i, s in enumerate(generate_corpus(8, seed=5))
    ]
    kernel = TieredBreakdownKernel(machine, topo, fps)
    rng = make_rng(7)
    objs = sorted({o for _, fp in fps for o in fp.objects})
    n = topo.n_tiers
    for _ in range(6):
        fractions = {}
        for o in objs:
            raw = rng.uniform(0.0, 1.0, n)
            raw = raw / raw.sum()
            fractions[o] = tuple(float(x) for x in raw)
        batch = kernel.breakdown_batch([tid for tid, _ in fps], fractions)
        for (tid, fp), bd in zip(fps, batch):
            ref = machine.breakdown_tiered(fp, topo, fractions)
            assert _tiered_bd_fingerprint(ref) == _tiered_bd_fingerprint(bd), tid


def _tiered_engine_fingerprint(system, preset: str, policy_name: str) -> tuple:
    from repro.core.model import PerformanceModel
    from repro.policies import PolicyBuildContext, build_policy
    from repro.sim.memspec import topology_preset

    topo = topology_preset(preset)
    app = SpGEMMApp.paper_scale(seed=0)
    wl = app.build_workload(seed=0)
    ctx = PolicyBuildContext(
        machine=system.machine,
        topology=topo,
        model=PerformanceModel(system.correlation),
        seed=1,
    )
    res = Engine(system.machine, topology=topo).run(
        wl, build_policy(policy_name, ctx), seed=1
    )
    return (
        _bits(res.total_time_s),
        res.pages_migrated,
        res.trace_time.tobytes(),
        res.trace_dram_bw.tobytes(),
        res.trace_pm_bw.tobytes(),
        res.trace_migration_bw.tobytes(),
    )


@pytest.mark.parametrize("preset", ["hbm_dram_pm", "hbm_dram_cxl_pm"])
@pytest.mark.parametrize("policy_name", ["merchandiser", "interval"])
def test_tiered_engine_run_bit_identical(system, monkeypatch, preset, policy_name):
    """The tiered tick loop must not care which kernel path computes it."""
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "1")
    ref = _tiered_engine_fingerprint(system, preset, policy_name)
    monkeypatch.setenv("MERCH_SCALAR_KERNELS", "0")
    vec = _tiered_engine_fingerprint(system, preset, policy_name)
    assert ref == vec
