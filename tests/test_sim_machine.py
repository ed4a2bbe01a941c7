"""Tests for the ground-truth machine model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AccessPattern
from repro.sim.machine import MachineModel, MachineSpec
from repro.sim.memspec import TopologySpec, optane_hm_config
from repro.tasks import Footprint, KernelProfile, ObjectAccess

HM = optane_hm_config()
TOPO = TopologySpec.from_hm(HM)
MODEL = MachineModel()


def footprint(pattern=AccessPattern.STREAM, reads=500_000, writes=50_000, instr=10_000_000):
    return Footprint(
        accesses=(ObjectAccess("x", pattern, reads=reads, writes=writes),),
        instructions=instr,
    )


class TestMachineSpec:
    def test_defaults_valid(self):
        MachineSpec()

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            MachineSpec(tier_overlap_q=0.5)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            MachineSpec(frequency_ghz=0)

    def test_random_has_lowest_mlp(self):
        spec = MachineSpec()
        assert spec.mlp[AccessPattern.RANDOM] == min(spec.mlp.values())

    def test_random_has_lowest_overlap(self):
        spec = MachineSpec()
        assert spec.overlap[AccessPattern.RANDOM] == min(spec.overlap.values())


class TestEndpoints:
    def test_dram_faster_than_pm(self):
        for pattern in AccessPattern:
            t_dram, t_pm = MODEL.endpoint_times(footprint(pattern), HM)
            assert t_dram < t_pm, pattern

    def test_random_has_largest_gap(self):
        """The PM/DRAM gap is widest for latency-bound random access
        (3.77x latency ratio vs 2.08x sequential)."""
        gaps = {}
        for pattern in AccessPattern:
            t_dram, t_pm = MODEL.endpoint_times(
                footprint(pattern, instr=1000), HM
            )
            gaps[pattern] = t_pm / t_dram
        assert gaps[AccessPattern.RANDOM] == max(gaps.values())

    def test_uniform_ratio_hits_endpoints(self):
        f = footprint(AccessPattern.RANDOM)
        t_dram, t_pm = MODEL.endpoint_times(f, HM)
        assert MODEL.uniform_ratio_time(f, HM, 0.0) == pytest.approx(t_pm)
        assert MODEL.uniform_ratio_time(f, HM, 1.0) == pytest.approx(t_dram)

    def test_uniform_ratio_rejects_bad_r(self):
        with pytest.raises(ValueError):
            MODEL.uniform_ratio_time(footprint(), HM, 1.5)

    @given(r=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_time_bounded_by_endpoints(self, r):
        """Equation 2's rationale (1) holds up to cross-tier parallelism:
        serving a sliver of traffic from the otherwise-idle tier can beat
        the single-tier time by a whisker, so the lower bound is soft."""
        f = footprint(AccessPattern.RANDOM)
        t_dram, t_pm = MODEL.endpoint_times(f, HM)
        t = MODEL.uniform_ratio_time(f, HM, r)
        assert 0.95 * t_dram <= t <= t_pm + 1e-9

    def test_monotone_in_r_when_memory_bound(self):
        f = footprint(AccessPattern.RANDOM, instr=1000)
        times = [MODEL.uniform_ratio_time(f, HM, r / 10) for r in range(11)]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_nonlinear_in_r(self):
        """The motivation for the learned f(.): the speedup curve is not a
        straight line between the endpoints."""
        f = footprint(AccessPattern.RANDOM, instr=40_000_000)
        t0 = MODEL.uniform_ratio_time(f, HM, 0.0)
        t1 = MODEL.uniform_ratio_time(f, HM, 1.0)
        t_half = MODEL.uniform_ratio_time(f, HM, 0.5)
        linear = 0.5 * (t0 + t1)
        assert abs(t_half - linear) / linear > 0.02


def dram_pm(r):
    """The 2-tier fraction vector of a DRAM fraction ``r``."""
    return (r, 1.0 - r)


class TestBreakdown:
    def test_components_consistent(self):
        bd = MODEL.breakdown(footprint(), TOPO, {"x": dram_pm(0.5)})
        assert bd.total_s > 0
        assert bd.total_s >= max(bd.cpu_s, bd.mem_s) - 1e-12

    def test_bytes_split_by_fraction(self):
        f = footprint(reads=1000, writes=0)
        bd = MODEL.breakdown(f, TOPO, {"x": dram_pm(0.25)})
        assert bd.tier_read_bytes[0] == pytest.approx(0.25 * 1000 * 64)
        assert bd.tier_read_bytes[1] == pytest.approx(0.75 * 1000 * 64)

    def test_write_bytes_tracked(self):
        f = footprint(reads=0, writes=100)
        bd = MODEL.breakdown(f, TOPO, {"x": dram_pm(1.0)})
        assert bd.tier_write_bytes[0] == pytest.approx(100 * 64)
        assert bd.tier_write_bytes[1] == 0

    def test_missing_object_defaults_to_pm(self):
        f = footprint()
        bd = MODEL.breakdown(f, TOPO, {})
        assert bd.tier_bytes(0) == 0
        assert bd.tier_bytes(1) > 0

    def test_bandwidth_derate_slows_memory(self):
        f = footprint(reads=5_000_000, instr=1000)
        t_full = MODEL.breakdown(f, TOPO, {"x": dram_pm(0.0)}).total_s
        t_half = MODEL.breakdown(
            f, TOPO, {"x": dram_pm(0.0)}, bandwidth_derates=(0.01, 0.01)
        ).total_s
        assert t_half > t_full
        assert MODEL.instance_time(f, HM, {"x": 0.0}, bandwidth_derate=0.01) == t_half

    def test_derate_validation(self):
        with pytest.raises(ValueError):
            MODEL.breakdown(footprint(), TOPO, {}, bandwidth_derates=(0, 0))
        with pytest.raises(ValueError):
            MODEL.instance_time(footprint(), HM, {}, bandwidth_derate=0)
        with pytest.raises(ValueError):
            MODEL.breakdown(footprint(), TOPO, {}, bandwidth_derates=(1.0,))

    def test_fraction_clamped(self):
        bd = MODEL.breakdown(footprint(), TOPO, {"x": dram_pm(2.0)})
        assert bd.tier_bytes(1) == pytest.approx(0.0)
        assert MODEL.instance_time(footprint(), HM, {"x": 2.0}) == bd.total_s

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            MODEL.breakdown(footprint(), TOPO, {"x": (1.0,)})


class TestComputeModel:
    def test_more_instructions_more_time(self):
        f1 = footprint(instr=1_000_000)
        f2 = footprint(instr=50_000_000)
        assert MODEL.cpu_time(f2) > MODEL.cpu_time(f1)

    def test_vectorisation_speeds_up(self):
        base = Footprint(
            accesses=(ObjectAccess("x", AccessPattern.STREAM, reads=10),),
            instructions=1_000_000,
            profile=KernelProfile(vector_fraction=0.0),
        )
        vec = Footprint(
            accesses=base.accesses,
            instructions=base.instructions,
            profile=KernelProfile(vector_fraction=0.9),
        )
        assert MODEL.cpu_time(vec) < MODEL.cpu_time(base)

    def test_branch_mispredictions_slow_down(self):
        base = Footprint(
            accesses=(ObjectAccess("x", AccessPattern.STREAM, reads=10),),
            instructions=1_000_000,
            profile=KernelProfile(branch_rate=0.01, branch_misp_rate=0.01),
        )
        branchy = Footprint(
            accesses=base.accesses,
            instructions=base.instructions,
            profile=KernelProfile(branch_rate=0.3, branch_misp_rate=0.1),
        )
        assert MODEL.cpu_time(branchy) > MODEL.cpu_time(base)

    def test_compute_bound_insensitive_to_placement(self):
        f = footprint(reads=100, writes=0, instr=500_000_000)
        t_pm = MODEL.uniform_ratio_time(f, HM, 0.0)
        t_dram = MODEL.uniform_ratio_time(f, HM, 1.0)
        assert t_pm / t_dram < 1.05


class TestPatternEffects:
    def test_stream_faster_than_random_per_access(self):
        t_stream = MODEL.uniform_ratio_time(footprint(AccessPattern.STREAM, instr=1000), HM, 0.0)
        t_random = MODEL.uniform_ratio_time(footprint(AccessPattern.RANDOM, instr=1000), HM, 0.0)
        assert t_random > t_stream

    def test_mixed_pattern_between_pure(self):
        mixed = Footprint(
            accesses=(
                ObjectAccess("a", AccessPattern.STREAM, reads=250_000),
                ObjectAccess("b", AccessPattern.RANDOM, reads=250_000),
            ),
            instructions=1000,
        )
        t_mixed = MODEL.instance_time(mixed, HM, {})
        t_s = MODEL.uniform_ratio_time(footprint(AccessPattern.STREAM, reads=500_000, writes=0, instr=1000), HM, 0)
        t_r = MODEL.uniform_ratio_time(footprint(AccessPattern.RANDOM, reads=500_000, writes=0, instr=1000), HM, 0)
        assert t_s < t_mixed < t_r
