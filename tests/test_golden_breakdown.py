"""Golden 2-tier breakdowns: the single N-tier machine model must reproduce,
bit for bit, what the dedicated 2-tier model computed before it was folded
into the N-tier path.

``golden/two_tier_breakdown.json`` holds seeded footprints of every access
pattern (plus a zero-access and an access-free footprint), the first
paper-scale regions of SpGEMM and WarpX, DRAM fractions including the edge
values 0, 1, 2, -0.5, 1 + 2**-52 and 5e-324, an empty map, a map missing an
object and a bandwidth derate of 0.37, together with every breakdown field
the 2-tier model produced for them, as ``float.hex``.  A 2-tier placement
is priced as the vector ``(r, 1 - r)``, fastest tier first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common import AccessPattern
from repro.sim.kernels import BreakdownKernel
from repro.sim.machine import MachineModel
from repro.sim.memspec import TopologySpec, optane_hm_config
from repro.tasks.task import Footprint, KernelProfile, ObjectAccess

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "two_tier_breakdown.json").read_text()
)
MACHINE = MachineModel()
HM = optane_hm_config()
TOPO = TopologySpec.from_hm(HM)


def _footprint(doc: dict) -> Footprint:
    branch_rate, misp, vector, ilp = (float.fromhex(x) for x in doc["profile"])
    return Footprint(
        accesses=tuple(
            ObjectAccess(obj, AccessPattern(pattern), reads, writes)
            for obj, pattern, reads, writes in doc["accesses"]
        ),
        instructions=doc["instructions"],
        profile=KernelProfile(branch_rate, misp, vector, ilp),
    )


def _fractions(doc: dict) -> dict[str, float]:
    return {obj: float.fromhex(r) for obj, r in doc.items()}


def _vectors(fractions: dict[str, float]) -> dict[str, tuple[float, float]]:
    return {obj: (r, 1.0 - r) for obj, r in fractions.items()}


def _fields(bd) -> list[str]:
    """The 2-tier field order of the fixture: total, cpu, mem, DRAM time,
    PM time, DRAM read/write bytes, PM read/write bytes."""
    return [
        float(x).hex()
        for x in (
            bd.total_s, bd.cpu_s, bd.mem_s, bd.tier_s[0], bd.tier_s[1],
            bd.tier_read_bytes[0], bd.tier_write_bytes[0],
            bd.tier_read_bytes[1], bd.tier_write_bytes[1],
        )
    ]


FOOTPRINTS = [_footprint(doc) for doc in GOLDEN["footprints"]]


def test_fixture_covers_the_edges():
    patterns = {a.pattern for fp in FOOTPRINTS for a in fp.accesses}
    assert patterns == set(AccessPattern)
    assert any(fp.total_accesses == 0 and fp.accesses for fp in FOOTPRINTS)
    values = {
        r for case in GOLDEN["scalar"] for r in _fractions(case["fractions"]).values()
    }
    assert {0.0, 1.0, 2.0, -0.5, 1.0 + 2.0**-52, 5e-324} <= values
    assert any(not case["fractions"] for case in GOLDEN["scalar"])
    assert {float.fromhex(c["derate"]) for c in GOLDEN["scalar"]} == {1.0, 0.37}


@pytest.mark.parametrize("index", range(len(GOLDEN["scalar"])))
def test_scalar_breakdown_reproduces_golden(index):
    case = GOLDEN["scalar"][index]
    fp = FOOTPRINTS[case["footprint"]]
    fractions = _fractions(case["fractions"])
    d = float.fromhex(case["derate"])
    bd = MACHINE.breakdown(fp, TOPO, _vectors(fractions), (d, d))
    assert _fields(bd) == case["expect"]
    assert MACHINE.instance_time(fp, HM, fractions, d).hex() == case["expect"][0]


def test_endpoints_and_uniform_ratio_reproduce_golden():
    for fp, (t_dram, t_pm) in zip(FOOTPRINTS, GOLDEN["endpoints"]):
        assert [t.hex() for t in MACHINE.endpoint_times(fp, HM)] == [t_dram, t_pm]
    for index, r, want in GOLDEN["uniform_ratio"]:
        got = MACHINE.uniform_ratio_time(FOOTPRINTS[index], HM, float.fromhex(r))
        assert got.hex() == want


@pytest.mark.parametrize("region", [k["region"] for k in GOLDEN["kernel"]])
def test_kernel_reproduces_golden(region):
    (doc,) = [k for k in GOLDEN["kernel"] if k["region"] == region]
    footprints = [(tid, _footprint(fp)) for tid, fp in doc["footprints"]]
    kernel = BreakdownKernel(MACHINE, TOPO, footprints)
    for call in doc["calls"]:
        vectors = _vectors(_fractions(call["fractions"]))
        got = kernel.breakdown_batch(call["task_ids"], vectors)
        assert [_fields(bd) for bd in got] == call["expect"]
