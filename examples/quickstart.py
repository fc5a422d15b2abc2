#!/usr/bin/env python3
"""Quickstart: synthesize an ALLGATHER schedule for a DGX1 box.

Covers the full TE-CCL pipeline in ~40 lines:

1. pick a topology and a collective demand,
2. synthesize a schedule (the facade auto-selects the MILP, since
   ALLGATHER benefits from in-network copy),
3. replay it through the independent α–β conformance oracle,
4. lower it to MSCCL XML, ready for a GPU runtime.

Run:  python examples/quickstart.py
"""

from repro import collectives, topology
from repro.collectives import allgather_plan
from repro.core import TecclConfig
from repro.core.solve import synthesize
from repro.msccl import to_msccl_xml
from repro.simulate import check_schedule

# 1. an 8-GPU DGX1 and the demand: every GPU gathers every GPU's buffer.
topo = topology.dgx1()
demand = collectives.allgather(topo.gpus, chunks_per_gpu=1)

# 25 KB chunks, the size the paper uses to make the α-cost visible (Table 3).
plan = allgather_plan(num_gpus=8, output_buffer_bytes=8 * 25e3)
config = TecclConfig(chunk_bytes=plan.chunk_bytes, num_epochs=10)

# 2. synthesize
result = synthesize(topo, demand, config)
print(f"method        : {result.method.value}")
print(f"epoch duration: {result.plan.tau * 1e6:.2f} us")
print(f"sends         : {result.schedule.num_sends}")
print(f"finish time   : {result.finish_time * 1e6:.2f} us")
print(f"algo bandwidth: "
      f"{result.algorithmic_bandwidth(plan.output_buffer_bytes) / 1e9:.2f} "
      "GB/s")

# 3. replay against the execution model (raises on any violation)
report = check_schedule(result.schedule, topo, demand,
                        result.plan).raise_on_violation()
print(f"simulated     : ok={report.ok}, "
      f"finish={report.finish_time * 1e6:.2f} us")

# 4. lower to MSCCL
xml = to_msccl_xml(result.schedule, topo, demand,
                   name="dgx1-allgather", collective="allgather")
print(f"msccl xml     : {len(xml.splitlines())} lines "
      f"(first: {xml.splitlines()[1][:60]}...)")
