"""The public evaluation topologies: DGX1, NDv2, DGX2 (Table 2, Figs. 11-12).

Link parameters follow Appendix H:

* NDv2 / DGX1 chassis: 8 GPUs, 32 intra-chassis directed edges, NVLink pairs
  at 50 GBps and 25 GBps, α = 0.7 µs; two GPUs per chassis uplink to a global
  switch at 12.5 GBps, α = 1.3 µs (Figure 11).
* DGX2 chassis: 16 GPUs behind an NVSwitch (17 nodes, 32 directed edges per
  chassis) at 125 GBps, α = 0.35 µs; cross-chassis links at 12.5 GBps,
  α = 2.6 µs, with 8 sender GPUs and 8 receiver GPUs per chassis (Figure 12).

The exact NVLink pairing inside a DGX1-class box is the standard two-quad
layout (each quad fully connected, plus one cross-quad link per GPU); the
double-width NVLink pairs get the 50 GBps rate and the single links 25 GBps.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.topology import GB, US, Topology

# Fully-connected quads {0..3} and {4..7}, one cross-quad link per GPU.
_DGX1_FAST_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
_DGX1_SLOW_PAIRS = [(0, 4), (1, 5), (2, 6), (3, 7)]

NVLINK_FAST = 50 * GB
NVLINK_SLOW = 25 * GB
NVLINK_ALPHA = 0.7 * US
NDV2_UPLINK = 12.5 * GB
NDV2_UPLINK_ALPHA = 1.3 * US

DGX2_NVSWITCH = 125 * GB
DGX2_NVSWITCH_ALPHA = 0.35 * US
DGX2_CROSS = 12.5 * GB
DGX2_CROSS_ALPHA = 2.6 * US


def _add_chassis_nvlinks(topo: Topology, base: int) -> None:
    for a, b in _DGX1_FAST_PAIRS:
        topo.add_bidirectional(base + a, base + b, NVLINK_FAST, NVLINK_ALPHA)
    for a, b in _DGX1_SLOW_PAIRS:
        topo.add_bidirectional(base + a, base + b, NVLINK_SLOW, NVLINK_ALPHA)


def dgx1(name: str = "DGX1") -> Topology:
    """A single 8-GPU DGX1 box (no switch), 32 directed NVLink edges."""
    topo = Topology(name=name, num_nodes=8)
    _add_chassis_nvlinks(topo, 0)
    return topo


def ndv2(num_chassis: int = 1, name: str | None = None) -> Topology:
    """Azure NDv2: DGX1-style chassis joined through one global switch.

    GPU ids are ``chassis*8 + local``; the switch (present when
    ``num_chassis > 1``) is the last node id. Per Figure 11, GPUs 0 and 1 of
    each chassis carry the 12.5 GBps uplinks.
    """
    if num_chassis < 1:
        raise TopologyError("need at least one chassis")
    num_gpus = 8 * num_chassis
    if num_chassis == 1:
        topo = Topology(name=name or "NDv2", num_nodes=8)
        _add_chassis_nvlinks(topo, 0)
        return topo
    switch = num_gpus
    topo = Topology(name=name or f"NDv2x{num_chassis}",
                    num_nodes=num_gpus + 1, switches=frozenset({switch}))
    for chassis in range(num_chassis):
        base = chassis * 8
        _add_chassis_nvlinks(topo, base)
        for local in (0, 1):
            topo.add_bidirectional(base + local, switch,
                                   NDV2_UPLINK, NDV2_UPLINK_ALPHA)
    return topo


def dgx2(num_chassis: int = 1, name: str | None = None) -> Topology:
    """DGX2: 16 GPUs per chassis behind an NVSwitch; chassis cross-wired.

    Node layout per chassis ``c``: GPUs ``c*17 .. c*17+15``, NVSwitch
    ``c*17 + 16``. Cross-chassis wiring per Figure 12: GPUs 0-7 of each
    chassis send to GPUs 8-15 of every other chassis over dedicated
    12.5 GBps unidirectional links.
    """
    if num_chassis < 1:
        raise TopologyError("need at least one chassis")
    nodes_per_chassis = 17
    topo = Topology(
        name=name or (f"DGX2x{num_chassis}" if num_chassis > 1 else "DGX2"),
        num_nodes=nodes_per_chassis * num_chassis,
        switches=frozenset(c * nodes_per_chassis + 16
                           for c in range(num_chassis)))
    for c in range(num_chassis):
        base = c * nodes_per_chassis
        nvswitch = base + 16
        for g in range(16):
            topo.add_bidirectional(base + g, nvswitch,
                                   DGX2_NVSWITCH, DGX2_NVSWITCH_ALPHA)
    for c_src in range(num_chassis):
        for c_dst in range(num_chassis):
            if c_src == c_dst:
                continue
            src_base = c_src * nodes_per_chassis
            dst_base = c_dst * nodes_per_chassis
            for i in range(8):
                topo.add_link(src_base + i, dst_base + 8 + i,
                              DGX2_CROSS, DGX2_CROSS_ALPHA)
    return topo
