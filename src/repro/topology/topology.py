"""Topology model: GPUs, switches, and directed links with capacity and α.

The paper's inputs are a directed graph whose nodes are GPUs or switches and
whose edges carry two parameters from the α–β cost model (§2.1):

* ``capacity`` — bytes/second the link sustains (β = 1/capacity);
* ``alpha`` — the fixed per-transfer latency in seconds (propagation plus the
  fixed software cost of posting a send).

Switches differ from GPUs in two ways the formulations exploit: they have no
buffer memory (chunks must be forwarded in the next epoch) and, depending on
the switch model, may or may not copy chunks (§3.1 "Modeling switches").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import TopologyError

GB = 1e9
"""Bytes per gigabyte (decimal, matching NIC datasheets and the paper)."""

US = 1e-6
"""Seconds per microsecond."""


@dataclass(frozen=True)
class Link:
    """A unidirectional link.

    Attributes:
        src: sending node id.
        dst: receiving node id.
        capacity: bytes per second (must be positive).
        alpha: fixed latency in seconds (must be non-negative).
    """

    src: int
    dst: int
    capacity: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError(f"self-loop on node {self.src}")
        if self.capacity <= 0:
            raise TopologyError(
                f"link ({self.src},{self.dst}): capacity must be positive")
        if self.alpha < 0:
            raise TopologyError(
                f"link ({self.src},{self.dst}): alpha must be non-negative")

    @property
    def beta(self) -> float:
        """Transmission time per byte (the β of the α–β model)."""
        return 1.0 / self.capacity

    def transfer_time(self, size_bytes: float) -> float:
        """α + β·S: the time for ``size_bytes`` to cross this link."""
        return self.alpha + size_bytes * self.beta

    def with_alpha(self, alpha: float) -> "Link":
        return replace(self, alpha=alpha)


@dataclass
class Topology:
    """A directed network of GPUs and switches.

    Node ids are dense integers ``0..num_nodes-1``. The class is mutable
    during construction (``add_link``) and validated by :meth:`validate`,
    which all solvers call before building a model.

    Attributes:
        name: human-readable name (appears in benchmark tables).
        num_nodes: total node count, GPUs plus switches.
        switches: ids of switch nodes.
        links: mapping from ``(src, dst)`` to :class:`Link`.
    """

    name: str
    num_nodes: int
    switches: frozenset[int] = frozenset()
    links: dict[tuple[int, int], Link] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise TopologyError("topology needs at least one node")
        self.switches = frozenset(self.switches)
        for s in self.switches:
            self._check_node(s)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node {node} out of range [0, {self.num_nodes})")

    def add_link(self, src: int, dst: int, capacity: float,
                 alpha: float = 0.0) -> Link:
        """Add a unidirectional link; replaces any existing (src, dst) link."""
        self._check_node(src)
        self._check_node(dst)
        link = Link(src, dst, capacity, alpha)
        self.links[(src, dst)] = link
        return link

    def add_bidirectional(self, a: int, b: int, capacity: float,
                          alpha: float = 0.0) -> tuple[Link, Link]:
        """Add a pair of opposing links (the common case in GPU fabrics)."""
        return (self.add_link(a, b, capacity, alpha),
                self.add_link(b, a, capacity, alpha))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> range:
        return range(self.num_nodes)

    @property
    def gpus(self) -> list[int]:
        """Non-switch nodes, i.e. the endpoints that source/sink demands."""
        return [n for n in self.nodes if n not in self.switches]

    @property
    def num_gpus(self) -> int:
        return self.num_nodes - len(self.switches)

    def is_switch(self, node: int) -> bool:
        return node in self.switches

    def out_edges(self, node: int) -> list[Link]:
        return [l for (s, _), l in self.links.items() if s == node]

    def in_edges(self, node: int) -> list[Link]:
        return [l for (_, d), l in self.links.items() if d == node]

    def link(self, src: int, dst: int) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link ({src},{dst}) in {self.name}") from None

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self.links

    @property
    def max_capacity(self) -> float:
        self._require_links()
        return max(l.capacity for l in self.links.values())

    @property
    def max_alpha(self) -> float:
        self._require_links()
        return max(l.alpha for l in self.links.values())

    def _require_links(self) -> None:
        if not self.links:
            raise TopologyError(f"topology {self.name!r} has no links")

    # ------------------------------------------------------------------
    # adjacency caches (built lazily; invalidated by add_link being rare
    # after validate(), solvers call build_adjacency() explicitly)
    # ------------------------------------------------------------------
    def adjacency(self) -> tuple[dict[int, list[Link]], dict[int, list[Link]]]:
        """Return (out_adj, in_adj) dicts keyed by node id."""
        out_adj: dict[int, list[Link]] = {n: [] for n in self.nodes}
        in_adj: dict[int, list[Link]] = {n: [] for n in self.nodes}
        for link in self.links.values():
            out_adj[link.src].append(link)
            in_adj[link.dst].append(link)
        return out_adj, in_adj

    # ------------------------------------------------------------------
    # validation & transforms
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants every solver relies on.

        * at least one GPU and one link;
        * GPUs are mutually reachable (demands would otherwise be infeasible);
        * switches are not sources/sinks of the graph (they relay only).
        """
        self._require_links()
        if self.num_gpus < 1:
            raise TopologyError("topology has no GPUs")
        for s in self.switches:
            if not self.out_edges(s) or not self.in_edges(s):
                raise TopologyError(f"switch {s} must have in and out links")
        self._check_gpu_reachability()

    def _check_gpu_reachability(self) -> None:
        gpus = self.gpus
        if len(gpus) <= 1:
            return
        out_adj, _ = self.adjacency()
        start = gpus[0]
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for link in out_adj[node]:
                if link.dst not in seen:
                    seen.add(link.dst)
                    stack.append(link.dst)
        unreachable = [g for g in gpus if g not in seen]
        if unreachable:
            raise TopologyError(
                f"GPUs {unreachable} unreachable from GPU {start}; "
                "collective demands would be infeasible")
        # Reverse reachability: everyone must also reach `start`.
        _, in_adj = self.adjacency()
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for link in in_adj[node]:
                if link.src not in seen:
                    seen.add(link.src)
                    stack.append(link.src)
        cannot_reach = [g for g in gpus if g not in seen]
        if cannot_reach:
            raise TopologyError(
                f"GPUs {cannot_reach} cannot reach GPU {start}; "
                "collective demands would be infeasible")

    def to_dict(self) -> dict:
        """JSON-ready representation; links sorted for stable output."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "switches": sorted(self.switches),
            "links": [
                {"src": link.src, "dst": link.dst,
                 "capacity": link.capacity, "alpha": link.alpha}
                for link in sorted(self.links.values(),
                                   key=lambda l: (l.src, l.dst))
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "Topology":
        """Parse the :meth:`to_dict` representation, validating as it goes."""
        try:
            name = data["name"]
            num_nodes = int(data["num_nodes"])
            switches = [int(s) for s in data.get("switches", [])]
            links = data["links"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"malformed topology document: {exc}") from exc
        topo = Topology(name=name, num_nodes=num_nodes,
                        switches=frozenset(switches))
        for entry in links:
            try:
                topo.add_link(int(entry["src"]), int(entry["dst"]),
                              float(entry["capacity"]),
                              float(entry.get("alpha", 0.0)))
            except (KeyError, TypeError, ValueError) as exc:
                raise TopologyError(f"malformed link entry {entry}: {exc}") \
                    from exc
        if not topo.links:
            raise TopologyError("topology document has no links")
        return topo

    def copy(self, name: str | None = None) -> "Topology":
        return Topology(name=name or self.name,
                        num_nodes=self.num_nodes,
                        switches=self.switches,
                        links=dict(self.links))

    def with_zero_alpha(self) -> "Topology":
        """The same fabric with α = 0 on every link (used by Fig. 7/9, §6.3)."""
        topo = Topology(name=f"{self.name}-alpha0",
                        num_nodes=self.num_nodes, switches=self.switches)
        for (src, dst), link in self.links.items():
            topo.links[(src, dst)] = link.with_alpha(0.0)
        return topo

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, gpus={self.num_gpus}, "
                f"switches={len(self.switches)}, links={len(self.links)})")
