"""cNoC: the CU-side interconnect (paper section 3.1).

A concentrated 2D torus: one router per shader engine (8 CUs each), 15
routers arranged in a 3 x 5 grid with wraparound links.  All LDS blocks are
unified into a global address space (GAS); virtual addresses map onto the
GAS with a hash of the lower address bits.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.gpusim.config import GpuConfig, mi100


@dataclass(frozen=True)
class TorusDimensions:
    rows: int = 3
    cols: int = 5


class ConcentratedTorus:
    """The 3 x 5 concentrated 2D torus of Figure 5(b)."""

    def __init__(self, config: GpuConfig | None = None,
                 dims: TorusDimensions | None = None,
                 link_bytes_per_cycle: float = 128.0,
                 hop_latency: int = 3,
                 concentration: int | None = None):
        self.config = config or mi100()
        self.dims = dims or TorusDimensions()
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self.hop_latency = hop_latency
        self.concentration = concentration or \
            self.config.cus_per_shader_engine
        self.num_routers = self.dims.rows * self.dims.cols
        if self.num_routers * self.concentration != self.config.num_cus:
            raise ValueError(
                f"{self.num_routers} routers x {self.concentration} CUs "
                f"!= {self.config.num_cus} CUs")
        #: ``hops[a][b]``: shortest torus distance between two routers
        #: (wraparound per dimension), for every ordered pair.
        self.hops: tuple[tuple[int, ...], ...] = tuple(
            tuple(self._torus_distance(a, b)
                  for b in range(self.num_routers))
            for a in range(self.num_routers))
        self.bytes_transferred = 0.0

    # -- topology ----------------------------------------------------------

    def router_of_cu(self, cu_id: int) -> int:
        """The shader-engine router a CU hangs off."""
        if not 0 <= cu_id < self.config.num_cus:
            raise ValueError(f"bad CU id {cu_id}")
        return cu_id // self.concentration

    def router_coords(self, router_id: int) -> tuple[int, int]:
        return divmod(router_id, self.dims.cols)

    def router_degree(self, router_id: int) -> int:
        """Torus routers all have degree 4 (edge-symmetric, sec 3.1)."""
        degree = 0
        r, c = self.router_coords(router_id)
        # Wraparound neighbours; a dimension of size 2 would merge +1/-1.
        degree += 2 if self.dims.rows > 2 else (1 if self.dims.rows == 2
                                                else 0)
        degree += 2 if self.dims.cols > 2 else (1 if self.dims.cols == 2
                                                else 0)
        return degree

    def _torus_distance(self, router_a: int, router_b: int) -> int:
        ra, ca = self.router_coords(router_a)
        rb, cb = self.router_coords(router_b)
        dr = abs(ra - rb)
        dc = abs(ca - cb)
        dr = min(dr, self.dims.rows - dr)
        dc = min(dc, self.dims.cols - dc)
        return dr + dc

    def hop_distance(self, router_a: int, router_b: int) -> int:
        """Shortest torus distance (wraparound per dimension)."""
        if not (0 <= router_a < self.num_routers
                and 0 <= router_b < self.num_routers):
            raise ValueError(f"bad router ids {router_a}, {router_b}")
        return self.hops[router_a][router_b]

    @property
    def diameter(self) -> int:
        return self.dims.rows // 2 + self.dims.cols // 2

    @property
    def average_hops(self) -> float:
        """Mean router-to-router distance over all ordered pairs."""
        n = self.num_routers
        return sum(map(sum, self.hops)) / (n * n)

    # -- timing --------------------------------------------------------------

    def transfer_cycles(self, src_cu: int, dst_cu: int,
                        num_bytes: float) -> float:
        """Cycles to move a payload between two CUs' LDS over the cNoC."""
        self.bytes_transferred += num_bytes
        hops = self.hop_distance(self.router_of_cu(src_cu),
                                 self.router_of_cu(dst_cu))
        # Local (same-router) transfers still traverse the router crossbar.
        serialization = num_bytes / self.link_bytes_per_cycle
        return (hops + 1) * self.hop_latency + serialization

    def broadcast_cycles(self, src_cu: int, num_bytes: float) -> float:
        """All-to-all style broadcast: bounded by the diameter."""
        self.bytes_transferred += num_bytes * (self.num_routers - 1)
        serialization = num_bytes / self.link_bytes_per_cycle
        return (self.diameter + 1) * self.hop_latency + \
            serialization * (self.num_routers - 1) / self.num_routers

    def effective_bandwidth(self) -> float:
        """Aggregate cNoC bandwidth in bytes/cycle (all links busy).

        A 2D torus has 2 links per router per dimension direction; with
        uniform traffic, the sustainable injection bandwidth per router is
        bounded by the bisection.
        """
        num_links = 2 * self.num_routers   # 2 dims x 1 link each, per node
        return num_links * self.link_bytes_per_cycle


class GlobalLds:
    """The unified LDS address space (GAS) the cNoC exposes.

    Tracks capacity and residency of named buffers (ciphertext limbs,
    switching keys; BlockSim names a block's output by its row in the
    :class:`~repro.blocksim.simulator.BlockTable`) so BlockSim can
    decide which inter-block transfers hit the global LDS instead of
    DRAM.  Addresses hash onto routers by their low bits, spreading
    consecutive lines across the machine.
    """

    def __init__(self, torus: ConcentratedTorus,
                 lds_scale: float = 1.0):
        self.torus = torus
        config = torus.config
        self.capacity_bytes = (config.num_cus * config.lds_kb_per_cu
                               * 1024 * lds_scale)
        self._resident: dict[Hashable, float] = {}
        # Running total of ``_resident``'s values: buffer sizes are
        # integer-valued floats far below 2**53, so it is exact.
        self._used = 0.0
        self.evictions = 0

    def address_home(self, address: int) -> tuple[int, int]:
        """(router, cu) owning an address: hash of the lower bits."""
        line = address // 64
        cu = line % self.torus.config.num_cus
        return self.torus.router_of_cu(cu), cu

    @property
    def used_bytes(self) -> float:
        return self._used

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def is_resident(self, name: Hashable) -> bool:
        return name in self._resident

    def resident_bytes(self, name: Hashable, default: float = 0.0) -> float:
        """Bytes pinned under ``name``; ``default`` if it is not resident."""
        return self._resident.get(name, default)

    def put(self, name: Hashable, num_bytes: float) -> bool:
        """Pin a buffer; evicts LRU-ish (insertion order) on pressure.

        Returns True if the buffer fits (possibly after evictions); a
        buffer larger than the whole GAS is rejected.
        """
        if num_bytes > self.capacity_bytes:
            return False
        if name in self._resident:
            self._used += num_bytes - self._resident[name]
            self._resident[name] = num_bytes
            return True
        while self._resident \
                and self._used + num_bytes > self.capacity_bytes:
            oldest = next(iter(self._resident))
            self._used -= self._resident.pop(oldest)
            self.evictions += 1
        self._resident[name] = num_bytes
        self._used += num_bytes
        return True

    def drop(self, name: Hashable) -> None:
        self._used -= self._resident.pop(name, 0.0)

    def clear(self) -> None:
        self._resident.clear()
        self._used = 0.0


def barrier_cycles(torus: ConcentratedTorus, scope: str = "global") -> float:
    """Synchronization barrier cost (sec 3.1: varying granularity).

    * ``workgroup``: intra-CU, LDS-latency bound.
    * ``shader_engine``: through one router.
    * ``global``: tree over the torus -- two sweeps of the diameter.
    """
    if scope == "workgroup":
        return float(torus.config.lds_latency_cycles)
    if scope == "shader_engine":
        return 2.0 * torus.hop_latency + torus.config.lds_latency_cycles
    if scope == "global":
        return 2.0 * (torus.diameter + 1) * torus.hop_latency + \
            torus.config.lds_latency_cycles
    raise ValueError(f"unknown barrier scope {scope!r}")
