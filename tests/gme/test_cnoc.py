"""Tests for the cNoC torus, global LDS and barriers."""

import pytest

from repro.gme import (ConcentratedTorus, GlobalLds, TorusDimensions,
                       barrier_cycles)
from repro.gpusim.config import mi100


@pytest.fixture(scope="module")
def torus():
    return ConcentratedTorus()


class TestTopology:
    def test_fifteen_routers_eight_cus_each(self, torus):
        assert torus.num_routers == 15
        assert torus.concentration == 8

    def test_edge_symmetric_degree_four(self, torus):
        """Paper sec 3.1: all routers have the same degree."""
        degrees = {torus.router_degree(r) for r in range(15)}
        assert degrees == {4}

    def test_router_of_cu(self, torus):
        assert torus.router_of_cu(0) == 0
        assert torus.router_of_cu(7) == 0
        assert torus.router_of_cu(8) == 1
        assert torus.router_of_cu(119) == 14

    def test_bad_cu_rejected(self, torus):
        with pytest.raises(ValueError):
            torus.router_of_cu(120)

    def test_hop_distance_symmetric(self, torus):
        for a in range(15):
            for b in range(15):
                assert torus.hop_distance(a, b) == torus.hop_distance(b, a)

    def test_wraparound_shortens_paths(self, torus):
        # Routers 0 (0,0) and 4 (0,4): mesh distance 4, torus distance 1.
        assert torus.hop_distance(0, 4) == 1

    def test_diameter(self, torus):
        # 3x5 torus: floor(3/2) + floor(5/2) = 3.
        assert torus.diameter == 3
        max_hops = max(torus.hop_distance(a, b)
                       for a in range(15) for b in range(15))
        assert max_hops == torus.diameter

    def test_triangle_inequality(self, torus):
        for a in range(15):
            for b in range(15):
                for c in range(0, 15, 3):
                    assert torus.hop_distance(a, b) <= \
                        torus.hop_distance(a, c) + torus.hop_distance(c, b)

    def test_hop_table_is_the_wraparound_distance(self, torus):
        rows, cols = torus.dims.rows, torus.dims.cols
        for a in range(15):
            for b in range(15):
                dr, dc = abs(a // cols - b // cols), abs(a % cols - b % cols)
                assert torus.hops[a][b] == torus.hop_distance(a, b) \
                    == min(dr, rows - dr) + min(dc, cols - dc)
        assert torus.average_hops == 420 / 225

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 15), (99, 3)])
    def test_bad_router_rejected(self, torus, pair):
        with pytest.raises(ValueError):
            torus.hop_distance(*pair)

    def test_mismatched_geometry_rejected(self):
        with pytest.raises(ValueError):
            ConcentratedTorus(dims=TorusDimensions(rows=4, cols=5))


class TestTiming:
    def test_local_transfer_cheapest(self, torus):
        local = torus.transfer_cycles(0, 1, 1024)     # same router
        remote = torus.transfer_cycles(0, 119, 1024)  # cross machine
        assert local < remote

    def test_serialization_scales_with_bytes(self, torus):
        small = torus.transfer_cycles(0, 16, 64)
        large = torus.transfer_cycles(0, 16, 64 * 1024)
        assert large > small

    def test_cnoc_beats_memory_roundtrip(self, torus):
        """Figure 4: on-chip sharing bypasses the off-chip hierarchy."""
        payload = 64 * 1024
        cnoc_time = torus.transfer_cycles(0, 64, payload)
        cfg = mi100()
        dram_round_trip = 2 * (cfg.dram_latency_cycles
                               + payload / cfg.bytes_per_cycle)
        assert cnoc_time < dram_round_trip

    def test_broadcast_bounded_by_diameter(self, torus):
        t = torus.broadcast_cycles(0, 64)
        assert t >= (torus.diameter + 1) * torus.hop_latency


class TestGlobalLds:
    def test_capacity_is_7_5_mb(self, torus):
        gas = GlobalLds(torus)
        assert gas.capacity_bytes == 7.5 * 1024 * 1024

    def test_lds_scale(self, torus):
        gas = GlobalLds(torus, lds_scale=2.0)
        assert gas.capacity_bytes == 15 * 1024 * 1024

    def test_put_and_residency(self, torus):
        gas = GlobalLds(torus)
        assert gas.put("ct0", 1 << 20)
        assert gas.is_resident("ct0")
        assert gas.used_bytes == 1 << 20
        gas.drop("ct0")
        assert not gas.is_resident("ct0")

    def test_eviction_under_pressure(self, torus):
        gas = GlobalLds(torus)
        mb = 1024 * 1024
        for i in range(7):
            assert gas.put(f"buf{i}", mb)
        assert gas.put("big", 2 * mb)      # forces eviction of oldest
        assert gas.evictions >= 1
        assert not gas.is_resident("buf0")
        assert gas.used_bytes <= gas.capacity_bytes

    def test_running_total_tracks_the_resident_set(self, torus):
        """put / overwrite / evict / drop / clear keep ``used_bytes`` equal
        to the sum over the resident buffers."""
        gas = GlobalLds(torus)
        mb = 1024.0 * 1024.0

        def check():
            assert gas.used_bytes == sum(gas._resident.values())

        for i in range(6):
            gas.put(f"buf{i}", mb)
            check()
        gas.put("buf2", 0.5 * mb)               # overwrite, smaller
        check()
        gas.put("buf3", 1.25 * mb)              # overwrite, larger
        check()
        gas.put("big", 3 * mb)                  # evicts buf0, buf1
        check()
        assert gas.evictions == 2 and not gas.is_resident("buf1")
        gas.drop("buf4")
        gas.drop("never-there")
        check()
        assert not gas.put("huge", 8 * mb)      # rejected: nothing moves
        check()
        assert gas.free_bytes == gas.capacity_bytes - gas.used_bytes
        gas.clear()
        assert gas.used_bytes == 0.0 and not gas.is_resident("big")

    def test_resident_bytes(self, torus):
        gas = GlobalLds(torus)
        gas.put("ct0", 4096.0)
        assert gas.resident_bytes("ct0", 1.0) == 4096.0
        assert gas.resident_bytes("ct1", 1.0) == 1.0

    def test_oversized_buffer_rejected(self, torus):
        gas = GlobalLds(torus)
        assert not gas.put("huge", 8 * 1024 * 1024)

    def test_address_hashing_spreads_lines(self, torus):
        gas = GlobalLds(torus)
        homes = {gas.address_home(line * 64)[1] for line in range(240)}
        assert len(homes) == 120           # every CU is hit


class TestBarriers:
    def test_barrier_hierarchy(self, torus):
        wg = barrier_cycles(torus, "workgroup")
        se = barrier_cycles(torus, "shader_engine")
        glob = barrier_cycles(torus, "global")
        assert wg < se < glob

    def test_unknown_scope_rejected(self, torus):
        with pytest.raises(ValueError):
            barrier_cycles(torus, "galaxy")
