"""Tests for multi-device conflict-graph construction."""

import numpy as np
import pytest
from device_budget import device_budget

from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.device import (
    DeviceOutOfMemory,
    DeviceSim,
    build_conflict_csr_multi,
)
from repro.pauli import random_pauli_set
from repro.util.bits import bitset_from_lists


def make_inputs(n=100, palette=14, L=5, seed=0):
    ps = random_pauli_set(n, 6, seed=seed)
    src = PauliComplementSource(ps)
    return src, (assign_color_lists(n, palette, L, rng=seed), palette)


class TestMultiDevice:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_host_build(self, k):
        src, pal = make_inputs()
        host_g, host_m = build_conflict_graph(100, src.edge_mask, *pal)
        devices = [DeviceSim(budget_bytes=1 << 22, name=f"dev{r}") for r in range(k)]
        g, stats = build_conflict_csr_multi(100, src.edge_mask, *pal, devices)
        assert stats.n_conflict_edges == host_m
        assert sum(stats.edges_per_device) == host_m
        np.testing.assert_array_equal(g.offsets, host_g.offsets)
        for v in range(100):
            np.testing.assert_array_equal(
                np.sort(g.neighbors(v)), np.sort(host_g.neighbors(v))
            )

    def test_aggregate_capacity_exceeds_single(self):
        """The future-work claim: an input that overflows one device
        completes on four of the same size."""
        src, pal = make_inputs(n=200, palette=10, L=5, seed=1)
        _, total_edges = build_conflict_graph(200, src.edge_mask, *pal)
        # Budget sized so one device cannot hold all edges but a quarter
        # fits comfortably: fixed costs (colmasks, counters), a strip
        # scratch and half the edge payload.
        fixed = bitset_from_lists(*pal).nbytes + 2 * 200 * 4
        single_budget = device_budget(200, fixed, (2 * total_edges * 4) // 2)
        with pytest.raises(DeviceOutOfMemory):
            build_conflict_csr_multi(
                200, src.edge_mask, *pal, [DeviceSim(budget_bytes=single_budget)]
            )
        devices = [
            DeviceSim(budget_bytes=single_budget, name=f"dev{r}") for r in range(4)
        ]
        g, stats = build_conflict_csr_multi(200, src.edge_mask, *pal, devices)
        assert stats.n_conflict_edges == total_edges

    def test_strip_scratch_charged_per_device(self):
        """Each device charges its strip scratch: one whose budget
        cannot hold a one-row strip (10 B per pair, 100 pairs) raises
        and frees what it had reserved."""
        src, pal = make_inputs()
        fixed = bitset_from_lists(*pal).nbytes + 2 * 100 * 4
        small = DeviceSim(budget_bytes=fixed + 10 * 100 - 1)
        with pytest.raises(DeviceOutOfMemory, match="strip_scratch"):
            build_conflict_csr_multi(100, src.edge_mask, *pal, [small])
        assert small.used_bytes == 0

    def test_memory_freed_on_all_devices(self):
        src, pal = make_inputs()
        devices = [DeviceSim(budget_bytes=1 << 22) for _ in range(3)]
        build_conflict_csr_multi(100, src.edge_mask, *pal, devices)
        assert all(d.used_bytes == 0 for d in devices)
        assert all(d.peak_bytes > 0 for d in devices)

    def test_oom_names_device(self):
        src, pal = make_inputs(n=150, palette=8, L=4, seed=2)
        # colmasks, counters, a one-row strip and 64 B of COO.
        tiny = bitset_from_lists(*pal).nbytes + 2 * 150 * 4 + 10 * 150 + 64
        devices = [
            DeviceSim(budget_bytes=1 << 22, name="big"),
            DeviceSim(budget_bytes=tiny, name="small"),
        ]
        with pytest.raises(DeviceOutOfMemory, match="device 1"):
            build_conflict_csr_multi(150, src.edge_mask, *pal, devices)

    def test_empty_device_list(self):
        src, pal = make_inputs()
        with pytest.raises(ValueError):
            build_conflict_csr_multi(100, src.edge_mask, *pal, [])

    def test_more_devices_than_pairs(self):
        src, pal = make_inputs(n=3, palette=4, L=2, seed=3)
        devices = [DeviceSim(budget_bytes=1 << 20) for _ in range(8)]
        g, stats = build_conflict_csr_multi(3, src.edge_mask, *pal, devices)
        assert g.n_vertices == 3
