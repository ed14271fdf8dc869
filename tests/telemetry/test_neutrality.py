"""Telemetry neutrality: observability never changes the answer.

The registry is write-only from the algorithm's point of view, so a
run with telemetry enabled must be bit-identical to the same run with
it disabled — same colors, same color count, same per-iteration count
statistics — across every executor backend.
Only timing fields may differ between the paired runs.
"""

import os
from dataclasses import fields

import numpy as np
import pytest

from repro import telemetry
from repro.core import Picasso, PicassoParams
from repro.core.picasso import IterationStats
from repro.distributed import LocalCluster
from repro.pauli import random_pauli_set

_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))

#: IterationStats fields that must match exactly between paired runs.
#: Timing buckets (``*_s``) and peak-memory probes are measurement,
#: not algorithm state, and legitimately vary run to run.
_COUNT_FIELDS = [
    f.name
    for f in fields(IterationStats)
    if not f.name.endswith("_s") and not f.name.endswith("peak_bytes")
]


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.enable(False)
    yield
    telemetry.reset()
    telemetry.enable(False)


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(2) as c:
        yield c


def _run(ps, *, telemetry_on, **kw):
    telemetry.reset()
    params = PicassoParams(telemetry=telemetry_on, **kw)
    result = Picasso(params=params, seed=7).color(ps)
    telemetry.reset()
    telemetry.enable(False)
    return result


def _assert_neutral(on, off):
    np.testing.assert_array_equal(on.colors, off.colors)
    assert on.n_colors == off.n_colors
    assert on.n_iterations == off.n_iterations
    for a, b in zip(on.iterations, off.iterations):
        for name in _COUNT_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
    # The enabled run carries a snapshot; the disabled run carries none.
    assert on.telemetry is not None
    assert off.telemetry is None


class TestNeutrality:
    def test_serial(self):
        ps = random_pauli_set(150, 6, seed=11)
        on = _run(ps, telemetry_on=True, n_workers=1)
        off = _run(ps, telemetry_on=False, n_workers=1)
        _assert_neutral(on, off)

    def test_pool(self):
        ps = random_pauli_set(150, 6, seed=11)
        on = _run(ps, telemetry_on=True, n_workers=_CI_WORKERS)
        off = _run(ps, telemetry_on=False, n_workers=_CI_WORKERS)
        _assert_neutral(on, off)

    def test_cluster(self, cluster):
        ps = random_pauli_set(150, 6, seed=11)
        on = _run(ps, telemetry_on=True, hosts=cluster.hosts)
        off = _run(ps, telemetry_on=False, hosts=cluster.hosts)
        _assert_neutral(on, off)
