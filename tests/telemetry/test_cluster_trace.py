"""ISSUE 10 acceptance: the merged cross-process trace of a cluster run.

A telemetry-enabled Picasso run over a 2-shard ``LocalCluster`` must
export one JSON-lines trace that contains the dispatcher's phase spans
AND the per-agent worker spans (piggybacked on the finalize replies and
remapped under ``s<shard>`` proc labels), with parentage intact and
nonzero transport byte counters.  The test drives the run end-to-end
and then parses the written file, not the in-memory registry.
"""

import json

import pytest

from repro import telemetry
from repro.core import Picasso, PicassoParams
from repro.distributed import LocalCluster
from repro.pauli import random_pauli_set


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.enable(False)
    yield
    telemetry.reset()
    telemetry.enable(False)


@pytest.fixture(scope="module")
def trace_records(tmp_path_factory):
    """One 2-shard run, exported and re-parsed from disk.  Its
    ``greedy-static`` engine colors a built conflict graph (a
    ``greedy-dynamic`` run builds none, so its sweep gathers no keys)."""
    ps = random_pauli_set(300, 6, seed=0)
    with LocalCluster(2) as lc:
        telemetry.reset()
        # Each sweep is cut into several row ranges per shard, so both
        # shards receive work and the trace witnesses the second agent.
        params = PicassoParams(
            hosts=lc.hosts, telemetry=True, color_engine="greedy-static",
        )
        result = Picasso(params=params, seed=3).color(ps)
    assert result.telemetry is not None
    out = tmp_path_factory.mktemp("trace") / "cluster.jsonl"
    telemetry.write_trace_jsonl(out, result.telemetry)
    telemetry.reset()
    telemetry.enable(False)
    return [json.loads(line) for line in out.read_text().splitlines()]


def _spans(records):
    return [r for r in records if r["type"] == "span"]


class TestClusterTrace:
    def test_dispatcher_phase_spans_present(self, trace_records):
        dispatcher = {
            s["name"] for s in _spans(trace_records)
            if s["proc"] == "dispatcher"
        }
        assert {
            "picasso.assign",
            "picasso.conflict_build",
            "picasso.conflict_color",
        } <= dispatcher

    def test_both_agents_contribute_worker_spans(self, trace_records):
        per_proc: dict[str, set] = {}
        for s in _spans(trace_records):
            per_proc.setdefault(s["proc"], set()).add(s["name"])
        assert "pool.strip" in per_proc.get("s0", set())
        assert "pool.strip" in per_proc.get("s1", set())

    def test_span_parentage_survives_merge(self, trace_records):
        spans = _spans(trace_records)
        by_id = {s["id"]: s for s in spans}
        # Dispatcher side: the sweep's gather/assemble stages sit under
        # the conflict_build phase of the same iteration.
        gathers = [s for s in spans if s["name"] == "sweep.gather"]
        assert gathers
        for g in gathers:
            assert g["parent"] is not None
            assert by_id[g["parent"]]["name"] == "picasso.conflict_build"
        # Worker side: remapped ids still resolve within the trace.
        for s in spans:
            if s["proc"].startswith("s") and s["parent"] is not None:
                assert s["parent"] in by_id

    def test_transport_byte_counters_nonzero(self, trace_records):
        counters = {
            r["name"]: r["value"]
            for r in trace_records
            if r["type"] == "counter" and not r["labels"]
        }
        assert counters.get("transport.bytes_sent", 0) > 0
        assert counters.get("transport.bytes_recv", 0) > 0

    def test_every_span_has_duration_and_t0(self, trace_records):
        for s in _spans(trace_records):
            assert s["dur_s"] >= 0.0
            assert isinstance(s["t0"], float)
