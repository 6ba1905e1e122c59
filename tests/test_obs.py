"""Tests for the repro.obs observability layer.

Covers the metrics registry (counters, gauges, histogram percentiles,
reentrant phase timers), the zero-overhead disabled path, JSONL round
trips, atomic artifact writes, schema validation, and the immutable
NullTracer / per-category Tracer index satellites.
"""

import json
import os

import pytest

from repro import obs
from repro.obs import (
    MetricsRegistry,
    RunArtifact,
    SchemaError,
    dump_jsonl,
    load_jsonl,
    records_to_trace,
    render_profile,
    trace_to_records,
    validate_artifact,
)
from repro.sim import NULL_TRACER, NullTracer, Tracer


@pytest.fixture(autouse=True)
def _no_active_registry():
    """Keep the module-level registry clean across tests."""
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.5)
        reg.gauge("g").set(7)
        assert reg.counters["a"].value == 3.5
        assert reg.gauges["g"].value == 7.0
        # Lazy accessors return the same object.
        assert reg.counter("a") is reg.counters["a"]

    def test_histogram_percentiles(self):
        # Hyndman–Fan type-7 interpolation: h = (n-1) * p/100, linear
        # between the bracketing order statistics.
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for v in range(1, 101):  # 1..100
            hist.observe(v)
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(90) == pytest.approx(90.1)
        assert hist.percentile(99) == pytest.approx(99.01)
        assert hist.percentile(100) == 100
        assert hist.percentile(0) == 1
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1 and summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_weighted_percentile_interpolates(self):
        from repro.obs.registry import weighted_percentile

        assert weighted_percentile([1.0], 0) == 1.0
        assert weighted_percentile([1.0], 100) == 1.0
        assert weighted_percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert weighted_percentile([1.0, 2.0, 3.0], 50) == 2.0
        assert weighted_percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_histogram_empty_and_bad_percentile(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.summary() == {"count": 0}
        with pytest.raises(ValueError):
            hist.percentile(50)
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_timer_accumulates_with_injected_clock(self):
        ticks = [0.0]

        def wall():
            ticks[0] += 1.0
            return ticks[0]

        reg = MetricsRegistry(wall_clock=wall, cpu_clock=lambda: 0.0)
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        t = reg.timers["t"]
        assert t.calls == 2
        assert t.wall_s == pytest.approx(2.0)  # two enter/exit pairs, 1s each

    def test_timer_reentrant_nesting_counts_outermost_once(self):
        ticks = [0.0]

        def wall():
            ticks[0] += 1.0
            return ticks[0]

        reg = MetricsRegistry(wall_clock=wall, cpu_clock=lambda: 0.0)
        timer = reg.timer("nested")
        with timer:
            with timer:  # same-name reentry: no double counting
                pass
        assert timer.calls == 2
        # Only the outer pair samples the clock: enter=1.0, exit=2.0.
        assert timer.wall_s == pytest.approx(1.0)

    def test_distinct_timers_nest_independently(self):
        reg = MetricsRegistry()
        with reg.timer("outer"):
            with reg.timer("inner"):
                pass
        assert reg.timers["outer"].calls == 1
        assert reg.timers["inner"].calls == 1
        assert reg.timers["outer"].wall_s >= reg.timers["inner"].wall_s

    def test_module_helpers_disabled_are_noops(self):
        assert obs.get_registry() is None
        obs.incr("never")
        obs.observe("never", 1.0)
        obs.set_gauge("never", 1.0)
        ctx = obs.span("never")
        with ctx:
            pass
        # Nothing was created anywhere.
        with obs.using_registry() as reg:
            assert reg.counters == {} and reg.timers == {}

    def test_using_registry_restores_previous(self):
        outer = MetricsRegistry()
        obs.set_registry(outer)
        with obs.using_registry() as inner:
            obs.incr("x")
            assert obs.get_registry() is inner
        assert obs.get_registry() is outer
        assert "x" not in outer.counters
        assert inner.counters["x"].value == 1.0

    def test_snapshot_shape(self):
        with obs.using_registry() as reg:
            obs.incr("c", 2)
            obs.set_gauge("g", 3)
            obs.observe("h", 1.0)
            with obs.span("t"):
                pass
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 3.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["timers"]["t"]["calls"] == 1
        # Snapshot must be JSON-serializable as-is.
        json.dumps(snap)

    def test_render_profile_mentions_everything(self):
        with obs.using_registry() as reg:
            obs.incr("my.counter", 5)
            obs.set_gauge("my.gauge", 1.5)
            obs.observe("my.hist", 2.0)
            with obs.span("my.phase"):
                pass
        text = render_profile(reg)
        for needle in ("my.counter", "my.gauge", "my.hist", "my.phase"):
            assert needle in text


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        records = [
            {"record": "counter", "name": "a", "value": 1.0},
            {"record": "trace", "time": 2.0, "category": "mac",
             "message": "rts", "fields": {"node": "A"}},
        ]
        assert dump_jsonl(path, records) == 2
        assert load_jsonl(path) == records

    def test_trace_record_round_trip(self, tmp_path):
        tracer = Tracer(["mac"])
        tracer.log(1.0, "mac", "rts-sent", node="A", retries=2)
        tracer.log(5.0, "mac", "cts-timeout", node="B")
        records = trace_to_records(tracer)
        path = str(tmp_path / "trace.jsonl")
        dump_jsonl(path, records)
        rebuilt = records_to_trace(load_jsonl(path))
        assert [r.time for r in rebuilt] == [1.0, 5.0]
        assert rebuilt[0].field("node") == "A"
        assert rebuilt[0].field("retries") == 2
        assert rebuilt[1].message == "cts-timeout"

    def test_empty_dump(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        assert dump_jsonl(path, []) == 0
        assert load_jsonl(path) == []


class TestArtifact:
    def _artifact(self):
        art = RunArtifact(kind="table1", scenario="fig6", seed=3,
                          config={"duration": 1.0})
        with obs.using_registry() as reg:
            obs.incr("lp.solves", 4)
            with obs.span("lp.solve"):
                pass
        art.attach_registry(reg)
        art.results = {"total_effective": 123}
        art.wall_time_s = 0.25
        return art

    def test_json_round_trip_and_schema(self):
        art = self._artifact()
        doc = art.to_json_dict()
        validate_artifact(doc)
        back = RunArtifact.from_json_dict(json.loads(json.dumps(doc)))
        assert back.kind == "table1"
        assert back.results["total_effective"] == 123
        assert back.metrics["counters"]["lp.solves"] == 4.0

    def test_atomic_write_and_load(self, tmp_path):
        art = self._artifact()
        path = str(tmp_path / "artifact.json")
        art.write(path)
        # No temp litter left behind.
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        loaded = RunArtifact.load(path)
        assert loaded.seed == 3
        assert loaded.metrics["timers"]["lp.solve"]["calls"] == 1
        # Overwrite is atomic too: the file is replaced, never truncated.
        art.results["total_effective"] = 456
        art.write(path)
        assert RunArtifact.load(path).results["total_effective"] == 456

    def test_jsonl_layout_round_trip(self, tmp_path):
        art = self._artifact()
        tracer = Tracer(["app"])
        tracer.log(9.0, "app", "hop-delivered", node="C")
        art.attach_trace(tracer)
        path = str(tmp_path / "artifact.jsonl")
        art.write(path)
        loaded = RunArtifact.load(path)
        assert loaded.kind == "table1"
        assert loaded.metrics["counters"]["lp.solves"] == 4.0
        assert loaded.metrics["timers"]["lp.solve"]["calls"] == 1
        assert len(loaded.trace) == 1
        assert loaded.trace[0]["message"] == "hop-delivered"

    def test_schema_rejects_bad_documents(self):
        art = self._artifact()
        doc = art.to_json_dict()
        for mutation, path_hint in (
            (lambda d: d.pop("results"), "results"),
            (lambda d: d.update(schema="wrong/name"), "schema"),
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d["metrics"].pop("timers"), "timers"),
            (lambda d: d["metrics"]["counters"].update(bad="x"), "bad"),
            (lambda d: d["trace"].append({"time": 1.0}), "trace"),
        ):
            bad = json.loads(json.dumps(doc))
            mutation(bad)
            with pytest.raises(SchemaError) as err:
                validate_artifact(bad)
            assert path_hint in str(err.value)

    def test_validate_non_dict(self):
        with pytest.raises(SchemaError):
            validate_artifact([1, 2, 3])


class TestNullTracer:
    def test_log_is_ignored(self):
        NULL_TRACER.log(1.0, "mac", "rts-sent", node="A")
        assert NULL_TRACER.records == []
        assert NULL_TRACER.count("mac") == 0

    def test_enable_is_rejected(self):
        with pytest.raises(TypeError):
            NULL_TRACER.enable("mac")
        assert NULL_TRACER.enabled == set()

    def test_log_after_constructor_categories_still_ignored(self):
        # Even a NullTracer constructed with categories never records.
        tracer = NullTracer(["mac"])
        tracer.log(1.0, "mac", "rts-sent")
        assert tracer.records == []
        assert not tracer.active("mac")

    def test_is_a_tracer(self):
        assert isinstance(NULL_TRACER, Tracer)


class TestTracerIndex:
    def _loaded_tracer(self):
        tracer = Tracer(["mac", "chan", "queue"])
        for i in range(10):
            tracer.log(float(i), "mac", "rts-sent", seq=i)
            tracer.log(float(i), "chan", "busy")
        tracer.log(99.0, "queue", "drop")
        return tracer

    def test_filter_uses_index(self):
        tracer = self._loaded_tracer()
        assert len(tracer.filter("mac")) == 10
        assert len(tracer.filter("chan")) == 10
        assert len(tracer.filter("queue")) == 1
        assert tracer.filter("nothing") == []
        # Records and per-category views agree.
        assert len(tracer.records) == 21
        assert tracer.filter("mac")[0].field("seq") == 0

    def test_count_with_and_without_prefix(self):
        tracer = self._loaded_tracer()
        assert tracer.count("mac") == 10
        assert tracer.count("mac", "rts") == 10
        assert tracer.count("mac", "cts") == 0
        assert tracer.count("missing") == 0

    def test_clear_resets_index(self):
        tracer = self._loaded_tracer()
        tracer.clear()
        assert tracer.records == []
        assert tracer.filter("mac") == []
        assert tracer.count("chan") == 0
        tracer.log(1.0, "mac", "fresh")
        assert tracer.count("mac") == 1


class TestInstrumentationPoints:
    def test_contention_and_lp_metrics(self):
        from repro.core import ContentionAnalysis, basic_fairness_lp_allocation
        from repro.scenarios import fig1

        with obs.using_registry() as reg:
            analysis = ContentionAnalysis(fig1.make_scenario())
            basic_fairness_lp_allocation(analysis)
        snap = reg.snapshot()
        assert snap["counters"]["contention.analyses"] == 1
        assert snap["counters"]["contention.cliques_found"] >= 1
        assert snap["counters"]["lp.solves"] >= 1
        assert snap["counters"]["lp.revised.pivots"] >= 1
        assert snap["timers"]["contention.clique_enumeration"]["calls"] == 1
        assert snap["timers"]["lp.solve"]["calls"] >= 1

    def test_distributed_convergence_metrics(self):
        from repro.core import DistributedAllocator
        from repro.scenarios import fig6

        with obs.using_registry() as reg:
            allocator = DistributedAllocator(fig6.make_scenario())
            allocator.run()
        assert allocator.convergence["max_rounds"] >= 1
        assert allocator.convergence["total_messages"] >= 1
        assert set(allocator.convergence["rounds_per_flow"]) == {
            "1", "2", "3", "4", "5"
        }
        snap = reg.snapshot()
        assert snap["counters"]["2pad.messages"] >= 1
        assert snap["counters"]["2pad.local_lps"] == 5
        assert snap["histograms"]["2pad.rounds_to_convergence"]["count"] == 5
        assert snap["gauges"]["2pad.max_rounds"] >= 1

    def test_propagation_fixpoint_unchanged_by_round_based_gossip(self):
        # The iterative gossip must reach the same constraint sets as the
        # original one-shot union (Table I depends on it).
        from repro.core import DistributedAllocator
        from repro.scenarios import fig6

        allocator = DistributedAllocator(fig6.make_scenario())
        allocator.build_local_views()
        allocator.propagate_constraints()
        for flow in allocator.scenario.flows:
            relevant = set()
            for node in flow.path:
                for clique in allocator.views[node].local_cliques:
                    if any(sid.flow == flow.flow_id for sid in clique):
                        relevant.add(clique)
            for node in flow.path:
                view = allocator.views[node]
                held = set(view.local_cliques) | set(view.received_cliques)
                assert relevant <= held

    def test_simulator_loop_metrics(self):
        from repro.sim import Simulator

        with obs.using_registry() as reg:
            sim = Simulator()
            for i in range(5):
                sim.schedule(float(i + 1), lambda: None)
            sim.run_until(10.0)
        snap = reg.snapshot()
        assert snap["counters"]["sim.events"] == 5
        assert snap["gauges"]["sim.peak_queue_depth"] == 5
        assert snap["gauges"]["sim.queue_depth"] == 0
        assert snap["timers"]["sim.run_until"]["calls"] == 1

    def test_peak_queue_depth_without_registry(self):
        from repro.sim import Simulator

        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.peak_queue_depth == 7
        sim.run()
        assert sim.events_processed == 7
