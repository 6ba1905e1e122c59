"""End-to-end tracing, event streaming, and SLO reporting.

Covers the observability tentpole: hierarchical span tracing with
deterministic ids and a zero-cost disabled path, the bounded JSONL event
bus (no torn lines under ParallelSweep, explicit drop counters), the
Prometheus exporter, the SLO section of schema-v2 artifacts, the
weighted-percentile rule (property-tested against the exact sorted-sample
reference), full span coverage of the epoch pipeline, and the
instrumentation-off bitwise-identity guarantee.
"""

import json
import random
import statistics

import pytest

from repro import obs
from repro.obs import (
    EventBus,
    MetricsRegistry,
    NullSpan,
    RunArtifact,
    SpanTracer,
    render_prometheus,
    using_event_bus,
    using_registry,
    using_tracer,
    validate_prometheus_text,
    weighted_percentile,
)
from repro.obs.events import emit_event
from repro.obs.slo import (
    bench_trend_rows,
    perf_reference_rows,
    render_slo,
    slo_report,
    validate_slo,
)
from repro.obs.trace import span
from repro.perf.parallel import ParallelSweep
from repro.resilience import AllocatorRuntime, ChurnEvent
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.scenarios import fig1, fig6


@pytest.fixture(autouse=True)
def _clean_globals():
    prev_reg = obs.get_registry()
    prev_tracer = obs.get_tracer()
    prev_bus = obs.get_event_bus()
    obs.set_registry(None)
    obs.set_tracer(None)
    obs.set_event_bus(None)
    yield
    obs.set_registry(prev_reg)
    obs.set_tracer(prev_tracer)
    obs.set_event_bus(prev_bus)


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------

class TestSpanTracer:
    def test_hierarchy_and_deterministic_ids(self):
        with using_tracer() as tracer:
            with span("outer", k=1) as outer:
                with span("inner") as inner:
                    inner.tag(deep=True)
            with span("second"):
                pass
        records = tracer.to_records()
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["span"] == "s1"
        assert by_name["inner"]["span"] == "s2"
        assert by_name["second"]["span"] == "s3"
        assert by_name["inner"]["parent"] == "s1"
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["tags"] == {"deep": True}
        assert by_name["outer"]["tags"] == {"k": 1}
        assert all(r["record"] == "span" for r in records)
        assert all(r["duration_s"] >= 0.0 for r in records)

    def test_disabled_is_null_span(self):
        s = span("anything")
        assert isinstance(s, NullSpan)
        with s as inner:
            inner.tag(ignored=1)  # must be a silent no-op

    def test_exception_tags_error_and_closes(self):
        with using_tracer() as tracer:
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        (record,) = tracer.to_records()
        assert record["tags"]["error"] == "RuntimeError"
        assert tracer.stats()["open"] == 0

    def test_bounded_with_drop_counter(self):
        tracer = SpanTracer(max_spans=2)
        with using_tracer(tracer):
            for _ in range(5):
                with span("tick"):
                    pass
        stats = tracer.stats()
        assert len(tracer.to_records()) == 2
        assert stats["dropped"] == 3
        assert stats["opened"] == 5


# ----------------------------------------------------------------------
# Weighted percentile (satellite: documented rule + property tests)
# ----------------------------------------------------------------------

class TestWeightedPercentile:
    def test_documented_examples(self):
        assert weighted_percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert weighted_percentile([1.0], 37) == 1.0
        assert weighted_percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_matches_exact_inclusive_quantiles(self):
        # statistics.quantiles(method="inclusive") is the exact
        # sorted-sample (Hyndman–Fan type 7) reference.
        rng = random.Random(20260808)
        for trial in range(20):
            n = rng.randint(2, 60)
            data = [rng.uniform(-50, 50) for _ in range(n)]
            ordered = sorted(data)
            cuts = statistics.quantiles(data, n=10, method="inclusive")
            for k, reference in enumerate(cuts, start=1):
                got = weighted_percentile(ordered, 100.0 * k / 10)
                assert got == pytest.approx(reference), (trial, k)

    def test_monotone_and_bounded(self):
        rng = random.Random(7)
        data = sorted(rng.gauss(0, 3) for _ in range(41))
        previous = float("-inf")
        for p in range(0, 101, 5):
            value = weighted_percentile(data, float(p))
            assert data[0] <= value <= data[-1]
            assert value >= previous
            previous = value
        assert weighted_percentile(data, 0) == data[0]
        assert weighted_percentile(data, 100) == data[-1]


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------

class TestEventBus:
    def test_bounded_pending_with_drop_counters(self):
        with using_registry() as reg:
            with using_event_bus(EventBus(max_pending=2)) as bus:
                for i in range(5):
                    emit_event("tick", i=i)
        stats = bus.stats()
        assert stats == {"emitted": 5, "pending": 2, "dropped": 3,
                         "written": 0}
        assert reg.counters["obs.events.dropped"].value == 3

    def test_streaming_survives_memory_bound(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with using_event_bus(EventBus(path=path, max_pending=1)) as bus:
            for i in range(4):
                emit_event("tick", i=i)
        lines = path.read_text().splitlines()
        # The memory bound drops pending entries, never stream lines.
        assert len(lines) == 4
        assert bus.stats()["dropped"] == 3
        for seq, line in enumerate(lines, start=1):
            event = json.loads(line)
            assert event["record"] == "event"
            assert event["seq"] == seq
            assert event["source"] == "main"

    def test_absorb_keeps_foreign_seq_and_source(self):
        worker = EventBus(source="task3")
        worker.emit("done", x=1)
        parent = EventBus()
        parent.emit("local")
        assert parent.absorb(worker.drain()) == 1
        assert [(e["source"], e["seq"]) for e in parent.pending] == [
            ("main", 1), ("task3", 1)
        ]


# ----------------------------------------------------------------------
# Event integrity under ParallelSweep
# ----------------------------------------------------------------------

def _emitting_task(x):
    emit_event("task.tick", value=x)
    emit_event("task.done", value=x * 2)
    return x * x


def _event_key(event):
    return (event["source"], event["seq"], event["kind"], event["value"])


class TestParallelEventIntegrity:
    def test_no_torn_lines_and_deterministic_merge(self, tmp_path):
        items = list(range(12))
        path = tmp_path / "sweep.jsonl"
        with using_registry():
            with using_event_bus(EventBus(path=path)) as bus:
                out = ParallelSweep(4).map(_emitting_task, items)
        assert out == [x * x for x in items]

        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]  # every line parses
        assert len(events) == 2 * len(items)
        # Merge order is task-submission order, not completion order.
        expected = []
        for i in items:
            expected.append((f"task{i}", 1, "task.tick", i))
            expected.append((f"task{i}", 2, "task.done", 2 * i))
        assert [_event_key(e) for e in events] == expected
        assert [_event_key(e) for e in bus.pending] == expected

    def test_serial_jobs1_merges_identically(self, tmp_path):
        items = list(range(6))
        with using_registry():
            with using_event_bus(EventBus()) as serial_bus:
                ParallelSweep(1).map(_emitting_task, items)
            with using_event_bus(EventBus()) as pooled_bus:
                ParallelSweep(3).map(_emitting_task, items)
        assert ([_event_key(e) for e in serial_bus.pending]
                == [_event_key(e) for e in pooled_bus.pending])

    def test_drop_counters_reach_artifact(self):
        items = list(range(8))
        with using_registry() as reg:
            with using_event_bus(EventBus(max_pending=3)) as bus:
                ParallelSweep(2).map(_emitting_task, items)
            artifact = RunArtifact(kind="sweep")
            artifact.attach_registry(reg)
            artifact.attach_slo(reg, event_stats=bus.stats())
        assert bus.stats()["dropped"] == 2 * len(items) - 3
        assert artifact.slo["events"]["dropped"] == bus.stats()["dropped"]
        doc = artifact.to_json_dict()  # schema v2 validates the slo key
        assert doc["slo"]["events"]["pending"] == 3


# ----------------------------------------------------------------------
# Pipeline span coverage
# ----------------------------------------------------------------------

PHASES = ("apply", "diff", "suspend", "admit", "solve", "dampen",
          "validate", "commit")


class TestPipelineSpanCoverage:
    def test_every_phase_and_solver_emits_spans(self):
        with using_registry() as reg:
            with using_tracer() as tracer:
                with using_event_bus() as bus:
                    runtime = AllocatorRuntime(fig1.make_scenario())
                    runtime.advance([
                        ChurnEvent(0, "flow-up", flow="1"),
                        ChurnEvent(0, "flow-up", flow="2"),
                    ])
                    runtime.advance([
                        ChurnEvent(1, "link-down", link=("B", "C"))
                    ])
                    runtime.advance([])
        names = {r["name"] for r in tracer.to_records()}
        for phase in PHASES:
            assert f"runtime.phase.{phase}" in names, phase
        assert "runtime.epoch" in names
        assert "lp.solve" in names
        assert "lp.maxmin" in names
        # One latency sample and one commit event per committed epoch.
        hist = reg.histograms["runtime.epoch.latency_ms"]
        assert len(hist.values) == 3
        commits = [e for e in bus.pending if e["kind"] == "epoch.commit"]
        assert [e["epoch"] for e in commits] == [0, 1, 2]
        # Admission queue gauges are refreshed every epoch.
        assert "admission.queue.depth" in reg.gauges
        assert "admission.queue.age_max" in reg.gauges

    def test_epoch_spans_nest_phases(self):
        with using_tracer() as tracer:
            runtime = AllocatorRuntime(fig1.make_scenario())
            runtime.advance([ChurnEvent(0, "flow-up", flow="1")])
        records = tracer.to_records()
        epoch = next(r for r in records if r["name"] == "runtime.epoch")
        phases = [r for r in records
                  if r["name"].startswith("runtime.phase.")]
        assert phases and all(r["parent"] == epoch["span"]
                              for r in phases)

    def test_analysis_and_split_nest_under_the_solve_phase(self):
        """The contention-analysis and component-split steps show in the
        trace under the solve phase, and every phase timer is a span."""
        with using_registry() as reg:
            with using_tracer() as tracer:
                runtime = AllocatorRuntime(fig1.make_scenario())
                runtime.advance([ChurnEvent(0, "flow-up", flow="1"),
                                 ChurnEvent(0, "flow-up", flow="2")])
                runtime.advance([ChurnEvent(1, "flow-up", flow="3")])
        records = tracer.to_records()
        by_id = {r["span"]: r for r in records}

        def under_solve(record):
            parent = record["parent"]
            while parent is not None:
                if by_id[parent]["name"] == "runtime.phase.solve":
                    return True
                parent = by_id[parent]["parent"]
            return False

        for name in ("perf.shard.split", "perf.incremental.analysis"):
            nested = [r for r in records if r["name"] == name]
            assert nested and all(under_solve(r) for r in nested), name
        names = {r["name"] for r in records}
        assert set(reg.timers) <= names, sorted(set(reg.timers) - names)

    def test_epoch_latency_sampled_without_a_tracer(self):
        """A registry alone still gets one latency sample per committed
        epoch, each the duration of that epoch's span."""
        with using_registry() as reg:
            runtime = AllocatorRuntime(fig1.make_scenario())
            runtime.advance([ChurnEvent(0, "flow-up", flow="1")])
            runtime.advance([ChurnEvent(1, "flow-up", flow="2")])
            runtime.advance([])
        samples = reg.histograms["runtime.epoch.latency_ms"].values
        assert len(samples) == len(runtime.journal) == 3
        assert all(v > 0.0 for v in samples)
        epoch = reg.timers["runtime.epoch"]
        assert epoch.calls == 3
        assert sum(samples) <= epoch.wall_s * 1e3

    def test_distributed_protocol_emits_spans(self):
        from repro.core import DistributedAllocator

        with using_tracer() as tracer:
            DistributedAllocator(fig6.make_scenario()).run()
        names = {r["name"] for r in tracer.to_records()}
        assert {"2pad.run", "2pad.build_views", "2pad.propagate",
                "2pad.flow", "2pad.local_lp"} <= names

    def test_checkpoint_spans_and_events(self, tmp_path):
        path = tmp_path / "ck.json"
        with using_registry():
            with using_tracer() as tracer:
                with using_event_bus() as bus:
                    digest = save_checkpoint({"epoch": 3}, path)
                    assert load_checkpoint(path) == {"epoch": 3}
        names = [r["name"] for r in tracer.to_records()]
        assert names == ["checkpoint.save", "checkpoint.restore"]
        kinds = [e["kind"] for e in bus.pending]
        assert kinds == ["checkpoint.save", "checkpoint.restore"]
        assert bus.pending[0]["sha256"] == digest[:12]


# ----------------------------------------------------------------------
# Exporter + SLO report
# ----------------------------------------------------------------------

def _loaded_registry():
    reg = MetricsRegistry()
    for v in (1.0, 2.0, 3.0, 10.0):
        reg.histogram("runtime.epoch.latency_ms").observe(v)
    reg.counter("checkpoint.save").inc(4)
    reg.gauge("admission.queue.depth").set(2)
    return reg


class TestExportAndSlo:
    def test_prometheus_round_trip(self):
        text = render_prometheus(_loaded_registry())
        assert validate_prometheus_text(text) > 0
        assert "repro_checkpoint_save_total 4.0" in text
        assert 'quantile="0.95"' in text

    def test_slo_report_validates_and_renders(self):
        reg = _loaded_registry()
        with reg.timer("runtime.phase.solve"):
            pass
        with reg.timer("lp.solve"):
            pass
        report = slo_report(reg, trace_stats={"opened": 9, "dropped": 0})
        validate_slo(report)
        latency = report["epoch_latency_ms"]
        assert latency["count"] == 4
        assert latency["p50"] == pytest.approx(2.5)
        assert [r["phase"] for r in report["phase_attribution"]] == [
            "solve"
        ]
        assert {r["component"] for r in report["component_attribution"]
                } == {"lp"}
        rendered = render_slo(report)
        assert "epoch latency (ms)" in rendered
        assert "phase attribution" in rendered
        with pytest.raises(ValueError):
            validate_slo({"schema": "bogus"})

    def test_bench_trend_and_perf_reference_rows(self):
        timers = {"lp.solve": {"mean_ms": 2.0},
                  "unshared.timer": {"mean_ms": 1.0}}
        bench_obs = {"points": [
            {"nodes": 10, "timers": {"lp.solve": {"mean_ms": 4.0}}},
            {"nodes": 40, "timers": {"lp.solve": {"mean_ms": 1.0}}},
        ]}
        (row,) = bench_trend_rows(timers, bench_obs)
        assert row["timer"] == "lp.solve"
        assert row["baseline_mean_ms"] == 1.0  # largest point wins
        assert row["delta"] == pytest.approx(1.0)
        bench_perf = {"sections": {"dynamic": {"points": [
            {"nodes": 60, "flows": 16, "seed": 3, "fast_ms": 170.0,
             "events": 17, "speedup": 2.4},
        ]}}}
        (ref,) = perf_reference_rows(bench_perf)
        assert ref["fast_ms_per_event"] == pytest.approx(10.0)


class TestSelfTimeAttribution:
    """Timers record self time on one shared depth stack, and the
    component view sums it, so nested same-prefix spans count once."""

    def test_self_times_partition_nested_regions(self):
        ticks = [0.0]

        def wall():
            ticks[0] += 1.0
            return ticks[0]

        reg = MetricsRegistry(wall_clock=wall, cpu_clock=lambda: 0.0)
        with reg.timer("runtime.epoch"):          # enter 1, exit 8
            with reg.timer("runtime.shard"):      # enter 2, exit 7
                with reg.timer("lp.solve"):       # enter 3, exit 4
                    pass
                with reg.timer("runtime.shard"):  # reentry: no clock
                    with reg.timer("lp.solve"):   # enter 5, exit 6
                        pass
        t = reg.timers
        assert t["runtime.epoch"].wall_s == 7.0
        assert t["runtime.epoch"].self_s == 2.0
        assert t["runtime.shard"].self_s == 3.0
        assert t["lp.solve"].self_s == 2.0
        assert sum(x.self_s for x in t.values()) == 7.0
        rows = {r["component"]: r["wall_s"]
                for r in slo_report(reg)["component_attribution"]}
        assert rows == {"runtime": 5.0, "lp": 2.0}

    def test_merged_snapshots_keep_self_time(self):
        worker = MetricsRegistry()
        with worker.timer("a"):
            with worker.timer("b"):
                pass
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.mergeable_snapshot())
        assert parent.timers["a"].self_s == worker.timers["a"].self_s
        legacy = MetricsRegistry()
        legacy.merge_snapshot({"timers": {"a": {"calls": 1, "wall_s": 2.0,
                                                "cpu_s": 1.0}}})
        assert legacy.timers["a"].self_s == 2.0

    def test_runtime_components_fit_inside_the_epochs(self):
        """A runtime driven epoch by epoch: every timed region nests in
        ``runtime.epoch``, so the component shares sum to 1 and no
        component (``runtime`` included) exceeds the epochs' wall time."""
        with using_registry() as reg:
            runtime = AllocatorRuntime(fig6.make_scenario())
            flows = sorted(runtime.scenario.flow_ids)
            runtime.advance([ChurnEvent(0, "flow-up", flow=f)
                             for f in flows])
            for epoch, fid in enumerate(flows, start=1):
                runtime.advance([ChurnEvent(epoch, "flow-down", flow=fid)])
        epochs = reg.timers["runtime.epoch"].wall_s
        rows = slo_report(reg)["component_attribution"]
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        assert {"runtime", "lp"} <= {r["component"] for r in rows}
        for row in rows:
            assert row["wall_s"] <= epochs * (1 + 1e-9), row
        attributed = sum(r["wall_s"] for r in rows)
        phases = sum(t.self_s for n, t in reg.timers.items()
                     if n.startswith("runtime.phase."))
        assert attributed + phases == pytest.approx(epochs)


# ----------------------------------------------------------------------
# Instrumentation-off bitwise identity
# ----------------------------------------------------------------------

def _run_timeline(scenario_maker):
    runtime = AllocatorRuntime(scenario_maker())
    flows = sorted(runtime.scenario.flow_ids)
    shares = []
    runtime.advance([ChurnEvent(0, "flow-up", flow=f) for f in flows])
    record = runtime.advance([ChurnEvent(1, "flow-down", flow=flows[0])])
    shares.append(dict(record.shares))
    record = runtime.advance([ChurnEvent(2, "flow-up", flow=flows[0])])
    shares.append(dict(record.shares))
    return shares


class TestDisabledOverheadIsZero:
    @pytest.mark.parametrize("maker", [fig1.make_scenario,
                                       fig6.make_scenario])
    def test_instrumented_run_is_bitwise_identical(self, maker):
        plain = _run_timeline(maker)
        with using_registry():
            with using_tracer():
                with using_event_bus():
                    observed = _run_timeline(maker)
        # Exact float equality: observation must never perturb the
        # allocation pipeline.
        assert plain == observed
