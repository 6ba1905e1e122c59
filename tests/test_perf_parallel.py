"""ParallelSweep: parallel results and reports bit-identical to serial,
ordered merging, and worker-metric folding."""

import json
import multiprocessing

from repro.experiments.ablations import scaling_study
from repro.obs.registry import MetricsRegistry, using_registry
from repro.perf.parallel import ParallelSweep, effective_jobs
from repro.scenarios.io import scenario_to_dict
from repro.scenarios.random_topology import random_scenario_sweep
from repro.verify.fuzzer import run_fuzz


def square(x):
    return x * x


def observe_task(x):
    from repro.obs.registry import incr, observe

    incr("perf.test.tasks")
    observe("perf.test.values", float(x))
    return -x


class TestEffectiveJobs:
    def test_defaults_to_all_cores(self):
        assert effective_jobs(None) >= 1
        assert effective_jobs(0) == effective_jobs(None)

    def test_explicit_and_clamped(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(-2) == 1


class TestMapSemantics:
    def test_order_preserved_serial_and_parallel(self):
        items = list(range(20))
        expected = [square(x) for x in items]
        assert ParallelSweep(1).map(square, items) == expected
        assert ParallelSweep(2).map(square, items) == expected

    def test_empty_and_single_item(self):
        assert ParallelSweep(4).map(square, []) == []
        assert ParallelSweep(4).map(square, [7]) == [49]

    def test_worker_metrics_folded_into_parent(self):
        items = [1.0, 2.0, 3.0, 4.0]
        with using_registry() as reg:
            out = ParallelSweep(2).map(observe_task, items)
        assert out == [-1.0, -2.0, -3.0, -4.0]
        assert reg.counters["perf.test.tasks"].value == len(items)
        assert sorted(reg.histograms["perf.test.values"].values) == items


class TestRegistryMerge:
    def test_merge_snapshot_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(3)
        worker.gauge("g").set(2.5)
        worker.histogram("h").observe(1.0)
        worker.histogram("h").observe(4.0)
        worker.timer("t").add(wall_s=0.5, cpu_s=0.25, calls=2)

        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.merge_snapshot(worker.mergeable_snapshot())
        assert parent.counters["c"].value == 4
        assert parent.gauges["g"].value == 2.5
        assert parent.histograms["h"].values == [1.0, 4.0]
        assert parent.timers["t"].calls == 2
        assert parent.timers["t"].wall_s == 0.5

    def test_summary_histograms_skipped_not_fabricated(self):
        parent = MetricsRegistry()
        parent.merge_snapshot({"histograms": {"h": {"count": 3}}})
        assert "h" not in parent.histograms


class TestSweepBitIdentity:
    def test_fuzz_report_parallel_equals_serial(self):
        serial = run_fuzz(cases=5, seed=11, jobs=1)
        parallel = run_fuzz(cases=5, seed=11, jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(parallel.to_dict(), sort_keys=True)

    def test_fuzz_injected_fault_parallel_equals_serial(self):
        serial = run_fuzz(cases=3, seed=2, inject_fault=True,
                          max_failures=2, jobs=1)
        parallel = run_fuzz(cases=3, seed=2, inject_fault=True,
                            max_failures=2, jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(parallel.to_dict(), sort_keys=True)
        assert serial.failures  # the fault was caught in both runs

    def test_scaling_study_parallel_equals_serial(self):
        serial = scaling_study(sizes=(10, 12), jobs=1)
        parallel = scaling_study(sizes=(10, 12), jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(parallel.to_dict(), sort_keys=True)

    def test_random_scenario_sweep_parallel_equals_serial(self):
        params = [
            {"num_nodes": 10, "num_flows": 3, "seed": 1},
            {"num_nodes": 12, "num_flows": 4, "seed": 2},
        ]
        serial = random_scenario_sweep(params, jobs=1)
        parallel = random_scenario_sweep(params, jobs=2)
        assert [scenario_to_dict(s) for s in serial] == \
            [scenario_to_dict(s) for s in parallel]


# ---------------------------------------------------------------------------
# Pool faults: a dead worker's unfinished tasks and an unavailable pool
# both finish in-process.  The fault helpers are module-level (pool
# workers must pickle them) and count attempts in a token file, so the
# in-process rerun sees the attempt the dead worker made.
# ---------------------------------------------------------------------------

def _attempt(token_path):
    import os

    with open(os.fspath(token_path), "a+", encoding="utf-8") as fh:
        fh.seek(0)
        prior = sum(1 for _ in fh)
        fh.write("x\n")
        fh.flush()
    return prior


def crash_once(payload):
    import os

    token, x = payload
    if x == 0 and _attempt(token) < 1:
        os._exit(23)
    return x * x


def fail_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"bad item {x}")
    return x


class TestGuardedFaultTolerance:
    def test_fault_free_map_joins_its_workers(self):
        before = set(multiprocessing.active_children())
        assert ParallelSweep(2).map(square, list(range(4))) == [0, 1, 4, 9]
        assert set(multiprocessing.active_children()) <= before

    def test_crashed_worker_is_detected_and_retried(self, tmp_path):
        token = str(tmp_path / "crash.tokens")
        items = [(token, x) for x in range(3)]
        with using_registry() as reg:
            out = ParallelSweep(2).map(crash_once, items)
        assert out == [0, 1, 4]
        assert reg.counters["perf.parallel.task_crashes"].value == 1
        assert reg.counters["perf.parallel.serial_fallbacks"].value >= 1

    def test_task_exception_is_not_retried_and_raises_lowest_index(self):
        with using_registry() as reg:
            try:
                ParallelSweep(2).map(fail_on_even, [1, 2, 3, 4])
            except ValueError as exc:
                assert str(exc) == "bad item 2"  # lowest failing index
            else:
                raise AssertionError("expected ValueError")
            assert "perf.parallel.serial_fallbacks" not in reg.counters

    def test_unavailable_pool_runs_serially(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        with using_registry() as reg:
            out = ParallelSweep(2).map(square, [1, 2, 3])
        assert out == [1, 4, 9]
        assert reg.counters["perf.parallel.pool_fallbacks"].value == 1
        assert reg.counters["perf.parallel.serial_runs"].value == 1
        assert "perf.parallel.pool_runs" not in reg.counters
