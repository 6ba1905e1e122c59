"""End-to-end allocator benchmark with outside-in per-layer attribution.

Usage, from the repository root::

    python3 allocbench/run.py --workload mesh-openloop --seed 1 \\
        --seconds 36 --trace 0
    python3 allocbench/run.py --selftest

One run replays the same block of the workload's ``epochs`` measured
epochs several times, each replay on a freshly set-up session followed
by a fixed warm-up; the replay count is fixed by ``--seconds`` and a
nominal replay time, never by the measured speed (a run on a very slow
host stops early instead of overrunning).  Every replay does identical
work, so an epoch's time is taken as its fastest replay, which drops the
host's short slow phases, and the distribution over the block's epochs
is reported; ``setup_s`` is the median of the replays' set-ups.  The
first replay's committed shares are checked against Eq. (6) and the
Sec. II-D basic floors outside the timed call; every later replay must
commit exactly the same shares.
Diagnostics go to the lines before the last; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``:

* ``--trace 0``: end-to-end metrics (``END_TO_END``);
* ``--trace 1``: per-layer metrics (``PER_LAYER``).  Untraced and traced
  replays alternate in ABBA order, layer times come from the traced ones,
  and ``trace_overhead_ratio`` compares each epoch's fastest traced and
  untraced replay.

Quality figures, ``journal_sha256`` and ``peak_rss_mb`` cover the first
replay, so the first two are a pure function of workload and seed.  The
exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"allocbench: no program source at {ROOT / 'src' / 'repro'}; "
             f"run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.obs.registry import MetricsRegistry, using_registry  # noqa: E402

from tracing import SpanRecorder  # noqa: E402
from workloads import WARMUP, WORKLOADS, Session, Workload, setup  # noqa: E402

#: Epochs between two host-speed canary timings.
CANARY_EVERY = 20

#: Nominal time of one replay of either workload's block, set-up and
#: warm-up included, on a 2-vCPU x86-64 VM; sets how many replays fit in
#: a run.
REPLAY_SECONDS = 2.25

#: Fewest replays of a run; two, so a traced run has both kinds.
MIN_REPLAYS = 2

#: A run starts no replay that would end past this multiple of
#: ``--seconds``, so a slow host cannot stretch it without limit.
OVERRUN = 1.5

END_TO_END = {
    "epoch_p50_ms": "ms",
    "epoch_p90_ms": "ms",
    "flow_events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "alloc_total_rate": "B",
    "alloc_min_norm_share": "B",
    "admit_ratio": "1",
    "ok_epoch_ratio": "1",
}

PER_LAYER = {
    "engine.self_ms": "ms",
    "admission.ms": "ms",
    "admission.calls": "count",
    "admission.queue_depth_max": "count",
    "analysis.ms": "ms",
    "analysis.calls": "count",
    "analysis.component_hit_ratio": "1",
    "shard.split_ms": "ms",
    "shard.solve_self_ms": "ms",
    "shard.dirty_per_epoch": "count",
    "shard.reuse_ratio": "1",
    "lp.maxmin_ms": "ms",
    "lp.maxmin_calls": "count",
    "lp.solves_per_maxmin": "1",
    "lp.pivots_per_epoch": "count",
    "setup.universe_s": "s",
    "setup.topology_s": "s",
    "setup.trace_s": "s",
    "setup.register_s": "s",
    "untracked_share": "1",
    "trace_overhead_ratio": "1",
}


def canary_ms() -> float:
    """A fixed pure-Python loop; its time tracks host speed only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def p90(values: List[float]) -> float:
    """Linear-interpolated 90th percentile."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Run:
    """The state of one measured run of one workload."""

    def __init__(self, workload: Workload, seed: int, log, block: int,
                 warmup: int) -> None:
        self.workload = workload
        self.seed = seed
        self.log = log
        self.block = block
        self.warmup = warmup
        self.session: Optional[Session] = None  # the latest replay's
        self.recorder: Optional[SpanRecorder] = None
        self.registry: Optional[MetricsRegistry] = None
        self.setup_samples: List[float] = []
        self.setup_parts: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.check_failures: List[str] = []
        # Per replay, in order: (traced, seconds of each block epoch).
        self.replays: List[Tuple[bool, List[float]]] = []
        self.digests: List[str] = []  # the first replay's, per epoch
        self.events = 0  # in one replay of the block
        self.quality_total: List[float] = []
        self.quality_min: List[float] = []
        self.admit_ratio = 0.0
        self.admission_decisions = 0
        self.journal = hashlib.sha256()
        self.canary: List[float] = []
        self.queue_depth_max = 0
        self.peak_rss_mb = 0.0

    # -- set-up ---------------------------------------------------------
    def sample_setup(self) -> Session:
        """Set the workload up once on fresh objects and time it."""
        gc.collect()
        t0 = time.perf_counter()
        session, parts = setup(self.workload, self.seed)
        self.setup_samples.append(time.perf_counter() - t0)
        for key, value in parts.items():
            self.setup_parts.setdefault(key, []).append(value)
        return session

    # -- epochs ---------------------------------------------------------
    def epoch(self, traced: bool) -> Tuple[float, str]:
        """One measured epoch; returns its time and a digest of its
        committed shares.  The first replay's epochs are checked (never
        traced or timed) and make the quality figures."""
        session = self.session
        if traced:
            with using_registry(self.registry), self.recorder.installed():
                step = session.step(self.recorder.epoch)
        else:
            step = session.step()
        self.attempted += 1
        self.queue_depth_max = max(self.queue_depth_max, session.queue_depth())
        where = f"replay {len(self.replays)} trace epoch {session.index - 1}"
        first = not self.replays
        if first:
            self.events += step.events
        if not step.committed:
            self.failed += 1
            self.errors.append(f"{where}: {step.error}")
            return step.seconds, f"failed: {step.error}"
        shares = json.dumps(sorted(session.shares.items()))
        if first:
            problems = session.check()
            if problems:
                self.check_failures.append(f"{where}: " + "; ".join(problems))
            total, low = session.quality()
            self.quality_total.append(total)
            self.quality_min.append(low)
            self.journal.update(f"[{session.index - 1}, {shares}]".encode())
        return step.seconds, hashlib.sha256(shares.encode()).hexdigest()

    def replay(self, traced: bool) -> None:
        """Set up, warm up, then run and time the measured block once."""
        self.session = session = self.sample_setup()
        for _ in range(self.warmup):
            step = session.step()
            if not step.committed:
                raise RuntimeError(f"warm-up epoch failed: {step.error}")
        session.admitted = session.decisions = 0
        gc.collect()
        times: List[float] = []
        for i in range(self.block):
            if session.exhausted:
                raise RuntimeError("trace horizon shorter than the block")
            if i % CANARY_EVERY == 0:
                self.canary.append(canary_ms())
            seconds, digest = self.epoch(traced)
            times.append(seconds)
            if not self.replays:
                self.digests.append(digest)
            elif digest != self.digests[i]:
                self.check_failures.append(
                    f"replay {len(self.replays)} epoch {i}: committed shares "
                    f"differ from the first replay's")
        if not self.replays:
            self.admit_ratio = session.admitted / max(session.decisions, 1)
            self.admission_decisions = session.decisions
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.replays.append((traced, times))

    def measure(self, replays: int, traced: bool, budget: float) -> None:
        """``replays`` replays of the block.  A traced run alternates
        untraced and traced replays in ABBA order (U T T U U T ...).  On
        a host so slow that the next replay would end past ``budget``
        seconds, the run stops early, after at least ``MIN_REPLAYS``."""
        self.recorder = SpanRecorder() if traced else None
        self.registry = MetricsRegistry() if traced else None
        start = time.perf_counter()
        for r in range(replays):
            elapsed = time.perf_counter() - start
            if r >= MIN_REPLAYS and elapsed * (r + 1) / r > budget:
                self.log(f"slow host: stopped after {r} of {replays} "
                         f"replays, {elapsed:.1f} s")
                break
            self.replay(traced and r % 4 in (1, 2))

    def best(self, traced: bool) -> List[float]:
        """Per block epoch, its fastest time over the given replays."""
        return [min(column) for column in zip(
            *(times for was_traced, times in self.replays
              if was_traced == traced))]

    # -- results --------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        best = self.best(False)
        return {
            "epoch_p50_ms": statistics.median(best) * 1e3,
            "epoch_p90_ms": p90(best) * 1e3,
            "flow_events_per_s": self.events / sum(best),
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": self.peak_rss_mb,
            "alloc_total_rate": statistics.fmean(self.quality_total),
            "alloc_min_norm_share": statistics.fmean(self.quality_min),
            "admit_ratio": self.admit_ratio,
            "ok_epoch_ratio": 1.0 - self.failed / self.attempted,
        }

    def overhead_ratio(self) -> float:
        """Median over block epochs of fastest traced / fastest untraced
        time: the same work, timed both ways."""
        return statistics.median(
            t / u for t, u in zip(self.best(True), self.best(False)))

    def per_layer(self) -> Dict[str, float]:
        recorder = self.recorder
        traced = sum(len(times) for was_traced, times in self.replays
                     if was_traced)
        self_s = recorder.self_times()
        calls = recorder.calls()
        counters = {name: c.value
                    for name, c in self.registry.counters.items()}

        def ms(layer: str) -> float:
            return self_s.get(layer, 0.0) * 1e3 / traced

        def count(name: str) -> float:
            return counters.get(name, 0.0)

        hits = (count("perf.incremental.component_hits")
                + count("batch.component_hits"))
        misses = (count("perf.incremental.component_misses")
                  + count("batch.component_misses"))
        maxmin_calls = calls.get("lp.maxmin", 0)
        pivots = sum(v for k, v in counters.items()
                     if k.startswith("lp.") and k.endswith(".pivots"))
        solves = count("lp.solves") + count("lp.revised.probes")
        return {
            "engine.self_ms": ms("engine"),
            "admission.ms": ms("admission"),
            "admission.calls": calls.get("admission", 0) / traced,
            "admission.queue_depth_max": float(self.queue_depth_max),
            "analysis.ms": ms("analysis"),
            "analysis.calls": calls.get("analysis", 0) / traced,
            "analysis.component_hit_ratio": hits / max(hits + misses, 1.0),
            "shard.split_ms": ms("shard.split"),
            "shard.solve_self_ms": ms("shard.solve"),
            "shard.dirty_per_epoch": count("runtime.shard.dirty") / traced,
            "shard.reuse_ratio": (count("runtime.shard.reused")
                                  / max(count("runtime.shard.components"),
                                        1.0)),
            "lp.maxmin_ms": ms("lp.maxmin"),
            "lp.maxmin_calls": maxmin_calls / traced,
            "lp.solves_per_maxmin": solves / max(maxmin_calls, 1),
            "lp.pivots_per_epoch": pivots / traced,
            **{k: statistics.median(v) for k, v in self.setup_parts.items()},
            "untracked_share": ((self_s.get("epoch", 0.0)
                                 + self_s.get("engine", 0.0))
                                / recorder.epoch_seconds()),
            "trace_overhead_ratio": self.overhead_ratio(),
        }

    def diagnostics(self) -> None:
        log = self.log
        log(f"setup: n={len(self.setup_samples)} samples (s): " + ", ".join(
            f"{t:.4f}" for t in self.setup_samples))
        log(f"replays of {self.block} epochs, block total (s): " + ", ".join(
            f"{'T' if traced else 'U'}{sum(times):.3f}"
            for traced, times in self.replays))
        for traced in (False, True):
            if any(was_traced == traced for was_traced, _ in self.replays):
                best = self.best(traced)
                log(f"{'traced' if traced else 'untraced'} fastest-replay "
                    f"epochs: n={len(best)} "
                    f"p50={statistics.median(best) * 1e3:.3f} ms "
                    f"p90={p90(best) * 1e3:.3f} ms "
                    f"max={max(best) * 1e3:.3f} ms")
        log(f"attempted={self.attempted} failed={self.failed} "
            f"failed_epoch_ratio={self.failed / self.attempted:.6f} "
            f"events per replay={self.events}")
        log(f"quality: {len(self.quality_total)} epochs, "
            f"{self.admission_decisions} admission decisions")
        log(f"journal_sha256={self.journal.hexdigest()}")
        log(f"canary_ms: n={len(self.canary)} min={min(self.canary):.3f} "
            f"p50={statistics.median(self.canary):.3f} "
            f"max={max(self.canary):.3f}")
        if self.recorder is not None:
            traced = sum(len(times) for was_traced, times in self.replays
                         if was_traced)
            self_s = self.recorder.self_times()
            total = self.recorder.epoch_seconds()
            log("layer self time per traced epoch (ms, share): " + ", ".join(
                f"{layer}={t * 1e3 / traced:.3f} ({t / total:.1%})"
                for layer, t in sorted(self_s.items(), key=lambda kv: -kv[1])
            ))
        for line in self.errors[:5]:
            log(f"failed epoch: {line}")
        for line in self.check_failures[:5]:
            log(f"CHECK FAILED: {line}")


def replay_count(seconds: float) -> int:
    """Replays that fill about ``seconds`` at the nominal replay time; at
    least ``MIN_REPLAYS``."""
    return max(MIN_REPLAYS, round(seconds / REPLAY_SECONDS))


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        log, block: Optional[int] = None,
        warmup: Optional[int] = None) -> Tuple[Run, Dict[str, float]]:
    """One measured run; returns the run state and its metrics."""
    bench = Run(workload, seed, log,
                workload.epochs if block is None else block,
                WARMUP if warmup is None else warmup)
    bench.measure(replay_count(seconds), traced,
                  OVERRUN * seconds)
    metrics = bench.per_layer() if traced else bench.end_to_end()
    bench.diagnostics()
    return bench, metrics


def result_line(bench: Run, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": not bench.check_failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def selftest(log) -> int:
    """Quick mode: a few epochs per workload, every metric name and unit
    emitted as ``BENCHMARK.json`` lists it, and the Eq. (6) check shown
    to flag a share perturbed by x1.5."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise SystemExit(f"selftest failed: {what}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
            "end_to_end names/units differ from BENCHMARK.json")
    require({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
            "per_layer names/units differ from BENCHMARK.json")
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "workload names differ from BENCHMARK.json")
    for workload in WORKLOADS.values():
        for traced, units in ((False, END_TO_END), (True, PER_LAYER)):
            bench, metrics = run(workload, seed=1, seconds=0.0,
                                 traced=traced, log=log, block=8,
                                 warmup=2)
            line = json.loads(result_line(bench, metrics, units))
            require(line["correct"] and line["attempted"] >= 8
                    and not line["failed"], f"{workload.name}: {line}")
            require(set(metrics) == set(units),
                    f"{workload.name}: emitted {sorted(metrics)}")
        session = bench.session
        require(not session.check(), f"{workload.name}: clean epoch flagged")
        victim = sorted(session.shares)[0]
        bad = dict(session.shares)
        bad[victim] *= 1.5
        flagged = session.check(bad)
        require(any(p.startswith("clique_capacity") for p in flagged),
                f"{workload.name}: x1.5 on {victim} not flagged: {flagged}")
        log(f"selftest {workload.name}: ok (x1.5 on {victim} flagged)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, flush=True)

    if args.selftest:
        return selftest(log)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    workload = WORKLOADS[args.workload]
    log(f"workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} pid={os.getpid()}")
    traced = bool(args.trace)
    bench, metrics = run(workload, args.seed, args.seconds, traced, log)
    if bench.recorder is not None:
        out = HERE / "out" / f"spans-{workload.name}-s{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        bench.recorder.write(out)
        log(f"spans written to {out.relative_to(ROOT)}")
    print(result_line(bench, metrics, PER_LAYER if traced else END_TO_END),
          flush=True)
    return 1 if bench.check_failures else 0


if __name__ == "__main__":
    sys.exit(main())
