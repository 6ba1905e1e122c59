"""Checkpoint store and crash/restore differentials.

Two layers under test:

* :mod:`repro.resilience.checkpoint` — the envelope itself: atomic
  save, checksum verification, schema versioning, typed failures.
* :meth:`AllocatorRuntime.save` / :meth:`AllocatorRuntime.restore` —
  the acceptance property: a runtime crashed at *any* epoch boundary or
  mid-epoch, restored from its last checkpoint and resumed, finishes in
  a state **bitwise identical** (canonical-JSON equal, caches included)
  to an uninterrupted run over the same timeline.
"""

import json

import pytest

from repro import obs
from repro.core import ContentionAnalysis
from repro.resilience import (
    AllocatorRuntime,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    ChurnTimeline,
    RuntimeConfig,
    SCHEMA_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import CHECKPOINT_KIND
from repro.scenarios import fig1, fig4, fig6, grid_scenario
from repro.sim.rng import RngRegistry


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


PAYLOAD = {"epoch": 3, "shares": {"1": 0.5, "2": 0.25}, "active": ["1"]}


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        digest = save_checkpoint(PAYLOAD, path)
        assert len(digest) == 64  # sha256 hex
        assert load_checkpoint(path) == PAYLOAD

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "never-written.json")

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(PAYLOAD, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(PAYLOAD, path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["shares"]["1"] = 0.9  # hand edit, stale sha
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_wrong_kind_is_corrupt(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(PAYLOAD, path)
        envelope = json.loads(path.read_text())
        envelope["kind"] = "something/else"
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointCorruptError, match="kind"):
            load_checkpoint(path)

    def test_unknown_schema_is_typed_separately(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(PAYLOAD, path)
        envelope = json.loads(path.read_text())
        envelope["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointSchemaError):
            load_checkpoint(path)
        # ...but still a CheckpointError, so callers can catch broadly.
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_object_envelope_is_corrupt(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
        path.write_text(json.dumps({
            "kind": CHECKPOINT_KIND, "schema": SCHEMA_VERSION,
            "sha256": "0" * 64, "payload": "not a dict",
        }))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_failed_save_leaves_old_checkpoint_intact(self, tmp_path):
        """Atomic replace: a save that dies mid-write never tears the
        previous snapshot."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(PAYLOAD, path)
        with pytest.raises(TypeError):
            save_checkpoint({"bad": {1, 2, 3}}, path)  # sets aren't JSON
        assert load_checkpoint(path) == PAYLOAD
        assert list(tmp_path.iterdir()) == [path]  # no temp litter


def _drawn_timeline(scenario, name, epochs=8):
    registry = RngRegistry(7)
    return ChurnTimeline.draw(
        registry.stream(("ckpt", name)),
        scenario.flow_ids,
        scenario.network.nodes,
        scenario.network.links(),
        epochs=epochs,
    )


def _canonical(runtime):
    return json.dumps(runtime.state_payload(), sort_keys=True)


class _SimulatedCrash(BaseException):
    """Out of the Exception hierarchy so nothing accidentally eats it."""


#: (scenario factory, mode, loss) — covers the centralized LP path, the
#: lossy and lossless distributed 2PA-D paths, and a larger centralized
#: topology.
CRASH_MATRIX = [
    ("fig1", fig1.make_scenario, "centralized", 0.0),
    ("fig4", fig4.make_scenario, "distributed", 0.2),
    ("fig4-lossless", fig4.make_scenario, "distributed", 0.0),
    ("fig6", fig6.make_scenario, "centralized", 0.0),
]


class TestCrashRestoreDifferential:
    @pytest.mark.parametrize(
        "name,factory,mode,loss",
        CRASH_MATRIX,
        ids=[row[0] for row in CRASH_MATRIX],
    )
    @pytest.mark.parametrize("point", ["staged", "pre-checkpoint"])
    def test_crash_then_restore_is_bitwise_identical(
        self, tmp_path, name, factory, mode, loss, point
    ):
        """Crash at epoch ``epochs // 2`` — either after the epoch is
        staged (boundary) or after the in-memory commit but before the
        checkpoint write (mid-commit) — then restore and resume; the
        final payload must equal the uninterrupted run's byte for byte.
        """
        scenario = factory()
        timeline = _drawn_timeline(scenario, name)

        def config(path):
            return RuntimeConfig(
                seed=3, mode=mode, loss=loss, hysteresis=0.3,
                checkpoint_path=path,
            )

        baseline = AllocatorRuntime(scenario, config(None))
        baseline.run_timeline(timeline)

        path = str(tmp_path / f"{name}.ckpt.json")
        victim = AllocatorRuntime(scenario, config(path))
        crash_at = timeline.epochs // 2

        def hook(where, epoch):
            if where == point and epoch == crash_at:
                raise _SimulatedCrash(f"{where}@{epoch}")

        victim.crash_hook = hook
        with pytest.raises(_SimulatedCrash):
            victim.run_timeline(timeline)

        restored = AllocatorRuntime.restore(path, scenario=scenario)
        # Whichever side of the commit the crash hit, the durable state
        # is the last *checkpointed* epoch.
        assert restored.epoch == crash_at - 1
        restored.run_timeline(timeline)
        assert _canonical(restored) == _canonical(baseline)

    def test_restore_without_scenario_rebuilds_it(self, tmp_path):
        scenario = fig1.make_scenario()
        path = str(tmp_path / "fig1.ckpt.json")
        runtime = AllocatorRuntime(
            scenario, RuntimeConfig(checkpoint_path=path)
        )
        runtime.set_active(["1", "2"])
        restored = AllocatorRuntime.restore(path)
        assert restored.scenario.name == scenario.name
        assert _canonical(restored) == _canonical(runtime)

    def test_restore_rejects_foreign_scenario(self, tmp_path):
        path = str(tmp_path / "fig1.ckpt.json")
        runtime = AllocatorRuntime(
            fig1.make_scenario(), RuntimeConfig(checkpoint_path=path)
        )
        runtime.set_active(["1"])
        with pytest.raises(CheckpointCorruptError, match="scenario"):
            AllocatorRuntime.restore(path, scenario=fig4.make_scenario())

    def test_warm_restore_keeps_shard_cache_bitwise_identical(
        self, tmp_path
    ):
        """The per-component shard memo rides the checkpoint: a restored
        runtime reuses every cached component (no dirty re-solves in the
        same interpreter) and replays to a payload byte-equal to the
        uninterrupted runtime's."""
        scenario = fig4.make_scenario()
        path = str(tmp_path / "fig4.ckpt.json")
        runtime = AllocatorRuntime(
            scenario, RuntimeConfig(checkpoint_path=path)
        )
        runtime.set_active(scenario.flow_ids)
        runtime.set_active(scenario.flow_ids[1:])
        dump = runtime._shard.dump_state()
        assert dump  # the solves populated the per-component memo

        restored = AllocatorRuntime.restore(path, scenario=scenario)
        assert restored._shard.dump_state() == dump
        again_restored = restored.set_active(scenario.flow_ids[1:])
        again_original = runtime.set_active(scenario.flow_ids[1:])
        assert again_restored == again_original
        assert restored._shard.last_stats["dirty"] == 0
        assert restored._shard.dump_state() == runtime._shard.dump_state()
        assert _canonical(restored) == _canonical(runtime)

    @staticmethod
    def _crashed_fig6(tmp_path):
        """fig6 over a drawn timeline: the uninterrupted baseline, and
        the checkpoint payload of a run that crashed halfway."""
        scenario = fig6.make_scenario()
        timeline = _drawn_timeline(scenario, "legacy")
        baseline = AllocatorRuntime(scenario, RuntimeConfig(seed=3))
        baseline.run_timeline(timeline)

        path = str(tmp_path / "fig6.ckpt.json")
        victim = AllocatorRuntime(
            scenario, RuntimeConfig(seed=3, checkpoint_path=path)
        )
        crash_at = timeline.epochs // 2

        def hook(where, epoch):
            if where == "staged" and epoch == crash_at:
                raise _SimulatedCrash(f"{where}@{epoch}")

        victim.crash_hook = hook
        with pytest.raises(_SimulatedCrash):
            victim.run_timeline(timeline)
        return scenario, timeline, baseline, load_checkpoint(path), crash_at

    def test_checkpoint_with_retired_keys_restores(self, tmp_path):
        """Checkpoints written when the runtime still had configurable
        solve modes carry their keys, no shard memo, a per-topology
        clique-cache dump, a warm-start LP basis dump, and a lossless
        2PA-D memo; they restore, ignore all five, and replay to the
        uninterrupted run's state."""
        scenario, timeline, baseline, payload, crash_at = (
            self._crashed_fig6(tmp_path)
        )
        payload["config"].update(
            sharded=False, incremental=False, warm_lp=False, memo=False,
            validate=False, queue_rejected=False, max_retries=9,
            max_rounds=17,
        )
        payload["caches"]["shard"] = None
        assert "cliques" not in payload["caches"]
        cliques = ContentionAnalysis(scenario).cliques
        payload["caches"]["cliques"] = {
            "[[],[]]": [{
                "component": sorted(
                    [s.flow, s.hop] for s in frozenset().union(*cliques)
                ),
                "cliques": [sorted([s.flow, s.hop] for s in c)
                            for c in cliques],
            }],
        }
        assert "warm" not in payload["caches"]
        # The basis-cache layout runtimes wrote while LP solves could
        # start warm: bases keyed by (variables, constraint supports),
        # plus the latest basis per variable tuple.
        variables = ["r_1", "r_2", "__maxmin_t__"]
        supports = [["r_1"], ["r_1"], ["r_1", "r_2"], ["r_1", "r_2"],
                    ["__maxmin_t__", "r_1"], ["__maxmin_t__", "r_2"]]
        basis = [["s", 0], ["s", 1], ["v", 1], ["v", 0], ["v", 2],
                 ["s", 5]]
        payload["caches"]["warm"] = {
            "bases": [[[variables, supports], basis]],
            "latest": [[variables, supports, basis]],
        }
        assert "memo" not in payload["caches"]
        # The lossless 2PA-D memo layout: shares and status per
        # (topology key, active set).
        payload["caches"]["memo"] = [{
            "key": ["[[],[]]", ["2", "3"]],
            "shares": {"2": 0.5, "3": 0.5},
            "status": "converged",
        }]
        legacy = str(tmp_path / "legacy.ckpt.json")
        save_checkpoint(payload, legacy)

        restored = AllocatorRuntime.restore(legacy, scenario=scenario)
        assert restored.epoch == crash_at - 1
        assert restored.config == RuntimeConfig(
            seed=3, checkpoint_path=legacy
        )
        assert "memo" not in restored.state_payload()["caches"]
        restored.run_timeline(timeline)

        def state(runtime):
            # The legacy checkpoint held no shard memo, so the restored
            # memo knows only the replayed components; it is the one
            # value-neutral difference.
            doc = runtime.state_payload()
            doc["caches"].pop("shard")
            return json.dumps(doc, sort_keys=True)

        assert state(restored) == state(baseline)

    def test_checkpoint_with_name_keyed_shard_memo_restores(self, tmp_path):
        """Checkpoints written while the shard memo was keyed by variable
        names store ``[fingerprint, [[flow, share], ...]]`` entries.
        They restore; a name key can never hit, so the entries are
        dropped, and the replay journal equals the uninterrupted run's."""
        scenario, timeline, baseline, payload, crash_at = (
            self._crashed_fig6(tmp_path)
        )
        # This exact run's memo, as the name-keyed solver dumped it.
        payload["caches"]["shard"] = [
            ["d2856199ae7c3d005a291c196d2207bf"
             "b87fbe98cfc0d00a430d7c6659b0118f", [["5", 1.0]]],
            ["6646a2a7d53cd3ba6172264757a94fb6"
             "c6f7c41eb645affc6b996f3855b1a4b6", [["2", 0.5], ["3", 0.5]]],
            ["1a357060491fcb932190c713cc3aee62"
             "b38f395b5b3a02970e0726562d8f2330",
             [["2", 0.5], ["3", 0.5], ["4", 0.5]]],
        ]
        legacy = str(tmp_path / "name-keyed.ckpt.json")
        save_checkpoint(payload, legacy)

        restored = AllocatorRuntime.restore(legacy, scenario=scenario)
        assert restored.epoch == crash_at - 1
        assert restored._shard.dump_state() == []
        restored.run_timeline(timeline)
        assert restored.journal == baseline.journal

    #: This exact run's shard memo as a runtime on the dense ``simplex``
    #: backend dumped it: shape keys that hash the backend name.
    SIMPLEX_KEYED_MEMO = [
        ["4fdb3b1086075e1d9b828719531ded6a1d317ff35208978f0f4db27a7ee64d46",
         [1.0]],
        ["41eec82831800feda3c239ae5cebd26dc12a83738f0479ff6eea1c7178e50c3f",
         [0.5, 0.5]],
        ["b57d484a2e61f24563415425fbce09216d953ee21e63c1bb15a7bd9f700181dc",
         [0.5, 0.5, 0.5]],
    ]

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_checkpoint_with_simplex_keyed_shard_memo_restores(
        self, tmp_path, poisoned
    ):
        """Checkpoints written while the runtime solved on ``simplex``
        key their memo with that backend.  They restore as they are;
        the runtime now keys with ``revised``, so no old entry ever
        hits — shares planted under the old keys stay out of the replay
        — and the replay journal equals the uninterrupted run's."""
        scenario, timeline, baseline, payload, crash_at = (
            self._crashed_fig6(tmp_path)
        )
        memo = [[key, [9.0] * len(shares) if poisoned else shares]
                for key, shares in self.SIMPLEX_KEYED_MEMO]
        payload["caches"]["shard"] = memo
        legacy = str(tmp_path / "simplex-keyed.ckpt.json")
        save_checkpoint(payload, legacy)

        restored = AllocatorRuntime.restore(legacy, scenario=scenario)
        assert restored.epoch == crash_at - 1
        assert restored._shard.dump_state() == memo
        restored.run_timeline(timeline)
        assert restored.journal == baseline.journal
        kept = restored._shard.dump_state()
        assert all(entry in kept for entry in memo)

    def test_restored_runtime_keeps_checkpointing_in_place(self, tmp_path):
        """A restored runtime inherits the checkpoint location it was
        restored from, so the crash/restore cycle can repeat."""
        scenario = grid_scenario()
        timeline = _drawn_timeline(scenario, "grid", epochs=6)
        path = tmp_path / "grid.ckpt.json"
        runtime = AllocatorRuntime(
            scenario, RuntimeConfig(checkpoint_path=str(path))
        )
        runtime.advance(timeline.epoch_events(0))
        first = load_checkpoint(path)
        restored = AllocatorRuntime.restore(str(path))
        assert restored.config.checkpoint_path == str(path)
        restored.run_timeline(timeline)
        assert load_checkpoint(path)["epoch"] == timeline.epochs - 1
        assert load_checkpoint(path) != first
