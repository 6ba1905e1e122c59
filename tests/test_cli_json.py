"""CLI observability flags: --json golden output, --metrics-out, --profile.

``table1`` is fully analytic and deterministic, so its --json output acts
as a golden record: the distributed/centralized share vectors must match
the library API exactly, and the artifact must validate against the
run-artifact schema.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import run_table1
from repro.obs import RunArtifact, validate_artifact


def _run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestTable1Json:
    def test_golden_artifact(self, capsys):
        code, out = _run_cli(capsys, ["table1", "--json"])
        assert code == 0
        doc = json.loads(out)  # stdout is pure JSON
        validate_artifact(doc)
        assert doc["kind"] == "table1"
        assert doc["scenario"] == "fig6"
        assert doc["seed"] is None

        reference = run_table1()
        results = doc["results"]
        for fid, share in reference.distributed_shares.items():
            assert results["distributed_shares"][fid] == pytest.approx(share)
        for fid, share in reference.centralized_shares.items():
            assert results["centralized_shares"][fid] == pytest.approx(share)
        # Paper's printed values ride along for cross-PR diffing.
        assert results["paper_distributed"] == reference.paper_distributed
        # Convergence of the distributed protocol is part of the record.
        assert results["convergence"]["max_rounds"] >= 1
        assert results["convergence"]["total_messages"] >= 1
        # Phase timings for the analytic pipeline are present.
        timers = doc["metrics"]["timers"]
        assert "contention.clique_enumeration" in timers
        assert "lp.solve" in timers
        assert "2pad.propagate" in timers
        assert doc["metrics"]["counters"]["lp.solves"] >= 1
        assert doc["wall_time_s"] > 0

    def test_human_table_without_json(self, capsys):
        code, out = _run_cli(capsys, ["table1"])
        assert code == 0
        assert "Table I" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_metrics_out_writes_artifact(self, capsys, tmp_path):
        path = tmp_path / "table1.json"
        code, out = _run_cli(capsys, ["table1", "--metrics-out", str(path)])
        assert code == 0
        assert "Table I" in out  # human table still printed
        art = RunArtifact.load(str(path))
        assert art.kind == "table1"
        validate_artifact(art.to_json_dict())

    def test_profile_prints_phases(self, capsys):
        code, out = _run_cli(capsys, ["table1", "--profile"])
        assert code == 0
        assert "== profile ==" in out
        assert "2pad.local_lp" in out
        assert "contention.clique_enumeration" in out


class TestTable2Json:
    @pytest.fixture(scope="class")
    def table2_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "table2.json"
        code = main(["table2", "--duration", "0.3", "--json",
                     "--metrics-out", str(path)])
        return code, path

    def test_artifact_is_schema_valid(self, table2_run, capsys):
        code, path = table2_run
        assert code == 0
        art = RunArtifact.load(str(path))
        validate_artifact(art.to_json_dict())
        assert art.kind == "table2"
        assert art.scenario == "fig1"
        assert art.config["duration"] == 0.3

    def test_artifact_has_paper_quantities(self, table2_run):
        _, path = table2_run
        art = RunArtifact.load(str(path))
        systems = {s["system"]: s for s in art.results["systems"]}
        assert set(systems) == {"802.11", "two-tier", "2PA-C"}
        for record in systems.values():
            assert record["total_effective"] >= 0
            assert "loss_ratio" in record
            assert record["subflow_packets"]  # r_{i.j} T per subflow
        assert systems["2PA-C"]["allocation"] is not None

    def test_artifact_has_phase_timings_and_convergence(self, table2_run):
        _, path = table2_run
        art = RunArtifact.load(str(path))
        timers = art.metrics["timers"]
        for phase in ("contention.clique_enumeration", "lp.solve",
                      "sim.run", "sim.run_until"):
            assert phase in timers, f"missing phase {phase}"
            assert timers[phase]["calls"] >= 1
        conv = art.results["convergence_2pad"]
        assert conv["max_rounds"] >= 1
        assert conv["total_messages"] >= 1
        assert art.metrics["counters"]["sim.events"] > 0
        assert art.metrics["gauges"]["sim.events_per_sec"] > 0


class TestAblationJson:
    def test_analytic_ablation_json(self, capsys):
        # virtual-length is fully analytic, hence fast and deterministic.
        code, out = _run_cli(capsys, ["ablation", "virtual-length", "--json"])
        assert code == 0
        doc = json.loads(out)
        validate_artifact(doc)
        assert doc["kind"] == "ablation"
        assert doc["config"]["name"] == "virtual-length"
        assert doc["results"]["points"]


class TestVerifyCli:
    def test_json_artifact_with_verify_counters(self, capsys):
        code, out = _run_cli(capsys, ["verify", "--cases", "5", "--seed",
                                      "0", "--json"])
        assert code == 0
        doc = json.loads(out)
        validate_artifact(doc)
        assert doc["kind"] == "verify"
        assert doc["scenario"] == "random-fuzz"
        assert doc["seed"] == 0
        assert doc["config"] == {"cases": 5, "inject_fault": False,
                                 "faults": False, "churn": False,
                                 "backend": "revised", "sharded": False,
                                 "overload": False}
        assert doc["results"]["ok"] is True
        assert doc["results"]["failures"] == []
        counters = doc["metrics"]["counters"]
        assert counters["verify.cases"] == 5
        assert counters["verify.cliques.brute_force.pass"] >= 1
        assert counters["verify.lp.float_vs_exact.pass"] == 5
        timers = doc["metrics"]["timers"]
        for phase in ("verify.case", "verify.cliques",
                      "verify.allocations", "verify.exact_lp",
                      "verify.2pad"):
            assert phase in timers, f"missing phase {phase}"

    def test_human_table(self, capsys):
        code, out = _run_cli(capsys, ["verify", "--cases", "2"])
        assert code == 0
        assert "repro verify: 2 case(s), seed 0" in out
        assert "all checks passed" in out

    def test_inject_fault_writes_reproducer_and_exits_zero(
        self, capsys, tmp_path
    ):
        # Exit 0: the harness is healthy exactly when the fault IS caught.
        code, out = _run_cli(capsys, [
            "verify", "--cases", "3", "--inject-fault",
            "--reproducer-dir", str(tmp_path),
        ])
        assert code == 0
        assert "[fault injected]" in out
        reproducers = list(tmp_path.glob("verify-reproducer-*.json"))
        assert reproducers
        doc = json.loads(reproducers[0].read_text())
        assert doc["kind"] == "repro.verify/reproducer"
        assert doc["check"] == "lp.clique_capacity"


class TestChurnCli:
    def test_json_artifact_with_runtime_counters(self, capsys):
        code, out = _run_cli(capsys, [
            "churn", "--cases", "2", "--epochs", "5",
            "--loss", "0,0.2", "--seed", "0", "--json",
        ])
        assert code == 0
        doc = json.loads(out)
        validate_artifact(doc)
        assert doc["kind"] == "churn"
        assert doc["scenario"] == "random-churn"
        assert doc["seed"] == 0
        assert doc["config"] == {
            "cases": 2, "loss_rates": [0.0, 0.2], "epochs": 5,
            "crash_prob": 0.0, "hysteresis": 0.3, "inject_fault": False,
        }
        results = doc["results"]
        assert results["ok"] is True
        assert results["violations"] == []
        assert results["epochs_run"] == 2 * 2 * 5
        assert results["checks"]["churn.crash_restore_identical"]["fail"] == 0
        counters = doc["metrics"]["counters"]
        assert counters["runtime.cases"] == 4
        assert counters["runtime.epoch.committed"] >= 20
        # The crash differential exercises the checkpoint store...
        assert counters["checkpoint.save"] >= 1
        assert counters["checkpoint.restore"] >= 1
        # ...and every arrival went through admission control.
        assert counters["admission.admit"] >= 1
        assert "runtime.epoch" in doc["metrics"]["timers"]

    def test_human_render(self, capsys):
        code, out = _run_cli(capsys, [
            "churn", "--cases", "1", "--epochs", "4", "--loss", "0",
        ])
        assert code == 0
        assert "all churn safety invariants held" in out

    def test_inject_fault_inverts_exit_code(self, capsys):
        code, out = _run_cli(capsys, [
            "churn", "--cases", "1", "--epochs", "4", "--loss", "0",
            "--inject-fault",
        ])
        assert code == 0  # healthy harness == fault caught


class TestTraceFlag:
    def test_trace_embedded_in_artifact(self, tmp_path, capsys):
        path = tmp_path / "t2.jsonl"
        code = main(["table2", "--duration", "0.1", "--trace", "app",
                     "--metrics-out", str(path)])
        capsys.readouterr()
        assert code == 0
        art = RunArtifact.load(str(path))
        assert art.trace, "expected app-category trace records"
        assert all(r["category"] == "app" for r in art.trace)
