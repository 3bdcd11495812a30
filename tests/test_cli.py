"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """A fitted Tesla K40c model (smallest grid = fastest CLI fit)."""
    path = tmp_path_factory.mktemp("cli") / "k40c.json"
    code = main(
        ["fit", "--device", "Tesla K40c", "--output", str(path)]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_cover_all_modules(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "fig1", "fig2", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "baselines", "ablations",
            "discovery", "sensitivity", "dvfs_savings", "noise_sweep",
            "transfer", "perf_validation", "cluster_savings", "fewshot",
        }


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX Titan X" in out
        assert "Tesla K40c" in out

    def test_fit_writes_valid_model(self, model_path):
        data = json.loads(model_path.read_text())
        assert data["device"] == "Tesla K40c"
        assert len(data["voltages"]) == 4

    def test_predict_single_config(self, model_path, capsys):
        code = main(
            [
                "predict", "--model", str(model_path),
                "--workload", "blackscholes", "--core", "666",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "W" in out

    def test_predict_grid(self, model_path, capsys):
        code = main(
            ["predict", "--model", str(model_path), "--workload", "gemm",
             "--grid"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # 4 core levels x 1 memory level on the K40c.
        assert out.count("\n") >= 6

    def test_breakdown(self, model_path, capsys):
        code = main(
            ["breakdown", "--model", str(model_path), "--workload", "gemm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "constant" in out
        assert "total" in out

    def test_unknown_workload_reports_error(self, model_path, capsys):
        code = main(
            ["predict", "--model", str(model_path), "--workload", "doom"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_frequency_reports_error(self, model_path, capsys):
        code = main(
            [
                "predict", "--model", str(model_path),
                "--workload", "gemm", "--core", "1000",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_cluster_single_run(self, tmp_path, capsys):
        report_path = tmp_path / "cluster.json"
        code = main(
            [
                "cluster", "--quick", "--nodes", "6", "--jobs", "30",
                "--scheduler", "edf", "--shape", "burst",
                "--output", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet energy" in out
        report = json.loads(report_path.read_text())
        assert report["scheduler"] == "edf"
        assert report["jobs"] == 30
        assert len(report["records"]) == 30

    @pytest.mark.parametrize(
        "flag, value",
        [("--nodes", "0"), ("--nodes", "-1"), ("--jobs", "0"), ("--jobs", "-5")],
    )
    @pytest.mark.parametrize("mode", [[], ["--bench"]], ids=["run", "bench"])
    def test_cluster_rejects_non_positive_sizes(
        self, tmp_path, capsys, flag, value, mode
    ):
        code = main(
            ["cluster", "--quick", *mode, flag, value,
             "--output", str(tmp_path / "cluster.json")]
        )
        assert code == 1
        assert f"{flag} must be at least 1, got {value}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "cluster.json").exists()

    def test_fewshot_writes_report(self, tmp_path, capsys, monkeypatch):
        # One synthetic device keeps the verb fast; the full fleet (and
        # its gate) runs in the dedicated CI job.
        from repro.experiments import fewshot
        from repro.hardware.families import standard_members

        monkeypatch.setattr(
            fewshot, "standard_members", lambda: standard_members()[:1]
        )
        report_path = tmp_path / "fewshot.json"
        code = main(
            ["fewshot", "--quick", "--no-gate", "--output", str(report_path)]
        )
        assert code == 0
        assert "Table-III band" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.fewshot/v1"
        assert report["devices_in_band"] == 1

    def test_cluster_bench_gate_failure_exits_nonzero(self, tmp_path, capsys):
        # An impossible savings floor must fail the gate, not pass it.
        code = main(
            [
                "cluster", "--bench", "--quick",
                "--jobs", "40", "--nodes", "6",
                "--min-energy-savings", "0.99",
                "--output", str(tmp_path / "BENCH_cluster.json"),
            ]
        )
        assert code == 1
        assert "cluster gate failed" in capsys.readouterr().err

    def test_sources_dump(self, tmp_path, capsys):
        code = main(["sources", "--output", str(tmp_path / "src")])
        assert code == 0
        cu_files = list((tmp_path / "src").glob("*.cu"))
        ptx_files = list((tmp_path / "src").glob("*.ptx"))
        assert len(cu_files) == 83
        # PTX only for the arithmetic groups: 12 INT + 11 SP + 12 DP.
        assert len(ptx_files) == 35
        sample = (tmp_path / "src" / "sp_n512.cu").read_text()
        assert "__global__" in sample


class TestPredictBatch:
    def test_json_batch(self, model_path, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                [
                    {"sp": 0.4, "dram": 0.7},
                    {"int": 0.2, "l2": 0.1},
                    {"dp": 1.0},
                ]
            )
        )
        code = main(
            ["predict", "--model", str(model_path), "--batch", str(batch)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 rows" in out
        assert "predicted power (W)" in out

    def test_csv_batch(self, model_path, tmp_path, capsys):
        batch = tmp_path / "batch.csv"
        batch.write_text("sp,dram\n0.4,0.7\n0.9,\n")
        code = main(
            [
                "predict", "--model", str(model_path),
                "--batch", str(batch), "--core", "666",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 rows" in out
        assert "666" in out

    def test_batch_matches_single_row_scalar_path(
        self, model_path, tmp_path, capsys
    ):
        batch = tmp_path / "one.json"
        batch.write_text(json.dumps([{"sp": 0.5, "dram": 0.5}]))
        assert main(
            ["predict", "--model", str(model_path), "--batch", str(batch)]
        ) == 0
        table = capsys.readouterr().out
        from repro.serialization import load_model
        from repro.serving.engine import vector_from_mapping

        model = load_model(model_path)
        expected = model.predict_power(
            vector_from_mapping({"sp": 0.5, "dram": 0.5}),
            model.spec.reference,
        )
        assert f"{expected:.2f}" in table

    def test_unknown_component_reports_error(
        self, model_path, tmp_path, capsys
    ):
        batch = tmp_path / "bad.json"
        batch.write_text(json.dumps([{"tensor": 0.5}]))
        code = main(
            ["predict", "--model", str(model_path), "--batch", str(batch)]
        )
        assert code == 1
        assert "unknown utilization" in capsys.readouterr().err

    def test_empty_batch_reports_error(self, model_path, tmp_path, capsys):
        batch = tmp_path / "empty.csv"
        batch.write_text("sp,dram\n")
        code = main(
            ["predict", "--model", str(model_path), "--batch", str(batch)]
        )
        assert code == 1
        assert "no utilization rows" in capsys.readouterr().err

    def test_predict_without_workload_or_batch(self, model_path, capsys):
        code = main(["predict", "--model", str(model_path)])
        assert code == 1
        assert "--workload" in capsys.readouterr().err


class TestLoadTest:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        output = tmp_path / "BENCH_serving.json"
        registry = tmp_path / "registry"
        code = main(
            [
                "load-test", "--quick", "--device", "Tesla K40c",
                "--requests", "60", "--concurrency", "4",
                "--registry", str(registry),
                "--output", str(output),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving load test" in out
        assert "report written" in out
        report = json.loads(output.read_text())
        assert report["schema"] == "repro.serving.bench/v2"
        assert report["device"] == "Tesla K40c"
        assert report["requests_per_phase"] == 60
        assert [l["concurrency"] for l in report["levels"]] == [4]
        assert [e["workers"] for e in report["fleet"]["by_workers"]] == [1, 2]
        assert [s["shape"] for s in report["shapes"]] == ["burst"]
        # The model the run fitted stays published for reuse.
        assert (registry / "tesla-k40c" / "manifest.json").exists()

    def test_strict_passes_on_clean_run(self, tmp_path):
        code = main(
            [
                "load-test", "--quick", "--device", "Tesla K40c",
                "--requests", "40", "--concurrency", "2", "--strict",
                "--min-fleet-speedup", "1.5",
                "--output", str(tmp_path / "bench.json"),
            ]
        )
        assert code == 0

    def test_unreachable_fleet_gate_fails(self, tmp_path, capsys):
        code = main(
            [
                "load-test", "--quick", "--device", "Tesla K40c",
                "--requests", "40", "--concurrency", "2",
                "--min-fleet-speedup", "1e9",
                "--output", str(tmp_path / "bench.json"),
            ]
        )
        assert code == 1
        assert "below the required" in capsys.readouterr().err

    def test_shape_and_fleet_flags_reach_the_plan(self, tmp_path):
        output = tmp_path / "bench.json"
        code = main(
            [
                "load-test", "--quick", "--device", "Tesla K40c",
                "--requests", "40", "--concurrency", "2",
                "--fleet-workers", "2", "--chunk-rows", "8",
                "--shape", "mixed", "--shape", "diurnal",
                "--output", str(output),
            ]
        )
        # The report is written before any gate check; a 40-request
        # 8-row-chunk fleet pass is too small to hold the 3x floor
        # reliably, and this test pins flag plumbing, not the gate.
        assert code in (0, 1)
        report = json.loads(output.read_text())
        assert report["fleet"]["worker_counts"] == [2]
        assert report["fleet"]["chunk_rows"] == 8
        assert [s["shape"] for s in report["shapes"]] == ["mixed", "diurnal"]


class TestServeSmoke:
    def test_bounded_serve_answers_and_exits(self, tmp_path):
        """End-to-end through a real process: fit, listen, answer one
        request, exit cleanly at --max-requests."""
        import os
        import socket
        import subprocess
        import sys as _sys

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        process = subprocess.Popen(
            [
                _sys.executable, "-u", "-m", "repro.cli", "serve",
                "--registry", str(tmp_path / "registry"),
                "--device", "Tesla K40c", "--fit",
                "--port", "0", "--max-requests", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            for line in process.stdout:
                if "listening on" in line:
                    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
                    break
            else:
                pytest.fail("server never reported its port")
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(
                    json.dumps({"utilizations": {"sp": 0.5}}).encode() + b"\n"
                )
                payload = json.loads(sock.makefile().readline())
            assert payload["ok"] is True
            assert payload["watts"] > 0
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestTelemetryFlag:
    def _fit_with_trace(self, tmp_path, name, extra=()):
        trace = tmp_path / name
        code = main(
            [
                "fit",
                "--device",
                "Tesla K40c",
                "--output",
                str(tmp_path / "model.json"),
                "--telemetry",
                str(trace),
                *extra,
            ]
        )
        assert code == 0
        return trace

    def test_fit_telemetry_jsonl_deterministic(self, tmp_path, capsys):
        """The acceptance criterion: two same-seed fits export
        byte-identical JSONL traces."""
        first = self._fit_with_trace(tmp_path, "a.jsonl")
        second = self._fit_with_trace(tmp_path, "b.jsonl")
        assert "telemetry trace written" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

        lines = [json.loads(l) for l in first.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["schema"] == "repro.telemetry/v1"
        kinds = {line["kind"] for line in lines}
        assert kinds == {"meta", "span", "counter", "gauge"}
        campaigns = [
            l for l in lines if l["kind"] == "span" and l["name"] == "campaign"
        ]
        assert len(campaigns) == 1
        assert campaigns[0]["attrs"]["device"] == "Tesla K40c"

    def test_fit_telemetry_prometheus_format(self, tmp_path, capsys):
        trace = self._fit_with_trace(
            tmp_path, "trace.prom", extra=["--telemetry-format", "prom"]
        )
        text = trace.read_text()
        assert "# TYPE repro_rows_collected counter" in text
        assert "# TYPE repro_estimator_rmse gauge" in text

    def test_fit_telemetry_traces_chaos_campaign(self, tmp_path, capsys):
        trace = self._fit_with_trace(
            tmp_path, "chaos.jsonl", extra=["--chaos", "0.05"]
        )
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        counters = {
            l["name"]: l["value"] for l in lines if l["kind"] == "counter"
        }
        assert counters.get("faults.injected", 0) > 0
        assert counters.get("backoff.virtual_seconds", 0) > 0


class TestEnergyCommands:
    """The joint power x runtime CLI surface: fit --perf / predict --energy."""

    @pytest.fixture(scope="class")
    def perf_paths(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-perf") / "k40c.json"
        code = main(
            ["fit", "--device", "Tesla K40c", "--perf", "--output", str(path)]
        )
        assert code == 0
        perf_path = path.with_name("k40c.perf.json")
        assert perf_path.exists()
        return path, perf_path

    def test_fit_perf_writes_valid_performance_model(self, perf_paths):
        _power, perf_path = perf_paths
        data = json.loads(perf_path.read_text())
        assert data["format"] == "repro-dvfs-performance-model"
        assert data["device"] == "Tesla K40c"
        names = {entry["name"] for entry in data["kernels"]}
        # Microbenchmarks and the Table-III workloads are both fitted.
        assert "blackscholes" in names
        assert len(names) > 83

    def test_predict_energy_single_config(self, perf_paths, capsys):
        power, perf = perf_paths
        code = main(
            [
                "predict", "--energy", "--model", str(power),
                "--perf-model", str(perf),
                "--workload", "blackscholes", "--core", "745",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "energy" in out
        assert "EDP" in out

    def test_predict_energy_grid(self, perf_paths, capsys):
        power, perf = perf_paths
        code = main(
            [
                "predict", "--energy", "--model", str(power),
                "--perf-model", str(perf),
                "--workload", "blackscholes", "--grid",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best energy" in out
        assert "best edp" in out
        assert "best ed2p" in out

    def test_predict_energy_requires_perf_model(self, perf_paths, capsys):
        power, _perf = perf_paths
        code = main(
            [
                "predict", "--energy", "--model", str(power),
                "--workload", "blackscholes",
            ]
        )
        assert code != 0
        assert "--perf-model" in capsys.readouterr().err
