"""`repro run trace` CLI mode."""

import json

from repro.cli import main


class TestRunTrace:
    def test_synthetic_replay(self, capsys, tmp_path):
        bench = tmp_path / "bench.json"
        rc = main([
            "run", "trace", "--synthetic", "20", "--nodes", "2",
            "--policy", "sjf_est", "--seed", "3",
            "--bench-out", str(bench),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy: sjf_est" in out
        assert "mean_jct_s" in out
        payload = json.loads(bench.read_text())
        assert payload["policy"] == "sjf_est"
        assert payload["metrics"]["jobs"] == 20

    def test_trace_file_replay(self, capsys, tmp_path):
        from repro.workloads.trace_replay import save_trace, synthetic_trace

        path = tmp_path / "trace.csv"
        save_trace(synthetic_trace(10, seed=1), str(path))
        rc = main([
            "run", "trace", "--trace", str(path), "--nodes", "2",
            "--policy", "fairshare",
        ])
        assert rc == 0
        assert "jobs: 10" in capsys.readouterr().out

    def test_needs_source(self, capsys):
        assert main(["run", "trace"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_rejects_empty_cluster(self, capsys):
        assert main(["run", "trace", "--synthetic", "10", "--nodes", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--nodes >= 1" in err

    def test_rejects_unreadable_trace(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        assert main(["run", "trace", "--trace", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "missing.csv" in err

    def test_batch_mode_still_needs_jobs(self, capsys):
        assert main(["run"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_new_device_presets_listed(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for preset in ("t4", "p100", "v100"):
            assert preset in out
