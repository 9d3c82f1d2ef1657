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

    def test_malformed_rows_name_their_line(self, capsys, tmp_path):
        header = "job_id,user,group,submit_time,duration,num_gpus,gpu_type,mem_bytes\n"
        good = "j1,u,g,0,1,1,V100,1000\n"
        obj = ('{"job_id": "j1", "user": "u", "group": "g", "submit_time": 0, '
               '"duration": 1, "num_gpus": 1, "gpu_type": "T4", "mem_bytes": 10}')
        cases = {
            "bad.csv": (header + good + "j2,u,g,abc,1,1,V100,1000\n",
                        "line 3", "could not convert"),
            "short.csv": (header + "j1,u,g,0\n", "line 2", "missing fields"),
            "type.csv": (header + good + good.replace("V100", "X9"),
                         "line 3", "unknown gpu_type"),
            "bad.jsonl": (obj + "\n\n{oops\n", "line 3", "Expecting"),
            "list.jsonl": (obj + "\n[1, 2]\n", "line 2", "JSON object"),
        }
        for name, (text, line, reason) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["run", "trace", "--trace", str(path)]) == 2, name
            err = capsys.readouterr().err
            assert err.count("\n") == 1, name
            assert line in err and reason in err, err

    def test_batch_mode_still_needs_jobs(self, capsys):
        assert main(["run"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_new_device_presets_listed(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for preset in ("t4", "p100", "v100"):
            assert preset in out
