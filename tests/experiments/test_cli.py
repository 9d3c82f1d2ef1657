"""CLI tests."""

import pytest

from repro.cli import main


def test_devices_lists_presets(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "Tesla C2050" in out
    assert "Quadro 2000" in out


def test_catalog_lists_all_benchmarks(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for tag in ("BP", "SC", "MM-L", "BS-L"):
        assert tag in out


def test_run_executes_batch(capsys):
    rc = main(["run", "--jobs", "HS:2", "--vgpus", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total time" in out
    assert "errors     : 0" in out


def test_run_bare_mode(capsys):
    rc = main(["run", "--jobs", "HS", "--bare"])
    assert rc == 0
    assert "bare CUDA" in capsys.readouterr().out


def test_run_rejects_unknown_gpu():
    with pytest.raises(SystemExit):
        main(["run", "--jobs", "HS", "--gpus", "rtx9090"])


def test_run_rejects_unknown_workload(capsys):
    assert main(["run", "--jobs", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "unknown workload 'NOPE'" in err
    assert "MM-L" in err  # the message lists the valid tags


def test_run_with_policy_and_flags(capsys):
    rc = main([
        "run", "--jobs", "HS:2", "--policy", "sjf",
        "--consolidation", "--eager-transfers",
    ])
    assert rc == 0


def test_reproduce_subcommand(capsys):
    rc = main(["reproduce", "fig7", "--quick"])
    assert rc == 0
    assert "Figure 7" in capsys.readouterr().out
