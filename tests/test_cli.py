"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Workload catalog" in out
    assert "BlackScholes" in out
    assert "matrixMul" in out


def test_policies_lists_every_policy_and_placement(capsys):
    from repro.sched import PLACEMENTS, POLICIES

    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    for name in [*POLICIES, *PLACEMENTS]:
        assert name in out


def test_run_command(capsys):
    assert main(["run", "vectorAdd", "--vps", "2", "--transport", "shm"]) == 0
    out = capsys.readouterr().out
    assert "total simulated time" in out
    assert "coalescer" in out


def test_run_with_gantt(capsys):
    assert main([
        "run", "vectorAdd", "--vps", "2", "--transport", "shm", "--gantt",
    ]) == 0
    out = capsys.readouterr().out
    assert "compute" in out
    assert "#" in out


def test_run_without_optimizations(capsys):
    assert main([
        "run", "vectorAdd", "--vps", "2", "--transport", "shm",
        "--no-interleaving", "--no-coalescing",
    ]) == 0
    out = capsys.readouterr().out
    assert "interleaving=off" in out
    assert "coalescing=off" in out


def test_run_multi_gpu(capsys):
    assert main([
        "run", "vectorAdd", "--vps", "4", "--gpus", "2", "--transport", "shm",
    ]) == 0
    assert "2 host GPU(s)" in capsys.readouterr().out


def test_run_unknown_app(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "doom"])
    assert excinfo.value.code == 2
    assert "unknown app 'doom'" in capsys.readouterr().err


def test_run_invalid_request_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "vectorAdd", "--gpus", "0"])
    assert excinfo.value.code == 2
    assert "--gpus" in capsys.readouterr().err


def test_run_shares_the_scenario_flags():
    """``run`` adds only three flags to the shared scenario flags.

    Its ``--vps`` is the shared flag, taking a comma list.
    """
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices

    def flags(command):
        return {
            option
            for action in commands[command]._actions
            for option in action.option_strings
        }

    assert flags("run") - flags("account") == {
        "--workers", "--functional", "--gantt",
    }
    assert flags("account") <= flags("run")


def test_estimate_command(capsys):
    assert main(["estimate", "matrixMul"]) == 0
    out = capsys.readouterr().out
    assert "estimate C''" in out
    assert "estimated power" in out
    assert "Tegra K1" in out


def test_estimate_on_grid_host(capsys):
    assert main(["estimate", "dct8x8", "--host", "grid"]) == 0
    assert "Grid K520" in capsys.readouterr().out


def test_fig11_subset(capsys):
    assert main(["fig11", "mergeSort"]) == 0
    out = capsys.readouterr().out
    assert "mergeSort" in out
    assert "Fig 11" in out


def test_validate_command(capsys):
    assert main(["validate", "vectorAdd"]) == 0
    out = capsys.readouterr().out
    assert "functional validation" in out
    assert "OK" in out


def test_account_command(capsys):
    assert main(["account", "vectorAdd", "--vps", "2"]) == 0
    out = capsys.readouterr().out
    assert "Per-VP accounting" in out
    assert "Guest CPU (ms)" in out and "Elapsed (ms)" in out
    assert "Per-kind latency" in out
    assert "vp0" in out and "vp1" in out and "KERNEL" in out


def test_metrics_command_writes_only_the_json(capsys, tmp_path):
    path = tmp_path / "m.json"
    assert main(["metrics", "vectorAdd", "--vps", "2", "-o", str(path)]) == 0
    assert "dispatch.decisions" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_trace_command_writes_trace_and_metrics(capsys, tmp_path):
    trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
    assert main([
        "trace", "vectorAdd", "--vps", "2",
        "-o", str(trace), "--metrics-out", str(metrics),
    ]) == 0
    assert "trace written to" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "t.json"]


def test_trace_captures_the_request_identity_in_process(capsys, tmp_path):
    """``repro trace`` runs ``run_job`` inside one ``obs.capture()``.

    Its stamp is the config hash and seed ``repro.api.run`` and the
    daemon use for the same request, and the capture holds the run's
    spans per lane and the ``run_job`` self-profile.
    """
    import json

    trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
    assert main([
        "trace", "vectorAdd", "--vps", "2",
        "-o", str(trace), "--metrics-out", str(metrics),
    ]) == 0
    out = capsys.readouterr().out
    assert "(config 6104d9cfa00420f7, seed 1627707855)" in out
    stamp = json.loads(trace.read_text())["otherData"]
    assert (stamp["config_hash"], stamp["seed"]) == ("6104d9cfa00420f7", 1627707855)
    rows = [line.rsplit(None, 2) for line in out.splitlines() if line.endswith(" spans")]
    lanes = {lane.strip(): int(count) for lane, count, _ in rows}
    assert lanes == {
        "Quadro 4000/compute": 8,
        "Quadro 4000/copy-d2h": 16,
        "Quadro 4000/copy-h2d": 32,
        "ipc/socket": 72,
        "vp/vp0": 1,
        "vp/vp1": 1,
    }
    assert "selfprof.farm.run_job_s" in json.loads(metrics.read_text())["metrics"]


def test_trace_critpath_prints_the_attribution(capsys, tmp_path):
    argv = ["trace", "vectorAdd", "--vps", "2", "-o", str(tmp_path / "t.json")]
    assert main(argv) == 0
    assert "Critical-path attribution" not in capsys.readouterr().out
    assert main(argv + ["--critpath"]) == 0
    out = capsys.readouterr().out
    assert "Critical-path attribution" in out
    assert "Longest attributable spans" in out


def test_report_writes_the_output_path(capsys, tmp_path, monkeypatch,
                                      experiment_tables):
    import repro.analysis.experiments as experiments

    monkeypatch.setattr(experiments, "run_experiments", lambda: experiment_tables)
    path = tmp_path / "out.md"
    assert main(["report", "-o", str(path)]) == 0
    assert path.read_text().startswith("# SigmaVP reproduction")
    out = capsys.readouterr().out
    assert out.startswith("| Table | Claim | Paper | Measured | Bound | Pass |")
    assert "**FAIL**" not in out
    assert f"report written to {path}" in out


def test_report_fails_when_a_claim_does_not_hold(capsys, tmp_path, monkeypatch,
                                                 experiment_tables):
    import repro.analysis.experiments as experiments

    fig9 = experiment_tables["fig9"]
    moved = [t._replace(rows=[(x, 2.0, expected) for x, _, expected in t.rows])
             if t.stem == "fig9a" else t for t in fig9]
    monkeypatch.setattr(experiments, "run_experiments",
                        lambda: {**experiment_tables, "fig9": moved})
    assert main(["report", "-o", str(tmp_path / "out.md")]) == 1
    assert "**FAIL**" in capsys.readouterr().out


@pytest.mark.parametrize("command, stems", [
    ("fig9", ["fig9a", "fig9b"]),
    ("fig10", ["fig10a", "fig10b"]),
])
def test_artifact_command_prints_each_table_of_its_experiment(
    capsys, monkeypatch, command, stems
):
    import dataclasses

    from repro.analysis import EXPERIMENTS, Table

    calls = []

    def tables(workers, apps):
        calls.append((workers, apps))
        return [Table(stem, f"title {stem}", ["x"], [(1,)]) for stem in stems]

    monkeypatch.setitem(EXPERIMENTS, command,
                        dataclasses.replace(EXPERIMENTS[command], run=tables))
    assert main([command, "--workers", "3"]) == 0
    out = capsys.readouterr().out
    assert calls == [(3, ())]
    assert out == "\n\n".join(t.render() for t in tables(3, ())) + "\n"


def test_removed_telemetry_flags_are_usage_errors(capsys):
    for argv in (["run", "vectorAdd", "--account"],
                 ["metrics", "vectorAdd", "--prom"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_writes_no_files(tmp_path):
    """A run persists nothing, so it can never serve a stale result.

    Every value is recomputed from the current model in each process; a
    cross-process store keyed by the job's arguments would keep
    returning old numbers after a model constant changed.
    """
    home, serve_dir = tmp_path / "home", tmp_path / "serve"
    home.mkdir()
    serve_dir.mkdir()
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, HOME=str(home), REPRO_SERVE_DIR=str(serve_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "vectorAdd", "--vps", "2,4"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "vectorAdd" in proc.stdout
    assert sorted(home.rglob("*")) == []
    assert sorted(serve_dir.rglob("*")) == []
