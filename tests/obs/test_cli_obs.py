"""CLI-level observability: --trace/--metrics-out/-v/-q and repro profile."""

import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.obs import profile, validate_trace_file

_FAST_GRID = (
    '{"scheduler": ["credit", "pas"], "duration": [60.0],'
    ' "v20_active": [[10.0, 50.0]], "v70_active": [[20.0, 40.0]]}'
)


def test_run_trace_is_byte_identical_and_valid(capsys, tmp_path):
    # The acceptance criterion: two CLI runs of the same preset produce
    # byte-identical Perfetto-loadable trace files.
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(["run", "--preset", "paper-5.3", "--trace", str(first)]) == 0
    assert main(["run", "--preset", "paper-5.3", "--trace", str(second)]) == 0
    out = capsys.readouterr().out
    assert "trace events" in out
    assert first.read_bytes() == second.read_bytes()
    validate_trace_file(first)


def test_run_metrics_out_snapshots_ten_plus_counters(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    assert main(["run", "--preset", "paper-5.3", "--metrics-out", str(path)]) == 0
    capsys.readouterr()
    snapshot = json.loads(path.read_text())
    assert len(snapshot) >= 10
    assert snapshot["engine.events_fired"] > 0


def test_run_cluster_preset_trace_and_metrics(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert (
        main(
            [
                "run",
                "--preset",
                "dc-diurnal-small",
                "--trace",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        == 0
    )
    capsys.readouterr()
    validate_trace_file(trace)
    snapshot = json.loads(metrics.read_text())
    assert snapshot["cluster.epochs"] > 0
    assert "cluster.peak_power_w" in snapshot


def test_sweep_metrics_out_and_default_progress(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    assert main(["sweep", "--grid", _FAST_GRID, "--metrics-out", str(path)]) == 0
    captured = capsys.readouterr()
    snapshot = json.loads(path.read_text())
    assert snapshot["sweep.cells"] == 2
    assert snapshot["store.computed"] == 2
    # Default verbosity: the live cells/s line lands on stderr only.
    assert "cells/s" in captured.err
    assert "cells/s" not in captured.out


def test_sweep_verbose_prints_per_cell_lines(capsys):
    assert main(["sweep", "--grid", _FAST_GRID, "-v"]) == 0
    err = capsys.readouterr().err
    assert "[1/2]" in err and "[2/2]" in err
    assert "computed" in err


def test_sweep_quiet_silences_progress_and_store_line(capsys, tmp_path):
    store = tmp_path / "store"
    assert main(["sweep", "--grid", _FAST_GRID, "-q", "--store", str(store)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "store:" not in captured.out


def test_sweep_progress_does_not_change_exports(capsys, tmp_path):
    quiet = tmp_path / "quiet.json"
    loud = tmp_path / "loud.json"
    assert main(["sweep", "--grid", _FAST_GRID, "-q", "--out", str(quiet)]) == 0
    assert main(["sweep", "--grid", _FAST_GRID, "-v", "--out", str(loud)]) == 0
    capsys.readouterr()
    assert quiet.read_bytes() == loud.read_bytes()


def test_sweep_cluster_preset_quiet_and_metrics(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    assert (
        main(
            [
                "sweep",
                "--preset",
                "dc-diurnal-small",
                "-q",
                "--metrics-out",
                str(path),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(path.read_text())["sweep.cells"] > 0


def test_profile_command_prints_layer_and_function_tables(capsys):
    assert main(["profile", "--preset", "paper-5.3", "--duration", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sampling profile — preset paper-5.3"
    # Which layers a random sample hits varies run to run: check the
    # table's structure, not its rows.
    assert lines[2].split() == ["layer", "samples", "share"]
    assert f"top {profile.TOP_FUNCTIONS} functions" in lines
    assert re.fullmatch(r"\d+ samples over \d+\.\d{3} s of run wall", lines[-1])


def test_profile_cluster_preset(capsys):
    assert main(["profile", "--preset", "dc-fleet-large"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sampling profile — preset dc-fleet-large (4 cells)\n")
    assert "of run wall" in out or "no samples: " in out


def test_profile_run_shorter_than_one_sample_says_so(capsys, monkeypatch):
    monkeypatch.setattr(profile, "SAMPLE_INTERVAL_S", 60.0)
    assert main(["profile", "--preset", "paper-5.3", "--duration", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("no samples: the run took ")


def test_profile_unknown_preset_is_clean(capsys):
    assert main(["profile", "--preset", "nope"]) == 2
    assert "profile:" in capsys.readouterr().err


def test_profile_without_setitimer_exits_2(capsys, monkeypatch):
    monkeypatch.delattr("signal.setitimer")
    assert main(["profile", "--preset", "paper-5.3", "--duration", "1"]) == 2
    assert "signal.setitimer" in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write fails."""

    def __init__(self, fileno: int) -> None:
        super().__init__()
        self._fileno = fileno

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self._fileno


def test_broken_stdout_pipe_exits_quietly(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(target.fileno()))
        assert main(["sweep", "--grid", _FAST_GRID, "-q"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("example", ["capacity_planning.py", "quickstart.py"])
def test_example_read_through_a_closed_pipe_exits_quietly(example, tmp_path):
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    script = src.parent / "examples" / example
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
