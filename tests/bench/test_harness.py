"""Unit tests for the unified benchmark harness and its regression gate."""

import json
import os
import pathlib
import subprocess
import sys
from functools import partial

import pytest

from benchmarks import harness


def make_report(benches: dict) -> dict:
    entries = {}
    for name, ref_s in benches.items():
        if isinstance(ref_s, dict):
            entries[name] = ref_s
        else:
            entries[name] = {"ok": True, "ref_s": ref_s, "ref_runs": [ref_s], "metrics": {}}
    return {"schema": harness.SCHEMA, "rev": "test", "benches": entries}


class ScriptedClock:
    """A stand-in clock whose spans read the scripted reference seconds in turn."""

    def __init__(self, spans):
        self.spans = iter(spans)
        self.marks = 0

    def start(self):
        return self

    def stop(self):
        pass

    def mark(self):
        self.marks += 1
        return self.marks

    def ref_seconds(self, first, last):
        return next(self.spans)


# ------------------------------------------------------------ parse_regress


@pytest.mark.parametrize(
    "text,expected",
    [
        ("25%", 0.25),
        ("25", 0.25),
        ("0.25", 0.25),
        ("15%", 0.15),
        ("0", 0.0),
        ("1%", 0.01),
        ("0.5%", 0.005),
    ],
)
def test_parse_regress(text, expected):
    assert harness.parse_regress(text) == pytest.approx(expected)


def test_parse_regress_rejects_negative():
    with pytest.raises(ValueError):
        harness.parse_regress("-5%")


# ---------------------------------------------------------- compare_reports


def test_compare_passes_within_threshold():
    base = make_report({"a": 1.0})
    cur = make_report({"a": 1.1})
    lines, regressed = harness.compare_reports(cur, base, max_regress=0.15)
    assert regressed == []
    assert any("a:" in line for line in lines)


def test_compare_flags_regression_beyond_threshold():
    base = make_report({"a": 1.0})
    cur = make_report({"a": 1.3})
    lines, regressed = harness.compare_reports(cur, base, max_regress=0.15)
    assert regressed == ["a"]
    assert any("REGRESSED" in line for line in lines)


def test_compare_has_no_absolute_grace():
    # A short bench 1.3x over its baseline regresses at 25%: no slack in
    # seconds is added to the limit.
    base = make_report({"short": 0.2})
    cur = make_report({"short": 0.26})
    lines, regressed = harness.compare_reports(cur, base, max_regress=0.25)
    assert regressed == ["short"]
    assert lines == ["short: 0.260s vs baseline 0.200s (x1.30, limit 0.250s) REGRESSED"]


def test_compare_flags_missing_and_failed_benches():
    base = make_report({"a": 1.0, "b": 1.0})
    cur = make_report(
        {"a": {"ok": False, "wall_s": 0.1, "error": "boom", "metrics": {}}}
    )
    _, regressed = harness.compare_reports(cur, base, max_regress=0.5)
    assert sorted(regressed) == ["a", "b"]  # a failed, b missing


# ------------------------------------------------------------- run_benches


def test_run_benches_report_shape(monkeypatch, tmp_path):
    monkeypatch.setattr(
        harness, "NATIVE_BENCHES", {"tiny": lambda clock: {"value": 42}}
    )
    report = harness.run_benches(["tiny"])
    assert report["schema"] == harness.SCHEMA
    entry = report["benches"]["tiny"]
    assert entry["ok"] is True
    assert entry["metrics"] == {"value": 42}
    assert len(entry["ref_runs"]) == harness.RUNS
    assert entry["ref_s"] == sorted(entry["ref_runs"])[harness.RUNS // 2]
    path = harness.write_report(report, tmp_path / "BENCH_test.json")
    loaded = harness.load_report(path)
    assert loaded["benches"]["tiny"]["metrics"]["value"] == 42


def test_run_benches_captures_bench_failure(monkeypatch):
    def explode(clock) -> dict:
        raise RuntimeError("kaput")

    monkeypatch.setattr(harness, "NATIVE_BENCHES", {"bad": explode})
    report = harness.run_benches(["bad"])
    entry = report["benches"]["bad"]
    assert entry["ok"] is False
    assert "kaput" in entry["error"]
    assert len(entry["ref_runs"]) == 1  # a failed run is not repeated


def test_run_benches_gates_the_median(monkeypatch):
    # One slow run of three does not move the gated time: the median does.
    monkeypatch.setattr(harness, "RefClock", lambda: ScriptedClock([1.0, 1.0, 9.0]))
    monkeypatch.setattr(harness, "RUNS", 3)
    monkeypatch.setattr(harness, "NATIVE_BENCHES", {"a": lambda clock: {}})
    report = harness.run_benches(["a"])
    assert report["benches"]["a"]["ref_s"] == 1.0
    assert report["benches"]["a"]["ref_runs"] == [1.0, 1.0, 9.0]
    _, regressed = harness.compare_reports(report, make_report({"a": 1.0}), max_regress=0.25)
    assert regressed == []


def test_run_benches_unknown_name_raises(monkeypatch):
    with pytest.raises(KeyError):
        harness.run_benches(["no-such-bench"])


def test_load_report_rejects_foreign_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        harness.load_report(path)


def test_load_report_refuses_a_wall_clock_report(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "repro-bench/1", "benches": {}}))
    with pytest.raises(ValueError, match="regenerate it with: python -m repro bench"):
        harness.load_report(path)


def _one_cell_grid(name, **_):
    from repro.experiments import presets

    timeline = dict(duration=10.0, v20_active=(1.0, 9.0), v70_active=(2.0, 8.0))
    return presets.preset_grid("paper-5.3", overrides=timeline)


@pytest.mark.parametrize("cold, warm, ok", [(1.0, 0.1, True), (1.0, 0.5, False)])
def test_store_warm_checks_the_warm_speedup(monkeypatch, cold, warm, ok):
    import repro.experiments

    monkeypatch.setattr(repro.experiments, "preset_grid", _one_cell_grid)
    bench = partial(harness._bench_store_warm, ScriptedClock([cold, warm]))
    if ok:
        assert bench()["warm_speedup"] == pytest.approx(10.0)
    else:
        with pytest.raises(AssertionError, match="x2.0 faster than cold, needs x5"):
            bench()


# -------------------------------------------------------------------- CLI


def test_cli_bench_list(capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "stress-fleet-cold" in out


def test_cli_bench_list_from_outside_the_checkout(tmp_path):
    # From another cwd `benchmarks` is not importable: the CLI loads
    # harness.py by path, and the harness must still find perfbench.clock.
    root = pathlib.Path(harness.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--list"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(harness.NATIVE_BENCHES)


def test_cli_bench_compare_roundtrip(tmp_path, monkeypatch, capsys):
    from benchmarks import harness as real_harness
    from repro.cli import main

    monkeypatch.setattr(
        real_harness, "NATIVE_BENCHES", {"tiny": lambda clock: {"value": 1}}
    )
    first = tmp_path / "base.json"
    assert main(["bench", "--bench", "tiny", "--out", str(first)]) == 0
    second = tmp_path / "next.json"
    assert (
        main(
            [
                "bench",
                "--bench",
                "tiny",
                "--out",
                str(second),
                "--compare",
                str(first),
                "--max-regress",
                "10000%",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "no regressions" in out


def test_cli_bench_one_bench_gates_only_itself(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setattr(harness, "NATIVE_BENCHES", {"a": lambda clock: {}, "b": lambda clock: {}})
    baseline = tmp_path / "base.json"
    harness.write_report(make_report({"a": 1e6, "b": 1e6}), baseline)
    argv = ["--compare", str(baseline), "--out", str(tmp_path / "out.json")]
    assert main(["bench", "--bench", "a", *argv]) == 0
    out = capsys.readouterr().out
    assert "a: " in out and "b: " not in out
    # Without --bench every baseline bench is gated, so a missing one fails.
    monkeypatch.setattr(harness, "NATIVE_BENCHES", {"a": lambda clock: {}})
    assert main(["bench", *argv]) == 1
    assert "b: MISSING from current run" in capsys.readouterr().out


def test_cli_bench_has_no_suite_option(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--suite", "smoke"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --suite" in capsys.readouterr().err


def test_cli_bench_refuses_a_wall_clock_baseline(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setattr(harness, "NATIVE_BENCHES", {"tiny": lambda clock: {}})
    baseline = tmp_path / "base.json"
    baseline.write_text(
        json.dumps(
            {"schema": "repro-bench/1", "benches": {"tiny": {"ok": True, "wall_s": 1.0}}}
        )
    )
    out = tmp_path / "out.json"
    code = main(["bench", "--bench", "tiny", "--out", str(out), "--compare", str(baseline)])
    assert code == 2
    assert "regenerate it with" in capsys.readouterr().err
    assert harness.load_report(out)["benches"]["tiny"]["ok"]  # the run is kept


def test_cli_bench_rejects_unknown_bench(capsys):
    from repro.cli import main

    assert main(["bench", "--bench", "nope"]) == 2
    assert "unknown bench(es) nope; choose from: engine-events," in capsys.readouterr().err
