"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    from repro.experiments.claims import CLAIMS

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "claims" in out
    assert ", ".join(CLAIMS) in out


def test_reproduce_figure_passes(capsys):
    assert main(["reproduce", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_reproduce_table_passes(capsys):
    assert main(["reproduce", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "0.80338" in out  # the E5-2620 outlier


def test_reproduce_validation(capsys):
    assert main(["reproduce", "eq3"]) == 0
    assert "Eq. 3" in capsys.readouterr().out


def test_reproduce_unknown_name_exits_2_and_lists_names(capsys):
    from repro.experiments.claims import CLAIMS

    assert main(["reproduce", "fig4", "fig11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fig11" in captured.err
    assert ", ".join(CLAIMS) in captured.err


def test_reproduce_failing_check_exits_1(capsys, monkeypatch):
    import dataclasses

    from repro.experiments import claims
    from repro.experiments.report import ExperimentReport

    def failing(outcome):
        report = ExperimentReport(experiment="Table 1", title="forced failure")
        report.check("a check that does not hold", False)
        return report

    forced = dataclasses.replace(claims.CLAIMS["table1"], reduce=failing)
    monkeypatch.setitem(claims.CLAIMS, "table1", forced)
    assert main(["reproduce", "table1"]) == 1
    assert "[FAIL] a check that does not hold" in capsys.readouterr().out


def test_reproduce_with_store_twice_is_warm_and_identical(capsys, tmp_path):
    store_dir = str(tmp_path / "st")
    assert main(["reproduce", "energy", "--store", store_dir]) in (0, 1)
    cold = capsys.readouterr()
    assert "0 cells warm, 4 computed" in cold.err
    assert main(["reproduce", "energy", "--store", store_dir]) in (0, 1)
    warm = capsys.readouterr()
    assert "4 cells warm, 0 computed" in warm.err
    assert warm.out == cold.out
    assert "Ablation A (energy)" in warm.out


def test_calibrate_command(capsys):
    assert main(["calibrate", "Intel Xeon E5-2620"]) == 0
    out = capsys.readouterr().out
    assert "0.80338" in out


def test_calibrate_unknown_processor(capsys):
    assert main(["calibrate", "Pentium III"]) == 2
    err = capsys.readouterr().err
    assert "unknown processor 'Pentium III'; catalog: " in err


def test_run_paper_preset_with_set_overrides(capsys):
    assert (
        main(
            [
                "run",
                "--preset",
                "paper-5.3",
                "--set",
                "scheduler=pas",
                "--set",
                "v20_load=thrashing",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "scheduler=pas governor=stable (2 guests, 800s)" in out
    assert "V20" in out
    assert "energy" in out


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("flux=1", "unknown scenario config field(s) 'flux'"),
        ("v20_active=[20,", "v20_active takes a JSON array"),
        ("seed=abc", "seed takes an integer"),
        ("scheduler=bogus", "unknown scheduler 'bogus'"),
        ("nofield", "--set takes FIELD=VALUE"),
    ],
)
def test_run_set_rejects_bad_overrides_cleanly(capsys, assignment, message):
    assert main(["run", "--preset", "paper-5.3", "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("run: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("flux=1", "unknown cluster scenario field(s) 'flux'"),
        ("policy=bogus", "unknown cluster policy 'bogus'"),
        ("power_budget_w=-3", "power_budget_w must be a finite positive"),
        ("dvfs=maybe", "dvfs takes true or false"),
    ],
)
def test_run_set_rejects_bad_cluster_overrides_cleanly(capsys, assignment, message):
    assert main(["run", "--preset", "dc-diurnal-small", "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("duration", ["4", "15"])
def test_run_rejects_a_duration_of_partial_epochs(capsys, duration):
    # 4 s would run no epoch and 15 s would round up to 20 s of 10 s epochs.
    argv = ["run", "--preset", "dc-diurnal-small", "--set", f"duration={duration}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"duration {duration} s is not a whole number of 10.0 s epochs" in captured.err
    assert "Traceback" not in captured.err


def test_profile_samples_every_cell_of_a_preset_grid(capsys, monkeypatch):
    from repro.obs.profile import SamplingProfiler

    profiled = []
    run = SamplingProfiler.run

    def recording_run(self, config):
        profiled.append((getattr(config, "policy", None), config.duration))
        return run(self, config)

    monkeypatch.setattr(SamplingProfiler, "run", recording_run)
    argv = ["profile", "--preset", "dc-diurnal-small", "--set", "duration=100"]
    assert main(argv) == 0
    assert profiled == [
        ("static", 100.0),
        ("consolidate", 100.0),
        ("load-balance", 100.0),
        ("power-budget", 100.0),
    ]
    assert capsys.readouterr().out.startswith(
        "sampling profile — preset dc-diurnal-small (4 cells)\n"
    )
    profiled.clear()
    assert main(["profile", "--preset", "paper-5.3", "--duration", "50"]) == 0
    assert profiled == [(None, 50.0)]
    assert capsys.readouterr().out.startswith("sampling profile — preset paper-5.3\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--preset", "paper-5.3", "--duration", "-1"],
        ["sweep", "--preset", "paper-5.3", "--duration", "0"],
        ["run", "--preset", "paper-5.3", "--duration", "nan"],
    ],
)
def test_non_positive_duration_exits_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "duration must be a finite positive number" in err
    assert "Traceback" not in err


_FAST_GRID = (
    '{"scheduler": ["credit", "pas"], "v20_load": ["exact", "thrashing"],'
    ' "duration": [200.0], "v20_active": [[20.0, 180.0]], "v70_active": [[60.0, 140.0]]}'
)


def test_sweep_command_json_grid(capsys, tmp_path):
    out_path = tmp_path / "results.json"
    assert main(["sweep", "--grid", _FAST_GRID, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "4 cells" in out
    assert "energy_joules" in out
    text = out_path.read_text()
    assert '"scheduler=pas,' in text


def test_sweep_workers_output_byte_identical(capsys, tmp_path):
    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    assert main(["sweep", "--grid", _FAST_GRID, "--workers", "1", "--out", str(serial_path)]) == 0
    assert main(["sweep", "--grid", _FAST_GRID, "--workers", "4", "--out", str(parallel_path)]) == 0
    capsys.readouterr()
    assert serial_path.read_bytes() == parallel_path.read_bytes()


def test_sweep_csv_output(capsys, tmp_path):
    out_path = tmp_path / "results.csv"
    assert main(["sweep", "--grid", _FAST_GRID, "--out", str(out_path)]) == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 5


def test_sweep_rejects_non_object_grid(capsys):
    assert main(["sweep", "--grid", "[1, 2]"]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_sweep_rejects_invalid_json_grid(capsys):
    assert main(["sweep", "--grid", "{oops}"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis(capsys):
    assert main(["sweep", "--grid", '{"flux": [1]}']) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


def test_sweep_reports_bad_cell_value_cleanly(capsys):
    # The failure happens inside a worker cell; it must still surface as a
    # clean one-line error and exit 2, not a traceback.
    code = main(
        ["sweep", "--grid", '{"scheduler": ["xenomorph"], "duration": [50.0]}']
    )
    assert code == 2
    assert "unknown scheduler" in capsys.readouterr().err


def test_sweep_default_grid_is_24_cells():
    from repro.cli import _SWEEP_DEFAULTS
    from repro.sweep import SweepGrid

    assert list(_SWEEP_DEFAULTS) == ["scheduler", "governor", "v20_load"]
    assert len(SweepGrid(_SWEEP_DEFAULTS)) == 24


@pytest.mark.parametrize(
    "grid, message",
    [
        ('{"duration": ["x"]}', "--grid: duration takes a number, got 'x'"),
        ('{"guests": [5]}', "--grid: guests takes a JSON array, got 5"),
        ('{"scheduler": "pas"}', "--grid axis 'scheduler' takes a non-empty JSON list"),
        ('{"scheduler": []}', "--grid axis 'scheduler' takes a non-empty JSON list"),
        ('["scheduler"]', "--grid must be a JSON object of axes"),
        ("{}", "--grid needs at least one axis"),
        ('{"policy": ["static"]}', "unknown sweep axis 'policy' for ScenarioConfig"),
        ('{"scheduler": ', "--grid is not valid JSON"),
    ],
)
def test_sweep_checks_every_grid_value_like_set(capsys, grid, message):
    assert main(["sweep", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep: ")
    assert message in err
    assert "Traceback" not in err


def test_list_prints_the_preset_table(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "scenario presets" in out
    for name in ("paper-5.3", "governors", "diurnal-web", "pi-batch", "mixed-guests"):
        assert name in out


def test_sweep_preset_runs_a_grid(capsys, tmp_path):
    out_path = tmp_path / "governors.json"
    assert (
        main(
            [
                "sweep",
                "--preset",
                "governors",
                "--duration",
                "100",
                "--workers",
                "2",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "8 cells" in out
    assert out_path.exists()


def test_sweep_unknown_preset_lists_choices(capsys):
    assert main(["sweep", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err and "governors" in err


def test_sweep_preset_grid_replaces_the_preset_axes(capsys):
    grid = '{"power_budget_w": [60, 80]}'
    assert main(["sweep", "--preset", "dc-diurnal-small", "--grid", grid]) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 cells, axes power_budget_w" in out


def test_sweep_preset_grid_checks_values_against_the_preset_config(capsys):
    grid = '{"scheduler": ["pas"]}'
    assert main(["sweep", "--preset", "dc-diurnal-small", "--grid", grid]) == 2
    assert "unknown sweep axis 'scheduler' for ClusterScenarioConfig" in capsys.readouterr().err


def test_sweep_replicates_expand_cells(capsys):
    assert (
        main(
            [
                "sweep",
                "--grid",
                '{"scheduler": ["credit"], "duration": [60.0],'
                ' "v20_active": [[10.0, 50.0]], "v70_active": [[20.0, 40.0]]}',
                "--replicates",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 cells" in out
    assert "rep=1" in out


def test_run_preset(capsys):
    assert main(["run", "--preset", "stress-fleet"]) == 0
    out = capsys.readouterr().out
    assert "S00" in out and "S07" in out
    assert "energy" in out


def test_run_unknown_preset(capsys):
    assert main(["run", "--preset", "nope"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_run_scenario_file_round_trip(capsys, tmp_path):
    import json

    from repro.experiments import preset_config

    spec = preset_config("mixed-guests").with_changes(duration=120.0).to_dict()
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "W20" in out and "B30" in out and "T25" in out


def test_run_scenario_file_unknown_field_is_clean(capsys, tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schedular": "pas"}))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "valid fields" in err and "scheduler" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"duration": "800"}, "scenario config: duration takes a number, got '800'"),
        ({"seed": 1.5}, "scenario config: seed takes an integer"),
        ({"v20_active": "50-750"}, "scenario config: v20_active takes a JSON array"),
        ({"kind": "cluster", "n_vms": "3"}, "cluster scenario: n_vms takes an integer"),
        ({"kind": "cluster", "dvfs": "yes"}, "cluster scenario: dvfs takes true or false"),
        ({"kind": "cluster", "epoch": 10}, "unknown cluster scenario field(s) 'epoch'"),
        (
            {"scheduler_kwargs": {"bogus": 1}},
            "unknown credit scheduler parameter(s) 'bogus'; accepted: quantum,",
        ),
        (
            {"scheduler": "pas", "scheduler_kwargs": {"bogus": 1}},
            "unknown pas scheduler parameter(s) 'bogus'; accepted: sample_period,",
        ),
        (
            {"governor": "ondemand", "governor_kwargs": {"bogus": 1}},
            "unknown ondemand governor parameter(s) 'bogus'; accepted: up_threshold,",
        ),
        (
            {"manager": "user-credit", "manager_kwargs": {"bogus": 1}},
            "unknown user-credit manager parameter(s) 'bogus'; accepted: poll_period,",
        ),
        (
            {"manager": "user-full", "manager_kwargs": {"host": 1}},
            "unknown user-full manager parameter(s) 'host'; accepted: poll_period,",
        ),
        (
            {"qos": "ladder", "qos_kwargs": {"bogus": 1}},
            "unknown ladder QoS controller parameter(s) 'bogus'; accepted: levels,",
        ),
        (
            {"qos": "naive", "qos_kwargs": {"monitor": {"bogus": 1}}},
            "unknown QoS monitor parameter(s) 'bogus'; accepted: period,",
        ),
        (
            {"qos": "naive", "qos_kwargs": {"monitor": 3}},
            "qos_kwargs: monitor takes a JSON object, got 3",
        ),
        (
            {"guests": [{"name": "A", "credit": "20"}]},
            "guest spec: credit takes a number, got '20'",
        ),
        (
            {
                "guests": [
                    {
                        "name": "A",
                        "credit": 20,
                        "workloads": [{"kind": "constant", "demand_percent": "8"}],
                    }
                ]
            },
            "workload spec: demand_percent takes a number, got '8'",
        ),
    ],
)
def test_run_scenario_file_bad_values_are_clean(capsys, tmp_path, spec, message):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"duration": 20.0, **spec}))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("run: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "assignment, message",
    [
        (
            'scheduler_kwargs={"bogus": 1}',
            "unknown credit scheduler parameter(s) 'bogus'; accepted: quantum,",
        ),
        (
            'governor_kwargs={"bogus": 1}',
            "unknown stable governor parameter(s) 'bogus'; accepted: window,",
        ),
        (
            'scheduler_kwargs={"quantum": "x"}',
            "credit scheduler: quantum takes a number, got 'x'",
        ),
        (
            'governor_kwargs={"up_threshold": "x"}',
            "stable governor: up_threshold takes a number, got 'x'",
        ),
    ],
)
def test_run_set_rejects_unknown_constructor_kwargs(capsys, assignment, message):
    argv = ["run", "--preset", "paper-5.3", "--duration", "20", "--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("run: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "preset, assignments, message",
    [
        (
            "paper-5.3",
            ["manager=user-credit", 'manager_kwargs={"bogus": 1}'],
            "unknown user-credit manager parameter(s) 'bogus'; accepted: poll_period,",
        ),
        (
            "qos-noisy-neighbor",
            ['qos_kwargs={"bogus": 1}'],
            "unknown ladder QoS controller parameter(s) 'bogus'; accepted: levels,",
        ),
        (
            "qos-noisy-neighbor",
            ['qos_kwargs={"monitor": {"bogus": 1}}'],
            "unknown QoS monitor parameter(s) 'bogus'; accepted: period,",
        ),
        (
            "qos-noisy-neighbor",
            ['qos_kwargs={"monitor": {"period": "x"}}'],
            "QoS monitor: period takes a number, got 'x'",
        ),
        (
            "qos-noisy-neighbor",
            ['qos_kwargs={"high": "x"}'],
            "ladder QoS controller: high takes a number, got 'x'",
        ),
        (
            "paper-5.3",
            ["scheduler=pas", 'scheduler_kwargs={"quantum": true}'],
            "pas scheduler: quantum takes a number, got True",
        ),
        (
            "paper-5.3",
            ["manager=user-full", 'manager_kwargs={"window": 2.5}'],
            "user-full manager: window takes an integer, got 2.5",
        ),
        (
            "paper-5.3",
            ['guests=[{"name": "A", "credit": "20"}]'],
            "guest spec: credit takes a number, got '20'",
        ),
        (
            "paper-5.3",
            ['guests=[{"name": "A", "credit": 20, "workloads": [{"kind": "pi", "work": "9"}]}]'],
            "workload spec: work takes a number, got '9'",
        ),
    ],
)
def test_run_set_rejects_bad_nested_values(capsys, preset, assignments, message):
    argv = ["run", "--preset", preset, "--duration", "20"]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("run: ") and err.count("\n") == 1


def test_run_scenario_file_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops}")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_requires_a_source():
    with pytest.raises(SystemExit):
        main(["run"])


def test_invalid_claim_name_rejected(capsys):
    assert main(["reproduce", "fig11"]) == 2
    assert "unknown claim" in capsys.readouterr().err


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["reproduce", "fig9", "table2", "--workers", "2"])
    assert args.names == ["fig9", "table2"]
    assert args.workers == 2
    assert args.store is None


def test_one_run_and_one_sweep_command():
    import argparse

    def subcommands(parser):
        (action,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    commands = subcommands(build_parser())
    assert "scenario" not in commands
    assert not {"figure", "table", "validate", "ablation"} & set(commands)
    assert "reproduce" in commands
    assert "cluster" not in commands
    # --grid is the one ad-hoc axis spelling: no per-axis list flags.
    sweep_flags = {
        flag
        for action in commands["sweep"]._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert sweep_flags == {
        "--duration", "--fixed-seed", "--force", "--grid", "--help",
        "--metrics-out", "--out", "--out-aggregated", "--preset", "--quiet",
        "--replicates", "--seed", "--set", "--store", "--verbose", "--workers",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "compare", "--preset", "dc-diurnal"],
        ["sweep", "--schedulers", "credit"],
        ["sweep", "--governors", "stable"],
        ["sweep", "--list-presets"],
        ["sweep", "--resume"],
    ],
)
def test_removed_commands_and_axis_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


# ------------------------------------------------------------ store surface


def test_sweep_store_warm_rerun_is_all_hits_and_byte_identical(capsys, tmp_path):
    store_dir = str(tmp_path / "st")
    cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
    base = ["sweep", "--grid", _FAST_GRID, "--store", store_dir]
    assert main(base + ["--out", str(cold_path)]) == 0
    assert "0 cells warm, 4 computed" in capsys.readouterr().out
    assert main(base + ["--out", str(warm_path)]) == 0
    assert "4 cells warm, 0 computed" in capsys.readouterr().out
    assert cold_path.read_bytes() == warm_path.read_bytes()


def test_sweep_store_force_recomputes(capsys, tmp_path):
    store_dir = str(tmp_path / "st")
    base = ["sweep", "--grid", _FAST_GRID, "--store", store_dir]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--force"]) == 0
    assert "0 cells warm, 4 computed" in capsys.readouterr().out


def test_sweep_force_requires_store(capsys):
    assert main(["sweep", "--force"]) == 2
    assert "--force only makes sense with --store" in capsys.readouterr().err


def test_sweep_out_aggregated(capsys, tmp_path):
    agg = tmp_path / "agg.csv"
    assert (
        main(["sweep", "--grid", _FAST_GRID, "--replicates", "2", "--out-aggregated", str(agg)])
        == 0
    )
    assert "aggregated rows" in capsys.readouterr().out
    lines = agg.read_text().splitlines()
    assert len(lines) == 1 + 4  # 4 logical cells, replicates collapsed
    assert "energy_joules_ci95" in lines[0]


def test_store_ls_show_gc_export(capsys, tmp_path):
    store_dir = str(tmp_path / "st")
    assert main(["sweep", "--grid", _FAST_GRID, "--store", store_dir]) == 0
    capsys.readouterr()
    assert main(["store", "ls", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "4 cells" in out and "scheduler=pas" in out
    assert main(["store", "show", "--store", store_dir, "scheduler=pas,v20_load=exact,duration=200.0,v20_active=[20.0,180.0],v70_active=[60.0,140.0]"]) == 0
    out = capsys.readouterr().out
    assert '"metrics"' in out and '"seed"' in out
    assert main(["store", "gc", "--store", store_dir]) == 0
    assert "kept 4 cells" in capsys.readouterr().out
    export = tmp_path / "corpus.csv"
    assert main(["store", "export", "--store", store_dir, "--out", str(export)]) == 0
    capsys.readouterr()
    assert len(export.read_text().splitlines()) == 5


def test_store_show_unknown_cell(capsys, tmp_path):
    store_dir = str(tmp_path / "st")
    assert main(["sweep", "--grid", _FAST_GRID, "--store", store_dir]) == 0
    capsys.readouterr()
    assert main(["store", "show", "--store", store_dir, "nope"]) == 2
    assert "no stored cell" in capsys.readouterr().err


def test_store_on_non_store_directory(capsys, tmp_path):
    assert main(["store", "ls", "--store", str(tmp_path / "empty")]) == 2
    assert "not an experiment store" in capsys.readouterr().err


def test_reproduce_store_serves_a_charted_claim_warm(capsys, tmp_path):
    # The cf ablation reads loads and frequencies: stored, they serve a
    # rerun without simulating.
    store_dir = str(tmp_path / "st")
    assert main(["reproduce", "cf", "--store", store_dir]) == 0
    cold = capsys.readouterr()
    assert "0 cells warm, 2 computed" in cold.err
    assert main(["reproduce", "cf", "--store", store_dir]) == 0
    warm = capsys.readouterr()
    assert "2 cells warm, 0 computed" in warm.err
    assert warm.out == cold.out


def test_reproduce_output_is_the_same_however_it_runs(capsys, tmp_path):
    # Fig. 1 and Eq. 3 share their maximum-frequency pi runs; Table 1 is
    # load cells.  Serial, parallel and warm-store runs print the same bytes.
    names = ["fig1", "eq3", "table1"]
    outputs = []
    for flags in (
        ["--workers", "1"],
        ["--workers", "2", "--store", str(tmp_path / "st")],
        ["--workers", "2", "--store", str(tmp_path / "st")],
    ):
        assert main(["reproduce", *names, *flags]) == 0
        captured = capsys.readouterr()
        outputs.append(captured.out)
    assert "cells warm, 0 computed" in captured.err
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_cluster_scenario_file(capsys, tmp_path):
    import json

    from repro.cluster import ClusterScenarioConfig

    spec = ClusterScenarioConfig(n_machines=2, n_vms=3, duration=100.0).to_dict()
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(spec))
    out_path = tmp_path / "resolved.json"
    assert main(["run", "--scenario", str(path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "3 VMs on 2 machines" in out
    assert "fleet energy" in out
    assert json.loads(out_path.read_text())["kind"] == "cluster"


def test_run_cluster_scenario_bad_field(capsys, tmp_path):
    import json

    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({"kind": "cluster", "n_machines": 2, "warp": 1}))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "unknown cluster scenario field" in capsys.readouterr().err


# ------------------------------------------------------------- cluster CLI


def test_run_cluster_preset_writes_series(capsys, tmp_path):
    series = tmp_path / "epochs.csv"
    assert (
        main(
            [
                "run",
                "--preset",
                "dc-diurnal-small",
                "--out-series",
                str(series),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "8 VMs on 4 machines" in out
    assert "peak power" in out
    lines = series.read_text().splitlines()
    assert lines[0].startswith("epoch,time,machines_on,")
    assert len(lines) == 21  # header + 20 epochs


def test_run_rejects_fleet_csv_flags_on_single_host(capsys, tmp_path):
    for flag in ("--out-series", "--out-hosts", "--out-migrations"):
        path = tmp_path / "x.csv"
        assert main(["run", "--preset", "paper-5.3", flag, str(path)]) == 2
        assert "single-host" in capsys.readouterr().err
        assert not path.exists()


def test_run_set_overrides_cluster_policy(capsys):
    assert (
        main(["run", "--preset", "dc-diurnal-small", "--set", "policy=static"])
        == 0
    )
    assert "policy=static" in capsys.readouterr().out


def test_reproduce_orchestration_passes_the_policy_checks(capsys):
    assert main(["reproduce", "orchestration"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] power-budget holds the 200 W fleet cap every epoch" in out
    assert "[PASS] consolidate uses less energy than static" in out
    assert "[PASS] static never migrates" in out
    assert "[FAIL]" not in out


def test_sweep_fleet_replicates_derive_policy_rep_seeds(capsys, tmp_path):
    import json

    from repro.sweep.grid import derive_cell_seed

    out_path = tmp_path / "r.json"
    argv = ["sweep", "--preset", "dc-diurnal-small", "--replicates", "3"]
    assert main([*argv, "--quiet", "--out", str(out_path)]) == 0
    assert "±" in capsys.readouterr().out  # mean energy by policy, with ci95
    seeds = {cell["label"]: cell["seed"] for cell in json.loads(out_path.read_text())["cells"]}
    assert seeds == {
        f"policy={policy},rep={rep}": derive_cell_seed(11, f"policy={policy},rep={rep}")
        for policy in ("static", "consolidate", "load-balance", "power-budget")
        for rep in range(3)
    }


def test_sweep_rejects_bad_replicates(capsys):
    assert main(["sweep", "--preset", "dc-diurnal-small", "--replicates", "0"]) == 2
    assert "sweep: replicates must be >= 1" in capsys.readouterr().err


def test_sweep_cluster_preset_store_resumes_warm(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert main(["sweep", "--preset", "dc-diurnal-small", "--store", store]) == 0
    capsys.readouterr()
    assert main(["sweep", "--preset", "dc-diurnal-small", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "4 cells warm, 0 computed" in out
    assert "energy_kwh" in out
    assert " Wh over 1 cells" in out


def test_sweep_cluster_preset_export_matches_library(capsys, tmp_path):
    from repro.experiments import get_preset, preset_grid
    from repro.sweep import run_sweep

    out = tmp_path / "cli.json"
    assert main(["sweep", "--preset", "dc-diurnal-small", "--out", str(out)]) == 0
    capsys.readouterr()
    preset = get_preset("dc-diurnal-small")
    library = run_sweep(preset_grid(preset.name), metrics=preset.metrics)
    expected = library.save(tmp_path / "library.json")
    assert out.read_bytes() == expected.read_bytes()


def test_run_routes_cluster_presets(capsys):
    assert main(["run", "--preset", "dc-diurnal-small"]) == 0
    assert "fleet energy" in capsys.readouterr().out


def test_list_presets_tags_cluster_presets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "kind:cluster" in out
    assert "dc-diurnal" in out


# ------------------------------------------------------------ store --where


def _populate_mixed_store(tmp_path):
    store = str(tmp_path / "store")
    grid = (
        '{"scheduler": ["credit", "pas"], "duration": [60.0], '
        '"v20_active": [[10.0, 50.0]], "v70_active": [[20.0, 40.0]]}'
    )
    assert main(["sweep", "--grid", grid, "--store", store]) == 0
    assert main(["sweep", "--preset", "dc-diurnal-small", "--store", store]) == 0
    return store


def test_store_ls_where_filters_cells(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    assert main(["store", "ls", "--store", store, "--where", "scheduler=pas"]) == 0
    out = capsys.readouterr().out
    assert "1 cells" in out
    assert "scheduler=pas" in out
    assert main(["store", "ls", "--store", store, "--where", "policy=static"]) == 0
    out = capsys.readouterr().out
    assert "policy=static" in out and "scheduler" not in out


def test_store_ls_where_no_match(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    assert main(["store", "ls", "--store", store, "--where", "scheduler=sedf"]) == 0
    assert "no cells matching scheduler=sedf" in capsys.readouterr().out


def test_store_export_where_is_filtered(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    out_path = tmp_path / "pas.csv"
    capsys.readouterr()
    assert (
        main(
            [
                "store",
                "export",
                "--store",
                store,
                "--out",
                str(out_path),
                "--where",
                "scheduler=pas",
            ]
        )
        == 0
    )
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2  # header + the one pas cell
    assert "pas" in lines[1]


def test_store_where_rejects_malformed_clause(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    assert main(["store", "ls", "--store", store, "--where", "scheduler"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_store_where_numeric_values_match(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    assert main(["store", "ls", "--store", store, "--where", "n_machines=4"]) == 0
    out = capsys.readouterr().out
    assert "4 cells" in out  # the four dc-diurnal-small policy cells


def test_store_where_accepts_inequality_bounds(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    # The scenario cells ran 60 s, the dc-diurnal-small cluster cells 200 s.
    assert main(["store", "ls", "--store", store, "--where", "duration<=100"]) == 0
    assert "2 cells" in capsys.readouterr().out
    assert main(["store", "ls", "--store", store, "--where", "duration>=100"]) == 0
    assert "4 cells" in capsys.readouterr().out
    assert main(["store", "ls", "--store", store, "--where", "n_machines>=5"]) == 0
    assert "no cells matching n_machines>=5" in capsys.readouterr().out


def test_store_where_inequality_composes_with_equality(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    assert (
        main(
            [
                "store",
                "ls",
                "--store",
                store,
                "--where",
                "scheduler=pas",
                "--where",
                "duration>=50",
            ]
        )
        == 0
    )
    assert "1 cells" in capsys.readouterr().out


def test_store_where_rejects_non_numeric_bound(capsys, tmp_path):
    store = _populate_mixed_store(tmp_path)
    capsys.readouterr()
    assert main(["store", "ls", "--store", store, "--where", "scheduler>=pas"]) == 2
    assert "numeric bound" in capsys.readouterr().err


# ------------------------------------------------------------ run --preset all


def test_run_preset_all_smokes_every_scenario_preset(capsys):
    assert main(["run", "--preset", "all"]) == 0
    out = capsys.readouterr().out
    assert "ok    qos-noisy-neighbor" in out
    assert "skip  dc-fleet-large (xlarge)" in out
    assert "skip  dc-diurnal-small (cluster" in out
    assert "preset smoke:" in out
    assert "failed" not in out


def test_run_preset_all_rejects_single_run_outputs(capsys, tmp_path):
    trace = str(tmp_path / "t.json")
    assert main(["run", "--preset", "all", "--trace", trace]) == 2
    assert "--preset all" in capsys.readouterr().err


def test_sweep_set_matches_the_duration_flag(capsys, tmp_path):
    by_set = tmp_path / "set.json"
    by_flag = tmp_path / "flag.json"
    common = ["sweep", "--preset", "governors", "--quiet"]
    assert main([*common, "--set", "duration=20", "--out", str(by_set)]) == 0
    assert main([*common, "--duration", "20", "--out", str(by_flag)]) == 0
    assert by_set.read_bytes() == by_flag.read_bytes()


def test_sweep_set_applies_to_the_default_grid(capsys):
    argv = [
        "sweep", "--quiet",
        "--grid", '{"scheduler": ["credit"], "governor": ["stable"], "v20_load": ["exact"]}',
        "--set", "duration=30", "--set", "v20_active=[5,25]", "--set", "v70_active=[10,20]",
    ]
    assert main(argv) == 0
    assert "1 cells" in capsys.readouterr().out


def test_sweep_set_unknown_field_names_the_valid_fields(capsys):
    assert main(["sweep", "--preset", "governors", "--set", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert "sweep: unknown scenario config field(s) 'bogus'" in err
    assert "valid fields: scheduler, governor" in err
