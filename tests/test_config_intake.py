"""One intake path: every way into a config takes JSON-shaped values alike.

A JSON-shaped value — a processor's catalog name, machine groups or guests
as lists of objects, a migration model as an object, a window as a list —
becomes a field value in the spec's constructor.  So ``from_dict``,
``with_changes``, ``preset_grid(overrides=...)``, a ``SweepGrid`` axis and
the CLI's ``--set``/``--grid`` all build the config a Python caller gets
from the spec objects, with the same store key, cell label and seed.
"""

import json

import pytest

from repro.cli import _config_from_args, _grid_axes, build_parser
from repro.cluster.machine import MachineSpec
from repro.cluster.migration import MigrationModel
from repro.cpu import catalog
from repro.errors import ConfigurationError
from repro.experiments import get_preset, preset_grid
from repro.experiments.scenario import GuestSpec, WorkloadSpec
from repro.store import cell_key
from repro.sweep import SweepGrid

_HETERO_GROUPS = [
    {"processor": "Intel Core i7-3770", "memory_mb": 16384, "count": 3},
    {"processor": catalog.BIG_LITTLE_44.name, "memory_mb": 8192, "count": 1},
]
_GUESTS = [
    {"name": "W20", "credit": 20.0, "workloads": [{"kind": "web", "active": [[10, 90]]}]},
    {"name": "C30", "credit": 30.0, "workloads": [{"kind": "constant"}]},
]

#: ``(preset, field, JSON value, the field value it names)``; ``None`` marks
#: a value every path refuses.
CASES = [
    pytest.param(
        "paper-5.3", "processor", "Intel Core i7-3770", catalog.CORE_I7_3770, id="host-processor"
    ),
    pytest.param(
        "dc-diurnal-small",
        "processor",
        "Intel Xeon E5-2620",
        catalog.XEON_E5_2620,
        id="fleet-processor",
    ),
    pytest.param("paper-5.3", "processor", "Pentium III", None, id="host-unknown-processor"),
    pytest.param(
        "dc-diurnal-small", "processor", "Pentium III", None, id="fleet-unknown-processor"
    ),
    pytest.param(
        "dc-hetero",
        "machines",
        _HETERO_GROUPS,
        (
            MachineSpec(processor=catalog.CORE_I7_3770, count=3),
            MachineSpec(processor=catalog.BIG_LITTLE_44, memory_mb=8192),
        ),
        id="machines",
    ),
    pytest.param(
        "dc-diurnal-small",
        "migration",
        {"downtime_s": 1.0, "copy_overhead_percent": 5.0, "copy_duration_s": 4.0},
        MigrationModel(downtime_s=1.0, copy_overhead_percent=5.0, copy_duration_s=4.0),
        id="migration",
    ),
    pytest.param(
        "mixed-guests",
        "guests",
        _GUESTS,
        (
            GuestSpec("W20", 20.0, workloads=(WorkloadSpec(active=((10.0, 90.0),)),)),
            GuestSpec("C30", 30.0, workloads=(WorkloadSpec(kind="constant"),)),
        ),
        id="guests",
    ),
    pytest.param("paper-5.3", "v20_active", [20, 180], (20.0, 180.0), id="int-window"),
    pytest.param("paper-5.3", "v20_active", [20.0, 180.0], (20.0, 180.0), id="float-window"),
]


def _set(preset, field, value):
    argv = ["run", "--preset", preset, "--set", f"{field}={json.dumps(value)}"]
    config, _, _ = _config_from_args(build_parser().parse_args(argv))
    return config


def _grid(preset, field, value):
    base = get_preset(preset).config
    return preset_grid(preset, axes=_grid_axes(base, json.dumps({field: [value]})))


#: Each intake path: ``(preset, field, value) -> config or grid``.
PATHS = {
    "from_dict": lambda preset, field, value: type(get_preset(preset).config).from_dict(
        {**get_preset(preset).config.to_dict(), field: value}
    ),
    "with_changes": lambda preset, field, value: get_preset(preset).config.with_changes(
        **{field: value}
    ),
    "preset_grid": lambda preset, field, value: preset_grid(
        preset, overrides={field: value}
    ).base,
    "sweep_axis": lambda preset, field, value: SweepGrid(
        {field: [value]}, base=get_preset(preset).config, vary_seed=True
    ),
    "cli_set": _set,
    "cli_grid": _grid,
}


def _cells(built):
    """``(label, seed, config, store key)`` of each cell (a config is one)."""
    if isinstance(built, SweepGrid):
        return [
            (cell.label, cell.seed, cell.config, cell_key(cell.config, (), cell.seed))
            for cell in built
        ]
    return [(None, built.seed, built, cell_key(built, (), built.seed))]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("preset, field, value, expected", CASES)
def test_every_intake_path_builds_the_config_the_value_names(
    path, preset, field, value, expected
):
    build = PATHS[path]
    if expected is None:
        with pytest.raises(ConfigurationError, match="unknown processor.*catalog: "):
            build(preset, field, value)
        return
    base = get_preset(preset).config
    reference = base.with_changes(**{field: expected})
    if path in ("sweep_axis", "cli_grid"):
        reference = SweepGrid({field: [expected]}, base=base, vary_seed=True)
    built = build(preset, field, value)
    assert getattr(_cells(built)[0][2], field) == expected
    assert _cells(built) == _cells(reference)
