"""Grid expansion, labelling, seed derivation and validation."""

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.errors import ConfigurationError
from repro.experiments import ScenarioConfig
from repro.sweep import derive_cell_seed, SweepGrid


def test_product_expansion_order_and_size():
    grid = SweepGrid(
        {"scheduler": ["credit", "pas"], "governor": ["performance", "stable"]}
    )
    assert len(grid) == 4
    labels = [cell.label for cell in grid]
    # Last axis varies fastest, like nested loops.
    assert labels == [
        "scheduler=credit,governor=performance",
        "scheduler=credit,governor=stable",
        "scheduler=pas,governor=performance",
        "scheduler=pas,governor=stable",
    ]
    assert [cell.index for cell in grid] == [0, 1, 2, 3]


def test_cells_carry_replaced_configs():
    base = ScenarioConfig(duration=123.0)
    grid = SweepGrid({"scheduler": ["sedf"], "v20_load": ["thrashing"]}, base=base)
    (cell,) = grid.cells
    assert cell.config.scheduler == "sedf"
    assert cell.config.v20_load == "thrashing"
    assert cell.config.duration == 123.0  # base fields preserved


def test_unknown_axis_rejected():
    with pytest.raises(ConfigurationError, match="unknown sweep axis"):
        SweepGrid({"flux_capacitor": [1, 2]})


def test_empty_axis_rejected():
    with pytest.raises(ConfigurationError, match="no values"):
        SweepGrid({"scheduler": []})


def test_no_axes_rejected():
    with pytest.raises(ConfigurationError, match="at least one axis"):
        SweepGrid({})


def test_list_values_coerced_for_tuple_fields():
    # JSON grids deliver lists; tuple-typed config fields must accept them.
    grid = SweepGrid({"v20_active": [[20.0, 180.0]]})
    (cell,) = grid.cells
    assert cell.config.v20_active == (20.0, 180.0)


@pytest.mark.parametrize(
    "axes, base",
    [
        ({"scheduler": ["credit", "credit"]}, ScenarioConfig()),
        ({"v20_active": [[20, 180], [20.0, 180.0]]}, ScenarioConfig()),
        # Explicit guests replace the two-guest profile, so v20_load is ignored.
        (
            {"v20_load": ["exact", "thrashing"]},
            ScenarioConfig(guests=({"name": "A", "credit": 20.0},)),
        ),
    ],
)
def test_cells_that_share_a_label_are_refused(axes, base):
    with pytest.raises(ConfigurationError, match="gives two cells the label"):
        SweepGrid(axes, base=base)


def test_a_field_one_cell_ignores_keeps_its_value_in_the_others():
    # Explicit guests reset v20_load in the first cell only; the guest-less
    # cell runs (and is labelled) the thrashing load it was given.
    grid = SweepGrid(
        {"guests": [({"name": "A", "credit": 20.0},), ()], "v20_load": ["thrashing"]}
    )
    assert [cell.config.v20_load for cell in grid] == ["exact", "thrashing"]
    assert [cell.label for cell in grid] == [
        "guests=A(20%:idle),v20_load=exact",
        "guests=[],v20_load=thrashing",
    ]
    assert [cell.params["v20_load"] for cell in grid] == ["exact", "thrashing"]
    assert grid.axes["v20_load"] == ("exact", "thrashing")


def test_qos_kwargs_reach_the_cells_that_use_them():
    kwargs = {"high": 0.5}
    grid = SweepGrid({"qos": ["none", "ladder"], "qos_kwargs": [kwargs]})
    assert [cell.config.qos_kwargs for cell in grid] == [{}, kwargs]
    assert [cell.label for cell in grid] == [
        "qos=none,qos_kwargs={}",
        'qos=ladder,qos_kwargs={"high":0.5}',
    ]


def test_derived_seeds_deterministic_and_distinct():
    axes = {"scheduler": ["credit", "pas"], "governor": ["performance", "stable"]}
    first = SweepGrid(axes, base=ScenarioConfig(seed=1), vary_seed=True)
    second = SweepGrid(axes, base=ScenarioConfig(seed=1), vary_seed=True)
    seeds = [cell.seed for cell in first]
    assert seeds == [cell.seed for cell in second]  # expansion is reproducible
    assert len(set(seeds)) == len(seeds)  # every cell gets its own stream
    for cell in first:
        assert cell.config.seed == cell.seed == derive_cell_seed(1, cell.label)


def test_root_seed_changes_derived_seeds():
    axes = {"scheduler": ["credit", "pas"]}
    one = SweepGrid(axes, base=ScenarioConfig(seed=1), vary_seed=True)
    two = SweepGrid(axes, base=ScenarioConfig(seed=2), vary_seed=True)
    assert [c.seed for c in one] != [c.seed for c in two]


def test_vary_seed_off_keeps_base_seed():
    grid = SweepGrid({"scheduler": ["credit", "pas"]}, base=ScenarioConfig(seed=5))
    assert all(cell.config.seed == 5 for cell in grid)


def test_explicit_seed_axis_wins_over_derivation():
    grid = SweepGrid({"seed": [3, 4]}, vary_seed=True)
    assert [cell.config.seed for cell in grid] == [3, 4]


def test_from_variants_preserves_labels_and_configs():
    variants = {
        "paper": ScenarioConfig(scheduler="pas", seed=9),
        "baseline": ScenarioConfig(scheduler="credit", seed=9),
    }
    grid = SweepGrid.from_variants(variants)
    assert [cell.label for cell in grid] == ["paper", "baseline"]
    assert grid.cells[0].config is variants["paper"]
    assert grid.cells[0].seed == 9


def test_cluster_config_grid():
    grid = SweepGrid(
        {"policy": ["spread", "consolidate"], "dvfs": [False, True]},
        base=ClusterScenarioConfig(n_machines=2, n_vms=3, duration=50.0),
    )
    assert len(grid) == 4
    assert grid.cells[-1].config.policy == "consolidate"
    assert grid.cells[-1].config.dvfs is True


def test_spec_is_json_friendly():
    import json

    grid = SweepGrid({"scheduler": ["credit"], "v20_active": [[20.0, 180.0]]})
    spec = grid.spec()
    assert spec["cells"] == 1
    assert json.loads(json.dumps(spec)) == spec


# ----------------------------------------------------------------- replicates


def test_replicates_expand_each_cell_with_derived_seeds():
    grid = SweepGrid(
        {"scheduler": ["credit", "pas"]}, base=ScenarioConfig(seed=1), replicates=3
    )
    assert len(grid) == 6
    assert [cell.params["rep"] for cell in grid] == [0, 1, 2, 0, 1, 2]
    assert grid.cells[0].label == "scheduler=credit,rep=0"
    seeds = [cell.seed for cell in grid]
    assert len(set(seeds)) == len(seeds)  # every replicate its own stream
    assert all(cell.config.seed == cell.seed for cell in grid)
    assert [cell.seed for cell in grid] == [
        derive_cell_seed(1, cell.label) for cell in grid
    ]


def test_replicates_one_is_the_identity():
    axes = {"scheduler": ["credit", "pas"]}
    plain = SweepGrid(axes)
    explicit = SweepGrid(axes, replicates=1)
    assert [c.label for c in plain] == [c.label for c in explicit]
    assert "rep" not in plain.cells[0].params


def test_replicates_on_variants():
    grid = SweepGrid.from_variants(
        {"a": ScenarioConfig(seed=1), "b": ScenarioConfig(seed=1)}, replicates=2
    )
    assert [cell.label for cell in grid] == ["a,rep=0", "a,rep=1", "b,rep=0", "b,rep=1"]
    assert len({cell.seed for cell in grid}) == 4


def test_invalid_replicates_rejected():
    with pytest.raises(ConfigurationError, match="replicates"):
        SweepGrid({"scheduler": ["credit"]}, replicates=0)


def test_explicit_seed_axis_conflicts_with_replicates():
    # Replicates derive their own seeds; a seed axis would be silently
    # overridden and the exported params would lie about what ran.
    with pytest.raises(ConfigurationError, match="seed.*replicates"):
        SweepGrid({"seed": [1, 2]}, replicates=2)


def test_replicated_spec_notes_the_replicates():
    grid = SweepGrid({"scheduler": ["credit"]}, replicates=2)
    assert grid.spec()["replicates"] == 2
    assert "replicates" not in SweepGrid({"scheduler": ["credit"]}).spec()


# ------------------------------------------------------------- nested specs


def test_guest_spec_axis_values_get_compact_labels():
    from repro.experiments import GuestSpec, WorkloadSpec
    from repro.sweep.grid import describe_value

    fleet = (
        GuestSpec(
            name="A",
            credit=20.0,
            workloads=(WorkloadSpec(kind="web", load="exact"),),
        ),
        GuestSpec(name="B", credit=30.0, workloads=(WorkloadSpec(kind="pi", work=5.0),)),
    )
    described = describe_value(fleet)
    assert described == ["A(20%:web:exact)", "B(30%:pi:5s)"]
    grid = SweepGrid({"guests": [fleet]})
    (cell,) = grid.cells
    assert cell.label == "guests=A(20%:web:exact)+B(30%:pi:5s)"
    assert "object at 0x" not in cell.label


def test_guests_axis_accepts_json_dicts():
    grid = SweepGrid(
        {
            "guests": [
                [{"name": "A", "credit": 20, "workloads": [{"kind": "web"}]}],
                [{"name": "A", "credit": 40, "workloads": [{"kind": "web"}]}],
            ]
        }
    )
    from repro.experiments import GuestSpec

    assert len(grid) == 2
    assert all(isinstance(cell.config.guests[0], GuestSpec) for cell in grid)
    assert grid.cells[1].config.guests[0].credit == 40
