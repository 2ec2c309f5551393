"""The claims registry on compressed scales.

The benchmarks run every claim at paper scale; here each one runs on a
compressed scale fast enough for the unit suite: the §5.3 claims and the
ablations on a 4x compressed timeline, Fig. 1 and Eq. 3 on a two-credit
ladder with 5 s of work, Table 2 in its quick mode.  The orchestration
and placement claims run their fleet days at paper scale: each takes well
under a second.  The pinned digests are each report's ``render()`` before the
per-figure runners became registry entries, so the registry reproduces
their bytes exactly.  The remaining tests pin the interface: override
forwarding, override errors, report structure and the runs claims share.
"""

import dataclasses
import hashlib

import pytest

from repro import catalog
from repro.errors import ConfigurationError, TelemetryError
from repro.experiments.claims import ClaimCell, CLAIMS, run_claim, run_claims
from repro.sweep.runner import execute_config

FAST = dict(
    v20_active=(20.0, 180.0),
    v70_active=(60.0, 140.0),
    duration=200.0,
)

COMPRESSED = {
    "fig1": dict(credits=(20.0, 40.0), work=5.0),
    **{f"fig{number}": FAST for number in range(2, 11)},
    "table2": dict(quick=True),
    "eq1": dict(demands=(5.0, 15.0), window=10.0),
    "eq2": dict(work=5.0),
    "eq3": dict(credits=(20.0, 40.0), work=5.0),
    "energy": FAST,
    "designs": FAST,
    "cf": FAST,
    "qos": FAST,
    "consolidation": dict(duration=200.0),
    "sensitivity": FAST,
    "orchestration": {},
    "placement": {},
}

#: sha256 of each claim's compressed-scale ``render()``.
RENDER_SHA256 = {
    "fig1": "ff4f20f96ea9e756f64be109fff8d1255bb36494c943bc0df1c228cb961ebcb6",
    "fig2": "8fed748095811fd033b0402391484e00f486c141f23d45ad4a324e5fbe809103",
    "fig3": "def4b767b1c480da7ddf289809bb8493ad34fd1bdec6680401826a54e78168cc",
    "fig4": "c1b0e32f8c8274858d08144ac74b208e224e944ecff970bc650c0d20adb8fe2f",
    "fig5": "e9b5165b7effbac78c37e8aa7c896162464ba5aa59733bf4c9518e83f9873b9e",
    "fig6": "ca72d575be95843701a40f6cda74320900603c67bf3911e14a03ef4a2ae66dbd",
    "fig7": "cde8400538c0f4d7dd5a184258a08cb64f73d9d9a03af6efaf1f656e4d059fa9",
    "fig8": "81c2e917c618df9a637d9f6c9be0f1ce1a4a98fa1e804a0accbb598fb4ba0689",
    "fig9": "04f80ce297e33df1a715d0ddc1daabfe89658785beb567bd9971aab24aca0d47",
    "fig10": "2b906cb6e8a00385ca5dbcf5364b226faabde67e056ca4abc79c9162d2b7be31",
    "table1": "b36b1368890045232474440fa8c209c9fa791adf718bf3993db5544dd3a40c7d",
    "table2": "6cb9a8b92e3705f887b396626218dabc86fa403f58143e2a709669def571bda3",
    "eq1": "f9119607dc87b974e3b74b235a105ee23cdbe3dda44ed1cdfba59dfa1d1d803c",
    "eq2": "44d4b437a71c07f3b5013d3dd8bd9d387a097eed5b5f8ad06f433f8df3fabfde",
    "eq3": "96bf3785a2ad47695bcf52c3006f1603988b50ff11c224b6adf7d7153e493cd4",
    "energy": "2667f2266c3b074fa8755e83c25e15ffc5acbcb08ad0a620516efa382c1b2005",
    "designs": "6d49e70408318127ddb0b49acb7f216c52c12f52c81132deddf3335cac617dfe",
    "cf": "98da4797e1f73947d169257f09237a637eb64a3d0ff85585c5eb5df86c3a8c40",
    "qos": "d592ffb4e455f1a1c1ca3a4657da2c0d27d40db6abdf76b41ead918580d800b6",
    "consolidation": "5f58aad4dda4dee1f78e20027ccfbd631ce8d39614d56cb9a269f5191f8a68dd",
    "sensitivity": "721291f8e2709ba8bfc53f0c11efebbc79584fccab8890d87a6095d0858a4f96",
    "orchestration": "2b3f4f0c017b9bf77c56e462d9575e73f1383adb94a77e8573ba1885bdf625b5",
    "placement": "72cb5af5ff83fcdf433faf6f93c8c9c1d64c806c5835e4ace97250c979406063",
}


@pytest.fixture(scope="module")
def compressed():
    return run_claims(params=COMPRESSED)


def test_registry_names_every_result_in_order():
    assert list(CLAIMS) == list(RENDER_SHA256)
    assert all(claim.about for claim in CLAIMS.values())


@pytest.mark.parametrize("name", list(RENDER_SHA256))
def test_compressed_render_is_byte_identical(compressed, name):
    _, report = compressed[name]
    assert hashlib.sha256(report.render().encode()).hexdigest() == RENDER_SHA256[name]


def test_claims_on_one_config_share_its_run():
    # Fig. 3's stable cell is Fig. 4's run, which is Fig. 5's: three claims,
    # four cells, two distinct configs.
    computed = []
    params = {name: FAST for name in ("fig3", "fig4", "fig5")}
    out = run_claims(
        ["fig3", "fig4", "fig5"],
        params=params,
        progress=lambda result, from_cache: computed.append(result.label),
    )
    assert computed == ["fig3/run", "fig3/stable"]
    assert out["fig4"][0]["run"].metrics is out["fig3"][0]["stable"].metrics
    assert out["fig5"][0]["run"].metrics is out["fig4"][0]["run"].metrics


@pytest.mark.parametrize(
    "name, overrides, error",
    [
        ("eq1", dict(bogus=1), "rejects .*accepts: processor, demands, window$"),
        ("table2", dict(quick=True, x=1), "rejects .*accepts: quick$"),
        ("table1", dict(demand=15.0), "rejects .*accepts: none$"),
        ("fig1", dict(credits="abc"), "rejects .*accepts: processor, reduced_freq_mhz, credits"),
        ("fig2", dict(bogus=1), "rejects .*accepts: any field of its base config$"),
        ("eq3", dict(credits=()), "has no cells"),
        ("fig1", dict(credits=()), "has no cells"),
    ],
)
def test_malformed_overrides_name_the_claim(name, overrides, error):
    with pytest.raises(ConfigurationError, match=f"^claim '{name}' {error}"):
        run_claim(name, **overrides)


def test_unknown_claim_names_the_choices():
    with pytest.raises(ConfigurationError, match="choose from: fig1, fig2"):
        run_claims(["fig11"])


def test_a_builder_fault_without_overrides_is_not_the_callers(monkeypatch):
    def broken():
        raise TypeError("builder bug")

    monkeypatch.setitem(CLAIMS, "eq2", dataclasses.replace(CLAIMS["eq2"], cells=broken))
    with pytest.raises(TypeError, match="^builder bug$"):
        run_claim("eq2")


def test_a_value_missing_names_its_cell():
    configs = CLAIMS["eq2"].cells(work=5.0)
    cells = {
        mhz: ClaimCell(f"eq2/{mhz}", config, {"pi_batch_time_s": None})
        for mhz, config in configs.items()
    }
    with pytest.raises(TelemetryError, match="^cell 'eq2/2667': metric 'pi_batch_time_s'"):
        CLAIMS["eq2"].reduce(cells)


def test_fig4_report_structure(compressed):
    _, report = compressed["fig4"]
    assert report.experiment == "Figure 4"
    assert len(report.rows) >= 4
    assert report.chart  # the ASCII figure is part of the report
    metrics = [row[0] for row in report.rows]
    assert any("V20" in metric for metric in metrics)


def test_fig9_overrides_forwarded():
    cells, _ = run_claim("fig9", **FAST, seed=9)
    config = cells["run"].config
    assert config.seed == 9
    assert config.duration == 200.0
    assert execute_config(config).host.scheduler.name == "pas"


def test_fig9_on_other_processor():
    result = execute_config(CLAIMS["fig9"].cells(**FAST, processor=catalog.CORE_I7_3770)["run"])
    assert result.host.processor.spec.name == "Intel Core i7-3770"
    # The compensation plateau moves with the frequency table: at the i7's
    # chosen state the cap is credit / (ratio * cf).
    state = result.host.processor.state
    assert result.host.scheduler.cap_of(result.host.domain("V20")) == pytest.approx(
        20.0 / state.capacity_fraction(3400), rel=0.01
    )


def test_compensation_small_ladder(compressed):
    cells, report = compressed["fig1"]
    ladder = [
        round(cell.config.guests[0].cap)
        for (_, frequency), cell in cells.items()
        if frequency == "reduced"
    ]
    assert ladder == [25, 50]
    assert report.all_passed


def test_credit_time_custom_credits(compressed):
    _, report = compressed["eq3"]
    assert report.all_passed
    assert len(report.rows) == 2


def test_table2_quick_mode(compressed):
    from repro.experiments.claims import table2_rows

    cells, report = compressed["table2"]
    assert {row.platform for row in table2_rows(cells)} == {"Hyper-V", "Xen/PAS", "Xen/SEDF"}
    assert report.all_passed


@pytest.mark.parametrize("name", ["energy", "cf", "designs", "orchestration", "placement"])
def test_ablation_checks_hold_compressed(compressed, name):
    _, report = compressed[name]
    assert report.all_passed, [str(c) for c in report.failures]


#: Per-policy fleet metrics on which every orchestration check passes.
_FLEET = {
    "static": dict(energy_kwh=0.024, hosts_on_mean=8.0, migrations=0, power_peak_w=247.7),
    "consolidate": dict(energy_kwh=0.020, hosts_on_mean=3.8, migrations=8, power_peak_w=230.4),
    "load-balance": dict(energy_kwh=0.029, hosts_on_mean=10.0, migrations=43, power_peak_w=291.1),
    "power-budget": dict(energy_kwh=0.019, hosts_on_mean=3.8, migrations=8, power_peak_w=199.8),
}


@pytest.mark.parametrize(
    "policy, metric, value, failure",
    [
        (None, None, None, None),
        ("static", "migrations", 1, "static never migrates"),
        ("power-budget", "power_peak_w", 200.5, "power-budget holds the 200 W fleet cap"),
        ("consolidate", "energy_kwh", 0.024, "consolidate uses less energy than static"),
        ("power-budget", "energy_kwh", 0.024, "power-budget uses less energy than static"),
        ("load-balance", "migrations", 0, "consolidate and load-balance both migrate"),
        ("consolidate", "migrations", 0, "consolidate and load-balance both migrate"),
        ("load-balance", "sla_mean", 0.97, "every policy keeps the SLA above 97%"),
    ],
)
def test_orchestration_reducer_fails_the_broken_shape(policy, metric, value, failure):
    fleet = {name: {**metrics, "sla_mean": 1.0} for name, metrics in _FLEET.items()}
    if policy is not None:
        fleet[policy][metric] = value
    configs = CLAIMS["orchestration"].cells()
    cells = {
        name: ClaimCell(f"orchestration/{name}", configs[name], metrics)
        for name, metrics in fleet.items()
    }
    report = CLAIMS["orchestration"].reduce(cells)
    failures = [check.description for check in report.failures]
    if failure is None:
        assert report.all_passed
    else:
        assert len(failures) == 1 and failures[0].startswith(failure)


#: Per-variant fleet outcomes on which every placement check passes.
_MIXED = {
    "static": dict(energy_kwh=0.00336, hosts_on_mean=3.0, sla_mean=1.0, power_peak_w=67.4),
    "efficiency": dict(energy_kwh=0.00154, hosts_on_mean=1.55, sla_mean=0.9988, power_peak_w=45.3),
    "performance": dict(energy_kwh=0.00319, hosts_on_mean=1.0, sla_mean=1.0, power_peak_w=78.0),
    "power-budget": dict(
        energy_kwh=0.00149, hosts_on_mean=1.55, sla_mean=0.9809, power_peak_w=39.4
    ),
}


@pytest.mark.parametrize(
    "variant, metric, value, failure",
    [
        (None, None, None, None),
        ("static", "energy_kwh", 0.0015, "efficiency-packing uses less energy than static"),
        ("performance", "energy_kwh", 0.0015, "efficiency-packing uses less energy than perf"),
        ("efficiency", "sla_mean", 0.98, "packing the efficient blades costs under 1%"),
        ("power-budget", "power_peak_w", 120.5, "power-budget holds the 120 W cap"),
        ("efficiency", "cstate_residency_s", 0.0, "the big.LITTLE blades report C-state residency"),
    ],
)
def test_placement_reducer_fails_the_broken_shape(variant, metric, value, failure):
    configs = CLAIMS["placement"].cells()
    cells = {}
    for name, metrics in _MIXED.items():
        metrics = dict(metrics, migrations=0, sla_violations=0, cstate_residency_s=50.0)
        if name == variant:
            metrics[metric] = value
        cells[name] = ClaimCell(f"placement/{name}", configs[name], metrics)
    report = CLAIMS["placement"].reduce(cells)
    failures = [check.description for check in report.failures]
    if failure is None:
        assert report.all_passed
    else:
        assert len(failures) == 1 and failures[0].startswith(failure)


def test_design_comparison_accepts_load_override():
    # Callers may override the default thrashing intensity (regression:
    # the override used to collide with the hard-coded v20_load change).
    _, report = run_claim("designs", v20_load="exact", **FAST)
    assert len(report.rows) == 3


def test_qos_ablation_compressed(compressed):
    _, report = compressed["qos"]
    # Compressed phases shrink the starved window, so only structural
    # expectations are asserted here; the full-timeline criteria run in
    # benchmarks/bench_claims.py.
    assert len(report.rows) == 4
    labels = [row[0] for row in report.rows]
    assert "pas" in labels
