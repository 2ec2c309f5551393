"""The claims registry on compressed scales.

The benchmarks run every claim at paper scale; here each one runs on a
compressed scale fast enough for the unit suite: the §5.3 claims and the
ablations on a 4x compressed timeline, Fig. 1 and Eq. 3 on a two-credit
ladder with 5 s of work, Table 2 in its quick mode.  The pinned digests are
each report's ``render()`` before the per-figure runners became registry
entries, so the registry reproduces their bytes exactly.  The remaining
tests pin the interface: override forwarding, report structure and the
runs claims share.
"""

import hashlib

import pytest

from repro import catalog
from repro.errors import ConfigurationError
from repro.experiments import CLAIMS, run_claim, run_claims

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


def test_claims_on_one_config_share_its_run(compressed):
    for first, second in (("fig4", "fig5"), ("fig6", "fig7"), ("fig9", "fig10")):
        assert compressed[first][0]["run"] is compressed[second][0]["run"]
    assert compressed["fig3"][0]["stable"] is compressed["fig4"][0]["run"]


def test_unknown_claim_names_the_choices():
    with pytest.raises(ConfigurationError, match="choose from: fig1, fig2"):
        run_claims(["fig11"])


def test_fig4_report_structure(compressed):
    _, report = compressed["fig4"]
    assert report.experiment == "Figure 4"
    assert len(report.rows) >= 4
    assert report.chart  # the ASCII figure is part of the report
    metrics = [row[0] for row in report.rows]
    assert any("V20" in metric for metric in metrics)


def test_fig9_overrides_forwarded():
    runs, _ = run_claim("fig9", **FAST, seed=9)
    result = runs["run"]
    assert result.config.seed == 9
    assert result.config.duration == 200.0
    assert result.host.scheduler.name == "pas"


def test_fig9_on_other_processor():
    runs, _ = run_claim("fig9", **FAST, processor=catalog.CORE_I7_3770)
    result = runs["run"]
    assert result.host.processor.spec.name == "Intel Core i7-3770"
    # The compensation plateau moves with the frequency table: at the i7's
    # chosen state the cap is credit / (ratio * cf).
    state = result.host.processor.state
    assert result.host.scheduler.cap_of(result.host.domain("V20")) == pytest.approx(
        20.0 / state.capacity_fraction(3400), rel=0.01
    )


def test_compensation_small_ladder(compressed):
    runs, report = compressed["fig1"]
    ladder = [
        round(result.config.guests[0].cap)
        for (_, frequency), result in runs.items()
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

    results, report = compressed["table2"]
    assert {row.platform for row in table2_rows(results)} == {"Hyper-V", "Xen/PAS", "Xen/SEDF"}
    assert report.all_passed


@pytest.mark.parametrize("name", ["energy", "cf", "designs"])
def test_ablation_checks_hold_compressed(compressed, name):
    _, report = compressed[name]
    assert report.all_passed, [str(c) for c in report.failures]


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
