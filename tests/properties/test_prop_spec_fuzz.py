"""Fuzzed spec parsing: every input round-trips or raises ConfigurationError.

Valid ``to_dict`` outputs of the five spec types (single-host and fleet
configs, guests, workloads, machine groups) are mutated — values swapped
for the wrong JSON type, NaN, infinities or negative numbers, keys
dropped or invented, junk nested inside lists and objects — and fed to
``from_dict``.  A spec that parses must survive ``to_dict`` -> ``from_dict``
unchanged; one that does not must fail with :class:`ConfigurationError`,
never a raw ``TypeError``/``ValueError``/``KeyError``/``AttributeError``.

The ``*_kwargs`` fields hold constructor keywords, which are checked when
the host is built: configs with drawn scheduler, governor, manager, QoS
controller and monitor keywords (names, foreign names, values of any JSON
type) must build or fail with :class:`ConfigurationError` there.
"""

import copy
import inspect
import math

import pytest
from hypothesis import given, HealthCheck, settings, strategies as st

from repro.cluster import ClusterScenarioConfig
from repro.cluster.machine import MachineSpec
from repro.errors import ConfigurationError
from repro.experiments import get_preset, GuestSpec, ScenarioConfig, WorkloadSpec
from repro.experiments.scenario import build_scenario


def _seeds() -> dict[type, list[dict]]:
    """Valid spec dictionaries to mutate, per spec type."""
    host_presets = ("paper-5.3", "mixed-guests", "qos-noisy-neighbor", "calib")
    configs = [get_preset(name).config for name in host_presets]
    configs.append(
        ScenarioConfig(
            manager="user-credit",
            cpufreq_min_mhz=1600,
            stop_when_batch_done=True,
            scheduler_kwargs={"quantum": 0.03},
        )
    )
    guests = [guest for config in configs for guest in config.guests]
    guests.append(
        GuestSpec(
            name="G",
            credit=30.0,
            sedf_extra=False,
            weight=2.0,
            cap=40.0,
            sedf_period=0.2,
            workloads=(
                WorkloadSpec(kind="web", rate_rps=5.0, request_cost=0.01, poisson=True),
                WorkloadSpec(kind="constant", demand_percent=20.0, active=((5.0, 50.0),)),
                WorkloadSpec(kind="trace", trace=((0.0, 10.0), (5.0, 30.0)), repeat=True),
            ),
        )
    )
    workloads = [workload for guest in guests for workload in guest.workloads]
    fleets = [get_preset(name).config for name in ("dc-diurnal-small", "dc-hetero")]
    fleets.append(ClusterScenarioConfig(qos="ladder", lc_vms=2, placement="efficiency"))
    machines = [group for fleet in fleets for group in fleet.machines]
    machines.append(MachineSpec(overhead_percent=7.5, count=3))
    return {
        ScenarioConfig: [config.to_dict() for config in configs],
        GuestSpec: [guest.to_dict() for guest in guests],
        WorkloadSpec: [workload.to_dict() for workload in workloads],
        ClusterScenarioConfig: [fleet.to_dict() for fleet in fleets],
        MachineSpec: [group.to_dict() for group in machines],
    }


SEEDS = _seeds()

#: Keys an "add" mutation draws: every field of the five spec types (known
#: to some spec, perhaps not to this one, perhaps out of context) or noise.
_KEYS = st.sampled_from(
    sorted({name for seeds in SEEDS.values() for data in seeds for name in data})
) | st.text(max_size=8)

_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, -1, -1.5, 0, 0.0, 10**12, 10**400])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | _NUMBERS
)
#: Any JSON value, nested up to a few levels.
JUNK = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _containers(value, path=()):
    """Every (path, container) pair of the nested dict/list *value*."""
    if isinstance(value, (dict, list)):
        yield path, value
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _containers(child, (*path, key))


@st.composite
def mutated(draw, spec_type):
    """A seed dictionary of *spec_type* after one to three mutations."""
    data = copy.deepcopy(draw(st.sampled_from(SEEDS[spec_type])))
    for _ in range(draw(st.integers(1, 3))):
        _, target = draw(st.sampled_from(list(_containers(data))))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        operation = draw(st.sampled_from(["replace", "drop", "add"]))
        if operation == "add" or not keys:
            if isinstance(target, dict):
                target[draw(_KEYS)] = draw(JUNK)
            else:
                target.append(draw(JUNK))
        elif operation == "drop":
            del target[draw(st.sampled_from(keys))]
        else:
            target[draw(st.sampled_from(keys))] = draw(JUNK)
    return data


def _parses_or_rejects(spec_type, data) -> None:
    try:
        spec = spec_type.from_dict(data)
    except ConfigurationError:
        return
    dumped = spec.to_dict()
    again = spec_type.from_dict(dumped)
    assert again == spec
    assert again.to_dict() == dumped


_FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("spec_type", list(SEEDS), ids=lambda t: t.__name__)
def test_seed_specs_round_trip(spec_type):
    for data in SEEDS[spec_type]:
        _parses_or_rejects(spec_type, copy.deepcopy(data))
        assert spec_type.from_dict(data).to_dict() == data


@_FUZZ
@given(data=mutated(ScenarioConfig))
def test_fuzzed_scenario_config(data):
    _parses_or_rejects(ScenarioConfig, data)


@_FUZZ
@given(data=mutated(ClusterScenarioConfig))
def test_fuzzed_cluster_scenario_config(data):
    _parses_or_rejects(ClusterScenarioConfig, data)


@_FUZZ
@given(data=mutated(MachineSpec))
def test_fuzzed_machine_spec(data):
    _parses_or_rejects(MachineSpec, data)


@_FUZZ
@given(data=mutated(GuestSpec))
def test_fuzzed_guest_spec(data):
    _parses_or_rejects(GuestSpec, data)


@_FUZZ
@given(data=mutated(WorkloadSpec))
def test_fuzzed_workload_spec(data):
    _parses_or_rejects(WorkloadSpec, data)


@pytest.mark.parametrize(
    "spec_type, data",
    [
        (ScenarioConfig, {"guests": [{"name": "A", "credit": 20.0, "workloads": [1]}]}),
        (ScenarioConfig, {"v20_active": [math.nan, 10.0]}),
        (GuestSpec, {"name": "A"}),
        (WorkloadSpec, {"kind": "trace", "trace": [[0.0, "x"]]}),
        (WorkloadSpec, {"kind": "trace", "trace": [[0.0]]}),
        (WorkloadSpec, {"kind": "trace", "diurnal": [1, 2]}),
        (WorkloadSpec, {"kind": "trace", "diurnal": {"bogus": 1}}),
        (WorkloadSpec, {"kind": "trace", "diurnal": {"bursts": 2.5}}),
        (WorkloadSpec, {"kind": "trace", "diurnal": {"base_percent": None}}),
        (WorkloadSpec, {"kind": "pi", "rate_rps": 5.0}),
        (WorkloadSpec, {"kind": "web", "active": [[None, 5.0]]}),
        (ClusterScenarioConfig, {"dayshapes": [["weekend"]]}),
        (ClusterScenarioConfig, {"migration": {"downtime_s": "1"}}),
        (MachineSpec, {"memory_mb": "16384"}),
        (MachineSpec, {"processor": 7}),
        (MachineSpec, {"count": [2]}),
        (MachineSpec, {"memory_mb": 10**400}),
        (ScenarioConfig, {"duration": 10**400}),
    ],
)
def test_malformed_values_raise_configuration_error(spec_type, data):
    with pytest.raises(ConfigurationError):
        spec_type.from_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"guests": [{"name": "A", "credit": 20.0}], "v20_load": "idle"},
        {"manager_kwargs": {"period": 1.0}},
        {"qos_kwargs": {"period": 1.0}},
    ],
)
def test_fields_a_config_ignores_keep_their_defaults(data):
    # guests override the two-guest profile; kwargs without their manager or
    # controller configure nothing.  Neither survives to_dict, so neither
    # may make two configs that run alike compare unequal.
    spec = ScenarioConfig.from_dict(data)
    assert spec == ScenarioConfig.from_dict(spec.to_dict())


# ------------------------------------------------------------ *_kwargs values


def _keywords(cls) -> list[str]:
    """The keywords constructing *cls* takes, up its ``**kwargs`` chain."""
    names = []
    for klass in cls.__mro__[:-1]:
        init = vars(klass).get("__init__")
        if init is None:
            continue
        parameters = list(inspect.signature(init).parameters.values())[1:]
        names += [
            p.name for p in parameters if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        if not any(p.kind is p.VAR_KEYWORD for p in parameters):
            break
    return names


def _constructors() -> dict[str, dict[str, type]]:
    """``*_kwargs`` field -> {name chosen in the config: class it builds}."""
    from repro.core.pas import PasScheduler
    from repro.core.user_credit_manager import UserCreditManager
    from repro.core.user_full_manager import UserFullManager
    from repro.governors.registry import _FACTORIES
    from repro.qos.controllers import CONTROLLER_REGISTRY
    from repro.schedulers import Credit2Scheduler, CreditScheduler, SedfScheduler

    return {
        "scheduler_kwargs": {
            "credit": CreditScheduler,
            "credit2": Credit2Scheduler,
            "pas": PasScheduler,
            "sedf": SedfScheduler,
        },
        "governor_kwargs": dict(_FACTORIES),
        "manager_kwargs": {"user-credit": UserCreditManager, "user-full": UserFullManager},
        "qos_kwargs": dict(CONTROLLER_REGISTRY),
    }


CONSTRUCTORS = _constructors()
#: Every keyword any of them takes (``host`` included: a name the caller
#: supplies itself, so never a valid keyword).
_ANY_NAME = st.sampled_from(
    sorted(
        {name for built in CONSTRUCTORS.values() for cls in built.values() for name in _keywords(cls)}
    )
)
#: Mostly plausible numbers, sometimes any JSON value at all.
_KWARG_VALUES = (
    st.floats(min_value=0.0, max_value=200.0)
    | st.integers(min_value=-2, max_value=10)
    | st.booleans()
    | JUNK
)


def _kwargs(cls):
    """Keyword dicts for *cls*: its own names, now and then a foreign one."""
    own = _keywords(cls)
    names = st.sampled_from(own) | _ANY_NAME if own else _ANY_NAME
    return st.dictionaries(names, _KWARG_VALUES, max_size=3)


@st.composite
def kwargs_configs(draw):
    """A host config whose ``*_kwargs`` hold drawn names and values."""
    from repro.qos import ContentionMonitor

    data = {"duration": 1.0}
    for field, built in CONSTRUCTORS.items():
        choice = draw(st.sampled_from(sorted(built)))
        data[field.removesuffix("_kwargs")] = choice
        data[field] = draw(_kwargs(built[choice]))
    if draw(st.booleans()):
        data["manager"] = None  # manager_kwargs then configure nothing
    if data["qos"] != "none" and draw(st.booleans()):
        data["qos_kwargs"]["monitor"] = draw(_kwargs(ContentionMonitor) | JUNK)
    return data


@_FUZZ
@given(data=kwargs_configs())
def test_fuzzed_constructor_kwargs_build_or_reject(data):
    # Constructor keywords are checked at build, not at parse: a config
    # either builds its host or fails with ConfigurationError there.
    try:
        config = ScenarioConfig.from_dict(data)
        build_scenario(config)
    except ConfigurationError:
        return
