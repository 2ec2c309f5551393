"""Per-rule fixture cases: positive, negative, suppressed, unused-suppression.

Every rule family must *fire* on a minimal violating snippet (positive),
stay quiet on the idiomatic equivalent (negative), honour a line
suppression, and — since suppressions are audited — flag a suppression
that silences nothing.  Sources are mounted at virtual repo paths; see
``conftest.py``.
"""

LIB = "src/repro/sim/fake.py"  # library + order-sensitive scope
ACCT = "src/repro/cpu/fake.py"  # library + accounting scope
HOT = "src/repro/sim/events.py"  # hot-path scope (virtual twin)


# ------------------------------------------------------- RPL101 wall clock


def test_wall_clock_fires(codes_of):
    assert codes_of({LIB: """
        import time
        def stamp():
            return time.time()
        """}) == ["RPL101"]


def test_wall_clock_variants_fire(codes_of):
    codes = codes_of({LIB: """
        import datetime, time
        def stamps():
            return time.perf_counter(), datetime.datetime.now()
        """})
    assert codes == ["RPL101", "RPL101"]


def test_wall_clock_aliased_import_still_fires(codes_of):
    # Aliasing the import is not an evasion: names are canonicalised.
    codes = codes_of({LIB: """
        import time as _wall
        from datetime import datetime as dt
        def stamps():
            return _wall.time(), dt.now()
        """})
    assert codes == ["RPL101", "RPL101"]


def test_from_import_entropy_still_fires(codes_of):
    assert codes_of({LIB: """
        from os import urandom
        def token():
            return urandom(8)
        """}) == ["RPL102"]


def test_wall_clock_quiet_on_simulated_time(codes_of):
    assert codes_of({LIB: """
        def stamp(engine):
            return engine.now
        """}) == []


def test_wall_clock_out_of_scope_in_tests(codes_of):
    assert codes_of({"tests/fake_test.py": """
        import time
        def wall():
            return time.time()
        """}) == []


def test_wall_clock_suppressed(codes_of):
    assert codes_of({LIB: """
        import time
        def stamp():
            return time.time()  # repro-lint: disable=RPL101
        """}) == []


def test_unused_suppression_is_flagged(codes_of):
    assert codes_of({LIB: """
        def stamp(engine):
            return engine.now  # repro-lint: disable=RPL101
        """}) == ["RPL001"]


# --------------------------------------------------------- RPL102 entropy


def test_entropy_fires(codes_of):
    assert codes_of({LIB: """
        import os
        def token():
            return os.urandom(8)
        """}) == ["RPL102"]


def test_entropy_quiet_on_hashlib(codes_of):
    assert codes_of({LIB: """
        import hashlib
        def key(blob):
            return hashlib.sha256(blob).hexdigest()
        """}) == []


# --------------------------------------------------- RPL103 global random


def test_global_random_fires(codes_of):
    assert codes_of({LIB: """
        import random
        def draw():
            return random.random()
        """}) == ["RPL103"]


def test_unseeded_random_constructor_fires(codes_of):
    assert codes_of({LIB: """
        import random
        def rng():
            return random.Random()
        """}) == ["RPL103"]


def test_seeded_random_is_fine(codes_of):
    assert codes_of({LIB: """
        import random
        def rng(seed):
            return random.Random(seed)
        """}) == []


# ------------------------------------------------ RPL104 set iteration


def test_set_iteration_fires_in_order_sensitive_module(codes_of):
    assert codes_of({LIB: """
        def emit(names, out):
            for name in set(names):
                out.append(name)
        """}) == ["RPL104"]


def test_set_comprehension_iteration_fires(codes_of):
    assert codes_of({LIB: """
        def emit(pairs):
            return [name for name in {a for a, _ in pairs}]
        """}) == ["RPL104"]


def test_sorted_set_iteration_is_fine(codes_of):
    assert codes_of({LIB: """
        def emit(names, out):
            for name in sorted(set(names)):
                out.append(name)
        """}) == []


def test_set_iteration_out_of_scope_elsewhere(codes_of):
    assert codes_of({"src/repro/workloads/fake.py": """
        def emit(names, out):
            for name in set(names):
                out.append(name)
        """}) == []


# ------------------------------------------------- RPL201/202 round-trip


_SPEC_MISSING_TO_DICT = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class FakeSpec:
        alpha: float
        beta: float

        def to_dict(self):
            return {"alpha": self.alpha}

        @classmethod
        def from_dict(cls, data):
            return cls(alpha=data["alpha"], beta=data["beta"])
    """


def test_to_dict_field_drop_fires(codes_of):
    codes = codes_of({"src/repro/experiments/fake.py": _SPEC_MISSING_TO_DICT})
    assert codes == ["RPL201"]


def test_from_dict_field_drop_fires(codes_of):
    codes = codes_of({"src/repro/experiments/fake.py": """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FakeSpec:
            alpha: float
            beta: float

            def to_dict(self):
                return {"alpha": self.alpha, "beta": self.beta}

            @classmethod
            def from_dict(cls, data):
                return cls(alpha=data["alpha"])
        """})
    assert codes == ["RPL202"]


def test_dataclasses_fields_loop_counts_as_full_coverage(codes_of):
    assert codes_of({"src/repro/experiments/fake.py": """
        import dataclasses
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FakeSpec:
            alpha: float
            beta: float

            def to_dict(self):
                return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
        """}) == []


def test_round_trip_suppressed_on_anchor_line(codes_of):
    # The finding anchors on the ``def to_dict`` line; a suppression there
    # silences it, one on any other line does not.
    source = _SPEC_MISSING_TO_DICT.replace(
        "def to_dict(self):",
        "def to_dict(self):  # repro-lint: disable=RPL201",
    )
    assert codes_of({"src/repro/experiments/fake.py": source}) == []


def test_round_trip_suppression_on_wrong_line_is_unused(codes_of):
    source = _SPEC_MISSING_TO_DICT.replace(
        'return {"alpha": self.alpha}',
        'return {"alpha": self.alpha}  # repro-lint: disable=RPL201',
    )
    codes = codes_of({"src/repro/experiments/fake.py": source})
    assert sorted(codes) == ["RPL001", "RPL201"]


# ----------------------------------------------- RPL301/302 registries


_REGISTRY_SOURCES = {
    "src/repro/schedulers/base.py": """
        import abc

        class Scheduler(abc.ABC):
            @abc.abstractmethod
            def pick_next(self, now):
                ...

            @abc.abstractmethod
            def charge(self, vcpu, elapsed, now):
                ...
        """,
    "src/repro/schedulers/registry.py": """
        from .base import Scheduler
        from .fake import FakeScheduler

        SCHEDULER_NAMES = ("fake",)

        def make_scheduler(name, **kwargs):
            if name == "fake":
                return FakeScheduler(**kwargs)
            raise ConfigurationError(name)
        """,
}


def test_registry_missing_hook_fires(codes_of):
    sources = dict(_REGISTRY_SOURCES)
    sources["src/repro/schedulers/fake.py"] = """
        from .base import Scheduler

        class FakeScheduler(Scheduler):
            def pick_next(self, now):
                return None
        """
    sources["tests/fake_test.py"] = 'NAME = "fake"\n'
    assert codes_of(sources) == ["RPL301"]


def test_registry_missing_hook_fires_with_annotated_names(lint_sources):
    # The real registry annotates SCHEDULER_NAMES (an ast.AnnAssign).
    sources = dict(_REGISTRY_SOURCES)
    sources["src/repro/schedulers/registry.py"] = sources[
        "src/repro/schedulers/registry.py"
    ].replace("SCHEDULER_NAMES = ", "SCHEDULER_NAMES: tuple[str, ...] = ")
    sources["src/repro/schedulers/fake.py"] = """
        from .base import Scheduler

        class FakeScheduler(Scheduler):
            def pick_next(self, now):
                return None
        """
    sources["tests/fake_test.py"] = 'NAME = "fake"\n'
    findings = lint_sources(sources)
    assert [finding.code for finding in findings] == ["RPL301"]
    assert "scheduler `fake` (FakeScheduler)" in findings[0].message
    assert "charge" in findings[0].message


def test_registry_complete_hooks_quiet(codes_of):
    sources = dict(_REGISTRY_SOURCES)
    sources["src/repro/schedulers/fake.py"] = """
        from .base import Scheduler

        class FakeScheduler(Scheduler):
            def pick_next(self, now):
                return None

            def charge(self, vcpu, elapsed, now):
                return 0.0
        """
    sources["tests/fake_test.py"] = 'NAME = "fake"\n'
    assert codes_of(sources) == []


def test_registry_untested_name_fires(codes_of):
    sources = dict(_REGISTRY_SOURCES)
    sources["src/repro/schedulers/fake.py"] = """
        from .base import Scheduler

        class FakeScheduler(Scheduler):
            def pick_next(self, now):
                return None

            def charge(self, vcpu, elapsed, now):
                return 0.0
        """
    sources["tests/fake_test.py"] = 'NAME = "some-other-scheduler"\n'
    assert codes_of(sources) == ["RPL302"]


def test_registry_untested_skipped_without_test_modules(codes_of):
    sources = dict(_REGISTRY_SOURCES)
    sources["src/repro/schedulers/fake.py"] = """
        from .base import Scheduler

        class FakeScheduler(Scheduler):
            def pick_next(self, now):
                return None

            def charge(self, vcpu, elapsed, now):
                return 0.0
        """
    # No tests/ module in the lint set: RPL302 must not fabricate findings.
    assert codes_of(sources) == []


# --------------------------------------------------- RPL401/402 slots


def test_missing_slots_fires_on_hot_path(codes_of):
    assert codes_of({HOT: """
        class EventHandle:
            def __init__(self, time):
                self.time = time
        """}) == ["RPL402"]


def test_assignment_outside_slots_fires(codes_of):
    assert codes_of({HOT: """
        class EventHandle:
            __slots__ = ("time",)

            def __init__(self, time):
                self.time = time

            def tag(self, note):
                self.note = note
        """}) == ["RPL401"]


def test_slotted_assignments_quiet(codes_of):
    assert codes_of({HOT: """
        class EventHandle:
            __slots__ = ("time", "note")

            def __init__(self, time):
                self.time = time
                self.note = None
        """}) == []


def test_enum_exempt_from_slots(codes_of):
    assert codes_of({HOT: """
        import enum

        class VCpuState(enum.Enum):
            RUNNING = "running"
        """}) == []


LATENCY = "src/repro/workloads/latency.py"  # hot-path scope (virtual twin)


def test_slotted_dataclass_counts_as_slotted(codes_of):
    assert codes_of({LATENCY: """
        from dataclasses import dataclass

        @dataclass(slots=True)
        class _Chunk:
            arrival: float
            remaining_work: float

            def drain(self, work):
                self.remaining_work -= work
        """}) == []


def test_slotted_dataclass_assignment_outside_fields_fires(codes_of):
    # The fields are the slots; ClassVar and InitVar names are not.
    assert codes_of({LATENCY: """
        import dataclasses
        from dataclasses import InitVar
        from typing import ClassVar

        @dataclasses.dataclass(frozen=False, slots=True)
        class _Chunk:
            LIMIT: ClassVar[int] = 3
            seed: InitVar[float]
            arrival: float = 0.0

            def __post_init__(self, seed):
                self.arrival = seed
                self.seed = seed

            def tag(self, note):
                self.note = note
        """}) == ["RPL401", "RPL401"]


def test_plain_dataclass_on_hot_path_fires(codes_of):
    # Without slots=True a dataclass instance still carries a dict.
    assert codes_of({LATENCY: """
        from dataclasses import dataclass

        @dataclass
        class _Chunk:
            arrival: float
        """}) == ["RPL402"]


def test_latency_tracker_without_slots_fires(codes_of):
    assert codes_of({LATENCY: """
        class LatencyTracker:
            def __init__(self):
                self._samples = []
        """}) == ["RPL402"]


def test_slots_rule_out_of_scope_elsewhere(codes_of):
    assert codes_of({LIB: """
        class Sampler:
            def __init__(self):
                self.values = []
        """}) == []


# ----------------------------------------------- RPL501/502 hygiene


def test_builtin_raise_fires(codes_of):
    assert codes_of({LIB: """
        def check(value):
            if value < 0:
                raise ValueError(f"bad {value}")
        """}) == ["RPL501"]


def test_repro_error_raise_quiet(codes_of):
    assert codes_of({LIB: """
        from ..errors import ConfigurationError

        def check(value):
            if value < 0:
                raise ConfigurationError(f"bad {value}")
        """}) == []


def test_raise_in_cli_exempt(codes_of):
    assert codes_of({"src/repro/cli.py": """
        def parse(value):
            raise ValueError(value)
        """}) == []


def test_print_fires(codes_of):
    assert codes_of({LIB: """
        def debug(x):
            print(x)
        """}) == ["RPL502"]


def test_print_in_cli_exempt(codes_of):
    assert codes_of({"src/repro/cli.py": """
        def show(x):
            print(x)
        """}) == []


# -------------------------------------------- RPL601/602 float purity


def test_sum_over_set_fires_in_accounting(codes_of):
    assert codes_of({ACCT: """
        def total(values):
            return sum({v for v in values})
        """}) == ["RPL601"]


def test_sum_over_set_generator_fires(codes_of):
    assert codes_of({ACCT: """
        def total(pairs):
            return sum(v * 2 for v in set(pairs))
        """}) == ["RPL601"]


def test_sum_over_list_quiet(codes_of):
    assert codes_of({ACCT: """
        def total(values):
            return sum(values)
        """}) == []


def test_augmented_accumulation_over_set_fires(codes_of):
    assert codes_of({ACCT: """
        def total(values):
            acc = 0.0
            for v in set(values):
                acc += v
            return acc
        """}) == ["RPL602"]


def test_augmented_accumulation_over_sorted_set_quiet(codes_of):
    assert codes_of({ACCT: """
        def total(values):
            acc = 0.0
            for v in sorted(set(values)):
                acc += v
            return acc
        """}) == []


def test_float_purity_out_of_scope_elsewhere(codes_of):
    assert codes_of({"src/repro/experiments/fake.py": """
        def total(values):
            return sum(set(values))
        """}) == []


# ------------------------------------------------ RPL7xx unit purity


def test_dimension_mixing_addition_fires(codes_of):
    assert codes_of({LIB: """
        def total(power_w, energy_kwh):
            return power_w + energy_kwh
        """}) == ["RPL701"]


def test_same_dimension_addition_quiet(codes_of):
    assert codes_of({LIB: """
        def total(idle_w, busy_w):
            return idle_w + busy_w
        """}) == []


def test_dimension_mixing_product_is_a_conversion(codes_of):
    # Multiplying is how units legitimately change; only +/- mix.
    assert codes_of({LIB: """
        def energy(power_w, dt):
            return power_w * dt
        """}) == []


def test_dimension_mixing_comparison_fires(codes_of):
    assert codes_of({LIB: """
        def check(busy_s, load_percent):
            return busy_s > load_percent
        """}) == ["RPL701"]


def test_dimension_mixing_augassign_fires(codes_of):
    assert codes_of({LIB: """
        def accumulate(total_s, load_percent):
            total_s += load_percent
            return total_s
        """}) == ["RPL701"]


def test_dimension_mixing_suppressed(codes_of):
    assert codes_of({LIB: """
        def total(power_w, energy_kwh):
            return power_w + energy_kwh  # repro-lint: disable=RPL701
        """}) == []


def test_cross_dimension_assignment_fires(codes_of):
    assert codes_of({LIB: """
        def convert(load_percent):
            duration_s = load_percent
            return duration_s
        """}) == ["RPL702"]


def test_cross_dimension_assignment_with_conversion_quiet(codes_of):
    assert codes_of({LIB: """
        def convert(load_percent):
            load_fraction = load_percent / 100.0
            return load_fraction
        """}) == []


def test_same_dimension_assignment_quiet(codes_of):
    assert codes_of({LIB: """
        def alias(busy_s):
            duration_s = busy_s
            return duration_s
        """}) == []


def test_cross_dimension_assignment_suppressed(codes_of):
    assert codes_of({LIB: """
        def convert(load_percent):
            duration_s = load_percent  # repro-lint: disable=RPL702
            return duration_s
        """}) == []


def test_time_subscript_holds_seconds(codes_of):
    # The paper's T_j (Eq. 3's time at credit j) is a time, not joules.
    assert codes_of({LIB: """
        def eq3(busy_s, delay_s):
            time_j = busy_s
            t_i = delay_s
            return time_j + t_i
        """}) == []


def test_energy_subscript_stays_joules(codes_of):
    assert codes_of({LIB: """
        def convert(busy_s):
            energy_j = busy_s
            return energy_j
        """}) == ["RPL702"]


def test_qualified_name_takes_its_head_dimension(codes_of):
    assert codes_of({LIB: """
        def times(busy_s):
            time_at_credit = busy_s
            time_at_level = busy_s
            share_of_load = busy_s  # the head has no dimension; the tail's stem is not the name's
            return time_at_credit, time_at_level, share_of_load
        """}) == []


def test_qualified_name_mismatch_with_its_head_fires(codes_of):
    assert codes_of({LIB: """
        def times(load_percent, busy_s):
            time_at_credit = load_percent
            load_at_max = busy_s
            return time_at_credit, load_at_max
        """}) == ["RPL702", "RPL702"]


def test_explicit_suffix_beats_the_qualified_head(codes_of):
    assert codes_of({LIB: """
        def loads(busy_s):
            load_at_max_percent = busy_s
            return load_at_max_percent
        """}) == ["RPL702"]


def test_percent_compared_to_fraction_bound_fires(codes_of):
    assert codes_of({LIB: """
        def busy(load_percent):
            return load_percent > 0.95
        """}) == ["RPL703"]


def test_fraction_compared_to_percent_bound_fires(codes_of):
    assert codes_of({LIB: """
        def busy(share_fraction):
            return share_fraction > 95.0
        """}) == ["RPL703"]


def test_percent_compared_to_percent_bound_quiet(codes_of):
    assert codes_of({LIB: """
        def busy(load_percent):
            return load_percent > 95.0
        """}) == []


def test_check_fraction_on_percent_name_fires(codes_of):
    assert codes_of({LIB: """
        def validate(load_percent):
            return check_fraction(load_percent, "load")
        """}) == ["RPL703"]


def test_check_percent_on_fraction_name_fires(codes_of):
    assert codes_of({LIB: """
        def validate(share_fraction):
            return check_percent(share_fraction, "share")
        """}) == ["RPL703"]


def test_check_fraction_on_fraction_name_quiet(codes_of):
    assert codes_of({LIB: """
        def validate(share_fraction):
            return check_fraction(share_fraction, "share")
        """}) == []


def test_percent_fraction_confusion_suppressed(codes_of):
    assert codes_of({LIB: """
        def validate(load_percent):
            return check_fraction(load_percent, "load")  # repro-lint: disable=RPL703
        """}) == []


def test_unsuffixed_float_param_fires_in_accounting(codes_of):
    assert codes_of({ACCT: """
        def scale(margin: float):
            return margin
        """}) == ["RPL704"]


def test_suffixed_float_param_quiet(codes_of):
    assert codes_of({ACCT: """
        def scale(margin_percent: float):
            return margin_percent
        """}) == []


def test_dimensionless_allowlist_param_quiet(codes_of):
    assert codes_of({ACCT: """
        def scale(value: float, weight: float, cf: float):
            return value * weight * cf
        """}) == []


def test_private_function_param_exempt(codes_of):
    assert codes_of({ACCT: """
        def _scale(margin: float):
            return margin
        """}) == []


def test_init_params_are_public_api(codes_of):
    assert codes_of({ACCT: """
        class Model:
            def __init__(self, margin: float):
                self.margin_percent = margin
        """}) == ["RPL704"]


def test_unsuffixed_param_out_of_scope_outside_accounting(codes_of):
    assert codes_of({"src/repro/governors/fake.py": """
        def scale(margin: float):
            return margin
        """}) == []


def test_unsuffixed_param_suppressed(codes_of):
    assert codes_of({ACCT: """
        def scale(margin: float):  # repro-lint: disable=RPL704
            return margin
        """}) == []


# --------------------------------------- RPL8xx transitive determinism


def test_wall_clock_two_hops_below_run_until_fires(lint_sources):
    findings = lint_sources(
        {
            "src/repro/sim/fake_engine.py": """
            import time as _clock

            class Engine:
                def run_until(self, time):
                    self._drain()

                def _drain(self):
                    self._stamp()

                def _stamp(self):
                    return _clock.time()
            """
        },
        select=["RPL801"],
    )
    assert [finding.code for finding in findings] == ["RPL801"]
    message = findings[0].message
    assert (
        "repro.sim.fake_engine.Engine.run_until -> "
        "repro.sim.fake_engine.Engine._drain -> "
        "repro.sim.fake_engine.Engine._stamp" in message
    )
    assert "`time.time()`" in message


def test_entropy_below_scheduler_hook_fires(lint_sources):
    findings = lint_sources(
        {
            "src/repro/schedulers/fake.py": """
            import os

            class FakeScheduler:
                def pick_next(self, now):
                    return _salt()

            def _salt():
                return os.urandom(4)
            """
        },
        select=["RPL802"],
    )
    assert [finding.code for finding in findings] == ["RPL802"]
    assert "pick_next -> repro.schedulers.fake._salt" in findings[0].message


def test_global_random_below_sweep_reducer_fires(lint_sources):
    findings = lint_sources(
        {
            "src/repro/sweep/metrics.py": """
            import random

            def load_metrics(rows):
                return _jitter(rows)

            def _jitter(rows):
                return random.random()
            """
        },
        select=["RPL803"],
    )
    assert [finding.code for finding in findings] == ["RPL803"]
    assert "load_metrics -> repro.sweep.metrics._jitter" in findings[0].message


def test_unreachable_sink_quiet_for_transitive_rules(codes_of):
    # The banned call sits in a private helper no root reaches; RPL101
    # still fires module-locally, but RPL8xx stays quiet.
    assert codes_of({"src/repro/schedulers/fake.py": """
        import time as _clock

        class FakeScheduler:
            def pick_next(self, now):
                return now

        def _orphan():
            return _clock.time()
        """, }, select=["RPL801"]) == []


def test_transitive_wall_clock_suppressed_at_sink(codes_of):
    assert codes_of({"src/repro/sim/fake_engine.py": """
        import time as _clock

        class Engine:
            def run_until(self, time):
                return self._stamp()

            def _stamp(self):
                return _clock.time()  # repro-lint: disable=RPL801
        """, }, select=["RPL801"]) == []
