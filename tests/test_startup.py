"""What a command pays for at start-up.

``hadm.cli`` imports each subcommand's modules when the subcommand runs,
and ``hadm.rover`` imports each name's module when it is first read
(PEP 562).  The records that need no ``__post_init__`` are
``NamedTuple``s, which are cheaper to create than dataclasses.  These
tests pin what each command loads, the module-attribute contract that a
tracer and the tests rely on, and the record semantics the change keeps.
"""
import ast
import importlib
import inspect

import pytest

import hadm.cli
import hadm.rover.compiler
import hadm.strategies
from hadm.cli import main
from hadm.loop import SerPolicy
from hadm.rover import builtin_scenario, spec
from hadm.shm import DiagnosisRule, MitigationRule, ShmRules, ThresholdPredicate

from test_prognostics import hadm_modules_loaded_by

RECORDS = (
    spec.Waypoint, spec.Region, spec.Segment, spec.Activity, spec.PowerConfig,
    spec.BatteryConfig, spec.ThermalConfig, spec.Mission, spec.RewardConfig,
    spec.ActionConfig, spec.Route, spec.DegradationSection, spec.ScenarioSpec,
    ThresholdPredicate, DiagnosisRule, MitigationRule, ShmRules,
)


def loaded_by_command(*argv) -> set:
    """The ``hadm`` modules a fresh interpreter holds after ``main(argv)``."""
    return hadm_modules_loaded_by(
        "import contextlib, io, hadm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert hadm.cli.main({list(argv)!r}) == 0"
    )


class TestModulesLoaded:
    def test_import_loads_only_the_command_line(self):
        assert hadm_modules_loaded_by("import hadm.cli") == {
            "hadm", "hadm.errors", "hadm.cli",
        }

    def test_solve_loads_neither_the_loop_nor_the_strategies(self):
        loaded = loaded_by_command("solve", "--scenario", "builtin:4")
        assert "hadm.rover.compiler" in loaded
        assert not loaded & {"hadm.loop", "hadm.strategies", "hadm.prognostics"}

    @pytest.mark.parametrize("argv", [
        ("compare", "--scenario", "builtin:4", "--rollouts", "5"),
        ("run", "--scenario", "builtin:4"),
    ])
    def test_rover_commands_leave_prognostics_unloaded(self, argv):
        loaded = loaded_by_command(*argv)
        assert "hadm.strategies" in loaded
        assert "hadm.prognostics" not in loaded

    def test_predict_loads_no_rover_compiler_or_solver(self):
        loaded = loaded_by_command("predict", "--scenario", "builtin:1")
        assert "hadm.prognostics" in loaded
        assert not loaded & {"hadm.rover.compiler", "hadm.model", "hadm.loop",
                             "hadm.strategies"}


class TestPatchContract:
    def test_a_replaced_name_is_the_one_the_command_calls(
        self, monkeypatch, capsys
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return hadm.rover.compiler.compile_scenario(*args, **kwargs)

        monkeypatch.setattr(hadm.cli, "compile_scenario", counting)
        assert main(["solve", "--scenario", "builtin:2"]) == 0
        assert "root value: -800" in capsys.readouterr().out
        assert len(calls) == 1

    def test_every_lazy_name_is_its_home_modules_object(self):
        for name, home in hadm.cli._HOMES.items():
            module = importlib.import_module(home, "hadm")
            assert getattr(hadm.cli, name) is getattr(module, name)

    def test_each_command_loads_every_name_it_reads(self):
        """A function's global lookup skips the module ``__getattr__``, so a
        lazy name a command reads without ``_need`` is a NameError on
        whichever path first reads it."""
        tree = ast.parse(inspect.getsource(hadm.cli))
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and n.id in hadm.cli._HOMES}
            needed = {arg.value for call in ast.walk(fn)
                      if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) == "_need"
                      for arg in call.args}
            assert read == needed, fn.name

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError):
            hadm.cli.nosuch
        with pytest.raises(AttributeError):
            hadm.rover.nosuch
        with pytest.raises(ImportError):
            from hadm.rover import nosuch  # noqa: F401

    def test_rover_still_exports_its_names(self):
        from hadm.rover import Plant, compile_scenario
        from hadm.rover.compiler import compile_scenario as compiled_by
        from hadm.rover.plant import Plant as plant_class

        assert compile_scenario is compiled_by and Plant is plant_class
        for name in hadm.rover.__all__:
            assert getattr(hadm.rover, name) is not None

    def test_the_parsers_strategy_names_are_the_strategies(self):
        assert hadm.cli.STRATEGY_NAMES == sorted(hadm.strategies.STRATEGIES)


def records_in(value):
    """Every record reachable from ``value``, depth first."""
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            yield value
        for item in value:
            yield from records_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from records_in(item)


def holds_a_dict(value) -> bool:
    if isinstance(value, dict):
        return True
    return isinstance(value, tuple) and any(map(holds_a_dict, value))


class TestRecordSemantics:
    def test_the_builtins_reach_every_converted_record(self):
        reached = {type(r) for n in range(1, 5)
                   for r in records_in(builtin_scenario(n))}
        assert reached == set(RECORDS)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_records_reject_attribute_assignment(self, n):
        for record in records_in(builtin_scenario(n)):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)

    def test_ser_policy_rejects_attribute_assignment(self):
        ser = SerPolicy(member={0}, actions={0: 1})
        with pytest.raises(AttributeError):
            ser.actions = {}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_two_loads_compare_and_hash_equal(self, n):
        """A record holding a mapping is unhashable, as a frozen
        dataclass holding one was; every other record hashes by value."""
        first = list(records_in(builtin_scenario(n)))
        second = list(records_in(builtin_scenario(n)))
        assert first == second
        for a, b in zip(first, second):
            if holds_a_dict(a):
                with pytest.raises(TypeError):
                    hash(a)
            else:
                assert hash(a) == hash(b)

    def test_shared_mapping_defaults_stay_empty(self, capsys):
        for n in (2, 3, 4):
            argv = ["compare", "--scenario", f"builtin:{n}", "--rollouts", "50"]
            assert main(argv) == 0
        capsys.readouterr()
        assert spec.ScenarioSpec._field_defaults["abort_plan"] == {}
        assert spec.ScenarioSpec._field_defaults["override_aliases"] == {}
        assert DiagnosisRule._field_defaults["parameters"] == {}
        assert MitigationRule._field_defaults["constraints"] == {}
