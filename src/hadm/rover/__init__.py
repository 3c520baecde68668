"""Rover scenarios: declaration, compilation, and ground-truth simulation."""
from .builtins import builtin_scenario, builtin_scenario_dict, export_builtin
from .compiler import (
    COMPLETE,
    DEADLINE_MISSED,
    MOTOR_FAILURE,
    OK,
    STRANDED,
    STUCK,
    CompiledScenario,
    RoverState,
    compile_scenario,
)
from .plant import Plant, resolve_overrides
from .spec import (
    ScenarioSpec,
    load_scenario,
    load_scenario_file,
    validate_scenario_dict,
)

__all__ = [
    "COMPLETE",
    "DEADLINE_MISSED",
    "MOTOR_FAILURE",
    "OK",
    "STRANDED",
    "STUCK",
    "CompiledScenario",
    "Plant",
    "RoverState",
    "ScenarioSpec",
    "builtin_scenario",
    "builtin_scenario_dict",
    "compile_scenario",
    "export_builtin",
    "load_scenario",
    "load_scenario_file",
    "resolve_overrides",
    "validate_scenario_dict",
]
