"""Rover scenarios: declaration, compilation, and ground-truth simulation.

Each name is imported from its module when first read (PEP 562), so
loading a scenario loads neither the compiler nor the plant.
"""
import importlib

_HOMES = {
    "builtin_scenario": ".builtins",
    "builtin_scenario_dict": ".builtins",
    "export_builtin": ".builtins",
    "COMPLETE": ".compiler",
    "DEADLINE_MISSED": ".compiler",
    "MOTOR_FAILURE": ".compiler",
    "OK": ".compiler",
    "STRANDED": ".compiler",
    "STUCK": ".compiler",
    "CompiledScenario": ".compiler",
    "RoverState": ".compiler",
    "compile_scenario": ".compiler",
    "Plant": ".plant",
    "resolve_overrides": ".plant",
    "ScenarioSpec": ".spec",
    "load_scenario": ".spec",
    "load_scenario_file": ".spec",
    "validate_scenario_dict": ".spec",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
