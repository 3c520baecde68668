"""Ground-truth simulator for compiled scenarios.

A plant owns a hidden assignment of every scenario random variable
(terrain classes, activity redo outcomes): given explicitly, or drawn by
``sample_assignments`` from a seeded generator with overrides pinned.
Stepping the plant takes, in each stochastic row, the successor that
stands for the assigned value of the row's variable, so re-running with
the same seed reproduces the trace exactly.
"""
from __future__ import annotations

import random

from ..errors import InvalidConfigError
from .compiler import CompiledScenario


def resolve_overrides(compiled: CompiledScenario, overrides) -> dict:
    """Expand CLI-style name=value pairs into random-variable assignments.

    Names are either scenario-declared aliases (e.g. terrain=difficult-both)
    or raw random-variable names (e.g. terrain:left=difficult).
    """
    out = {}
    aliases = compiled.spec.override_aliases
    for name, value in (overrides or {}).items():
        if name in aliases:
            expansion = aliases[name].get(str(value))
            if expansion is None:
                raise InvalidConfigError(
                    f"override {name!r} has no variant {value!r}; "
                    f"choose from {sorted(aliases[name])}"
                )
            pairs = expansion.items()
        elif name in compiled.rv_defs:
            pairs = ((name, str(value)),)
        else:
            raise InvalidConfigError(
                f"unknown ground-truth variable {name!r}; declared: "
                f"{sorted(set(compiled.rv_defs) | set(aliases))}"
            )
        for rv, v in pairs:
            if rv not in compiled.rv_defs:
                raise InvalidConfigError(
                    f"override {name!r} sets unknown ground-truth variable "
                    f"{rv!r}; declared: {sorted(compiled.rv_defs)}"
                )
            # Plant.step needs every value to name one successor.
            if v not in compiled.rv_defs[rv]:
                raise InvalidConfigError(
                    f"{rv!r} cannot be {v!r}; "
                    f"choose from {sorted(compiled.rv_defs[rv])}"
                )
            out[rv] = v
    return out


def sample_assignments(compiled: CompiledScenario, seed: int = 0, pinned=None) -> dict:
    """One value per random variable, drawn from ``random.Random(seed)``
    in sorted variable order; ``pinned`` values (resolved overrides)
    replace the drawn ones, which are still drawn."""
    rng = random.Random(seed)
    out = {}
    for rv in sorted(compiled.rv_defs):
        roll = rng.random()
        acc = 0.0
        for value, p in compiled.rv_defs[rv].items():
            acc += p
            if roll < acc:
                break
        out[rv] = value
    out.update(pinned or {})
    return out


class Plant:
    """Executes actions against one ground truth: ``assignments`` when
    given, else one sampled from ``seed`` with ``overrides`` pinned."""

    def __init__(self, compiled: CompiledScenario, seed: int = 0, overrides=None,
                 assignments=None):
        self.compiled = compiled
        if assignments is None:
            assignments = sample_assignments(
                compiled, seed, resolve_overrides(compiled, overrides)
            )
        self.assignments = assignments
        self.state = compiled.initial_state

    def observe(self) -> dict:
        """The current state's channels, as a new dict."""
        return self.compiled.channels(self.state)

    def step(self, action: int):
        """Execute an action; returns (observation, realized reward)."""
        s, problem = self.state, self.compiled.problem
        problem.require_admissible(s, action)
        rows = problem.transitions[(s, action)]
        outcome = self.compiled.outcomes.get((s, action))
        if outcome is None:
            branch = rows[0]
        else:
            rv, values = outcome
            branch = rows[values.index(self.assignments[rv])]
        self.state, _, reward = branch
        return self.observe(), reward
