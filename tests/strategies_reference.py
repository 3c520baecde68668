"""Reference strategies for the oracle test in ``test_strategies_oracle.py``.

A verbatim copy of ``hadm.strategies`` as of commit bef0066, when the
commit-once and baseline providers still read the raw route and abort
tables themselves.  Only the imports are changed, to absolute ones.  Do
not edit the code below: the oracle test holds the strategies to exactly
this behaviour.
"""
from __future__ import annotations

import itertools
import random

from hadm.errors import EscalationRequired, InvalidConfigError
from hadm.loop import OnlineExpectimaxProvider, most_likely_state, run_loop
from hadm.rover.compiler import CompiledScenario
from hadm.rover.plant import Plant, resolve_overrides
from hadm.rover.spec import Activity, Segment
from hadm.shm import diagnose, phm_route_choice, prognose_fault, select_recovery


class HadmProvider(OnlineExpectimaxProvider):
    """Online expectimax over the compiled scenario's solved table.

    The first provider built on a compiled scenario solves its problem
    and stores the table on it (``compiled.table``); every later one
    reuses that table, so a process solves each compiled scenario once.
    """

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        if compiled.table is None:
            super().__init__(compiled.problem)
            compiled.table = self.table
        self.table = compiled.table

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover"


class FixedPlanProvider:
    """Plays the nominal plan action by action, then stops."""

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        if not compiled.spec.nominal_plan:
            raise InvalidConfigError("scenario declares no nominal plan")
        self.plan = [compiled.action(lbl) for lbl in compiled.spec.nominal_plan]
        self.pos = 0

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.nominal_plan)

    def decide(self, problem, belief, observation, step):
        if self.pos >= len(self.plan):
            return None
        a = self.plan[self.pos]
        if a not in problem.admissible[most_likely_state(belief)]:
            return None
        self.pos += 1
        return a


class PhmCommitProvider:
    """Commits once to the route with the best open-loop expectation.

    Interior decisions a route leaves open ("uniform") are drawn from a
    seeded generator.  The choice depends only on the compiled scenario:
    the first decision of the first provider on it makes the choice and
    stores it there (``compiled.route_choice``); every later provider
    commits to the stored route.
    """

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        if not compiled.spec.routes:
            raise InvalidConfigError("scenario declares no routes")
        self.compiled = compiled
        self.rng = random.Random(seed)
        self.route_id = None
        self.expectations = None

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.routes)

    def decide(self, problem, belief, observation, step):
        if self.route_id is None:
            compiled = self.compiled
            if compiled.route_choice is None:
                compiled.route_choice = phm_route_choice(compiled.problem, {
                    r.id: compiled.route_policy(r.id) for r in compiled.spec.routes
                })
            self.route_id, self.expectations = compiled.route_choice
        route = self.compiled.spec.route(self.route_id)
        s = most_likely_state(belief)
        move = route.moves.get(self.compiled.states[s].position)
        if move is None:
            return None
        if move == "uniform":
            return self.rng.choice(sorted(problem.admissible[s]))
        a = self.compiled.action(move)
        return a if a in problem.admissible[s] else None


class ShmBaselineProvider:
    """The separated pipeline driven by the scenario's rule tables.

    Every observation runs detection; fired predicates are diagnosed,
    each descriptor is prognosed by linear extrapolation, and the
    matching mitigation is applied.  Operational constraints attached to
    a mitigation persist; when they block the next planned move,
    execution switches to the abort plan.
    All pipeline activity is logged in ``events`` for inspection.
    """

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        self.compiled = compiled
        self.rules = compiled.spec.shm_rules
        self.plan = [compiled.action(lbl) for lbl in compiled.spec.nominal_plan]
        self.pos = 0
        self.allowed_grades = None
        self.cooling = False
        self.aborting = False
        self.events = []

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.nominal_plan)

    def _cool_action(self, problem, s):
        a = self.compiled.cool_action
        return a if a in problem.admissible[s] else None

    def _run_pipeline(self, problem, s, observation, step):
        rules = self.rules
        fired = tuple(p for p in rules.detectors if p.fires(observation))
        if not fired:
            return None
        descriptors = diagnose(rules.diagnosis, observation, fired)
        ruls = [prognose_fault(d, observation) for d in descriptors]
        known = [r for r in ruls if r is not None]
        rul_hours = min(known) if known else None
        event = {
            "step": step,
            "modes": [d.mode for d in descriptors],
            "rul_hours": rul_hours,
        }
        try:
            action_label, constraints = select_recovery(
                descriptors, rul_hours, rules.mitigations, rules.min_probability
            )
        except EscalationRequired as exc:
            event["escalation"] = str(exc)
            self.events.append(event)
            return None
        event["recovery"] = action_label
        event["constraints"] = constraints
        self.events.append(event)
        if "grades" in constraints:
            self.allowed_grades = tuple(constraints["grades"])
        if action_label == "stop_and_cool_down":
            self.cooling = True
            return self._cool_action(problem, s)
        a = self.compiled.action(action_label)
        return a if a in problem.admissible[s] else None

    def decide(self, problem, belief, observation, step):
        spec = self.compiled.spec
        s = most_likely_state(belief)
        # Moving on to the abort plan or past a done activity reruns it all.
        while True:
            if self.cooling:
                temp = observation.get("motor_temp_c")
                if temp is not None and temp > spec.thermal.nominal_c + 1e-9:
                    return self._cool_action(problem, s)
                self.cooling = False
            recovery = self._run_pipeline(problem, s, observation, step)
            if recovery is not None:
                return recovery
            position = self.compiled.states[s].position
            if self.aborting:
                move = spec.abort_plan.get(position)
                if move is None:
                    return None
                a = self.compiled.action(move)
                return a if a in problem.admissible[s] else None
            if self.pos >= len(self.plan):
                return None
            a = self.plan[self.pos]
            target = self.compiled.targets[a]
            if isinstance(target, Segment) and self.allowed_grades is not None:
                if target.grade not in self.allowed_grades:
                    self.aborting = True
                    continue
            if isinstance(target, Activity):
                # Hold the plan position until the activity is observed done.
                if observation.get(f"science:{target.id}") == "done":
                    self.pos += 1
                    continue
                return a if a in problem.admissible[s] else None
            if a not in problem.admissible[s]:
                return None
            self.pos += 1
            return a


STRATEGIES = {
    "hadm": HadmProvider,
    "shm-baseline": ShmBaselineProvider,
    "phm-commit": PhmCommitProvider,
    "fixed-plan": FixedPlanProvider,
}


def make_provider(name: str, compiled: CompiledScenario, seed: int = 0):
    if name not in STRATEGIES:
        raise InvalidConfigError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        )
    return STRATEGIES[name](compiled, seed=seed)


def applicable_strategies(spec) -> list:
    return [n for n, cls in STRATEGIES.items() if cls.applicable(spec)]


def analytic_expectation(
    compiled: CompiledScenario, strategy: str, overrides=None
) -> float:
    """Exact expected cumulative reward of a strategy by enumerating
    every ground-truth assignment and replaying the (deterministic per
    assignment) strategy against each.  Pinned variables keep their
    pinned value instead of being enumerated."""
    pinned = resolve_overrides(compiled, overrides)
    rvs = sorted(compiled.rv_defs)
    choices = [
        [(pinned[rv], 1.0)] if rv in pinned
        else sorted(compiled.rv_defs[rv].items())
        for rv in rvs
    ]
    total = 0.0
    for combo in itertools.product(*choices) if rvs else [()]:
        prob = 1.0
        overrides = {}
        for rv, (value, p) in zip(rvs, combo):
            prob *= p
            overrides[rv] = value
        if prob <= 0.0:
            continue
        plant = Plant(compiled, seed=0, overrides=overrides)
        provider = make_provider(strategy, compiled, seed=0)
        trace = run_loop(plant, compiled.problem, provider)
        total += prob * trace.total
    return total
