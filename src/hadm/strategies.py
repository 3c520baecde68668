"""Named mission-execution strategies over compiled scenarios.

Four strategies share one provider interface:

* ``hadm``: online greedy lookahead against optimal utilities of the
  unified decision problem.
* ``shm-baseline``: the separated pipeline; follows the nominal plan,
  runs detection/diagnosis/prognosis on every observation, applies
  mitigation rules, and aborts when operational constraints block the
  plan.  Deliberately myopic.
* ``phm-commit``: evaluates each declared route open-loop once per
  compiled scenario, commits to the best, and never revisits the choice.
* ``fixed-plan``: executes the nominal plan verbatim.
"""
from __future__ import annotations

import itertools
import math
import random

from .errors import EscalationRequired, InvalidConfigError, ResourceLimitError
from .loop import OnlineExpectimaxProvider, most_likely_state, run_loop
from .rover.compiler import CompiledScenario
from .rover.plant import Plant, resolve_overrides
from .rover.spec import Activity, Segment
from .shm import (
    detect,
    diagnose,
    phm_route_choice,
    prognose_fault,
    select_recovery,
)


# Cap on the ground-truth assignments ``analytic_expectation`` enumerates;
# the same figure as the default compiled-state cap.
MAX_GROUND_TRUTHS = 10**6


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
    the first decision of the first provider on it (or ``episode_total``,
    which needs it first) makes the choice and stores it there
    (``compiled.route_choice``); every later provider commits to the
    stored route.
    """

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        self.compiled = compiled
        self.rng = random.Random(seed)
        self.route_id = None
        self.expectations = None

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.routes)

    def decide(self, problem, belief, observation, step):
        if self.route_id is None:
            self.route_id, self.expectations = _route_choice(self.compiled)
        s = most_likely_state(belief)
        a = self.compiled.route_policies[self.route_id].get(s)
        if a == "uniform":
            return self.rng.choice(sorted(problem.admissible[s]))
        return a


def _route_choice(compiled: CompiledScenario):
    """``compiled.route_choice``, evaluated on the first request."""
    if compiled.route_choice is None:
        compiled.route_choice = phm_route_choice(compiled.problem, {
            r.id: compiled.route_policy(r.id) for r in compiled.spec.routes
        })
    return compiled.route_choice


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
        fired = detect(rules.detectors, observation)
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
            if self.aborting:
                return self.compiled.abort_policy.get(s)
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


def applicable_strategy(name: str, spec):
    """The provider class of strategy ``name``, checked to apply to ``spec``."""
    if name not in STRATEGIES:
        raise InvalidConfigError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        )
    if not STRATEGIES[name].applicable(spec):
        raise InvalidConfigError(
            f"strategy {name!r} is not applicable to scenario {spec.name!r}"
        )
    return STRATEGIES[name]


def make_provider(name: str, compiled: CompiledScenario, seed: int = 0):
    return applicable_strategy(name, compiled.spec)(compiled, seed=seed)


def applicable_strategies(spec) -> list:
    return [n for n, cls in STRATEGIES.items() if cls.applicable(spec)]


class _PathReads:
    """An assignment that logs each (variable, value) read, in order."""

    def __init__(self, assignments):
        self.assignments = assignments
        self.path = []

    def __getitem__(self, rv):
        value = self.assignments[rv]
        self.path.append((rv, value))
        return value


def episode_total(
    compiled: CompiledScenario, strategy: str, seed: int, assignments
) -> float:
    """Total reward of ``strategy``'s episode from the given provider
    seed against the ground truth ``assignments``.

    An episode is a deterministic function of the (variable, value)
    pairs its plant reads, in the order it reads them, so each total is
    computed once: ``compiled.episode_tries`` holds one trie per
    (strategy, seed or None) whose inner nodes ``(variable, {value:
    child})`` name the next variable read and whose leaves are totals.
    Only ``phm-commit`` draws from its seed, and only at the "uniform"
    moves of the route it commits to; its trie is per seed just then.
    A path not yet in the trie runs one episode and is added to it.
    """
    seeded = (strategy == "phm-commit" and compiled.spec.routes and "uniform"
              in compiled.route_policies[_route_choice(compiled)[0]].values())
    key = (strategy, seed if seeded else None)
    node = compiled.episode_tries.get(key)
    while type(node) is tuple:
        rv, children = node
        node = children.get(assignments[rv])
    if node is not None:
        return node
    reads = _PathReads(assignments)
    plant = Plant(compiled, assignments=reads)
    provider = make_provider(strategy, compiled, seed=seed)
    total = run_loop(plant, compiled.problem, provider).total
    children, slot = compiled.episode_tries, key
    for rv, value in reads.path:
        node = children.get(slot)
        if node is None:
            node = children[slot] = (rv, {})
        children, slot = node[1], value
    children[slot] = total
    return total


def analytic_expectation(
    compiled: CompiledScenario, strategy: str, overrides=None
) -> float:
    """Exact expected cumulative reward of a strategy: the
    probability-weighted sum of its episode totals (``episode_total``,
    seed 0) over every ground-truth assignment, in product order.
    Pinned variables keep their pinned value instead of being
    enumerated.  A product of more than ``MAX_GROUND_TRUTHS``
    assignments raises ``ResourceLimitError`` before any episode runs."""
    pinned = resolve_overrides(compiled, overrides)
    rvs = sorted(compiled.rv_defs)
    choices = [
        [(pinned[rv], 1.0)] if rv in pinned
        else sorted(compiled.rv_defs[rv].items())
        for rv in rvs
    ]
    size = math.prod(len(c) for c in choices)
    if size > MAX_GROUND_TRUTHS:
        raise ResourceLimitError(
            f"{size} ground-truth assignments to enumerate exceed the cap "
            f"of {MAX_GROUND_TRUTHS}"
        )
    total = 0.0
    for combo in itertools.product(*choices):
        prob = 1.0
        assignments = {}
        for rv, (value, p) in zip(rvs, combo):
            prob *= p
            assignments[rv] = value
        if prob <= 0.0:
            continue
        total += prob * episode_total(compiled, strategy, 0, assignments)
    return total
