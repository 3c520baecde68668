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

import math
import random
from typing import NamedTuple, Optional

from .errors import EscalationRequired, InvalidConfigError, ModelError
from .loop import MAX_STEPS, OnlineExpectimaxProvider, most_likely_state, run_loop
from .model import _entry, run_walk
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


class HadmProvider(OnlineExpectimaxProvider):
    """Online expectimax over the compiled scenario's solved table.

    The first provider built on a compiled scenario solves its problem
    and stores the table on it (``compiled.table``); every later one
    reuses that table, so a process solves each compiled scenario once.
    As a controller it has no memory: ``choose`` decides on the point
    mass on ``s``.
    """

    memory = None

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        if compiled.table is None:
            super().__init__(compiled.problem)
            compiled.table = self.table
        self.table = compiled.table
        self.problem = compiled.problem

    def choose(self, s, observation, memory, step):
        return self.decide(self.problem, {s: 1.0}, observation, step), None, ()

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover"


class _Controller:
    """A strategy as a pure controller: ``choose(s, observation, memory,
    step)`` returns the entry (an action index, "uniform" or None to
    stop), the next hashable memory, which starts at the class's
    ``memory``, and the decision's pipeline events.  ``decide`` alone
    keeps state: it threads the memory, logs the events in
    ``self.events``, draws a "uniform" entry from the seeded generator,
    and stops on an entry that is not admissible in ``s``.
    """

    memory = None

    def __init__(self, compiled: CompiledScenario, seed: int = 0):
        self.compiled = compiled
        self.rng = random.Random(seed)
        self.events = []

    def decide(self, problem, belief, observation, step):
        s = most_likely_state(belief)
        entry, self.memory, events = self.choose(s, observation, self.memory, step)
        self.events += events
        if entry == "uniform":
            return self.rng.choice(sorted(problem.admissible[s]))
        return entry if entry in problem.admissible[s] else None


class FixedPlanProvider(_Controller):
    """Plays the nominal plan action by action, then stops."""

    memory = 0  # the plan position

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.nominal_plan)

    def choose(self, s, observation, pos, step):
        plan = self.compiled.plan
        return (plan[pos], pos + 1, ()) if pos < len(plan) else (None, pos, ())


class PhmCommitProvider(_Controller):
    """Commits once to the route with the best open-loop expectation.

    The first request makes the choice and stores it on the compiled
    scenario (``compiled.route_choice``), so the controller has no memory.
    """

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.routes)

    def choose(self, s, observation, memory, step):
        route_id = _route_choice(self.compiled)[0]
        return self.compiled.route_policies[route_id].get(s), None, ()


def _route_choice(compiled: CompiledScenario):
    """``compiled.route_choice``, evaluated on the first request."""
    if compiled.route_choice is None:
        compiled.route_choice = phm_route_choice(compiled.problem, {
            r.id: compiled.route_policy(r.id) for r in compiled.spec.routes
        })
    return compiled.route_choice


class ShmMemory(NamedTuple):
    """``shm-baseline``'s memory; ``grades`` None allows every grade."""

    pos: int
    grades: Optional[tuple]
    cooling: bool
    aborting: bool


class ShmBaselineProvider(_Controller):
    """The separated pipeline driven by the scenario's rule tables.

    Every observation runs detection; fired predicates are diagnosed,
    each descriptor is prognosed by linear extrapolation, and the
    matching mitigation is applied.  Operational constraints attached to
    a mitigation persist; when they block the next planned move,
    execution switches to the abort plan.
    """

    memory = ShmMemory(0, None, False, False)

    @staticmethod
    def applicable(spec) -> bool:
        return spec.kind == "rover" and bool(spec.nominal_plan)

    def _pipeline(self, observation, step):
        """The events of one pipeline pass: none, or one event."""
        rules = self.compiled.spec.shm_rules
        fired = detect(rules.detectors, observation)
        if not fired:
            return []
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
            event["recovery"], event["constraints"] = select_recovery(
                descriptors, rul_hours, rules.mitigations, rules.min_probability
            )
        except EscalationRequired as exc:
            event["escalation"] = str(exc)
        return [event]

    def choose(self, s, observation, memory, step):
        compiled = self.compiled
        events = None  # the pipeline's, from the first pass that reaches it
        # Moving on to the abort plan or past a done activity reruns the
        # rules, on the same event.
        while True:
            if memory.cooling:
                temp = observation.get("motor_temp_c")
                if temp is not None and temp > compiled.spec.thermal.nominal_c + 1e-9:
                    return compiled.cool_action, memory, events or []
                memory = memory._replace(cooling=False)
            if events is None:
                events = self._pipeline(observation, step)
            event = events[0] if events else None
            if event and "recovery" in event:
                label, constraints = event["recovery"], event["constraints"]
                if "grades" in constraints:
                    memory = memory._replace(grades=tuple(constraints["grades"]))
                memory = memory._replace(cooling=label == "stop_and_cool_down")
                a = compiled.cool_action if memory.cooling else compiled.action(label)
                if a in compiled.problem.admissible[s]:
                    return a, memory, events
            if memory.aborting:
                return compiled.abort_policy.get(s), memory, events
            if memory.pos >= len(compiled.plan):
                return None, memory, events
            a = compiled.plan[memory.pos]
            target = compiled.targets[a]
            if (isinstance(target, Segment) and memory.grades is not None
                    and target.grade not in memory.grades):
                memory = memory._replace(aborting=True)
                continue
            # Hold the plan position until an activity is observed done.
            if not isinstance(target, Activity):
                memory = memory._replace(pos=memory.pos + 1)
            elif observation.get(f"science:{target.id}") == "done":
                memory = memory._replace(pos=memory.pos + 1)
                continue
            return a, memory, events


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
    """Exact expected cumulative reward of a strategy: policy evaluation
    on the product of its controller and the compiled chain, with one
    backup per reachable node ``(s, memory, step)``, the arguments of
    ``choose``, by the rules ``run_loop`` plays an episode by.  A
    terminal state, the step cap and a stop (None, or an entry not
    admissible in ``s``) are worth 0.  A pinned variable's row keeps its
    pinned branch alone, at probability 1, and none when that branch has
    probability 0, where an episode aborts.  A value that is not finite
    raises ``ModelError``."""
    pinned = resolve_overrides(compiled, overrides)
    problem = compiled.problem
    provider = make_provider(strategy, compiled)
    values = {}

    def value(s, memory, step):
        if s in problem.terminal or step == MAX_STEPS:
            return 0.0
        key = (s, memory, step)
        if key not in values:
            entry, memory, _ = provider.choose(s, compiled.channels(s), memory, step)
            total = 0.0
            if entry == "uniform" or entry in problem.admissible[s]:
                for a, pa in _entry(problem, s, entry):
                    rows = problem.transitions[(s, a)]
                    rv, branches = compiled.outcomes.get((s, a), (None, ()))
                    if rv in pinned:
                        s2, p, r = rows[branches.index(pinned[rv])]
                        rows = ((s2, 1.0, r),) if p > 0.0 else ()
                    for s2, p, r in rows:
                        if p > 0.0:
                            total += pa * p * (r + (yield value(s2, memory, step + 1)))
            values[key] = total
        return values[key]

    total = run_walk(value(compiled.initial_state, provider.memory, 0))
    if not math.isfinite(total):
        raise ModelError(
            f"reward overflow: strategy {strategy!r} expects {total!r}, "
            "past the float range"
        )
    return total
