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
from typing import NamedTuple, Optional

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

    def _pipeline(self, observation, step, events):
        """One pipeline pass: its event, also appended to ``events``, or None."""
        rules = self.compiled.spec.shm_rules
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
        events.append(event)
        try:
            event["recovery"], event["constraints"] = select_recovery(
                descriptors, rul_hours, rules.mitigations, rules.min_probability
            )
        except EscalationRequired as exc:
            event["escalation"] = str(exc)
        return event

    def choose(self, s, observation, memory, step):
        compiled = self.compiled
        events = []
        # Moving on to the abort plan or past a done activity reruns it all.
        while True:
            if memory.cooling:
                temp = observation.get("motor_temp_c")
                if temp is not None and temp > compiled.spec.thermal.nominal_c + 1e-9:
                    return compiled.cool_action, memory, events
                memory = memory._replace(cooling=False)
            event = self._pipeline(observation, step, events)
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
