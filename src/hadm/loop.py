"""The operational loop: estimate, select, act, observe, update.

A policy provider proposes an action for the current belief; a separate
safety layer (SER) can override it whenever its membership predicate
holds.  The loop runs against a plant, updates the belief by Bayes rule
after every observation, and stops once belief mass on the terminal set
crosses a threshold, a step cap is hit, or the provider has no action
left to offer.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Mapping, NamedTuple

from .errors import ImpossibleObservationError, InvalidConfigError, ModelError
from .model import (
    Belief,
    Policy,
    Problem,
    ValueTable,
    belief_update,
    point_mass,
    q_value,
    run_walk,
    validate_belief,
    value_iterate,
)

_TOL = 1e-9
# Belief mass on the terminal set at which the loop stops.
TERMINAL_BELIEF = 0.999
# Steps after which the loop stops by default, truncated.
MAX_STEPS = 10000


def most_likely_state(belief: Belief) -> int:
    """Belief argmax; ties go to the lowest state index, and an absent
    state 0 counts as probability 0."""
    best, best_p = 0, belief.get(0, 0.0)
    for s in sorted(belief):
        if belief[s] > best_p + _TOL:
            best, best_p = s, belief[s]
    return best


def terminal_mass(belief: Belief, terminal) -> float:
    """Belief mass on the ``terminal`` states, summed in state order."""
    return sum(belief[s] for s in sorted(belief) if s in terminal)


def belief_summary(problem: Problem, belief: Belief):
    """The three most likely states as (label, probability) pairs."""
    ranked = sorted(
        ((p, s) for s, p in belief.items() if p > _TOL),
        key=lambda x: (-x[0], x[1]),
    )
    return [(problem.state_labels[s], round(p, 9)) for p, s in ranked[:3]]


def observation_index(problem: Problem, observation: Mapping) -> int:
    """The observation-alphabet index carried by a plant's channels; only
    a fully observable problem falls back to the state index."""
    if "observation_index" in observation:
        return observation["observation_index"]
    if problem.observations is not None:
        raise ModelError("observation model set, but no observation_index")
    if "state_index" in observation:
        return observation["state_index"]
    raise InvalidConfigError(
        "observation carries neither observation_index nor state_index"
    )


class OfflinePolicyProvider:
    """Looks actions up in a fixed table at the most likely state."""

    def __init__(self, policy):
        self.policy = policy.actions if isinstance(policy, Policy) else dict(policy)

    def decide(self, problem: Problem, belief, observation, step: int):
        return self.policy.get(most_likely_state(belief))


class OnlineExpectimaxProvider:
    """Greedy one-step lookahead against optimal utilities.

    Each instance computes the utilities once by value iteration when it
    is built (``HadmProvider`` instead shares one table per compiled
    scenario); each query maximizes the belief-weighted action value over
    the actions admissible everywhere in the belief support.  Ties break
    toward the lowest action index.
    """

    def __init__(self, problem: Problem):
        self.table: ValueTable = value_iterate(problem)

    def decide(self, problem: Problem, belief: Belief, observation, step: int):
        support = [s for s in sorted(belief) if belief[s] > _TOL]
        acts = set(problem.admissible[support[0]])
        for s in support[1:]:
            acts &= set(problem.admissible[s])
        if not acts:
            return None
        best, best_q = None, -math.inf
        for a in sorted(acts):
            q = sum(
                belief[s] * q_value(problem, s, a, self.table.values)
                for s in support
            )
            if q > best_q + 1e-12:
                best, best_q = a, q
        return best


class SerPolicy(NamedTuple):
    """Safety override: a membership predicate plus a response table.

    ``member`` is either a collection of state indices or a callable over
    observation channels (which of the two a scenario uses is part of its
    configuration).  ``actions`` must name a response for every state the
    predicate can hold in; ``safe_set`` are the states where the response
    chain is allowed to stand down.
    """

    member: object
    actions: Mapping
    safe_set: frozenset = frozenset()
    step_bound: int = None

    def triggered(self, state: int, channels: Mapping) -> bool:
        if callable(self.member):
            return bool(self.member(channels))
        return state in self.member


def arbitrate(state: int, channels: Mapping, ser, provider_action):
    """(action, provider tag): the safety layer wins whenever it triggers."""
    if ser is not None and ser.triggered(state, channels):
        action = ser.actions.get(state)
        if action is None:
            raise ModelError(
                f"safety predicate holds at state {state} but no response is defined"
            )
        return action, "SER"
    return provider_action, "HADM"


@dataclass
class SerReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_ser(problem: Problem, ser: SerPolicy) -> SerReport:
    """Exhaustively check the safety policy offline.

    From every state the policy covers, executing its actions must reach
    the safe set (or a terminal state) along every stochastic branch,
    without cycles and within the step bound.  Findings are reported, not
    raised.
    """
    report = SerReport()
    members = set(ser.actions) if callable(ser.member) else set(ser.member)
    bound = ser.step_bound if ser.step_bound is not None else problem.n_states

    for s in sorted(members):
        if s in ser.safe_set or problem.is_terminal(s):
            continue
        if ser.actions.get(s) is None:
            report.violations.append(
                f"no response defined for covered state {problem.state_labels[s]!r}"
            )

    seen_cycles = set()
    # Worst-case steps from a finished state to safety, or None once the
    # state is known to fail.
    resolved = {}
    path = {}  # the states being expanded, in walk order

    def steps(s):
        """Worst-case steps from ``s`` to safety, or None when a branch
        fails; a failing successor fails every state on the path."""
        if s in ser.safe_set or problem.is_terminal(s):
            return 0
        if s in resolved:
            return resolved[s]
        if s in path:
            states = list(path)
            cycle = tuple(sorted(set(states[states.index(s):])))
            if cycle not in seen_cycles:
                seen_cycles.add(cycle)
                labels = ", ".join(repr(problem.state_labels[x]) for x in cycle)
                report.violations.append(
                    f"response cycle never reaches the safe set: {labels}"
                )
            return None
        a = ser.actions.get(s)
        if a is None:
            if s not in members:
                report.violations.append(
                    f"no response defined for reachable state "
                    f"{problem.state_labels[s]!r}"
                )
            resolved[s] = None
            return None
        if a not in problem.admissible[s]:
            report.violations.append(
                f"response {problem.action_labels[a]!r} is inadmissible at "
                f"state {problem.state_labels[s]!r}"
            )
            resolved[s] = None
            return None
        path[s] = None
        worst = 0
        for s2, p, _ in problem.transitions[(s, a)]:
            if p > 0.0:
                d = yield steps(s2)
                if d is None:
                    worst = None
                    break
                worst = max(worst, d)
        del path[s]
        resolved[s] = None if worst is None else worst + 1
        return resolved[s]

    for s in sorted(members):
        d = run_walk(steps(s))
        if d is not None and d > bound:
            report.violations.append(
                f"safety takes {d} steps from {problem.state_labels[s]!r}, "
                f"exceeding the bound of {bound}"
            )
    return report


@dataclass
class LoopRecord:
    step: int
    belief: list  # [(state label, probability), ...] before acting
    action: str
    provider: str  # HADM | SER
    observation: dict
    reward: float
    cumulative: float


@dataclass
class LoopTrace:
    records: list = field(default_factory=list)
    terminal: bool = False
    terminal_label: str = None
    truncated: bool = False
    aborted: str = None  # diagnostic when the belief update failed
    total: float = 0.0

    def actions(self):
        return [r.action for r in self.records]

    def write_jsonl(self, fh: IO):
        for r in self.records:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")
        fh.write(json.dumps({f.name: getattr(self, f.name) for f in fields(self)
                             if f.name != "records"}, sort_keys=True) + "\n")

    def write_csv(self, fh: IO):
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "most_likely", "action", "provider", "reward", "cumulative"]
        )
        for r in self.records:
            top = r.belief[0][0] if r.belief else ""
            writer.writerow(
                [r.step, top, r.action, r.provider, repr(r.reward), repr(r.cumulative)]
            )

    def to_table(self) -> str:
        lines = ["step  provider  action                reward      cumulative"]
        for r in self.records:
            lines.append(
                f"{r.step:<5d} {r.provider:<9s} {r.action:<21s} "
                f"{r.reward:<11g} {r.cumulative:g}"
            )
        if self.terminal:
            lines.append(f"terminal: {self.terminal_label}")
        if self.truncated:
            lines.append("truncated: no further action available")
        if self.aborted:
            lines.append(f"aborted: {self.aborted}")
        lines.append(f"total reward: {self.total:g}")
        return "\n".join(lines)


def run_loop(
    plant,
    problem: Problem,
    provider,
    ser: SerPolicy = None,
    b0=None,
    max_steps: int = MAX_STEPS,
) -> LoopTrace:
    """Execute the loop until the terminal set is believed reached.

    ``plant`` must expose observe() and step(action) -> (observation,
    reward), an observation being a mapping of channel readings.  The
    belief starts at ``b0`` (default: point mass on the plant's current
    state) and is Bayes-updated after every step; the loop stops once
    its terminal mass reaches ``TERMINAL_BELIEF``.  An
    impossible observation aborts with the diagnostic recorded on the
    trace; a provider returning None (and no safety override) truncates.
    A running total past the float range raises ``ModelError``.
    """
    b = point_mass(problem.n_states, plant.state) if b0 is None else b0
    if not all(0 <= s < problem.n_states for s in b):
        raise ModelError("initial belief names a state outside the problem")
    validate_belief(b)
    obs = plant.observe()
    trace = LoopTrace()

    for step in range(max_steps + 1):
        s_hat = most_likely_state(b)
        if terminal_mass(b, problem.terminal) >= TERMINAL_BELIEF:
            trace.terminal = True
            trace.terminal_label = problem.state_labels[s_hat]
            return trace
        if step == max_steps:
            break
        proposed = provider.decide(problem, b, obs, step)
        action, tag = arbitrate(s_hat, obs, ser, proposed)
        if action is None:
            break
        summary = belief_summary(problem, b)
        obs, reward = plant.step(action)
        try:
            b = belief_update(problem, b, action, observation_index(problem, obs))
        except ImpossibleObservationError as exc:
            trace.aborted = str(exc)
            return trace
        trace.total += reward
        if not math.isfinite(trace.total):
            raise ModelError(
                f"reward overflow: the total after step {step} is "
                f"{trace.total!r}, past the float range"
            )
        trace.records.append(
            LoopRecord(
                step=step,
                belief=summary,
                action=problem.action_labels[action],
                provider=tag,
                observation=dict(obs),
                reward=reward,
                cumulative=trace.total,
            )
        )
    trace.truncated = True
    trace.terminal_label = problem.state_labels[most_likely_state(b)]
    return trace
