"""Classical separated health-management pipeline.

Threshold-based fault detection, rule-table diagnosis, linear-rate fault
prognosis, mitigation selection with operational constraints, and the
commit-once route choice used by the decision-support comparison
strategy.  The pipeline is deliberately myopic: once a route or a
mitigation is committed to, it is not revisited.
"""
import operator
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from .errors import EscalationRequired, InvalidConfigError
from .model import Problem, open_loop_expectation

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}
# The comparators that order a channel's value against the limit, so the
# channel must hold a number.
ORDERING = frozenset({">", ">=", "<", "<="})


@dataclass(frozen=True)
class ThresholdPredicate:
    """Fires when ``channel <op> limit``; an optional guard restricts it
    to observations whose guard channels match exactly."""

    channel: str
    op: Literal[tuple(_OPS)]
    limit: float
    when: Mapping = None

    def fires(self, obs: Mapping) -> bool:
        if self.op not in _OPS:
            raise InvalidConfigError(f"unknown comparator {self.op!r}")
        if self.channel not in obs:
            raise InvalidConfigError(f"unknown channel {self.channel!r}")
        if self.when:
            for ch, expected in self.when.items():
                if ch not in obs:
                    raise InvalidConfigError(f"unknown guard channel {ch!r}")
                if obs[ch] != expected:
                    return False
        value = obs[self.channel]
        if value is None:
            return False
        return _OPS[self.op](value, self.limit)


def detect(predicates: Sequence, obs: Mapping) -> tuple:
    """The red-line predicates that fire on ``obs``, in order.  Every one
    is evaluated, so a bad channel fails even after another has fired."""
    return tuple(p for p in predicates if p.fires(obs))


@dataclass(frozen=True)
class FaultDescriptor:
    component: str
    mode: str
    parameters: Mapping = field(default_factory=dict)
    probability: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise InvalidConfigError("fault probability must be in [0, 1]")


@dataclass(frozen=True)
class DiagnosisRule:
    """Maps a fired predicate's channel to a fault descriptor template."""

    channel: str
    component: str
    mode: str
    parameters: Mapping = field(default_factory=dict)
    probability: float = 1.0


UNKNOWN_FAULT = FaultDescriptor(component="unknown", mode="unknown", probability=0.0)


def diagnose(rules: Sequence, obs: Mapping, fired) -> list:
    """Rule-table lookup from fired predicates to fault descriptors.

    Unmatched predicates produce the zero-probability unknown-fault
    descriptor, which downstream gates treat as an escalation trigger.
    """
    out = []
    for pred in fired:
        matched = False
        for rule in rules:
            if rule.channel == pred.channel:
                out.append(
                    FaultDescriptor(
                        component=rule.component,
                        mode=rule.mode,
                        parameters=dict(rule.parameters),
                        probability=rule.probability,
                    )
                )
                matched = True
        if not matched:
            out.append(UNKNOWN_FAULT)
    return out


def prognose_fault(descriptor: FaultDescriptor, obs: Mapping):
    """Linear extrapolation to the damage limit: (limit - current) / rate.

    The descriptor must carry ``rate``, ``channel`` and ``limit``
    parameters; returns None (no prognosis) when the rate is not positive.
    """
    rate = descriptor.parameters.get("rate")
    channel = descriptor.parameters.get("channel")
    limit = descriptor.parameters.get("limit")
    if rate is None or channel is None or limit is None:
        return None
    if rate <= 0:
        return None
    return max(0.0, (limit - obs[channel]) / rate)


@dataclass(frozen=True)
class MitigationRule:
    fault_mode: str
    action: str
    constraints: Mapping = field(default_factory=dict)
    priority: int = 0


def select_recovery(
    descriptors: Sequence,
    rul_hours,
    rules: Sequence,
    min_probability: float = 0.0,
):
    """Highest-priority matching mitigation for the diagnosed faults.

    Descriptors below ``min_probability`` are ignored (the pipeline's
    confidence gate); no matching rule means operator escalation.
    """
    if not descriptors:
        raise EscalationRequired("no fault descriptors to mitigate")
    candidates = []
    for d in descriptors:
        if d.probability < min_probability or d is UNKNOWN_FAULT:
            continue
        for rule in rules:
            if rule.fault_mode == d.mode:
                candidates.append(rule)
    if not candidates:
        raise EscalationRequired(
            "no mitigation rule matches " + ", ".join(d.mode for d in descriptors)
        )
    best = max(candidates, key=lambda r: r.priority)
    return best.action, dict(best.constraints)


@dataclass(frozen=True)
class ShmRules:
    """A scenario's rule tables for the separated pipeline, typed at load."""

    detectors: tuple[ThresholdPredicate, ...] = ()
    diagnosis: tuple[DiagnosisRule, ...] = ()
    mitigations: tuple[MitigationRule, ...] = ()
    min_probability: float = 0.0


def phm_route_choice(problem: Problem, route_policies: Mapping):
    """Commit to the route with the best open-loop expectation.

    ``route_policies`` maps route id to a (possibly partial) state ->
    action policy; interior decisions left unmapped are uniform-random.
    Rewards are negated energy, so maximizing reward minimizes expected
    energy.  Ties break toward the first-listed route.  Returns
    (route_id, {route_id: expectation}).
    """
    if not route_policies:
        raise InvalidConfigError("no routes to choose from")
    expectations = {}
    best_id, best_val = None, None
    for route_id, (start, policy) in route_policies.items():
        value, _ = open_loop_expectation(problem, start, policy)
        expectations[route_id] = value
        if best_val is None or value > best_val + 1e-12:
            best_id, best_val = route_id, value
    return best_id, expectations
