"""Finite decision problems and their solvers.

Holds the generic substrate used by every scenario: tabular MDP/POMDP
definitions, the one Bellman backup (``q_value``), policy evaluation,
value iteration, greedy policy extraction (stationary, or one rule per
level by backward induction), Bayesian belief updates, and open-loop
vs. closed-loop evaluation of fixed behaviors (a plan's value is its
open-loop expectation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Mapping

from .errors import (
    ImpossibleObservationError,
    InadmissibleActionError,
    IncompleteValueTableError,
    InvalidConfigError,
    ModelError,
    ResourceLimitError,
)

PROB_TOL = 1e-9
# Most policy entries the H+1 levels of ``extract_nonstationary`` may hold.
MAX_STAGE_ENTRIES = 2 * 10**6
# Most scenarios (leaves of the behavior tree) ``open_loop_expectation``
# may enumerate.
MAX_OPEN_LOOP_LEAVES = 10**5
# Rows a table export joins into one write.
_BLOCK_ROWS = 512

# A belief maps each state index in its support to its probability;
# states it leaves out have probability 0.
Belief = Mapping[int, float]


def _check_row(row, n, fields, what, *args):
    """Check a row over ``range(n)`` whose entries hold ``fields``, an
    index and its probability first; only an error formats ``what``."""
    total, width = 0.0, len(fields)
    for entry in row:
        if len(entry) != width:
            raise ModelError(f"{what.format(*args)}: entry {entry!r} is not "
                             f"({', '.join(fields)})")
        idx, p = entry[0], entry[1]
        if not (0 <= idx < n):
            raise ModelError(f"{what.format(*args)}: index {idx} out of range")
        if p < -PROB_TOL or p > 1 + PROB_TOL:
            raise ModelError(f"{what.format(*args)}: probability {p} outside [0, 1]")
        total += p
    if abs(total - 1.0) > PROB_TOL:
        raise ModelError(f"{what.format(*args)}: probabilities sum to {total}, "
                         "expected 1")


def _check_horizon(horizon, name, error=InvalidConfigError):
    """Raise ``error`` unless ``horizon`` is a non-negative int, not a bool."""
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 0:
        raise error(f"{name} must be a non-negative integer, got {horizon!r}")


def _horizon(problem, horizon, what):
    """``horizon``, else the problem's, checked as a count; ``what`` names
    the caller when neither is set."""
    if horizon is None:
        horizon = problem.horizon
    if horizon is None:
        raise InvalidConfigError(f"{what} needs a finite horizon")
    _check_horizon(horizon, "horizon")
    return horizon


@dataclass(frozen=True)
class Problem:
    """A finite decision problem.

    ``transitions`` maps each admissible (state, action) pair to one
    (s', p, r) triple per branch: ``a`` in ``s`` moves to ``s'`` with
    probability ``p`` and earns ``r``.  An action reward ``R(s, a)`` and
    an arrival reward ``rho(s, a, s')`` make ``r = R + gamma * rho``.
    Terminal states absorb: their one action self-loops with zero reward,
    so every solver values them at 0.  A ``horizon`` of H (None or a
    non-negative int) means H+1 actions, so its value is H+1 backups
    from the all-zero table.
    Observation rows are keyed by (successor, action); with
    ``observations=None`` the problem is fully observable and the
    observation index names the successor state.  Instances are
    validated on construction and immutable afterwards.
    """

    state_labels: tuple
    action_labels: tuple
    admissible: tuple  # per state: tuple of action indices
    transitions: Mapping  # (s, a) -> ((s', p, r), ...)
    terminal: frozenset = frozenset()
    gamma: float = 1.0
    horizon: int = None
    observation_labels: tuple = None
    observations: Mapping = None  # (s', a) -> ((o, p), ...)

    def __post_init__(self):
        n = len(self.state_labels)
        if n < 1:
            raise ModelError("state space must be non-empty")
        if len(self.admissible) != n:
            raise ModelError("admissible action list length != state count")
        if not (0.0 <= self.gamma <= 1.0):
            raise ModelError(f"gamma {self.gamma} outside [0, 1]")
        if self.horizon is not None:
            _check_horizon(self.horizon, "horizon", ModelError)
        if self.gamma == 1.0 and self.horizon is None:
            raise ModelError("gamma = 1 requires a bounded horizon")
        if not self.terminal <= set(range(n)):
            raise ModelError("terminal set is not a subset of the state space")
        terminal, n_actions = self.terminal, len(self.action_labels)
        row_of = self.transitions.get
        for s, acts in enumerate(self.admissible):
            if s in terminal:
                if len(acts) != 1:
                    raise ModelError(f"terminal state {s} must have exactly one action")
            elif len(acts) < 1:
                raise ModelError(f"non-terminal state {s} has no admissible action")
            for a in acts:
                if not (0 <= a < n_actions):
                    raise ModelError(f"action index {a} out of range at state {s}")
                row = row_of((s, a))
                if row is None:
                    raise ModelError(f"missing transition row for ({s}, {a})")
                _check_row(row, n, ("s'", "p", "r"), "T({},{},.)", s, a)
                for s2, _, r in row:
                    if not math.isfinite(r):
                        raise ModelError(f"reward non-finite for ({s}, {a}, {s2})")
                if s in terminal and (len(row) != 1 or row[0][0] != s):
                    raise ModelError(f"terminal state {s} must self-loop")
                if s in terminal and row[0][2] != 0.0:
                    raise ModelError(f"terminal state {s} must absorb with zero reward")
        if self.observations is not None:
            if self.observation_labels is None:
                raise ModelError("observations given without an observation alphabet")
            n_obs = len(self.observation_labels)
            for key, row in self.observations.items():
                _check_row(row, n_obs, ("o", "p"), "O{}", key)

    @property
    def n_states(self):
        return len(self.state_labels)

    def is_terminal(self, s):
        return s in self.terminal

    def require_admissible(self, s, a):
        if a not in self.admissible[s]:
            raise InadmissibleActionError(
                f"action {self.action_labels[a]!r} not admissible in "
                f"state {self.state_labels[s]!r}"
            )


def _csv_field(x) -> str:
    """``x`` as ``csv.writer`` writes it in the excel dialect: ``None`` as
    "", any other non-string as ``str(x)``, and quoted, with each ``"``
    doubled, exactly when it holds a comma, a quote, CR or LF."""
    if not isinstance(x, str):
        x = "" if x is None else str(x)
    if "," in x or '"' in x or "\r" in x or "\n" in x:
        return '"' + x.replace('"', '""') + '"'
    return x


def _write_pairs(fh: IO, header, rows):
    """Write ``header`` and then ``rows``, pairs of fields, byte for byte
    as ``csv.writer`` would, with one write per ``_BLOCK_ROWS`` rows."""
    rows = chain((header,), rows)
    while block := [f"{_csv_field(a)},{_csv_field(b)}\r\n"
                    for a, b in islice(rows, _BLOCK_ROWS)]:
        fh.write("".join(block))


@dataclass
class ValueTable:
    """State utilities plus solver metadata."""

    values: dict
    iterations: int = 0
    residual: float = math.inf
    residual_history: list = field(default_factory=list)

    def __getitem__(self, s):
        return self.values[s]

    def write_csv(self, problem: Problem, fh: IO):
        labels, values = problem.state_labels, self.values
        _write_pairs(fh, ("state", "value"),
                     ((labels[s], repr(values[s]))
                      for s in range(len(labels)) if s in values))


@dataclass
class Policy:
    """Tabular state -> action map with argmax tie metadata."""

    actions: dict
    ties: dict = field(default_factory=dict)

    def __getitem__(self, s):
        return self.actions[s]

    def write_csv(self, problem: Problem, fh: IO):
        labels, names, actions = (problem.state_labels, problem.action_labels,
                                  self.actions)
        _write_pairs(fh, ("state", "action"),
                     ((labels[s], names[actions[s]])
                      for s in range(len(labels)) if s in actions))


def point_mass(n_states: int, s: int) -> Belief:
    """All mass on ``s``; empty (and so invalid) when ``s`` is out of range."""
    return {s: 1.0} if 0 <= s < n_states else {}


def validate_belief(b: Belief):
    """Reject negative, NaN or infinite entries and sums other than 1."""
    probs = [b[s] for s in sorted(b)]
    if not all(p >= -PROB_TOL for p in probs):
        raise ModelError("belief has a negative or NaN entry")
    total = sum(probs, 0.0)
    if not abs(total - 1.0) <= PROB_TOL:
        raise ModelError(f"belief sums to {total}, expected 1")


def q_value(problem: Problem, s: int, a: int, values: Mapping) -> float:
    """One-step lookahead: sum over branches of p * (r + gamma * u(s'))."""
    problem.require_admissible(s, a)
    gamma, acc = problem.gamma, 0.0
    for s2, p, r in problem.transitions[(s, a)]:
        u2 = values[s2] if s2 in values else _missing(problem, s2)
        acc += p * (r + gamma * u2)
    return acc


def _missing(problem, s2):
    raise IncompleteValueTableError(
        f"no value for successor {problem.state_labels[s2]!r}"
    )


def _entry(problem, s, choice):
    """One policy entry at ``s`` as ((a, p), ...): an action index,
    "uniform" over ``admissible[s]``, or (a, p) pairs."""
    if choice == "uniform":
        acts = problem.admissible[s]
        return tuple((a, 1.0 / len(acts)) for a in acts)
    if isinstance(choice, int):
        return ((choice, 1.0),)
    return tuple(choice)


def _normalize_level(problem, level):
    """Turn one policy level into state -> ((a, p), ...)."""
    if isinstance(level, Policy):
        level = level.actions
    out = {}
    for s in range(problem.n_states):
        if s in problem.terminal:
            out[s] = ((problem.admissible[s][0], 1.0),)
            continue
        choice = level.get(s)
        if choice is None:
            raise InvalidConfigError(
                f"policy undefined for non-terminal state {problem.state_labels[s]!r}"
            )
        out[s] = _entry(problem, s, choice)
    return out


def evaluate_policy(problem: Problem, pi, t: int) -> ValueTable:
    """Expected utility of executing ``pi`` for ``t`` steps (t+1 actions).

    ``pi`` may be a Policy, a state->action dict, a state->((a, p), ...)
    dict for stochastic policies, or a sequence of t+1 of these applied
    level by level (nonstationary).
    """
    _check_horizon(t, "t")
    if isinstance(pi, (list, tuple)) and pi and isinstance(
        pi[0], (dict, Policy)
    ):
        if len(pi) != t + 1:
            raise InvalidConfigError(f"need {t + 1} policy levels, got {len(pi)}")
        levels = [_normalize_level(problem, lv) for lv in pi]
    else:
        levels = [_normalize_level(problem, pi)] * (t + 1)

    u = dict.fromkeys(range(problem.n_states), 0.0)
    for level in reversed(levels):
        u = {
            s: sum(pa * q_value(problem, s, a, u) for a, pa in level[s])
            for s in range(problem.n_states)
        }
    return ValueTable(values=u, iterations=t + 1, residual=0.0)


def _sweep(problem: Problem, u: Mapping) -> dict:
    """One Bellman backup of every state against the table ``u``."""
    return {
        s: max(q_value(problem, s, a, u) for a in problem.admissible[s])
        for s in range(problem.n_states)
    }


def run_walk(walk):
    """Run a recursive generator to its return value without recursing.

    ``walk`` is written as the plain recursive function it describes,
    with ``yield walk(...)`` in place of each recursive call; that yield
    evaluates to the call's return value.  The driver keeps the pending
    calls on a list, so a walk may go deeper than the recursion limit.
    """
    stack = [walk]
    value = None
    while stack:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(call)
            value = None
    return value


class _NoBackwardPass(Exception):
    """The non-terminal states form a cycle, or a path longer than the horizon."""


def _backward_pass(problem: Problem, horizon: int) -> dict:
    """Every state's value from one backup each, children first, with
    terminals at 0.0; raises ``_NoBackwardPass`` unless every path takes
    at most ``horizon + 1`` actions."""
    terminal = problem.terminal
    u = dict.fromkeys(terminal, 0.0)
    # Longest remaining path in actions; infinite while the state is on
    # the walk's path, so a cycle fails the same check as a long path.
    depth = {}

    def backup(s):
        depth[s] = math.inf
        longest = 0
        for a in problem.admissible[s]:
            for s2, _, _ in problem.transitions[(s, a)]:
                if s2 in terminal:
                    continue
                if s2 not in depth:
                    yield backup(s2)
                longest = max(longest, depth[s2])
                if longest > horizon:
                    raise _NoBackwardPass
        depth[s] = longest + 1
        u[s] = max(q_value(problem, s, a, u) for a in problem.admissible[s])

    for s in range(problem.n_states):
        if s not in depth and s not in terminal:
            run_walk(backup(s))
    return {s: u[s] for s in range(problem.n_states)}  # sweeps' key order


def value_iterate(problem: Problem, horizon: int = None,
                  epsilon: float = None) -> ValueTable:
    """Optimal utilities by value iteration.

    Stop either after a fixed number of sweeps (finite horizon) or when
    the sup-norm residual drops below ``epsilon`` (requires gamma < 1).
    Defaults to the problem horizon when set, otherwise epsilon = 1e-9.
    A horizon-H value is H+1 backups from the all-zero table: the first
    values the final action alone, and the H after it are the sweeps
    counted in ``iterations`` and ``residual_history``.

    With a horizon, a problem whose non-terminal states form no cycle
    and whose longest path takes at most H+1 actions is solved by one
    backward pass instead: each state is backed up once, children first,
    with terminals at 0.0.  Every state then already holds its value
    after H+1 sweeps, bit for bit.  That table reports ``iterations=1``,
    ``residual=0.0`` and an empty ``residual_history``.

    A table holding a value that is not finite raises ``ModelError``:
    rewards are finite, so only a sum past the float range makes one.
    A horizon other than a non-negative int, an ``epsilon`` other than a
    positive finite number, or both at once raise ``InvalidConfigError``.
    """
    if horizon is not None:
        _check_horizon(horizon, "horizon")
        if epsilon is not None:
            raise InvalidConfigError("give a horizon or an epsilon, not both")
    if epsilon is not None:
        if (isinstance(epsilon, bool) or not isinstance(epsilon, (int, float))
                or not 0 < epsilon < math.inf):
            raise InvalidConfigError(
                f"epsilon must be a positive finite number, got {epsilon!r}")
    elif horizon is None:
        if problem.horizon is not None:
            horizon = problem.horizon
        else:
            epsilon = 1e-9
    if horizon is None and problem.gamma >= 1.0:
        raise InvalidConfigError("residual stopping requires gamma < 1")

    if horizon is not None:
        try:
            return ValueTable(_finite(problem, _backward_pass(problem, horizon)),
                              iterations=1, residual=0.0)
        except _NoBackwardPass:
            pass

    u = dict.fromkeys(range(problem.n_states), 0.0)
    if horizon is not None:
        u = _sweep(problem, u)  # the final action alone
    history = []
    residual = math.inf
    while (len(history) < horizon) if horizon is not None else (residual > epsilon):
        nxt = _sweep(problem, u)
        residual = max(abs(nxt[s] - u[s]) for s in nxt)
        history.append(residual)
        u = nxt
        if residual == 0.0:
            break  # exact fixed point; further sweeps are identity
        if horizon is None and len(history) > 10**6:
            raise InvalidConfigError("value iteration failed to converge")
    return ValueTable(_finite(problem, u), iterations=len(history),
                      residual=residual, residual_history=history)


def _finite(problem: Problem, u: dict) -> dict:
    """``u``, unless some value in it overflowed the float range."""
    if not all(map(math.isfinite, u.values())):
        s = next(s for s, v in u.items() if not math.isfinite(v))
        raise ModelError(
            f"value overflow: state {problem.state_labels[s]!r} is worth "
            f"{u[s]!r}, as its rewards sum past the float range"
        )
    return u


def extract_policy(problem: Problem, u) -> Policy:
    """Greedy policy w.r.t. a value table; ties go to the lowest action index."""
    values = u.values if isinstance(u, ValueTable) else u
    actions, ties = {}, {}
    for s in range(problem.n_states):
        best, best_q = None, -math.inf
        tied = []
        for a in sorted(problem.admissible[s]):
            q = q_value(problem, s, a, values)
            if q > best_q + 1e-12:
                best, best_q, tied = a, q, [a]
            elif abs(q - best_q) <= 1e-12:
                tied.append(a)
        actions[s] = best
        if len(tied) > 1:
            ties[s] = tuple(tied)
    return Policy(actions=actions, ties=ties)


def extract_nonstationary(problem: Problem, horizon: int = None) -> list:
    """Greedy per-level policies for a horizon of H (default the
    problem's), first level first, by backward induction: the last level
    acts against the all-zero table and each level before it against one
    more sweep.  H+1 levels of more than ``MAX_STAGE_ENTRIES`` entries
    raise ``ResourceLimitError`` before the first sweep, and a swept
    value that is not finite raises ``ModelError``."""
    horizon = _horizon(problem, horizon, "nonstationary extraction")
    if (horizon + 1) * problem.n_states > MAX_STAGE_ENTRIES:
        raise ResourceLimitError(
            f"{horizon + 1} stages of {problem.n_states} states "
            f"exceed {MAX_STAGE_ENTRIES} policy entries"
        )
    u = dict.fromkeys(range(problem.n_states), 0.0)
    levels = [extract_policy(problem, u)]
    for _ in range(horizon):
        u = _finite(problem, _sweep(problem, u))
        levels.append(extract_policy(problem, u))
    return levels[::-1]


def belief_update(problem: Problem, b: Belief, a: int, o: int) -> Belief:
    """Bayes update: b'(s') proportional to O(s',a,o) * sum_s T(s,a,s') b(s).

    Without an observation model ``o`` names the successor state, so the
    result is the point mass on it.  Otherwise the result holds the
    predicted states that explain ``o``, in ascending state order.
    """
    pred = {}
    for s in sorted(b):
        bs = b[s]
        if bs <= 0.0:
            continue
        problem.require_admissible(s, a)
        for s2, p, _ in problem.transitions[(s, a)]:
            pred[s2] = pred.get(s2, 0.0) + p * bs
    if problem.observations is None:
        if pred.get(o, 0.0) > 0.0:
            return {o: 1.0}
        labels = problem.state_labels
    else:
        post = {}
        for s2 in sorted(pred):
            if pred[s2] <= 0.0:
                continue
            like = 0.0
            for oi, p in problem.observations.get((s2, a), ()):
                if oi == o:
                    like += p
            if like != 0.0:
                post[s2] = like * pred[s2]
        z = sum(post.values())
        if z > 0.0:
            return {s2: x / z for s2, x in post.items()}
        labels = problem.observation_labels
    label = labels[o] if 0 <= o < len(labels) else o
    raise ImpossibleObservationError(
        f"observation {label!r} has zero probability "
        f"after action {problem.action_labels[a]!r}"
    )


def _behavior_next(problem, behavior, s, plan_pos):
    """Action distribution at s for a plan / policy / 'uniform' behavior."""
    if behavior == "uniform" or behavior is None:
        return _entry(problem, s, "uniform"), plan_pos
    if isinstance(behavior, Policy):
        behavior = behavior.actions
    if isinstance(behavior, Mapping):
        return _entry(problem, s, behavior.get(s, "uniform")), plan_pos
    # Plan: a fixed action sequence.
    if plan_pos >= len(behavior):
        return None, plan_pos
    return [(behavior[plan_pos], 1.0)], plan_pos + 1


def open_loop_expectation(problem: Problem, s0: int, behavior, horizon: int = None):
    """Expected cumulative reward of a fixed behavior, with no
    observation-conditioned branching, plus the full scenario list.

    ``behavior`` is a plan (sequence of action indices), a policy mapping
    (missing states fall back to uniform-random), or "uniform".  Returns
    (expectation, [(probability, total reward), ...]); a plan's value is
    the expectation with ``horizon=len(plan)``.  A walk that
    reaches more than ``MAX_OPEN_LOOP_LEAVES`` scenarios raises
    ``ResourceLimitError`` as it reaches the first one past the cap.
    """
    horizon = _horizon(problem, horizon, "open-loop enumeration")

    leaves = []

    def walk(s, depth, prob, total, disc, plan_pos):
        dist = None
        if not problem.is_terminal(s) and depth <= horizon:
            dist, plan_pos = _behavior_next(problem, behavior, s, plan_pos)
        if dist is None:  # a terminal, the horizon or the plan's end
            if len(leaves) == MAX_OPEN_LOOP_LEAVES:
                raise ResourceLimitError(
                    f"open-loop enumeration exceeded {MAX_OPEN_LOOP_LEAVES} scenarios"
                )
            leaves.append((prob, total))
            return
        for a, pa in dist:
            if pa <= 0.0:
                continue
            problem.require_admissible(s, a)
            for s2, p, r in problem.transitions[(s, a)]:
                if p <= 0.0:
                    continue
                yield walk(s2, depth + 1, prob * pa * p, total + disc * r,
                           disc * problem.gamma, plan_pos)

    run_walk(walk(s0, 0, 1.0, 0.0, 1.0, 0))
    merged = {}
    for prob, total in leaves:
        key = round(total, 9)
        merged[key] = merged.get(key, 0.0) + prob
    scenarios = sorted(((p, t) for t, p in merged.items()), key=lambda x: -x[1])
    expected = sum(p * t for p, t in leaves)
    return expected, scenarios


def closed_loop_value(problem: Problem, s0: int, horizon: int = None) -> float:
    """Expected cumulative reward when actions condition on everything
    observed so far, by exhaustive expectimax.

    Fully observable problems (no observation model) are solved by value
    iteration; otherwise the expectimax walks the beliefs reachable under
    the observation model depth first.
    """
    horizon = _horizon(problem, horizon, "closed-loop evaluation")
    if problem.observations is None:
        return value_iterate(problem, horizon)[s0]

    memo = {}
    zeros = dict.fromkeys(range(problem.n_states), 0.0)

    def belief_value(b, lv):
        """Value of belief ``b`` with ``lv`` levels left."""
        states = sorted(b)
        support = [s for s in states if b[s] > PROB_TOL]
        if lv == 0 or all(problem.is_terminal(s) for s in support):
            return 0.0
        rounded = [(s, round(b[s], 12)) for s in states]
        key = (tuple((s, r) for s, r in rounded if r != 0.0), lv)
        if key in memo:
            return memo[key]
        acts = set(problem.admissible[support[0]])
        for s in support[1:]:
            acts &= set(problem.admissible[s])
        if not acts:
            raise ModelError("no action admissible across the belief support")
        best = -math.inf
        for a in sorted(acts):
            # Expected reward of this step.
            now = sum(b[s] * q_value(problem, s, a, zeros) for s in support)
            # Probability of each observation under (b, a).
            obs_p = {}
            for s in support:
                for s2, p, _ in problem.transitions[(s, a)]:
                    for o, po in problem.observations.get((s2, a), ()):
                        obs_p[o] = obs_p.get(o, 0.0) + b[s] * p * po
            future = 0.0
            for o in sorted(obs_p):
                if obs_p[o] <= PROB_TOL:
                    continue
                b2 = belief_update(problem, b, a, o)
                future += obs_p[o] * (yield belief_value(b2, lv - 1))
            best = max(best, now + problem.gamma * future)
        memo[key] = best
        return best

    return run_walk(belief_value(point_mass(problem.n_states, s0), horizon + 1))
