"""Compile a rover scenario into a finite decision problem.

Time is event-driven: a state is taken at segment/activity boundaries
and carries position, mission time, battery charge, motor temperature,
activity status, and the terrain classes revealed so far.  Drives,
science activities and cools advance time, battery and motor
temperature through one step, ``_Compiler._step``; a charge ends at
capacity.  Each stochastic row (a terrain reveal or an activity redo
outcome) resolves one scenario random variable;
``CompiledScenario.outcomes`` names it and the value each successor
stands for, so a plant can pin the row to a hidden ground truth.

Each branch ``(s', p, r)`` of a row carries its reward: the negated
energy it spends plus the terminal value of the status it ends in, so
realized per-step rewards match the executed branch exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from ..errors import InvalidConfigError, ResourceLimitError
from ..model import Problem, ValueTable
from ..shm import ORDERING
from .spec import ScenarioSpec

_TOL = 1e-9

OK = "ok"
COMPLETE = "complete"
STRANDED = "stranded"
MOTOR_FAILURE = "motor_failure"
DEADLINE_MISSED = "deadline_missed"
STUCK = "stuck"

# What an action does to the motor temperature in ``_Compiler._step``.
_HEAT = "heat"
_COOL = "cool"


def _round(x):
    return round(x, 6)


class RoverState(NamedTuple):
    """One compiled state: every component named, all units explicit.

    ``science`` holds one status per declared activity and ``terrain``
    one class (None until revealed) per declared region, both in the
    spec's declaration order; ``_Compiler.label`` and ``_channels`` take
    their ids from the spec.
    """

    position: str
    time_h: float = 0.0
    battery_wh: Optional[float] = None
    temp_c: Optional[float] = None
    science: tuple = ()  # "todo" | "redo" | "done", per activity
    terrain: tuple = ()  # class or None, per region
    status: str = OK


class _Branch(NamedTuple):
    state: RoverState
    prob: float
    assign: Optional[tuple] = None  # (rv name, value) when stochastic
    energy_wh: float = 0.0


def _channels(spec: ScenarioSpec, st: RoverState, s: int) -> dict:
    """The observation channels of state ``s``: its components under
    unit-bearing names, its index and whether it is at a charge point.
    The keys, and which values are numbers, depend only on the spec."""
    built = {"waypoint": st.position, "time_h": _round(st.time_h)}
    if st.battery_wh is not None:
        built["battery_wh"] = _round(st.battery_wh)
    if st.temp_c is not None:
        built["motor_temp_c"] = _round(st.temp_c)
    built.update((f"science:{a.id}", x) for a, x in zip(spec.activities, st.science))
    built.update((f"terrain:{r.id}", c) for r, c in zip(spec.regions, st.terrain))
    built["status"] = st.status
    built["state_index"] = s
    built["at_charge_point"] = (
        st.status == OK and spec.waypoint(st.position).charge_point
    )
    return built


@dataclass
class CompiledScenario:
    """A scenario compiled to a Problem plus the labeling metadata.

    ``table`` and ``route_choice`` hold the problem's optimal utilities
    and the ``phm-commit`` route choice once a provider has computed them;
    later providers on this object reuse them.  ``channel_cache`` holds
    each state's observation channels once a plant has visited it.
    ``episode_tries`` holds the episode totals that
    ``hadm.strategies.episode_total`` has computed, one trie per
    (strategy, seed or None).
    """

    spec: ScenarioSpec
    problem: Problem
    states: list
    initial_state: int
    rv_defs: dict  # rv name -> {value: probability}
    outcomes: dict  # stochastic (s, a) -> (rv, value per transitions row)
    action_index: dict  # action label -> action index
    targets: tuple  # per action: its Segment or Activity, else None
    cool_action: Optional[int]  # index of the cool action, if declared
    table: ValueTable = field(default=None, init=False, repr=False, compare=False)
    route_choice: tuple = field(default=None, init=False, repr=False, compare=False)
    channel_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    episode_tries: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def action(self, label: str) -> int:
        if label not in self.action_index:
            raise InvalidConfigError(f"unknown action {label!r}")
        return self.action_index[label]

    def channels(self, s: int) -> Mapping:
        """Observation channels exposed by the plant for state ``s``.

        Built on the first request and shared by every later one, so the
        mapping is read-only.
        """
        ch = self.channel_cache.get(s)
        if ch is None:
            built = _channels(self.spec, self.states[s], s)
            ch = self.channel_cache[s] = MappingProxyType(built)
        return ch

    def route_policy(self, route_id: str):
        """(start state, partial state->action policy) for a declared route."""
        if route_id not in self.route_policies:
            raise InvalidConfigError(f"unknown route {route_id!r}")
        return self.initial_state, self.route_policies[route_id]

    @cached_property
    def route_policies(self) -> dict:
        """Route id -> the route's moves as a state -> action policy."""
        return {r.id: self._move_policy(r.moves) for r in self.spec.routes}

    @cached_property
    def abort_policy(self) -> dict:
        """The abort plan as a state -> action policy."""
        return self._move_policy(self.spec.abort_plan)

    def _move_policy(self, moves: Mapping) -> dict:
        """The one reader of a waypoint -> move table: each OK state at a
        waypoint it names maps to the move's action where that is
        admissible, or to "uniform" where the table leaves the move open."""
        policy = {}
        for s, st in enumerate(self.states):
            move = moves.get(st.position) if st.status == OK else None
            a = self.action_index.get(move, move)  # "uniform" stays itself
            if a == "uniform" or a in self.problem.admissible[s]:
                policy[s] = a
        return policy


class _Compiler:
    def __init__(self, spec: ScenarioSpec):
        if spec.kind != "rover" or spec.mission is None:
            raise InvalidConfigError("only rover scenarios with a mission compile")
        self.spec = spec
        regions = {r.id: i for i, r in enumerate(spec.regions)}
        activities = {a.id: i for i, a in enumerate(spec.activities)}
        self.required = tuple(activities[a] for a in spec.mission.require_activities)
        # One row per action index: (label, effect, target), where the
        # effect expands a state under the action and the target is the
        # action's Segment or Activity (None for the others).  Each effect
        # is bound to the decoded action: its target, the target's
        # position in ``RoverState.terrain`` or ``.science``, and its load
        # in watts.  Per waypoint, ``drives`` lists its drive actions and
        # ``sciences`` (action, activity position) for its science actions,
        # in action order.
        self.actions = []
        self.drives = {wp.id: [] for wp in spec.waypoints}
        self.sciences = {wp.id: [] for wp in spec.waypoints}
        drive_w = spec.power.drive_w if spec.power else 0.0
        for seg in spec.segments:
            self.drives[seg.frm].append(len(self.actions))
            effect = partial(self._drive, seg, regions.get(seg.region), drive_w)
            self.actions.append((f"drive:{seg.id}", effect, seg))
        for i, act in enumerate(spec.activities):
            self.sciences[act.waypoint].append((len(self.actions), i))
            effect = partial(self._science, act, i)
            self.actions.append((f"science:{act.id}", effect, act))
        self.charge = self.cool = None
        if spec.actions.allow_charge:
            self.charge = len(self.actions)
            self.actions.append(("charge_to_full", self._charge, None))
        if spec.actions.cool_grid_h is not None:
            self.cool = len(self.actions)
            self.actions.append(
                (f"cool:{_round(spec.actions.cool_grid_h)}h", self._cool, None)
            )
        self.stay = len(self.actions)  # no effect: compile records its rows
        self.actions.append(("stay", None, None))
        # Label parts: "|id=" per activity, "|id=class" per region and class.
        self.science_keys = tuple(f"|{a.id}=" for a in spec.activities)
        self.terrain_parts = tuple(
            {c: f"|{r.id}={c or '?'}" for c in (None, *r.classes)}
            for r in spec.regions)

    def initial_state(self) -> RoverState:
        spec = self.spec
        return RoverState(
            position=spec.mission.start,
            time_h=0.0,
            battery_wh=spec.battery.initial_wh if spec.battery else None,
            temp_c=spec.thermal.nominal_c if spec.thermal else None,
            science=("todo",) * len(spec.activities),
            terrain=(None,) * len(spec.regions),
        )

    def label(self, st: RoverState) -> str:
        """The state's label: its components, rounded, joined by "|"."""
        out = f"{st.position}|t={_round(st.time_h)}"
        if st.battery_wh is not None:
            out += f"|b={_round(st.battery_wh)}"
        if st.temp_c is not None:
            out += f"|T={_round(st.temp_c)}"
        out += "".join(map(str.__add__, self.science_keys, st.science))
        out += "".join(map(dict.__getitem__, self.terrain_parts, st.terrain))
        return out if st.status == OK else f"{out}|{st.status}"

    def finalize(self, st: RoverState) -> RoverState:
        """Classify a fresh state: completion, deadline, or a dead end."""
        if st.status != OK:
            return st
        m = self.spec.mission
        if st.position == m.goal and all(
                st.science[i] == "done" for i in self.required):
            if m.deadline_h is None or st.time_h <= m.deadline_h + _TOL:
                return RoverState(*st[:-1], COMPLETE)
        if m.deadline_h is not None and st.time_h >= m.deadline_h - _TOL:
            return RoverState(*st[:-1], DEADLINE_MISSED)
        # A dead end with the mission incomplete absorbs as "stuck".
        if not self.admissible_actions(st):
            return RoverState(*st[:-1], STUCK)
        return st

    def terminal_value(self, st: RoverState) -> float:
        rc = self.spec.reward
        if st.status == COMPLETE:
            v = rc.complete_bonus
            if rc.terminal_battery:
                v += st.battery_wh
            if rc.time_margin_bonus:
                v += self.spec.mission.deadline_h - st.time_h
            return v
        if st.status == STRANDED:
            v = rc.stranded_penalty
            if rc.terminal_battery:
                v += st.battery_wh
            return v
        if st.status == MOTOR_FAILURE:
            return rc.motor_failure_penalty
        if st.status == DEADLINE_MISSED:
            return rc.deadline_missed_penalty
        if st.status == STUCK:
            # Dead ends with the mission incomplete collect nothing.
            return 0.0
        raise InvalidConfigError(f"no terminal value for status {st.status!r}")

    # Action expansion ----------------------------------------------------

    def admissible_actions(self, st: RoverState):
        """The actions of an ``ok`` state, in action order."""
        out = list(self.drives[st.position])
        out += [a for a, i in self.sciences[st.position] if st.science[i] != "done"]
        if self.charge is not None and self._charge_hours(st) is not None:
            out.append(self.charge)
        if self.cool is not None:
            out.append(self.cool)
        return out

    def _step(self, st, hours, watts, energy_wh=None, motor=None,
              position=None, science=None, terrain=None):
        """``st`` after an action of ``hours`` that draws ``watts``, moved to
        ``position`` and with ``science`` and ``terrain`` where they are
        given: the one place where time, battery and motor temperature
        advance.

        The battery pays ``energy_wh`` when it is given, is integrated
        over the sunlit and dark parts of the action under a ``power``
        section, and is otherwise only rounded (a cool leaves it as it
        is).  ``motor`` is ``_HEAT``, ``_COOL`` or None.  A battery below
        zero strands the rover and a motor at its limit fails, which wins.
        """
        spec = self.spec
        status = OK
        b = st.battery_wh
        if b is not None:
            cap = spec.battery.capacity_wh
            if energy_wh is not None:
                b = _round(min(b - energy_wh, cap))
                if b < -_TOL:
                    status = STRANDED
            elif spec.power is not None:
                p, t0, end = spec.power, st.time_h, st.time_h + hours
                sun, dark = (p.solar_w, 0.0), (0.0, p.heater_w)
                if end <= p.sunlight_until_h:
                    pieces = ((hours, sun),)
                elif t0 >= p.sunlight_until_h:
                    pieces = ((hours, dark),)
                else:
                    pieces = ((p.sunlight_until_h - t0, sun),
                              (end - p.sunlight_until_h, dark))
                for h, (solar, heater) in pieces:
                    b += (solar - watts - heater) * h
                    if b < -_TOL:
                        status = STRANDED
                    elif b > cap:
                        b = cap
                b = _round(b)
            elif motor != _COOL:
                b = _round(min(b, cap))
        temp = st.temp_c
        if temp is not None and motor is not None:
            th = spec.thermal
            if motor == _HEAT:
                temp += th.heat_rate_c_per_h * hours
                if temp >= th.limit_c - _TOL:
                    status = MOTOR_FAILURE
            else:
                temp = max(th.nominal_c, float(temp) - th.cool_rate_c_per_h * hours)
            temp = _round(temp)
        return RoverState(st.position if position is None else position,
                          _round(st.time_h + hours), b, temp, science or st.science,
                          terrain or st.terrain, status)

    def _charge_hours(self, st):
        """Hours to charge to full from ``st``; None where charging is not
        admissible: no charger or charge rate, a full battery, or a charge
        that would end after sunset."""
        spec, battery = self.spec, self.spec.battery
        if not (
            battery and battery.charge_rate_w
            and spec.waypoint(st.position).charge_point
            and st.battery_wh < battery.capacity_wh - _TOL
        ):
            return None
        hours = (battery.capacity_wh - st.battery_wh) / battery.charge_rate_w
        if spec.power is None or st.time_h + hours <= spec.power.sunlight_until_h:
            return hours
        return None

    def _drive(self, seg, region, watts, st):
        """One branch per terrain class the drive may reveal."""
        if seg.terrain is not None or region is None:
            branches = [(1.0, seg.terrain, None, st.terrain)]
        elif st.terrain[region] is not None:
            branches = [(1.0, st.terrain[region], None, st.terrain)]
        else:
            rv = f"terrain:{seg.region}"
            classes = self.spec.regions[region].classes
            before, after = st.terrain[:region], st.terrain[region + 1:]
            branches = [(p, c, (rv, c), before + (c,) + after)
                        for c, p in classes.items()]
        motor = _HEAT if seg.heats_motor else None
        out = []
        for prob, cls, assign, terrain in branches:
            energy = None
            if seg.energy_wh is not None:
                if cls not in seg.energy_wh:
                    raise InvalidConfigError(
                        f"segment {seg.id!r} has no energy for terrain {cls!r}"
                    )
                energy = seg.energy_wh[cls]
            nxt = self._step(st, seg.duration_h, watts, energy, motor,
                             position=seg.to, terrain=terrain)
            out.append(_Branch(nxt, prob, assign, 0.0 if energy is None else energy))
        return out

    def _science(self, act, i, st):
        before, after = st.science[:i], st.science[i + 1:]
        done = self._step(st, act.duration_h, act.load_w,
                          science=before + ("done",) + after)
        if st.science[i] == "redo" or act.redo_prob <= 0.0:
            return [_Branch(done, 1.0)]
        rv = f"redo:{act.id}"
        redo = RoverState(done.position, done.time_h, done.battery_wh, done.temp_c,
                          before + ("redo",) + after, done.terrain, done.status)
        return [
            _Branch(done, 1.0 - act.redo_prob, (rv, "false")),
            _Branch(redo, act.redo_prob, (rv, "true")),
        ]

    def _charge(self, st):
        nxt = RoverState(st.position, _round(st.time_h + self._charge_hours(st)),
                         self.spec.battery.capacity_wh, st.temp_c, st.science,
                         st.terrain)
        return [_Branch(nxt, 1.0)]

    def _cool(self, st):
        nxt = self._step(st, self.spec.actions.cool_grid_h, 0.0, motor=_COOL)
        return [_Branch(nxt, 1.0)]


def _check_action_labels(spec: ScenarioSpec, action_index: Mapping):
    """Plan entries, abort and route moves (or "uniform" in a route) and
    mitigation actions (or "stop_and_cool_down") must name compiled actions,
    and abort and route keys waypoints; the error names the field."""
    waypoints = {wp.id for wp in spec.waypoints}
    tables = [("abort_plan", spec.abort_plan, ())]
    tables += [(f"routes[{i}].moves", r.moves, ("uniform",))
               for i, r in enumerate(spec.routes)]
    named = [(f"nominal_plan[{i}]", m, ()) for i, m in enumerate(spec.nominal_plan)]
    for table, moves, free in tables:
        for wp, m in moves.items():
            if wp not in waypoints:
                raise InvalidConfigError(f"$.{table}.{wp}: unknown waypoint {wp!r}")
            named.append((f"{table}.{wp}", m, free))
    named += [(f"shm_rules.mitigations[{i}].action", r.action, ("stop_and_cool_down",))
              for i, r in enumerate(spec.shm_rules.mitigations)]
    for name, label, free in named:
        if label not in action_index and label not in free:
            raise InvalidConfigError(f"$.{name}: unknown action {label!r}")


def _check_channels(spec: ScenarioSpec, channels: Mapping):
    """Detector channels and guard keys, and diagnosis channels and
    ``parameters.channel`` values, must be keys of ``channels``; an
    ordering detector and a ``parameters.channel`` need a channel whose
    value is a number.  A diagnosis ``parameters.rate`` and ``.limit``
    must be numbers (or null, which prognosis reads as absent) and a
    mitigation ``constraints.grades`` an array of strings.  The error
    names the field."""
    rules = spec.shm_rules
    named = []
    for i, pred in enumerate(rules.detectors):
        named.append((f"detectors[{i}].channel", pred.channel, pred.op in ORDERING))
        named += [(f"detectors[{i}].when.{key}", key, False) for key in pred.when or {}]
    for i, rule in enumerate(rules.diagnosis):
        named.append((f"diagnosis[{i}].channel", rule.channel, False))
        if "channel" in rule.parameters:
            named.append((f"diagnosis[{i}].parameters.channel",
                          rule.parameters["channel"], True))
    for name, channel, numeric in named:
        if not isinstance(channel, str) or channel not in channels:
            raise InvalidConfigError(
                f"$.shm_rules.{name}: unknown channel {channel!r}"
            )
        if numeric and not isinstance(channels[channel], (int, float)):
            raise InvalidConfigError(
                f"$.shm_rules.{name}: channel {channel!r} is not numeric"
            )
    for i, rule in enumerate(rules.diagnosis):
        for key in ("rate", "limit"):
            value = rule.parameters.get(key)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise InvalidConfigError(
                    f"$.shm_rules.diagnosis[{i}].parameters.{key}: "
                    f"{value!r} is not a number"
                )
    for i, rule in enumerate(rules.mitigations):
        grades = rule.constraints.get("grades", [])
        if not isinstance(grades, list) or not all(isinstance(g, str) for g in grades):
            raise InvalidConfigError(
                f"$.shm_rules.mitigations[{i}].constraints.grades: "
                f"{grades!r} is not an array of strings"
            )


def compile_scenario(spec: ScenarioSpec, max_states: int = 10**6) -> CompiledScenario:
    """Compile a scenario into a validated Problem by forward reachability,
    expanding states in index order; ``rv_defs`` takes each variable's
    distribution from its first stochastic row.  An absorbing state (any
    status but ``ok``) is not expanded: its one action ``stay`` has the
    row ``((s, 1.0, 0.0),)`` and no outcome."""
    if max_states < 1:
        raise InvalidConfigError(f"max_states must be at least 1, got {max_states}")
    comp = _Compiler(spec)
    action_index = {label: a for a, (label, _, _) in enumerate(comp.actions)}
    _check_action_labels(spec, action_index)
    s0 = comp.finalize(comp.initial_state())
    _check_channels(spec, _channels(spec, s0, 0))
    states = [s0]
    index = {s0: 0}
    admissible = []
    transitions = {}
    outcomes = {}
    terminal = set()
    stay = (comp.stay,)
    effects = [effect for _, effect, _ in comp.actions]
    finalize, step_energy = comp.finalize, spec.reward.step_energy

    for s, st in enumerate(states):  # grows while it is walked
        if st.status != OK:
            admissible.append(stay)
            transitions[(s, comp.stay)] = ((s, 1.0, 0.0),)
            terminal.add(s)
            continue
        acts = tuple(comp.admissible_actions(st))
        admissible.append(acts)
        for a in acts:
            branches = effects[a](st)
            rows = []
            for br in branches:
                nxt = finalize(br.state)
                s2 = index.setdefault(nxt, len(states))
                if s2 == len(states):
                    if s2 >= max_states:
                        raise ResourceLimitError(
                            f"compiled state count exceeded {max_states} "
                            f"(growing dimension near {comp.label(nxt)!r})"
                        )
                    states.append(nxt)
                r = 0.0
                if step_energy:
                    r -= br.energy_wh
                if nxt.status != OK:
                    r += comp.terminal_value(nxt)
                rows.append((s2, br.prob, r))
            key = (s, a)
            transitions[key] = tuple(rows)
            if branches[0].assign is not None:
                outcomes[key] = (branches[0].assign[0],
                                 tuple(br.assign[1] for br in branches))

    rv_defs = {}
    for key, (rv, values) in outcomes.items():
        if rv not in rv_defs:
            rv_defs[rv] = {v: p for v, (_, p, _) in zip(values, transitions[key])}
    problem = Problem(
        state_labels=tuple(map(comp.label, states)),
        action_labels=tuple(label for label, _, _ in comp.actions),
        admissible=tuple(admissible),
        transitions=transitions,
        terminal=frozenset(terminal),
        gamma=1.0,
        horizon=len(states),
    )
    return CompiledScenario(
        spec=spec,
        problem=problem,
        states=states,
        initial_state=0,
        rv_defs=rv_defs,
        outcomes=outcomes,
        action_index=action_index,
        targets=tuple(target for _, _, target in comp.actions),
        cool_action=comp.cool,
    )
