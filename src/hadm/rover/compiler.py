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

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import eq
from typing import Mapping, NamedTuple, Optional

from ..errors import InvalidConfigError, ResourceLimitError
from ..model import Problem, ValueTable
from ..shm import ORDERING
from .spec import ScenarioSpec

_TOL = 1e-9
_DIGITS = 6  # decimal places that times, charges and temperatures round to

OK = "ok"
COMPLETE = "complete"
STRANDED = "stranded"
MOTOR_FAILURE = "motor_failure"
DEADLINE_MISSED = "deadline_missed"
STUCK = "stuck"

# What an action does to the motor temperature in ``_Compiler._step``.
_HEAT = "heat"
_COOL = "cool"


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


# ``RoverState`` from a tuple of all seven components, without the
# keyword handling of its constructor.
_state = partial(tuple.__new__, RoverState)


def _channels(spec: ScenarioSpec, st: RoverState, s: int) -> dict:
    """The observation channels of state ``s``: its components under
    unit-bearing names, its index and whether it is at a charge point.
    The keys, and which values are numbers, depend only on the spec."""
    built = {"waypoint": st.position, "time_h": round(st.time_h, _DIGITS)}
    if st.battery_wh is not None:
        built["battery_wh"] = round(st.battery_wh, _DIGITS)
    if st.temp_c is not None:
        built["motor_temp_c"] = round(st.temp_c, _DIGITS)
    built.update((f"science:{a.id}", x) for a, x in zip(spec.activities, st.science))
    built.update((f"terrain:{r.id}", c) for r, c in zip(spec.regions, st.terrain))
    built["status"] = st.status
    built["state_index"] = s
    built["at_charge_point"] = (
        st.status == OK and spec.waypoint(st.position).charge_point
    )
    return built


class _Labels(Sequence):
    """The labels of a compiled scenario's states, formatted by
    ``_Compiler.label`` from ``states``.  Until the first iteration a
    label is formatted from ``states[s]`` each time it is read; the first
    iteration formats them all once into a tuple and keeps it, and every
    later read comes from that tuple.  It reads like a tuple of the
    labels: a slice is a tuple of labels, and its ``repr`` is the
    tuple's.  It compares equal to any sequence of the same labels."""

    def __init__(self, label, states: tuple):
        self._label, self._states, self._all = label, states, None

    def __len__(self):
        return len(self._states)

    def __getitem__(self, s):
        if self._all is not None:
            return self._all[s]
        if isinstance(s, slice):
            return tuple(map(self._label, self._states[s]))
        return self._label(self._states[s])

    def __iter__(self):
        if self._all is None:
            self._all = tuple(map(self._label, self._states))
        return iter(self._all)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return repr(tuple(self))


@dataclass
class CompiledScenario:
    """A scenario compiled to a Problem plus the labeling metadata.

    ``states[s]`` is state ``s``'s ``RoverState``; ``problem.state_labels``
    formats label ``s`` from it each time the label is read, until its
    first iteration formats every label once and keeps them, so
    ``solve``'s two exports share one pass.  ``table`` and
    ``route_choice`` hold the problem's optimal utilities and the
    ``phm-commit`` route choice once a provider has computed them; later
    providers on this object reuse them.
    ``episode_tries`` holds the episode totals that
    ``hadm.strategies.episode_total`` has computed, one trie per
    (strategy, seed or None).
    """

    spec: ScenarioSpec
    problem: Problem
    states: tuple
    initial_state: int
    rv_defs: dict  # rv name -> {value: probability}
    outcomes: dict  # stochastic (s, a) -> (rv, value per transitions row)
    action_index: dict  # action label -> action index
    targets: tuple  # per action: its Segment or Activity, else None
    cool_action: Optional[int]  # index of the cool action, if declared
    table: ValueTable = field(default=None, init=False, repr=False, compare=False)
    route_choice: tuple = field(default=None, init=False, repr=False, compare=False)
    episode_tries: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def action(self, label: str) -> int:
        if label not in self.action_index:
            raise InvalidConfigError(f"unknown action {label!r}")
        return self.action_index[label]

    def channels(self, s: int) -> dict:
        """Observation channels exposed by the plant for state ``s``: a
        new dict on every call, which the caller may keep or change."""
        return _channels(self.spec, self.states[s], s)

    def route_policy(self, route_id: str):
        """(start state, partial state->action policy) for a declared route."""
        if route_id not in self.route_policies:
            raise InvalidConfigError(f"unknown route {route_id!r}")
        return self.initial_state, self.route_policies[route_id]

    @cached_property
    def plan(self) -> tuple:
        """The nominal plan as action indices."""
        return tuple(map(self.action, self.spec.nominal_plan))

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
        self.goal, self.deadline = spec.mission.goal, spec.mission.deadline_h
        # One row per action index: (label, effect, target), where the
        # effect expands a state under the action and the target is the
        # action's Segment or Activity (None for the others).  Each effect
        # is bound to the decoded action: its target, the target's
        # position in ``RoverState.terrain`` or ``.science``, its load in
        # watts, and for a drive over unrevealed terrain the branch parts
        # (p, class, (rv, class)) per class.  Per waypoint, ``drives``
        # holds its drive actions and ``sciences`` (action, activity
        # position) for its science actions, in action order.
        self.actions = []
        drives = {wp.id: [] for wp in spec.waypoints}
        self.sciences = {wp.id: [] for wp in spec.waypoints}
        drive_w = spec.power.drive_w if spec.power else 0.0
        for seg in spec.segments:
            drives[seg.frm].append(len(self.actions))
            region, reveal = regions.get(seg.region), None
            if seg.terrain is None and region is not None:
                rv = f"terrain:{seg.region}"
                reveal = tuple((p, c, (rv, c))
                               for c, p in spec.regions[region].classes.items())
            motor = _HEAT if seg.heats_motor else None
            effect = partial(self._drive, seg, region, reveal, drive_w, motor)
            self.actions.append((f"drive:{seg.id}", effect, seg))
        self.drives = {wp: tuple(acts) for wp, acts in drives.items()}
        for i, act in enumerate(spec.activities):
            self.sciences[act.waypoint].append((len(self.actions), i))
            effect = partial(self._science, act, i, f"redo:{act.id}")
            self.actions.append((f"science:{act.id}", effect, act))
        self.charge = self.cool = None
        if spec.actions.allow_charge:
            self.charge = len(self.actions)
            self.actions.append(("charge_to_full", self._charge, None))
        if spec.actions.cool_grid_h is not None:
            self.cool = len(self.actions)
            self.actions.append(
                (f"cool:{round(spec.actions.cool_grid_h, _DIGITS)}h", self._cool, None)
            )
        self.stay = len(self.actions)  # no effect: compile records its rows
        self.actions.append(("stay", None, None))
        self.absorb = (self.stay,)  # the actions of every absorbing state
        # Label parts: "|id=" per activity, "|id=class" per region and class.
        self.science_keys = tuple(f"|{a.id}=" for a in spec.activities)
        self.terrain_parts = tuple(
            {c: f"|{r.id}={c or '?'}" for c in (None, *r.classes)}
            for r in spec.regions)

    def initial_state(self):
        """The mission's start state and its actions."""
        spec = self.spec
        return self._arrive(
            spec.mission.start, 0.0,
            spec.battery.initial_wh if spec.battery else None,
            spec.thermal.nominal_c if spec.thermal else None,
            ("todo",) * len(spec.activities), (None,) * len(spec.regions), OK,
        )

    def label(self, st: RoverState) -> str:
        """The state's label: its components, rounded, joined by "|"."""
        position, time_h, battery_wh, temp_c, science, terrain, status = st
        out = f"{position}|t={round(time_h, _DIGITS)}"
        if battery_wh is not None:
            out += f"|b={round(battery_wh, _DIGITS)}"
        if temp_c is not None:
            out += f"|T={round(temp_c, _DIGITS)}"
        if science:
            out += "".join(map(str.__add__, self.science_keys, science))
        out += "".join(map(dict.__getitem__, self.terrain_parts, terrain))
        return out if status == OK else f"{out}|{status}"

    def _arrive(self, position, time_h, battery_wh, temp_c, science, terrain, status):
        """The state these components make, classified once, and its
        actions.  An ``ok`` state that completes the mission, reaches the
        deadline or is a dead end absorbs, and an absorbing state's one
        action is ``stay``."""
        if status == OK:
            deadline, required = self.deadline, self.required
            if (position == self.goal
                    and (not required or all(science[i] == "done" for i in required))
                    and (deadline is None or time_h <= deadline + _TOL)):
                status = COMPLETE
            elif deadline is not None and time_h >= deadline - _TOL:
                status = DEADLINE_MISSED
            else:
                acts = self._actions(position, time_h, battery_wh, science)
                if acts:
                    return _state((position, time_h, battery_wh, temp_c, science,
                                   terrain, OK)), acts
                # A dead end with the mission incomplete absorbs as "stuck".
                status = STUCK
        return (_state((position, time_h, battery_wh, temp_c, science, terrain,
                        status)), self.absorb)

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

    def _actions(self, position, time_h, battery_wh, science):
        """The actions of an ``ok`` state, in action order."""
        acts = self.drives[position]
        sciences = self.sciences[position]
        if sciences:
            acts += tuple(a for a, i in sciences if science[i] != "done")
        if (self.charge is not None
                and self._charge_hours(position, time_h, battery_wh) is not None):
            acts += (self.charge,)
        if self.cool is not None:
            acts += (self.cool,)
        return acts

    def _step(self, st, hours, watts, energy_wh, motor, position, science, terrain):
        """``st`` after an action of ``hours`` that draws ``watts``, moved to
        ``position`` with ``science`` and ``terrain``, as ``_arrive``
        returns it: the one place where time, battery and motor
        temperature advance.

        The battery pays ``energy_wh`` when it is not None, is integrated
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
                b = round(min(b - energy_wh, cap), _DIGITS)
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
                b = round(b, _DIGITS)
            elif motor != _COOL:
                b = round(min(b, cap), _DIGITS)
        temp = st.temp_c
        if temp is not None and motor is not None:
            th = spec.thermal
            if motor == _HEAT:
                temp += th.heat_rate_c_per_h * hours
                if temp >= th.limit_c - _TOL:
                    status = MOTOR_FAILURE
            else:
                temp = max(th.nominal_c, float(temp) - th.cool_rate_c_per_h * hours)
            temp = round(temp, _DIGITS)
        return self._arrive(position, round(st.time_h + hours, _DIGITS), b, temp,
                            science, terrain, status)

    def _charge_hours(self, position, time_h, battery_wh):
        """Hours to charge to full; None where charging is not admissible:
        no charger or charge rate, a full battery, or a charge that would
        end after sunset."""
        spec, battery = self.spec, self.spec.battery
        if not (
            battery and battery.charge_rate_w
            and spec.waypoint(position).charge_point
            and battery_wh < battery.capacity_wh - _TOL
        ):
            return None
        hours = (battery.capacity_wh - battery_wh) / battery.charge_rate_w
        if spec.power is None or time_h + hours <= spec.power.sunlight_until_h:
            return hours
        return None

    # Each effect returns its branches as ((state, actions), p, assign,
    # energy_wh) tuples: ``_arrive``'s pair, the branch probability, the
    # (rv name, value) it stands for (None when deterministic) and the
    # energy it spends.

    def _drive(self, seg, region, reveal, watts, motor, st):
        """One branch per terrain class the drive may reveal."""
        terrain = st.terrain
        if reveal is None:
            reveal = ((1.0, seg.terrain, None),)
        elif terrain[region] is not None:
            reveal = ((1.0, terrain[region], None),)
        else:
            before, after = terrain[:region], terrain[region + 1:]
        energies, out = seg.energy_wh, []
        for p, c, assign in reveal:
            energy = None
            if energies is not None:
                if c not in energies:
                    raise InvalidConfigError(
                        f"segment {seg.id!r} has no energy for terrain {c!r}"
                    )
                energy = energies[c]
            if assign is not None:  # a reveal writes its class into the terrain
                terrain = before + (c,) + after
            out.append((self._step(st, seg.duration_h, watts, energy, motor, seg.to,
                                   st.science, terrain),
                        p, assign, 0.0 if energy is None else energy))
        return out

    def _science(self, act, i, rv, st):
        """The activity done, and redone with ``act.redo_prob`` unless this
        run is the redo."""
        before, after = st.science[:i], st.science[i + 1:]
        done = self._step(st, act.duration_h, act.load_w, None, None, st.position,
                          before + ("done",) + after, st.terrain)
        if st.science[i] == "redo" or act.redo_prob <= 0.0:
            return [(done, 1.0, None, 0.0)]
        redo = self._step(st, act.duration_h, act.load_w, None, None, st.position,
                          before + ("redo",) + after, st.terrain)
        return [(done, 1.0 - act.redo_prob, (rv, "false"), 0.0),
                (redo, act.redo_prob, (rv, "true"), 0.0)]

    def _charge(self, st):
        hours = self._charge_hours(st.position, st.time_h, st.battery_wh)
        return [(self._arrive(st.position, round(st.time_h + hours, _DIGITS),
                               self.spec.battery.capacity_wh, st.temp_c, st.science,
                               st.terrain, OK),
                 1.0, None, 0.0)]

    def _cool(self, st):
        return [(self._step(st, self.spec.actions.cool_grid_h, 0.0, None, _COOL,
                             st.position, st.science, st.terrain),
                 1.0, None, 0.0)]


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
    s0, acts0 = comp.initial_state()
    _check_channels(spec, _channels(spec, s0, 0))
    # ``admissible[s]`` is stored with state ``s``, from the classification
    # that built it; the walk reads it back when it reaches ``s``.
    states, admissible, index = [s0], [acts0], {s0: 0}
    transitions = {}
    outcomes = {}
    terminal = set()
    stay = comp.stay
    effects = [effect for _, effect, _ in comp.actions]
    terminal_value, step_energy = comp.terminal_value, spec.reward.step_energy

    for s, st in enumerate(states):  # grows while it is walked
        if st.status != OK:
            transitions[(s, stay)] = ((s, 1.0, 0.0),)
            terminal.add(s)
            continue
        for a in admissible[s]:
            branches = effects[a](st)
            rows = []
            for (nxt, acts), p, _, energy in branches:
                n = len(states)
                s2 = index.setdefault(nxt, n)
                if s2 == n:
                    if n >= max_states:
                        raise ResourceLimitError(
                            f"compiled state count exceeded {max_states} "
                            f"(growing dimension near {comp.label(nxt)!r})"
                        )
                    states.append(nxt)
                    admissible.append(acts)
                r = 0.0 - energy if step_energy else 0.0
                if nxt.status != OK:
                    r += terminal_value(nxt)
                rows.append((s2, p, r))
            transitions[(s, a)] = tuple(rows)
            assign = branches[0][2]
            if assign is not None:
                outcomes[(s, a)] = (assign[0], tuple(br[2][1] for br in branches))

    rv_defs = {}
    for key, (rv, values) in outcomes.items():
        if rv not in rv_defs:
            rv_defs[rv] = {v: p for v, (_, p, _) in zip(values, transitions[key])}
    states = tuple(states)
    problem = Problem(
        state_labels=_Labels(comp.label, states),
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
