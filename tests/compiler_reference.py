"""Reference compiler for the oracle test in ``test_compiler_oracle.py``.

A verbatim copy of ``hadm.rover.compiler`` as of commit 02955d8, followed
by the two arithmetic helpers it imported from ``hadm.rover.spec`` at
that commit (``net_power`` and ``motor_temp_after``).  Only the imports
are changed, to absolute ones.  Do not edit the code below: the oracle
test holds the compiler to exactly this behaviour.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from hadm.errors import InvalidConfigError, ResourceLimitError
from hadm.model import Problem, ValueTable
from hadm.rover.spec import ScenarioSpec

_TOL = 1e-9

OK = "ok"
COMPLETE = "complete"
STRANDED = "stranded"
MOTOR_FAILURE = "motor_failure"
DEADLINE_MISSED = "deadline_missed"
STUCK = "stuck"

TERMINAL_STATUSES = (COMPLETE, STRANDED, MOTOR_FAILURE, DEADLINE_MISSED, STUCK)


def _round(x):
    return round(x, 6)


class RoverState(NamedTuple):
    """One compiled state: every component named, all units explicit."""

    position: str
    time_h: float = 0.0
    battery_wh: Optional[float] = None
    temp_c: Optional[float] = None
    science: tuple = ()  # ((activity id, "todo"|"redo"|"done"), ...)
    terrain: tuple = ()  # ((region id, class or None), ...)
    status: str = OK

    def science_status(self, act_id):
        for aid, st in self.science:
            if aid == act_id:
                return st
        raise InvalidConfigError(f"unknown activity {act_id!r}")

    def terrain_class(self, region_id):
        for rid, cls in self.terrain:
            if rid == region_id:
                return cls
        raise InvalidConfigError(f"unknown region {region_id!r}")

    def with_science(self, act_id, new_status):
        return self._replace(
            science=tuple(
                (aid, new_status if aid == act_id else st) for aid, st in self.science
            )
        )

    def with_terrain(self, region_id, cls):
        return self._replace(
            terrain=tuple(
                (rid, cls if rid == region_id else c) for rid, c in self.terrain
            )
        )

    def label(self):
        parts = [self.position, f"t={_round(self.time_h)}"]
        if self.battery_wh is not None:
            parts.append(f"b={_round(self.battery_wh)}")
        if self.temp_c is not None:
            parts.append(f"T={_round(self.temp_c)}")
        for aid, st in self.science:
            parts.append(f"{aid}={st}")
        for rid, cls in self.terrain:
            parts.append(f"{rid}={cls or '?'}")
        if self.status != OK:
            parts.append(self.status)
        return "|".join(parts)

    def components(self):
        """Named state-vector components with unit-bearing names."""
        out = [("waypoint", self.position), ("time_h", _round(self.time_h))]
        if self.battery_wh is not None:
            out.append(("battery_wh", _round(self.battery_wh)))
        if self.temp_c is not None:
            out.append(("motor_temp_c", _round(self.temp_c)))
        for aid, st in self.science:
            out.append((f"science:{aid}", st))
        for rid, cls in self.terrain:
            out.append((f"terrain:{rid}", cls))
        out.append(("status", self.status))
        return out


class _Branch(NamedTuple):
    state: RoverState
    prob: float
    assign: Optional[tuple] = None  # (rv name, value) when stochastic
    energy_wh: float = 0.0


@dataclass
class CompiledScenario:
    """A scenario compiled to a Problem plus the labeling metadata.

    ``table`` and ``route_choice`` hold the problem's optimal utilities
    and the ``phm-commit`` route choice once a provider has computed them;
    later providers on this object reuse them.  ``channel_cache`` holds
    each state's observation channels once a plant has visited it.
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
            st = self.states[s]
            built = dict(st.components())
            built["state_index"] = s
            built["at_charge_point"] = (
                st.status == OK and self.spec.waypoint(st.position).charge_point
            )
            ch = self.channel_cache[s] = MappingProxyType(built)
        return ch

    def route_policy(self, route_id: str):
        """(start state, partial state->action policy) for a declared route."""
        route = self.spec.route(route_id)
        policy = {}
        for s, st in enumerate(self.states):
            if st.status != OK:
                continue
            move = route.moves.get(st.position)
            if move is None:
                continue
            if move == "uniform":
                policy[s] = "uniform"
            else:
                a = self.action(move)
                if a in self.problem.admissible[s]:
                    policy[s] = a
        return self.initial_state, policy


def _sun_pieces(power, t0, duration):
    """Split [t0, t0+duration] at the sunlight boundary: [(hours, in_sun)]."""
    end = t0 + duration
    sun_until = power.sunlight_until_h
    if end <= sun_until:
        return [(duration, True)]
    if t0 >= sun_until:
        return [(duration, False)]
    return [(sun_until - t0, True), (end - sun_until, False)]


def _integrate_battery(spec, battery, t0, duration, activity):
    """Advance the battery over one action; returns (final, stranded)."""
    if battery is None:
        return None, False
    cap = spec.battery.capacity_wh
    if spec.power is None:
        return _round(min(battery, cap)), False
    b = battery
    stranded = False
    for hours, in_sun in _sun_pieces(spec.power, t0, duration):
        b += net_power(spec, activity, in_sun) * hours
        if b < -_TOL:
            stranded = True
        elif b > cap:
            b = cap
    return _round(b), stranded


class _Compiler:
    def __init__(self, spec: ScenarioSpec):
        if spec.kind != "rover" or spec.mission is None:
            raise InvalidConfigError("only rover scenarios with a mission compile")
        self.spec = spec
        self.rv_defs = {}
        # One row per action index: (label, effect, target), where the
        # effect expands a state under the action and the target is the
        # action's Segment or Activity (None for the others).  Per
        # waypoint, ``drives`` lists its drive actions and ``sciences``
        # (action, Activity) for its science actions, in action order.
        self.actions = []
        self.drives = {wp.id: [] for wp in spec.waypoints}
        self.sciences = {wp.id: [] for wp in spec.waypoints}
        for seg in spec.segments:
            self.drives[seg.frm].append(len(self.actions))
            self.actions.append((f"drive:{seg.id}", self._drive, seg))
        for act in spec.activities:
            self.sciences[act.waypoint].append((len(self.actions), act))
            self.actions.append((f"science:{act.id}", self._science, act))
        self.charge = self.cool = None
        if spec.actions.allow_charge:
            self.charge = len(self.actions)
            self.actions.append(("charge_to_full", self._charge, None))
        if spec.actions.cool_grid_h is not None:
            self.cool = len(self.actions)
            self.actions.append(
                (f"cool:{_round(spec.actions.cool_grid_h)}h", self._cool, None)
            )
        self.stay = len(self.actions)
        self.actions.append(("stay", self._stay, None))

    def initial_state(self) -> RoverState:
        spec = self.spec
        return RoverState(
            position=spec.mission.start,
            time_h=0.0,
            battery_wh=spec.battery.initial_wh if spec.battery else None,
            temp_c=spec.thermal.nominal_c if spec.thermal else None,
            science=tuple((a.id, "todo") for a in spec.activities),
            terrain=tuple((r.id, None) for r in spec.regions),
        )

    def finalize(self, st: RoverState) -> RoverState:
        """Classify a fresh state: completion, deadline, or a dead end."""
        if st.status != OK:
            return st
        m = self.spec.mission
        done = all(st.science_status(a) == "done" for a in m.require_activities)
        if st.position == m.goal and done:
            if m.deadline_h is None or st.time_h <= m.deadline_h + _TOL:
                return st._replace(status=COMPLETE)
        if m.deadline_h is not None and st.time_h >= m.deadline_h - _TOL:
            return st._replace(status=DEADLINE_MISSED)
        # A dead end with the mission incomplete absorbs as "stuck".
        if not self.admissible_actions(st):
            return st._replace(status=STUCK)
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
        if st.status != OK:
            return [self.stay]
        out = list(self.drives[st.position])
        out += [
            a for a, act in self.sciences[st.position]
            if st.science_status(act.id) != "done"
        ]
        if self.charge is not None and self._charge_hours(st) is not None:
            out.append(self.charge)
        if self.cool is not None:
            out.append(self.cool)
        return out

    def expand(self, st: RoverState, a: int):
        _, effect, target = self.actions[a]
        return effect(st, target)

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

    def _stay(self, st, _):
        return [_Branch(st, 1.0)]

    def _terrain_branches(self, st, seg):
        """(probability, class, rv assignment, state-with-reveal) per branch."""
        if seg.terrain is not None or seg.region is None:
            return [(1.0, seg.terrain, None, st)]
        cls = st.terrain_class(seg.region)
        if cls is not None:
            return [(1.0, cls, None, st)]
        rv = f"terrain:{seg.region}"
        region = self.spec.region(seg.region)
        self.rv_defs.setdefault(rv, dict(region.classes))
        return [
            (p, c, (rv, c), st.with_terrain(seg.region, c))
            for c, p in region.classes.items()
        ]

    def _drive(self, st, seg):
        spec = self.spec
        out = []
        for prob, cls, assign, revealed in self._terrain_branches(st, seg):
            nxt = revealed._replace(
                position=seg.to, time_h=_round(st.time_h + seg.duration_h)
            )
            energy = 0.0
            stranded = False
            if seg.energy_wh is not None:
                if cls not in seg.energy_wh:
                    raise InvalidConfigError(
                        f"segment {seg.id!r} has no energy for terrain {cls!r}"
                    )
                energy = seg.energy_wh[cls]
                if st.battery_wh is not None:
                    b = _round(min(st.battery_wh - energy, spec.battery.capacity_wh))
                    stranded = b < -_TOL
                    nxt = nxt._replace(battery_wh=b)
            elif st.battery_wh is not None:
                b, stranded = _integrate_battery(
                    spec, st.battery_wh, st.time_h, seg.duration_h, "drive"
                )
                nxt = nxt._replace(battery_wh=b)
            if st.temp_c is not None and seg.heats_motor:
                t2 = st.temp_c + spec.thermal.heat_rate_c_per_h * seg.duration_h
                nxt = nxt._replace(temp_c=_round(t2))
                if t2 >= spec.thermal.limit_c - _TOL:
                    nxt = nxt._replace(status=MOTOR_FAILURE)
            if stranded and nxt.status == OK:
                nxt = nxt._replace(status=STRANDED)
            out.append(_Branch(nxt, prob, assign, energy))
        return out

    def _science(self, st, act):
        spec = self.spec
        status = st.science_status(act.id)
        t2 = _round(st.time_h + act.duration_h)
        b, stranded = _integrate_battery(
            spec, st.battery_wh, st.time_h, act.duration_h, act.id
        )
        base = st._replace(time_h=t2, battery_wh=b)
        if stranded:
            base = base._replace(status=STRANDED)
        if status == "redo" or act.redo_prob <= 0.0:
            nxt = base.with_science(act.id, "done")
            return [_Branch(nxt, 1.0)]
        rv = f"redo:{act.id}"
        self.rv_defs.setdefault(
            rv, {"false": 1.0 - act.redo_prob, "true": act.redo_prob}
        )
        ok = base.with_science(act.id, "done")
        redo = base.with_science(act.id, "redo")
        return [
            _Branch(ok, 1.0 - act.redo_prob, (rv, "false")),
            _Branch(redo, act.redo_prob, (rv, "true")),
        ]

    def _charge(self, st, _):
        nxt = st._replace(
            time_h=_round(st.time_h + self._charge_hours(st)),
            battery_wh=self.spec.battery.capacity_wh,
        )
        return [_Branch(nxt, 1.0)]

    def _cool(self, st, _):
        spec = self.spec
        d = spec.actions.cool_grid_h
        nxt = st._replace(time_h=_round(st.time_h + d))
        if st.temp_c is not None:
            t2 = motor_temp_after(spec, st.temp_c, 0.0, d)
            nxt = nxt._replace(temp_c=_round(t2))
        if st.battery_wh is not None and spec.power is not None:
            b, stranded = _integrate_battery(
                spec, st.battery_wh, st.time_h, d, "idle"
            )
            nxt = nxt._replace(battery_wh=b)
            if stranded:
                nxt = nxt._replace(status=STRANDED)
        return [_Branch(nxt, 1.0)]


def compile_scenario(spec: ScenarioSpec, max_states: int = 10**6) -> CompiledScenario:
    """Compile a scenario into a validated Problem by forward reachability."""
    comp = _Compiler(spec)
    s0 = comp.finalize(comp.initial_state())
    states = [s0]
    index = {s0: 0}
    queue = deque([0])
    admissible = {}
    transitions = {}
    rewards = {}
    transition_rewards = {}
    outcomes = {}
    terminal = set()

    while queue:
        s = queue.popleft()
        st = states[s]
        acts = comp.admissible_actions(st)
        if st.status != OK:
            terminal.add(s)
        admissible[s] = tuple(acts)
        for a in acts:
            rows = []
            expanded = comp.expand(st, a)
            for br in expanded:
                s2_state = comp.finalize(br.state)
                if s2_state not in index:
                    if len(states) >= max_states:
                        raise ResourceLimitError(
                            f"compiled state count exceeded {max_states} "
                            f"(growing dimension near {s2_state.label()!r})"
                        )
                    index[s2_state] = len(states)
                    states.append(s2_state)
                    queue.append(index[s2_state])
                s2 = index[s2_state]
                rho = 0.0
                if spec.reward.step_energy:
                    rho -= br.energy_wh
                if s2_state.status != OK and st.status == OK:
                    rho += comp.terminal_value(s2_state)
                if rho != 0.0:
                    transition_rewards[(s, a, s2)] = rho
                rows.append((s2, br.prob))
            transitions[(s, a)] = tuple(rows)
            rewards[(s, a)] = 0.0
            if expanded[0].assign is not None:
                rv = expanded[0].assign[0]
                outcomes[(s, a)] = (rv, tuple(br.assign[1] for br in expanded))

    n = len(states)
    labels = tuple(st.label() for st in states)
    adm = tuple(admissible[s] for s in range(n))
    # Each branch carries r = R(s, a) + gamma * rho(s, a, s'), gamma = 1.
    problem = Problem(
        state_labels=labels,
        action_labels=tuple(label for label, _, _ in comp.actions),
        admissible=adm,
        transitions={
            (s, a): tuple(
                (s2, p, rewards[(s, a)] + 1.0 * transition_rewards.get((s, a, s2), 0.0))
                for s2, p in row
            )
            for (s, a), row in transitions.items()
        },
        terminal=frozenset(terminal),
        gamma=1.0,
        horizon=n,
    )
    return CompiledScenario(
        spec=spec,
        problem=problem,
        states=states,
        initial_state=0,
        rv_defs=comp.rv_defs,
        outcomes=outcomes,
        action_index={label: a for a, (label, _, _) in enumerate(comp.actions)},
        targets=tuple(target for _, _, target in comp.actions),
        cool_action=comp.cool,
    )


def net_power(spec: ScenarioSpec, activity: str, in_sunlight: bool) -> float:
    """Net battery power (W) for 'drive', 'idle', or a declared activity id."""
    if spec.power is None:
        raise InvalidConfigError("scenario has no power configuration")
    p = spec.power
    solar = p.solar_w if in_sunlight else 0.0
    heater = 0.0 if in_sunlight else p.heater_w
    if activity == "drive":
        return solar - p.drive_w - heater
    if activity == "idle":
        return solar - heater
    act = spec.activity(activity)
    return solar - act.load_w - heater


def motor_temp_after(
    spec: ScenarioSpec, temp0: float, drive_h: float, cool_h: float
) -> float:
    """Temperature after driving then cooling, floored at nominal."""
    if spec.thermal is None:
        raise InvalidConfigError("scenario has no thermal configuration")
    if drive_h < 0 or cool_h < 0:
        raise InvalidConfigError("durations must be non-negative")
    t = temp0 + spec.thermal.heat_rate_c_per_h * drive_h
    t -= spec.thermal.cool_rate_c_per_h * cool_h
    return max(spec.thermal.nominal_c, t)
