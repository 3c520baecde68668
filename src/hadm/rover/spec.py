"""Declarative rover scenarios: schema and loading.

A scenario is a JSON document (built-ins go through the same loader)
describing a waypoint graph with terrain regions, activities, power and
battery budgets, thermal limits, deadlines, reward shaping, routes for
the commit-once comparison strategy, nominal/abort plans, and the
baseline health-management rule tables.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import InvalidConfigError
from ..shm import (
    DiagnosisRule,
    FaultDetector,
    MitigationRule,
    ShmRules,
    ThresholdPredicate,
)

PROB_TOL = 1e-9

_number = {"type": "number"}
_string = {"type": "string"}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "kind"],
    "additionalProperties": False,
    "properties": {
        "name": _string,
        "kind": {"enum": ["rover", "prognostics"]},
        "comments": {"type": "array", "items": _string},
        "waypoints": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id"],
                "additionalProperties": False,
                "properties": {
                    "id": _string,
                    "name": _string,
                    "charge_point": {"type": "boolean"},
                },
            },
        },
        "regions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "classes"],
                "additionalProperties": False,
                "properties": {
                    "id": _string,
                    "classes": {
                        "type": "object",
                        "additionalProperties": _number,
                        "minProperties": 1,
                    },
                },
            },
        },
        "segments": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "from", "to"],
                "additionalProperties": False,
                "properties": {
                    "id": _string,
                    "from": _string,
                    "to": _string,
                    "duration_h": _number,
                    "region": _string,
                    "terrain": _string,
                    "energy_wh": {"type": "object", "additionalProperties": _number},
                    "grade": {"enum": ["flat", "uphill", "downhill"]},
                    "heats_motor": {"type": "boolean"},
                },
            },
        },
        "activities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "waypoint", "duration_h"],
                "additionalProperties": False,
                "properties": {
                    "id": _string,
                    "waypoint": _string,
                    "duration_h": _number,
                    "load_w": _number,
                    "redo_prob": _number,
                },
            },
        },
        "power": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {
                "solar_w": _number,
                "heater_w": _number,
                "drive_w": _number,
                "sunlight_until_h": _number,
            },
        },
        "battery": {
            "type": ["object", "null"],
            "required": ["capacity_wh", "initial_wh"],
            "additionalProperties": False,
            "properties": {
                "capacity_wh": _number,
                "initial_wh": _number,
                "charge_rate_w": _number,
            },
        },
        "thermal": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {
                "nominal_c": _number,
                "heat_rate_c_per_h": _number,
                "cool_rate_c_per_h": _number,
                "limit_c": _number,
            },
        },
        "mission": {
            "type": "object",
            "required": ["start", "goal"],
            "additionalProperties": False,
            "properties": {
                "start": _string,
                "goal": _string,
                "require_activities": {"type": "array", "items": _string},
                "deadline_h": {"type": ["number", "null"]},
            },
        },
        "reward": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "step_energy": {"type": "boolean"},
                "terminal_battery": {"type": "boolean"},
                "time_margin_bonus": {"type": "boolean"},
                "complete_bonus": _number,
                "stranded_penalty": _number,
                "motor_failure_penalty": _number,
                "deadline_missed_penalty": _number,
            },
        },
        "actions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "allow_charge": {"type": "boolean"},
                "cool_grid_h": {"type": ["number", "null"]},
            },
        },
        "routes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "moves"],
                "additionalProperties": False,
                "properties": {
                    "id": _string,
                    "moves": {"type": "object", "additionalProperties": _string},
                },
            },
        },
        "nominal_plan": {"type": "array", "items": _string},
        "abort_plan": {"type": "object", "additionalProperties": _string},
        "shm_rules": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "detectors": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["channel", "op", "limit"],
                        "additionalProperties": False,
                        "properties": {
                            "channel": _string,
                            "op": {"enum": [">", ">=", "<", "<=", "==", "!="]},
                            "limit": _number,
                            "when": {"type": "object"},
                        },
                    },
                },
                "diagnosis": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["channel", "component", "mode"],
                        "additionalProperties": False,
                        "properties": {
                            "channel": _string,
                            "component": _string,
                            "mode": _string,
                            "parameters": {"type": "object"},
                            "probability": _number,
                        },
                    },
                },
                "mitigations": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["fault_mode", "action"],
                        "additionalProperties": False,
                        "properties": {
                            "fault_mode": _string,
                            "action": _string,
                            "constraints": {"type": "object"},
                            "priority": {"type": "integer"},
                        },
                    },
                },
                "min_probability": _number,
            },
        },
        "degradation": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {
                "s0": _number,
                "rate_nominal": _number,
                "p_high": _number,
                "epsilon": _number,
                "horizon": {"type": "integer"},
                "sigma_max": _number,
                "h_min": _number,
            },
        },
        "override_aliases": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {"type": "object"},
            },
        },
    },
}


@dataclass(frozen=True)
class Waypoint:
    id: str
    name: str = ""
    charge_point: bool = False


@dataclass(frozen=True)
class Region:
    id: str
    classes: Mapping  # terrain class -> probability


@dataclass(frozen=True)
class Segment:
    id: str
    frm: str
    to: str
    duration_h: float = 1.0
    region: str = None
    terrain: str = None
    energy_wh: Mapping = None  # terrain class -> Wh
    grade: str = "flat"
    heats_motor: bool = False


@dataclass(frozen=True)
class Activity:
    id: str
    waypoint: str
    duration_h: float
    load_w: float = 0.0
    redo_prob: float = 0.0


@dataclass(frozen=True)
class PowerConfig:
    solar_w: float = 0.0
    heater_w: float = 0.0
    drive_w: float = 0.0
    sunlight_until_h: float = float("inf")


@dataclass(frozen=True)
class BatteryConfig:
    capacity_wh: float
    initial_wh: float
    charge_rate_w: float = 0.0


@dataclass(frozen=True)
class ThermalConfig:
    nominal_c: float = 20.0
    heat_rate_c_per_h: float = 0.0
    cool_rate_c_per_h: float = 0.0
    limit_c: float = float("inf")


@dataclass(frozen=True)
class Mission:
    start: str
    goal: str
    require_activities: Sequence = ()
    deadline_h: float = None


@dataclass(frozen=True)
class RewardConfig:
    step_energy: bool = False
    terminal_battery: bool = False
    time_margin_bonus: bool = False
    complete_bonus: float = 0.0
    stranded_penalty: float = 0.0
    motor_failure_penalty: float = -1e6
    deadline_missed_penalty: float = 0.0


@dataclass(frozen=True)
class ActionConfig:
    allow_charge: bool = False
    cool_grid_h: float = None


@dataclass(frozen=True)
class Route:
    id: str
    moves: Mapping  # waypoint -> action label, or "uniform"


@dataclass(frozen=True)
class DegradationSection:
    s0: float = 1.0
    rate_nominal: float = 0.05
    p_high: float = 0.0
    epsilon: float = 0.0
    horizon: int = 100
    sigma_max: float = None
    h_min: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    kind: str
    waypoints: tuple = ()
    regions: tuple = ()
    segments: tuple = ()
    activities: tuple = ()
    power: PowerConfig = None
    battery: BatteryConfig = None
    thermal: ThermalConfig = None
    mission: Mission = None
    reward: RewardConfig = RewardConfig()
    actions: ActionConfig = ActionConfig()
    routes: tuple = ()
    nominal_plan: tuple = ()
    abort_plan: Mapping = field(default_factory=dict)
    shm_rules: ShmRules = ShmRules()
    degradation: DegradationSection = None
    override_aliases: Mapping = field(default_factory=dict)
    comments: tuple = ()

    def waypoint(self, wp_id):
        for wp in self.waypoints:
            if wp.id == wp_id:
                return wp
        raise InvalidConfigError(f"unknown waypoint {wp_id!r}")

    def region(self, region_id):
        for r in self.regions:
            if r.id == region_id:
                return r
        raise InvalidConfigError(f"unknown region {region_id!r}")

    def route(self, route_id):
        for r in self.routes:
            if r.id == route_id:
                return r
        raise InvalidConfigError(f"unknown route {route_id!r}")

    def activity(self, act_id):
        for a in self.activities:
            if a.id == act_id:
                return a
        raise InvalidConfigError(f"unknown activity {act_id!r}")


# JSON Schema (Draft 2020-12) types: a bool is no number, and an
# integral float such as 20.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()
    ),
}


def _type(value, types, schema, path):
    types = [types] if isinstance(types, str) else types
    if not any(_TYPES[t](value) for t in types):
        yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"


def _enum(value, enum, schema, path):
    # The schema's enums list only strings, so ``in`` is JSON Schema's equality.
    if value not in enum:
        yield path, f"{value!r} is not one of {enum!r}"


def _required(value, required, schema, path):
    if isinstance(value, dict):
        for name in required:
            if name not in value:
                yield path, f"{name!r} is a required property"


def _properties(value, properties, schema, path):
    if isinstance(value, dict):
        for name, sub in properties.items():
            if name in value:
                yield from _schema_errors(value[name], sub, (*path, name))


def _additional(value, additional, schema, path):
    if not isinstance(value, dict):
        return
    extras = [name for name in value if name not in schema.get("properties", {})]
    if isinstance(additional, dict):
        for name in extras:
            yield from _schema_errors(value[name], additional, (*path, name))
    elif extras and not additional:
        names = ", ".join(map(repr, sorted(extras, key=str)))
        verb = "was" if len(extras) == 1 else "were"
        yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _items(value, items, schema, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _schema_errors(item, items, (*path, i))


def _min_properties(value, least, schema, path):
    if isinstance(value, dict) and len(value) < least:
        yield path, f"{value!r} " + (
            "should be non-empty" if least == 1 else "does not have enough properties"
        )


# The keywords ``SCENARIO_SCHEMA`` uses; ``$schema`` only names the draft.
SCHEMA_KEYWORDS = {
    "$schema": lambda value, uri, schema, path: (),
    "type": _type,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional,
    "items": _items,
    "minProperties": _min_properties,
}


def _schema_errors(value, schema, path=()):
    """(path, message) for each way ``value`` breaks ``schema``, keyword by
    keyword in the schema's key order, with jsonschema's message texts."""
    for keyword, arg in schema.items():
        yield from SCHEMA_KEYWORDS[keyword](value, arg, schema, path)


def validate_scenario_dict(doc: dict):
    """Schema-validate a scenario document, reporting the failing path."""
    errors = sorted(_schema_errors(doc, SCENARIO_SCHEMA), key=lambda e: e[0])
    if errors:
        lines = []
        for path, message in errors:
            path = "$" + "".join(
                f"[{p}]" if isinstance(p, int) else f".{p}" for p in path
            )
            lines.append(f"{path}: {message}")
        raise InvalidConfigError("invalid scenario file:\n" + "\n".join(lines))


def load_scenario(doc: dict) -> ScenarioSpec:
    """Build a validated ScenarioSpec from a scenario document.

    Records are built from their entries by keyword (``from`` becomes
    ``frm``), so field defaults live only on the dataclasses.
    """
    validate_scenario_dict(doc)
    _check_finite(doc)
    regions = tuple(Region(**r) for r in doc.get("regions", ()))
    for r in regions:
        total = sum(r.classes.values())
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidConfigError(
                f"region {r.id!r} terrain probabilities sum to {total}"
            )
    battery = None
    if doc.get("battery"):
        battery = BatteryConfig(**doc["battery"])
        if battery.capacity_wh <= 0 or battery.initial_wh < 0:
            raise InvalidConfigError("battery capacity/initial must be positive")
        if battery.initial_wh > battery.capacity_wh:
            raise InvalidConfigError("initial charge exceeds capacity")
    spec = ScenarioSpec(
        name=doc["name"],
        kind=doc["kind"],
        waypoints=tuple(Waypoint(**w) for w in doc.get("waypoints", ())),
        regions=regions,
        segments=tuple(
            Segment(**{"frm" if k == "from" else k: v for k, v in s.items()})
            for s in doc.get("segments", ())
        ),
        activities=tuple(Activity(**a) for a in doc.get("activities", ())),
        power=PowerConfig(**doc["power"]) if doc.get("power") else None,
        battery=battery,
        thermal=ThermalConfig(**doc["thermal"]) if doc.get("thermal") else None,
        mission=Mission(**doc["mission"]) if doc.get("mission") else None,
        reward=RewardConfig(**doc.get("reward", {})),
        actions=ActionConfig(**doc.get("actions", {})),
        routes=tuple(Route(**r) for r in doc.get("routes", ())),
        nominal_plan=tuple(doc.get("nominal_plan", ())),
        abort_plan=dict(doc.get("abort_plan", {})),
        shm_rules=_shm_rules(doc.get("shm_rules", {})),
        degradation=DegradationSection(**_integral(doc["degradation"], "horizon"))
        if doc.get("degradation")
        else None,
        override_aliases=doc.get("override_aliases", {}),
        comments=tuple(doc.get("comments", ())),
    )
    _cross_check(spec)
    _check_non_negative(spec)
    return spec


def _check_finite(doc: Mapping):
    """No number outside ``degradation`` (checked on its own) is NaN or infinite."""
    stack = [(f"$.{k}", v) for k, v in doc.items() if k != "degradation"]
    while stack:
        path, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfigError(f"{path}: {value} is not a finite number")
        if isinstance(value, dict):
            stack += [(f"{path}.{k}", v) for k, v in value.items()]
        elif isinstance(value, list):
            stack += [(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _integral(entry: Mapping, key: str) -> Mapping:
    """``entry`` with its ``key`` value as an ``int``.  The schema's
    ``integer`` type also admits integral floats such as 20.0 and 1e3."""
    if isinstance(entry.get(key), float):
        return {**entry, key: int(entry[key])}
    return entry


def _shm_rules(rules: Mapping) -> ShmRules:
    """The document's ``shm_rules`` as typed records; ``min_probability``
    is passed only when given, so its default stays on ``ShmRules``."""
    return ShmRules(
        detector=FaultDetector(
            tuple(ThresholdPredicate(**d) for d in rules.get("detectors", ()))
        ),
        diagnosis=tuple(DiagnosisRule(**d) for d in rules.get("diagnosis", ())),
        mitigations=tuple(
            MitigationRule(**_integral(m, "priority"))
            for m in rules.get("mitigations", ())
        ),
        **{k: v for k, v in rules.items() if k == "min_probability"},
    )


def _cross_check(spec: ScenarioSpec):
    for kind, records in (
        ("waypoint", spec.waypoints),
        ("region", spec.regions),
        ("segment", spec.segments),
        ("activity", spec.activities),
        ("route", spec.routes),
    ):
        seen = set()
        for rec in records:
            if rec.id in seen:
                raise InvalidConfigError(f"duplicate {kind} id {rec.id!r}")
            seen.add(rec.id)
    wp_ids = {w.id for w in spec.waypoints}
    for seg in spec.segments:
        if seg.frm not in wp_ids or seg.to not in wp_ids:
            raise InvalidConfigError(f"segment {seg.id!r} references unknown waypoint")
        if seg.region is not None:
            spec.region(seg.region)
        if seg.region is None and seg.terrain is None and seg.energy_wh:
            raise InvalidConfigError(
                f"segment {seg.id!r} has energies but neither region nor fixed terrain"
            )
    for act in spec.activities:
        if act.waypoint not in wp_ids:
            raise InvalidConfigError(f"activity {act.id!r} references unknown waypoint")
        if not (0.0 <= act.redo_prob <= 1.0):
            raise InvalidConfigError(f"activity {act.id!r} redo probability invalid")
    if spec.mission is not None:
        if spec.mission.start not in wp_ids or spec.mission.goal not in wp_ids:
            raise InvalidConfigError("mission start/goal not declared as waypoints")
        for act_id in spec.mission.require_activities:
            spec.activity(act_id)
    # The terminal value adds the final charge or the margin to the deadline.
    if spec.reward.terminal_battery and spec.battery is None:
        raise InvalidConfigError("reward.terminal_battery needs a battery section")
    if spec.reward.time_margin_bonus and (
        spec.mission is None or spec.mission.deadline_h is None
    ):
        raise InvalidConfigError("reward.time_margin_bonus needs mission.deadline_h")


def _check_non_negative(spec: ScenarioSpec):
    """Durations and thermal rates only move time and temperature forward,
    so motor temperatures stay at or above nominal: the compiler floors a
    cool at nominal, and a heating step needs no floor."""
    values = [(f"segment {s.id!r} duration_h", s.duration_h) for s in spec.segments]
    values += [(f"activity {a.id!r} duration_h", a.duration_h) for a in spec.activities]
    values.append(("actions.cool_grid_h", spec.actions.cool_grid_h))
    if spec.thermal is not None:
        values.append(("thermal.heat_rate_c_per_h", spec.thermal.heat_rate_c_per_h))
        values.append(("thermal.cool_rate_c_per_h", spec.thermal.cool_rate_c_per_h))
    for name, value in values:
        if value is not None and value < 0:
            raise InvalidConfigError(f"{name} must be non-negative, got {value}")


def load_scenario_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidConfigError(f"{path}: not valid JSON ({exc})") from exc
    return load_scenario(doc)

