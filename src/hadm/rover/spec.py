"""Declarative rover scenarios: schema and loading.

A scenario is a JSON document (built-ins go through the same loader)
describing a waypoint graph with terrain regions, activities, power and
battery budgets, thermal limits, deadlines, reward shaping, routes for
the commit-once comparison strategy, nominal/abort plans, and the
baseline health-management rule tables.

The records below define the document: ``SCENARIO_SCHEMA`` is derived
from their annotations and ``load_scenario`` builds them from it.
"""
import dataclasses
import functools
import json
import math
import numbers
from collections import abc
from dataclasses import dataclass, field
from typing import Literal, Mapping, Optional, Union, get_args, get_origin

from ..errors import InvalidConfigError
from ..shm import ShmRules

PROB_TOL = 1e-9


@dataclass(frozen=True)
class Waypoint:
    id: str
    name: str = ""
    charge_point: bool = False


@dataclass(frozen=True)
class Region:
    id: str
    # terrain class -> probability
    classes: Mapping[str, float] = field(metadata={"minProperties": 1})


@dataclass(frozen=True)
class Segment:
    id: str
    frm: str = field(metadata={"json": "from"})
    to: str
    duration_h: float = 1.0
    region: str = None
    terrain: str = None
    energy_wh: Mapping[str, float] = None  # terrain class -> Wh
    grade: Literal["flat", "uphill", "downhill"] = "flat"
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
    require_activities: tuple[str, ...] = ()
    deadline_h: Optional[float] = None


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
    cool_grid_h: Optional[float] = None


@dataclass(frozen=True)
class Route:
    id: str
    moves: Mapping[str, str]  # waypoint -> action label, or "uniform"


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
    kind: Literal["rover", "prognostics"]
    comments: tuple[str, ...] = ()
    waypoints: tuple[Waypoint, ...] = ()
    regions: tuple[Region, ...] = ()
    segments: tuple[Segment, ...] = ()
    activities: tuple[Activity, ...] = ()
    power: Optional[PowerConfig] = None
    battery: Optional[BatteryConfig] = None
    thermal: Optional[ThermalConfig] = None
    mission: Mission = None
    reward: RewardConfig = RewardConfig()
    actions: ActionConfig = ActionConfig()
    routes: tuple[Route, ...] = ()
    nominal_plan: tuple[str, ...] = ()
    abort_plan: Mapping[str, str] = field(default_factory=dict)
    shm_rules: ShmRules = ShmRules()
    degradation: Optional[DegradationSection] = None
    # alias -> variant -> {random variable: value}
    override_aliases: Mapping[str, Mapping[str, Mapping]] = field(
        default_factory=dict
    )

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


_JSON_TYPES = {str: "string", float: "number", int: "integer", bool: "boolean"}


def _json_name(f: dataclasses.Field) -> str:
    return f.metadata.get("json", f.name)


def _schema(tp) -> dict:
    """The JSON Schema of annotation ``tp``.  A record is a closed object
    whose fields without a default are required; a field's metadata may
    rename it (``json``) or add keywords.  ``Optional`` adds ``null``,
    ``Literal`` is an enum, ``tuple[X, ...]`` an array of ``X`` and
    ``Mapping[str, X]`` an object of ``X`` values (a bare ``Mapping``,
    any object)."""
    if dataclasses.is_dataclass(tp):
        fields = dataclasses.fields(tp)
        out = {"type": "object"}
        required = [
            _json_name(f) for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if required:
            out["required"] = required
        out["additionalProperties"] = False
        out["properties"] = {
            _json_name(f): {
                **_schema(f.type),
                **{k: v for k, v in f.metadata.items() if k != "json"},
            }
            for f in fields
        }
        return out
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        inner = _schema(args[0])
        return {**inner, "type": [inner["type"], "null"]}
    if origin is Literal:
        return {"enum": list(args)}
    if origin is tuple:
        return {"type": "array", "items": _schema(args[0])}
    if origin is abc.Mapping:
        if args:
            return {"type": "object", "additionalProperties": _schema(args[1])}
        return {"type": "object"}
    return {"type": _JSON_TYPES[tp]}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_schema(ScenarioSpec),
}


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

    Records are built from their entries by field, so field defaults
    live only on the dataclasses.
    """
    validate_scenario_dict(doc)
    _check_finite(doc)
    spec = _reader(ScenarioSpec)(doc)
    for r in spec.regions:
        total = sum(r.classes.values())
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidConfigError(
                f"region {r.id!r} terrain probabilities sum to {total}"
            )
    battery = spec.battery
    if battery is not None:
        if battery.capacity_wh <= 0 or battery.initial_wh < 0:
            raise InvalidConfigError("battery capacity/initial must be positive")
        if battery.initial_wh > battery.capacity_wh:
            raise InvalidConfigError("initial charge exceeds capacity")
    _cross_check(spec)
    _check_non_negative(spec)
    return spec


@functools.cache
def _reader(tp):
    """The function that builds a value of annotation ``tp`` from its
    schema-valid JSON value.  A key a record's entry leaves out takes the
    field's default, an ``int`` field reads an integral float such as
    20.0 as its integer, and a nullable section that is null or empty is
    None."""
    if dataclasses.is_dataclass(tp):
        fields = [(f.name, _json_name(f), _reader(f.type))
                  for f in dataclasses.fields(tp)]
        return lambda entry: tp(**{
            name: read(entry[key]) for name, key, read in fields if key in entry
        })
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        read = _reader(args[0])
        return lambda value: None if value is None or value == {} else read(value)
    if origin is tuple:
        read = _reader(args[0])
        return lambda value: tuple(map(read, value))
    if origin is abc.Mapping and args:
        read = _reader(args[1])
        return lambda value: {k: read(v) for k, v in value.items()}
    return int if tp is int else (lambda value: value)


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
    for i, rule in enumerate(spec.shm_rules.diagnosis):
        if not (0.0 <= rule.probability <= 1.0):
            raise InvalidConfigError(
                f"$.shm_rules.diagnosis[{i}].probability: "
                f"{rule.probability!r} is not in [0, 1]"
            )
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

