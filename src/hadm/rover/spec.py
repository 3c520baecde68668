"""Declarative rover scenarios: schema and loading.

A scenario is a JSON document (built-ins go through the same loader)
describing a waypoint graph with terrain regions, activities, power and
battery budgets, thermal limits, deadlines, reward shaping, routes for
the commit-once comparison strategy, nominal/abort plans, and the
baseline health-management rule tables.

The records below define the document: each is an immutable
``NamedTuple`` whose annotations and defaults ``SCENARIO_SCHEMA`` is
derived from, and ``load_scenario`` builds them from it.  ``_FIELD_META``
holds the two facts an annotation cannot carry.
"""
import functools
import json
import math
import numbers
from collections import abc
from typing import (
    Literal, Mapping, NamedTuple, Optional, Union, get_args, get_origin,
)

from ..errors import InvalidConfigError
from ..shm import ShmRules

PROB_TOL = 1e-9


class Waypoint(NamedTuple):
    id: str
    name: str = ""
    charge_point: bool = False


class Region(NamedTuple):
    id: str
    # terrain class -> probability
    classes: Mapping[str, float]


class Segment(NamedTuple):
    id: str
    frm: str  # "from" in the document
    to: str
    duration_h: float = 1.0
    region: str = None
    terrain: str = None
    energy_wh: Mapping[str, float] = None  # terrain class -> Wh
    grade: Literal["flat", "uphill", "downhill"] = "flat"
    heats_motor: bool = False


class Activity(NamedTuple):
    id: str
    waypoint: str
    duration_h: float
    load_w: float = 0.0
    redo_prob: float = 0.0


class PowerConfig(NamedTuple):
    solar_w: float = 0.0
    heater_w: float = 0.0
    drive_w: float = 0.0
    sunlight_until_h: float = float("inf")


class BatteryConfig(NamedTuple):
    capacity_wh: float
    initial_wh: float
    charge_rate_w: float = 0.0


class ThermalConfig(NamedTuple):
    nominal_c: float = 20.0
    heat_rate_c_per_h: float = 0.0
    cool_rate_c_per_h: float = 0.0
    limit_c: float = float("inf")


class Mission(NamedTuple):
    start: str
    goal: str
    require_activities: tuple[str, ...] = ()
    deadline_h: Optional[float] = None


class RewardConfig(NamedTuple):
    step_energy: bool = False
    terminal_battery: bool = False
    time_margin_bonus: bool = False
    complete_bonus: float = 0.0
    stranded_penalty: float = 0.0
    motor_failure_penalty: float = -1e6
    deadline_missed_penalty: float = 0.0


class ActionConfig(NamedTuple):
    allow_charge: bool = False
    cool_grid_h: Optional[float] = None


class Route(NamedTuple):
    id: str
    moves: Mapping[str, str]  # waypoint -> action label, or "uniform"


class DegradationSection(NamedTuple):
    s0: float = 1.0
    rate_nominal: float = 0.05
    p_high: float = 0.0
    epsilon: float = 0.0
    horizon: int = 100
    sigma_max: float = None
    h_min: float = 0.0


class ScenarioSpec(NamedTuple):
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
    abort_plan: Mapping[str, str] = {}
    shm_rules: ShmRules = ShmRules()
    degradation: Optional[DegradationSection] = None
    # alias -> variant -> {random variable: value}
    override_aliases: Mapping[str, Mapping[str, Mapping]] = {}

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


# A field's document key when it is not the field name (``from`` is a
# keyword), and JSON Schema keywords added to its fragment.
_FIELD_META = {
    (Segment, "frm"): {"json": "from"},
    (Region, "classes"): {"minProperties": 1},
}

_JSON_TYPES = {str: "string", float: "number", int: "integer", bool: "boolean"}

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


@functools.cache
def _form(tp):
    """The JSON Schema fragment of annotation ``tp`` and its reader.

    A record is a closed object whose fields without a default are
    required; its ``_FIELD_META`` entry may rename it (``json``) or add
    ``minProperties``.  ``Optional`` adds ``null``, ``Literal`` is an
    enum, ``tuple[X, ...]`` an array of ``X`` and ``Mapping[str, X]`` an
    object of ``X`` values (a bare ``Mapping``, any object).

    ``read(value, path, errors)`` checks a JSON value against the
    fragment and builds it in the same walk.  It appends ``(path,
    message)`` for each violation, with jsonschema's texts, keyword by
    keyword in the fragment's key order.  A record is built only when
    its entry added no error, and a key it leaves out takes the field's
    default; an ``int`` reads an integral float such as 20.0 as its
    integer, and a nullable section that is null or empty is None.
    """
    origin, args = get_origin(tp), get_args(tp)
    if hasattr(tp, "_fields"):  # a record
        fields, properties, required = [], {}, []
        for name in tp._fields:
            meta = _FIELD_META.get((tp, name), {})
            key = meta.get("json", name)
            fragment, read = _form(tp.__annotations__[name])
            properties[key] = {
                **fragment, **{k: v for k, v in meta.items() if k != "json"}
            }
            fields.append((name, key, read, meta.get("minProperties", 0)))
            if name not in tp._field_defaults:
                required.append(key)
        schema = {"type": "object"}
        if required:
            schema["required"] = list(required)
        schema["additionalProperties"] = False
        schema["properties"] = properties
        known = frozenset(properties)  # SCENARIO_SCHEMA exposes `properties`

        def body(entry, path, errors):
            before = len(errors)
            errors += [(path, f"{key!r} is a required property")
                       for key in required if key not in entry]
            extras = [key for key in entry if key not in known]
            if extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                errors.append((path, f"Additional properties are not allowed "
                                     f"({names} {verb} unexpected)"))
            values = {}
            for name, key, read, least in fields:
                if key in entry:
                    value = entry[key]
                    values[name] = read(value, (*path, key), errors)
                    if isinstance(value, dict) and len(value) < least:
                        errors.append(((*path, key), f"{value!r} " + (
                            "should be non-empty" if least == 1
                            else "does not have enough properties"
                        )))
            return tp(**values) if len(errors) == before else None
    elif origin is Union:
        inner, read_inner = _form(args[0])
        schema = {**inner, "type": [inner["type"], "null"]}

        def body(value, path, errors):
            out = None if value is None else read_inner(value, path, errors)
            return None if value == {} else out
    elif origin is Literal:
        schema = {"enum": list(args)}

        def body(value, path, errors):
            # The enums list only strings, so ``in`` is JSON Schema's equality.
            if value not in args:
                errors.append((path, f"{value!r} is not one of {list(args)!r}"))
            return value
    elif origin is tuple:
        items, read_item = _form(args[0])
        schema = {"type": "array", "items": items}

        def body(value, path, errors):
            return tuple(read_item(item, (*path, i), errors)
                         for i, item in enumerate(value))
    elif origin is abc.Mapping and args:
        values, read_value = _form(args[1])
        schema = {"type": "object", "additionalProperties": values}

        def body(value, path, errors):
            return {k: read_value(v, (*path, k), errors) for k, v in value.items()}
    else:
        schema = {"type": "object" if origin is abc.Mapping else _JSON_TYPES[tp]}

        def body(value, path, errors):
            return int(value) if tp is int else value
    if "type" not in schema:
        return schema, body
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    checks = [_TYPES[t] for t in types]
    expected = ", ".join(map(repr, types))

    def read(value, path, errors):
        if any(check(value) for check in checks):
            return body(value, path, errors)
        errors.append((path, f"{value!r} is not of type {expected}"))
    return schema, read


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_form(ScenarioSpec)[0],
}


def _read(doc) -> ScenarioSpec:
    """The records of ``doc``; every schema violation, sorted by path,
    raises ``InvalidConfigError``."""
    errors = []
    spec = _form(ScenarioSpec)[1](doc, (), errors)
    if errors:
        lines = []
        for path, message in sorted(errors, key=lambda e: e[0]):
            path = "$" + "".join(
                f"[{p}]" if isinstance(p, int) else f".{p}" for p in path
            )
            lines.append(f"{path}: {message}")
        raise InvalidConfigError("invalid scenario file:\n" + "\n".join(lines))
    return spec


def validate_scenario_dict(doc: dict):
    """Schema-validate a scenario document, reporting the failing path."""
    _read(doc)


def load_scenario(doc: dict) -> ScenarioSpec:
    """Build a validated ScenarioSpec from a scenario document.

    Records are built from their entries by field, so field defaults
    live only on the record classes (``_field_defaults``).
    """
    spec = _read(doc)
    _check_finite(doc)
    for r in spec.regions:
        total = sum(r.classes.values())
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidConfigError(
                f"region {r.id!r} terrain probabilities sum to {total}"
            )
    for r in spec.regions:
        for c, p in r.classes.items():
            if not 0.0 <= p <= 1.0:
                raise InvalidConfigError(
                    f"region {r.id!r} terrain class {c!r} probability {p!r} "
                    f"is not in [0, 1]"
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
    """Durations, thermal rates and the charge rate only move time and
    temperature forward, so motor temperatures stay at or above nominal:
    the compiler floors a cool at nominal, and a heating step needs no
    floor."""
    values = [(f"segment {s.id!r} duration_h", s.duration_h) for s in spec.segments]
    values += [(f"activity {a.id!r} duration_h", a.duration_h) for a in spec.activities]
    values.append(("actions.cool_grid_h", spec.actions.cool_grid_h))
    if spec.battery is not None:
        values.append(("battery.charge_rate_w", spec.battery.charge_rate_w))
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

