"""Reference scenario loader for the oracle test in ``test_spec_oracle.py``.

A verbatim copy of ``SCENARIO_SCHEMA`` and of the record construction in
``load_scenario`` (with ``_shm_rules`` and ``_integral``) from
``hadm.rover.spec`` as of commit c8bcf8b, when the schema literal and
the records were written down separately.  Only the imports are
changed, to absolute ones, and the two names: the literal is
``FROZEN_SCHEMA`` and the loader ``reference_load``.  The loader calls
the package's own checks (``validate_scenario_dict``, ``_check_finite``,
``_cross_check``, ``_check_non_negative``); what it pins is how the
records are built.  Two lines follow later renames of the records:
``ShmRules.detectors`` holds the predicates that a ``FaultDetector``
used to wrap, and ``Mission.require_activities`` is a tuple like every
other array.  Do not edit the code below: the oracle test holds
the schema and the loader to exactly this behaviour.
"""
from typing import Mapping

from hadm.errors import InvalidConfigError
from hadm.rover.spec import (
    PROB_TOL,
    ActionConfig,
    Activity,
    BatteryConfig,
    DegradationSection,
    Mission,
    PowerConfig,
    Region,
    RewardConfig,
    Route,
    ScenarioSpec,
    Segment,
    ThermalConfig,
    Waypoint,
    _check_finite,
    _check_non_negative,
    _cross_check,
    validate_scenario_dict,
)
from hadm.shm import (
    DiagnosisRule,
    MitigationRule,
    ShmRules,
    ThresholdPredicate,
)

_number = {"type": "number"}
_string = {"type": "string"}

FROZEN_SCHEMA = {
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


def reference_load(doc: dict) -> ScenarioSpec:
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
        mission=Mission(**{k: tuple(v) if k == "require_activities" else v
                           for k, v in doc["mission"].items()})
        if doc.get("mission")
        else None,
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
        detectors=tuple(ThresholdPredicate(**d) for d in rules.get("detectors", ())),
        diagnosis=tuple(DiagnosisRule(**d) for d in rules.get("diagnosis", ())),
        mitigations=tuple(
            MitigationRule(**_integral(m, "priority"))
            for m in rules.get("mitigations", ())
        ),
        **{k: v for k, v in rules.items() if k == "min_probability"},
    )
