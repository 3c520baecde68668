"""The four built-in scenarios, expressed as plain scenario documents.

Built-ins go through the same loader as scenario files, so exporting one
to JSON and loading it back is the identity.
"""
from __future__ import annotations

import copy
import json

from ..errors import InvalidConfigError
from .spec import ScenarioSpec, load_scenario

_SCENARIO_1 = {
    "name": "uncontrolled-degradation",
    "kind": "prognostics",
    "degradation": {
        "s0": 1.0,
        "rate_nominal": 0.05,
        "p_high": 0.2,
        "epsilon": 0.05,
        "horizon": 20,
        "sigma_max": 1.0,
        "h_min": 0.0,
    },
}

_SCENARIO_2 = {
    "name": "crater-route-choice",
    "kind": "rover",
    "waypoints": [
        {"id": "wp0"},
        {"id": "wp1"},
        {"id": "wp2"},
        {"id": "wp3"},
        {"id": "wp4"},
    ],
    "regions": [
        {"id": "left", "classes": {"difficult": 0.4, "moderate": 0.6}},
        {"id": "right", "classes": {"difficult": 0.5, "moderate": 0.5}},
    ],
    "segments": [
        {"id": "L1", "from": "wp0", "to": "wp1", "region": "left",
         "energy_wh": {"difficult": 600, "moderate": 300}},
        {"id": "L2", "from": "wp1", "to": "wp4", "region": "left",
         "energy_wh": {"difficult": 600, "moderate": 300}},
        {"id": "R1", "from": "wp0", "to": "wp2", "region": "right",
         "energy_wh": {"difficult": 600, "moderate": 300}},
        {"id": "R2", "from": "wp2", "to": "wp4", "region": "right",
         "energy_wh": {"difficult": 600, "moderate": 300}},
        {"id": "D1", "from": "wp2", "to": "wp3", "terrain": "easy",
         "energy_wh": {"easy": 200}},
        {"id": "D2", "from": "wp3", "to": "wp4", "terrain": "easy",
         "energy_wh": {"easy": 200}},
    ],
    "battery": {"capacity_wh": 1100, "initial_wh": 1100},
    "mission": {"start": "wp0", "goal": "wp4"},
    "reward": {"step_energy": True},
    "routes": [
        {"id": "left", "moves": {"wp0": "drive:L1", "wp1": "drive:L2"}},
        {"id": "right", "moves": {"wp0": "drive:R1", "wp2": "uniform"}},
    ],
    "nominal_plan": ["drive:L1", "drive:L2"],
    "override_aliases": {
        "terrain": {
            "difficult-both": {"terrain:left": "difficult", "terrain:right": "difficult"},
            "moderate-both": {"terrain:left": "moderate", "terrain:right": "moderate"},
        }
    },
}

_SCENARIO_3 = {
    "name": "recharge-decision",
    "kind": "rover",
    "comments": [
        "The stationary science power flows are worked out with a 200 W "
        "total load (250 - 200 = +50 W) even though the payload alone is "
        "quoted as 100 W; the 200 W figure is what the timeline uses."
    ],
    "waypoints": [
        {"id": "wp0", "charge_point": True},
        {"id": "wp1"},
        {"id": "wp2", "charge_point": True},
    ],
    "segments": [
        {"id": "d01", "from": "wp0", "to": "wp1", "duration_h": 4},
        {"id": "d12", "from": "wp1", "to": "wp2", "duration_h": 4},
    ],
    "activities": [
        {"id": "sci1", "waypoint": "wp1", "duration_h": 2, "load_w": 200,
         "redo_prob": 0.5}
    ],
    "power": {"solar_w": 250, "heater_w": 150, "drive_w": 300,
              "sunlight_until_h": 12},
    "battery": {"capacity_wh": 1500, "initial_wh": 500, "charge_rate_w": 250},
    "mission": {"start": "wp0", "goal": "wp2", "require_activities": ["sci1"]},
    "reward": {"terminal_battery": True},
    "actions": {"allow_charge": True},
    "nominal_plan": ["drive:d01", "science:sci1", "drive:d12"],
    "override_aliases": {
        "redo": {"true": {"redo:sci1": "true"}, "false": {"redo:sci1": "false"}}
    },
    "shm_rules": {
        "detectors": [
            {"channel": "battery_wh", "op": "<", "limit": 1500,
             "when": {"at_charge_point": True}}
        ],
        "diagnosis": [
            {"channel": "battery_wh", "component": "battery", "mode": "low_battery"}
        ],
        "mitigations": [
            {"fault_mode": "low_battery", "action": "charge_to_full"}
        ],
    },
}

_SCENARIO_4 = {
    "name": "hill-climb-motor-heat",
    "kind": "rover",
    "waypoints": [
        {"id": "A"},
        {"id": "h1"},
        {"id": "h2"},
        {"id": "h3"},
        {"id": "h4"},
        {"id": "h5"},
        {"id": "wp2"},
    ],
    "segments": (
        [
            {"id": f"up{i}", "from": wp_from, "to": wp_to, "duration_h": 1,
             "grade": "uphill", "heats_motor": True}
            for i, (wp_from, wp_to) in enumerate(
                [("A", "h1"), ("h1", "h2"), ("h2", "h3"),
                 ("h3", "h4"), ("h4", "h5"), ("h5", "wp2")]
            )
        ]
        + [
            {"id": f"down{i + 1}", "from": wp_to, "to": wp_from, "duration_h": 1,
             "grade": "downhill"}
            for i, (wp_from, wp_to) in enumerate(
                [("A", "h1"), ("h1", "h2"), ("h2", "h3"),
                 ("h3", "h4"), ("h4", "h5"), ("h5", "wp2")]
            )
        ]
    ),
    "activities": [{"id": "sci2", "waypoint": "wp2", "duration_h": 1}],
    "thermal": {"nominal_c": 20, "heat_rate_c_per_h": 20,
                "cool_rate_c_per_h": 40, "limit_c": 80},
    "mission": {"start": "A", "goal": "wp2", "require_activities": ["sci2"],
                "deadline_h": 10},
    "reward": {"time_margin_bonus": True, "motor_failure_penalty": -1000000},
    "actions": {"cool_grid_h": 1},
    "nominal_plan": [f"drive:up{i}" for i in range(6)] + ["science:sci2"],
    "abort_plan": {
        "wp2": "drive:down6", "h5": "drive:down5", "h4": "drive:down4",
        "h3": "drive:down3", "h2": "drive:down2", "h1": "drive:down1",
    },
    "shm_rules": {
        "detectors": [{"channel": "motor_temp_c", "op": ">", "limit": 40}],
        "diagnosis": [
            {"channel": "motor_temp_c", "component": "drive_motor",
             "mode": "increased_friction",
             "parameters": {"rate": 20, "channel": "motor_temp_c", "limit": 80}}
        ],
        "mitigations": [
            {"fault_mode": "increased_friction", "action": "stop_and_cool_down",
             "constraints": {"grades": ["flat", "downhill"]}}
        ],
    },
}

_BUILTINS = {1: _SCENARIO_1, 2: _SCENARIO_2, 3: _SCENARIO_3, 4: _SCENARIO_4}


def builtin_scenario_dict(n: int) -> dict:
    """The raw JSON-shaped document for built-in scenario ``n``."""
    if n not in _BUILTINS:
        raise InvalidConfigError(f"no built-in scenario {n}; choose 1-4")
    return copy.deepcopy(_BUILTINS[n])


def builtin_scenario(n: int) -> ScenarioSpec:
    """Built-in scenario ``n`` (1-4), via the standard loading path."""
    return load_scenario(builtin_scenario_dict(n))


def export_builtin(n: int) -> str:
    """Built-in scenario ``n`` as a JSON string."""
    return json.dumps(builtin_scenario_dict(n), indent=2, sort_keys=True)
