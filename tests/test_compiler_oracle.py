"""The rover compiler against a frozen reference copy of itself.

``compiler_reference.py`` holds the compiler as it stood before its
power and thermal arithmetic moved into one step function.  Over
generated schema-valid documents (power with sunlight boundaries, fixed
segment energies, int and float thermal inputs, charging, cooling and
activity redos), both must compile to the same problem, or fail with the
same typed error and message.
"""
import importlib.util
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hadm.errors import HadmError
from hadm.rover import compile_scenario, load_scenario

_path = Path(__file__).resolve().parent / "compiler_reference.py"
_spec = importlib.util.spec_from_file_location("compiler_reference", _path)
reference = sys.modules["compiler_reference"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

MAX_STATES = 200


def _numbers(lo, hi, picks):
    """Numbers in ``[lo, hi]``: exact picks, integers and arbitrary floats."""
    return st.one_of(
        st.sampled_from(picks),
        st.integers(lo, hi),
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


_durations = _numbers(0, 3, [0, 1, 2, 0.5, 1.5, 0.25, 1 / 3])
_watts = _numbers(0, 400, [0, 50, 100, 150.5, 250, 300])
_energies = _numbers(-200, 700, [0, 200, 300, 600, -100, 123.4567891])


@st.composite
def rover_documents(draw):
    maybe = st.booleans()
    wps = [f"w{i}" for i in range(draw(st.integers(2, 4)))]
    doc = {
        "name": "generated",
        "kind": "rover",
        "waypoints": [{"id": w, "charge_point": draw(maybe)} for w in wps],
    }
    regions = []
    for i in range(draw(st.integers(0, 2))):
        names = draw(st.sampled_from([["hard"], ["soft"], ["hard", "soft"]]))
        p = draw(st.sampled_from([0.25, 0.5, 0.75]))
        probs = [1.0] if len(names) == 1 else [p, 1.0 - p]
        regions.append({"id": f"r{i}", "classes": dict(zip(names, probs))})
    doc["regions"] = regions

    segments = []
    for i in range(draw(st.integers(1, 5))):
        seg = {"id": f"s{i}", "from": draw(st.sampled_from(wps)),
               "to": draw(st.sampled_from(wps))}
        if draw(maybe):
            seg["duration_h"] = draw(_durations)
        kind = draw(st.sampled_from(["open", "region", "fixed"]))
        classes = []
        if kind == "region" and regions:
            region = draw(st.sampled_from(regions))
            seg["region"] = region["id"]
            classes = list(region["classes"])
        elif kind == "fixed":
            seg["terrain"] = draw(st.sampled_from(["easy", "hard"]))
            classes = [seg["terrain"]]
        if classes and draw(maybe):
            # Now and then one class goes without an energy, which the
            # compiler rejects once a branch reaches it.
            if draw(st.integers(0, 7)) == 0:
                classes = classes[1:]
            seg["energy_wh"] = {c: draw(_energies) for c in classes}
        seg["heats_motor"] = draw(maybe)
        segments.append(seg)
    doc["segments"] = segments

    activities = []
    for i in range(draw(st.integers(0, 2))):
        act = {"id": f"a{i}", "waypoint": draw(st.sampled_from(wps)),
               "duration_h": draw(_durations)}
        if draw(maybe):
            act["load_w"] = draw(_watts)
        if draw(maybe):
            act["redo_prob"] = draw(st.sampled_from([0, 0.5, 1.0, 0.3]))
        activities.append(act)
    doc["activities"] = activities

    if draw(maybe):
        fields = {"solar_w": _watts, "heater_w": _watts, "drive_w": _watts,
                  "sunlight_until_h": _numbers(0, 6, [0, 1, 2, 3.5, 4])}
        doc["power"] = {k: draw(v) for k, v in fields.items() if draw(maybe)}
    has_battery = draw(st.integers(0, 3)) > 0
    if has_battery:
        cap = draw(_numbers(1, 1500, [100, 500, 1000, 250.5]))
        battery = {"capacity_wh": cap,
                   "initial_wh": cap * draw(st.sampled_from([1, 0.5, 0.9, 0.1234567]))}
        if draw(st.integers(0, 3)) > 0:
            battery["charge_rate_w"] = draw(_watts)
        doc["battery"] = battery
    if draw(maybe):
        fields = {"nominal_c": _numbers(-20, 40, [20, 20.0, 0]),
                  "heat_rate_c_per_h": _numbers(0, 50, [20, 20.0, 0, 12.5]),
                  "cool_rate_c_per_h": _numbers(0, 50, [40, 40.0, 0, 7.5]),
                  "limit_c": _numbers(0, 120, [80, 60, 50.5])}
        doc["thermal"] = {k: draw(v) for k, v in fields.items() if draw(maybe)}

    mission = {"start": "w0", "goal": draw(st.sampled_from(wps))}
    if activities and draw(maybe):
        ids = [a["id"] for a in activities]
        mission["require_activities"] = draw(st.lists(st.sampled_from(ids), unique=True))
    has_deadline = draw(st.integers(0, 4)) > 0
    if has_deadline:
        mission["deadline_h"] = draw(_numbers(0, 8, [2, 3, 4.5, 6]))
    doc["mission"] = mission

    reward = {"step_energy": draw(maybe)}
    if has_battery:
        reward["terminal_battery"] = draw(maybe)
    if has_deadline:
        reward["time_margin_bonus"] = draw(maybe)
    for key in ("complete_bonus", "stranded_penalty", "motor_failure_penalty",
                "deadline_missed_penalty"):
        if draw(maybe):
            reward[key] = draw(_numbers(-1000, 1000, [0, 100, -1000000]))
    doc["reward"] = reward
    actions = {"allow_charge": draw(st.integers(0, 3)) > 0}
    if draw(maybe):
        actions["cool_grid_h"] = draw(_durations)
    doc["actions"] = actions
    return doc


def compiled_facts(compile_fn, spec):
    """Everything a compiled scenario exposes, as one comparable string;
    ``repr`` tells ints from floats and keeps each table's order."""
    try:
        c = compile_fn(spec, max_states=MAX_STATES)
    except HadmError as exc:
        return repr((type(exc), str(exc)))
    p = c.problem
    return repr((
        p.state_labels, p.action_labels, p.admissible, p.transitions,
        sorted(p.terminal), p.horizon,
        c.initial_state, c.outcomes, c.rv_defs, c.action_index, c.targets,
        c.cool_action, [dict(c.channels(s)) for s in range(p.n_states)],
    ))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(rover_documents())
def test_compiler_matches_the_reference(doc):
    spec = load_scenario(doc)
    assert (compiled_facts(compile_scenario, spec)
            == compiled_facts(reference.compile_scenario, spec))
