"""The strategies against a frozen reference copy of themselves.

``strategies_reference.py`` holds ``hadm.strategies`` as it stood while
the commit-once and baseline providers still read the raw route and
abort tables.  Over generated schema-valid documents (routes with
"uniform" moves, inadmissible moves and waypoints they leave out, abort
plans, and mitigation rules whose grade constraints trigger the abort),
every applicable strategy must play the same episodes on both sides,
or fail with the same typed error.  Its exact expectation must agree
with the reference's within ``rel=1e-12``, as the walk sums per row and
the reference per ground truth.  The one exception is a ``phm-commit``
whose route has "uniform" moves: the reference values it on the draws
of seed 0, so it must agree instead with the expectation over every
(ground truth, draw sequence) pair, from replayed reference episodes.
Each side compiles the document on its own, so no cached table or route
choice passes from one to the other.
"""
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadm.strategies
from hadm.errors import HadmError
from hadm.loop import run_loop
from hadm.rover import Plant, compile_scenario, load_scenario, resolve_overrides

_path = Path(__file__).resolve().parent / "strategies_reference.py"
_spec = importlib.util.spec_from_file_location("strategies_reference", _path)
reference = sys.modules["strategies_reference"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

MAX_STATES = 200
GRADES = ["flat", "uphill", "downhill"]


@st.composite
def mission_documents(draw):
    maybe = st.booleans()
    wps = [f"w{i}" for i in range(draw(st.integers(2, 4)))]
    doc = {
        "name": "generated",
        "kind": "rover",
        "waypoints": [{"id": w, "charge_point": draw(maybe)} for w in wps],
    }
    regions = []
    for i in range(draw(st.integers(0, 2))):
        names = draw(st.sampled_from([["hard"], ["hard", "soft"]]))
        # Unequal pairs, so that a swapped pair of probabilities shows.
        probs = [1.0] if len(names) == 1 else draw(
            st.sampled_from([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]))
        regions.append({"id": f"r{i}", "classes": dict(zip(names, probs))})
    doc["regions"] = regions

    segments = []
    for i in range(draw(st.integers(1, 6))):
        seg = {"id": f"s{i}", "from": draw(st.sampled_from(wps)),
               "to": draw(st.sampled_from(wps)),
               "duration_h": draw(st.sampled_from([0.5, 1, 2])),
               "grade": draw(st.sampled_from(GRADES)),
               "heats_motor": draw(maybe)}
        if regions and draw(maybe):
            region = draw(st.sampled_from(regions))
            seg["region"] = region["id"]
            seg["energy_wh"] = {c: draw(st.sampled_from([100, 300, 600]))
                                for c in region["classes"]}
        segments.append(seg)
    doc["segments"] = segments

    activities = [
        {"id": f"a{i}", "waypoint": draw(st.sampled_from(wps)),
         "duration_h": draw(st.sampled_from([0.5, 1])),
         "redo_prob": draw(st.sampled_from([0, 0.3, 0.5]))}
        for i in range(draw(st.integers(0, 2)))
    ]
    doc["activities"] = activities

    has_battery = draw(maybe)
    if has_battery:
        doc["battery"] = {"capacity_wh": 1000, "charge_rate_w": 500,
                          "initial_wh": draw(st.sampled_from([400, 1000]))}
    has_thermal = draw(maybe)
    if has_thermal:
        doc["thermal"] = {"nominal_c": 20, "heat_rate_c_per_h": 20,
                          "cool_rate_c_per_h": 40,
                          "limit_c": draw(st.sampled_from([60, 80]))}
    mission = {"start": "w0", "goal": draw(st.sampled_from(wps)),
               "deadline_h": draw(st.sampled_from([2, 3, 4]))}
    if activities and draw(maybe):
        mission["require_activities"] = [activities[0]["id"]]
    doc["mission"] = mission
    doc["reward"] = {"step_energy": draw(maybe), "complete_bonus": 100,
                     "deadline_missed_penalty": -50,
                     "motor_failure_penalty": -1000}
    doc["actions"] = {"allow_charge": has_battery and draw(maybe)}
    if draw(maybe):
        doc["actions"]["cool_grid_h"] = draw(st.sampled_from([0.5, 1]))

    labels = [f"drive:{s['id']}" for s in segments]
    labels += [f"science:{a['id']}" for a in activities]
    if doc["actions"]["allow_charge"]:
        labels.append("charge_to_full")
    if "cool_grid_h" in doc["actions"]:
        labels.append(f"cool:{doc['actions']['cool_grid_h']}h")
    labels.append("stay")  # admissible in no state that decides
    moves = st.sampled_from(labels)
    # Moves that start at a waypoint, or any move (mostly inadmissible
    # there) when none does.
    local = {w: st.sampled_from(
        [f"drive:{s['id']}" for s in segments if s["from"] == w]
        + [f"science:{a['id']}" for a in activities if a["waypoint"] == w]
        or labels) for w in wps}

    # A route or abort plan leaves some waypoints out; a route also has
    # "uniform" moves, and a move that starts elsewhere is inadmissible.
    doc["routes"] = [
        {"id": f"route{i}",
         "moves": {w: draw(st.one_of(local[w], moves, st.just("uniform")))
                   for w in wps if draw(st.integers(0, 3)) > 0}}
        for i in range(draw(st.integers(0, 3)))
    ]
    plan, at = [], "w0"
    for _ in range(draw(st.integers(0, 6))):
        plan.append(draw(st.one_of(local[at], moves)))
        at = next((s["to"] for s in segments if f"drive:{s['id']}" == plan[-1]), at)
    doc["nominal_plan"] = plan
    doc["abort_plan"] = {w: draw(st.one_of(local[w], moves))
                         for w in wps if draw(maybe)}

    detectors = [{"channel": "time_h", "op": ">=",
                  "limit": draw(st.sampled_from([0, 0.5, 1]))}]
    if has_thermal:
        detectors.append({"channel": "motor_temp_c", "op": ">", "limit": 30})
    if has_battery:
        detectors.append({"channel": "battery_wh", "op": "<", "limit": 500,
                          "when": {"at_charge_point": True}})
    detectors = draw(st.lists(st.sampled_from(detectors), max_size=3))
    diagnosis = [
        {"channel": d["channel"], "component": "rover", "mode": f"m{i}",
         "probability": draw(st.sampled_from([1.0, 0.5])),
         "parameters": {"rate": draw(st.sampled_from([0, 10])),
                        "channel": d["channel"], "limit": 80}}
        for i, d in enumerate(detectors)
    ]
    mitigations = []
    for i in range(len(diagnosis)):
        rule = {"fault_mode": f"m{i}", "priority": draw(st.integers(0, 2)),
                "action": draw(st.one_of(st.just("stop_and_cool_down"), moves))}
        if draw(st.integers(0, 3)) > 0:
            rule["constraints"] = {"grades": draw(
                st.lists(st.sampled_from(GRADES), max_size=2, unique=True))
            }
        mitigations.append(rule)
    doc["shm_rules"] = {"detectors": detectors, "diagnosis": diagnosis,
                        "mitigations": mitigations,
                        "min_probability": draw(st.sampled_from([0.0, 0.75]))}
    doc["seeds"] = draw(st.lists(st.integers(0, 2**16), min_size=3, max_size=3))
    return doc


def _typed(fn, *args, **kwargs):
    """``fn``'s result, or its typed error as a comparable value."""
    try:
        return fn(*args, **kwargs)
    except HadmError as exc:
        return repr((type(exc), str(exc)))


def _episode(strategies, compiled, strategy, seed, overrides):
    plant = Plant(compiled, seed=seed, overrides=overrides)
    provider = strategies.make_provider(strategy, compiled, seed=seed)
    trace = run_loop(plant, compiled.problem, provider)
    return (trace.actions(), [r.reward for r in trace.records], trace.total,
            trace.terminal, trace.terminal_label, trace.truncated, trace.aborted)


def behaviour(strategies, spec, seeds):
    """The compiled scenario, the exact expectation of every applicable
    strategy under each pin as (strategy, overrides, value), and every
    episode; a failed compile is its typed error alone."""
    compiled = _typed(compile_scenario, spec, max_states=MAX_STATES)
    if isinstance(compiled, str):
        return compiled
    pins = [
        None,
        {rv: min(values) for rv, values in sorted(compiled.rv_defs.items())},
        {rv: max(values) for rv, values in sorted(compiled.rv_defs.items())},
    ]
    values, episodes = [], []
    for strategy in strategies.applicable_strategies(spec):
        for overrides in pins:
            values.append((strategy, overrides, _typed(
                strategies.analytic_expectation, compiled, strategy, overrides)))
            for seed in seeds:
                episodes.append(_typed(_episode, strategies, compiled, strategy,
                                       seed, overrides))
    return compiled, values, episodes


class _Draws:
    """A ``random.Random`` stand-in: ``choice`` plays the option indices
    ``picks``, then the first option, and logs each draw's option count."""

    def __init__(self, picks):
        self.picks, self.widths = picks, []

    def choice(self, options):
        i = len(self.widths)
        self.widths.append(len(options))
        return options[self.picks[i] if i < len(self.picks) else 0]


def drawn_expectation(compiled, overrides) -> float:
    """``phm-commit``'s expected total over every (ground truth, draw
    sequence) pair, each replayed as a reference episode."""
    pinned = resolve_overrides(compiled, overrides)
    rvs = sorted(compiled.rv_defs)
    choices = [[(pinned[rv], 1.0)] if rv in pinned
               else sorted(compiled.rv_defs[rv].items()) for rv in rvs]
    total = 0.0
    for combo in itertools.product(*choices):
        prob = math.prod(p for _, p in combo)
        if prob <= 0.0:
            continue
        truth = {rv: value for rv, (value, _) in zip(rvs, combo)}
        pending = [()]
        while pending:
            picks = pending.pop()
            provider = reference.make_provider("phm-commit", compiled)
            provider.rng = draws = _Draws(picks)
            plant = Plant(compiled, assignments=truth)
            trace = run_loop(plant, compiled.problem, provider)
            total += prob / math.prod(draws.widths) * trace.total
            # Every sequence that leaves this one at a draw past ``picks``.
            for i in range(len(picks), len(draws.widths)):
                zeros = (0,) * (i - len(picks))
                pending += [picks + zeros + (k,) for k in range(1, draws.widths[i])]
    return total


def _draws_seed(compiled, strategy) -> bool:
    """Whether ``strategy`` commits to a route with "uniform" moves."""
    choice = compiled.route_choice
    return (strategy == "phm-commit" and choice is not None
            and "uniform" in compiled.route_policies[choice[0]].values())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mission_documents())
def test_strategies_match_the_reference(doc):
    seeds = doc.pop("seeds")
    spec = load_scenario(doc)
    got = behaviour(hadm.strategies, spec, seeds)
    want = behaviour(reference, spec, seeds)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    compiled, values, episodes = got
    assert episodes == want[2]
    assert [v[:2] for v in values] == [v[:2] for v in want[1]]
    for (strategy, overrides, value), (_, _, expected) in zip(values, want[1]):
        if _draws_seed(compiled, strategy):
            expected = _typed(drawn_expectation, compiled, overrides)
        if isinstance(value, str) or isinstance(expected, str):
            assert value == expected
        else:
            assert value == pytest.approx(expected, rel=1e-12)
