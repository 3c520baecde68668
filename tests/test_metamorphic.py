"""Metamorphic relations: changes to a generated scenario whose effect on
every value is known without solving it.

(e) Doubling every energy quantity doubles every value, exactly.
(a) The value is the probability-weighted mean of the values given each
    value of any one ground-truth variable (law of total expectation).
(d) An unreachable waypoint and a region that no segment crosses change
    no value, exactly.
(b) Reordering the declared waypoints, segments, regions and activities
    changes no state value, and no analytic value beyond rounding.
(f) ``hadm``'s analytic value is the root value of ``solve``, to rounding.
"""
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadm.errors import HadmError
from hadm.model import value_iterate
from hadm.rover import compile_scenario, load_scenario
from hadm.rover.spec import RewardConfig
from hadm.strategies import analytic_expectation, applicable_strategies
from test_compiler_oracle import MAX_STATES, rover_documents
from test_strategies_oracle import mission_documents

_BONUSES = ("complete_bonus", "stranded_penalty", "motor_failure_penalty",
            "deadline_missed_penalty")


def scaled(doc, f):
    """``doc`` with ``f`` applied to every energy, wattage, bonus and penalty."""
    doc = copy.deepcopy(doc)
    for seg in doc["segments"]:
        if "energy_wh" in seg:
            seg["energy_wh"] = {c: f(e) for c, e in seg["energy_wh"].items()}
    for act in doc["activities"]:
        if "load_w" in act:
            act["load_w"] = f(act["load_w"])
    for section, keys in (("power", ("solar_w", "heater_w", "drive_w")),
                          ("battery", ("capacity_wh", "initial_wh", "charge_rate_w")),
                          ("reward", _BONUSES)):
        for key in keys:
            if key in doc.get(section, {}):
                doc[section][key] = f(doc[section][key])
    return doc


def on_grid(doc):
    """``doc`` with integer energies, wattages, bonuses and penalties, and
    durations in quarter hours."""
    doc = scaled(doc, round)
    timed = [*doc["segments"], *doc["activities"]]
    for item, key in [(x, "duration_h") for x in timed] + [
            (doc["actions"], "cool_grid_h"), (doc.get("power", {}), "sunlight_until_h")]:
        if key in item:
            item[key] = round(item[key] * 4) / 4
    return doc


def compiled_or_error(doc):
    """``doc`` compiled, or the error type when it does not compile."""
    try:
        return compile_scenario(load_scenario(doc), max_states=MAX_STATES)
    except HadmError as exc:
        return type(exc)


def values(doc):
    """(initial state, state values, {strategy: analytic value or error
    type}), or the error type when the document does not compile."""
    compiled = compiled_or_error(doc)
    if isinstance(compiled, type):
        return compiled
    analytic = {}
    for name in applicable_strategies(compiled.spec):
        try:
            analytic[name] = analytic_expectation(compiled, name)
        except HadmError as exc:
            analytic[name] = type(exc)
    return compiled.initial_state, value_iterate(compiled.problem).values, analytic


def twice(x):
    return x if isinstance(x, type) else 2 * x


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rover_documents())
def test_doubling_every_energy_doubles_every_value(doc):
    """(e) Over generated schema-valid documents with ``time_margin_bonus``
    off, doubling every segment energy, the battery capacity, initial
    charge and charge rate, every power wattage, every activity load and
    every terminal bonus and penalty must double, exactly: every state's
    value (so the root value) and each applicable strategy's analytic
    expectation.  Doubling is exact in binary, so the relation needs no
    tolerance.  A time-margin bonus does not scale, so it is switched off;
    a bonus or penalty left at its default is written out, so that it
    doubles too.

    The compiler rounds battery charge to 6 decimals, and
    ``round(2 * x, 6)`` is ``2 * round(x, 6)`` only for ``x`` on that
    grid: a capacity of 1207.5198546423644 Wh ends with 1207.519855 Wh,
    and doubled with 2415.039709 Wh, not 2415.03971; a 16 W heater over a
    1/3 h cool leaves 94.666667 Wh of 100, and doubled 189.333333, not
    189.333334.  So the generated energies, wattages, bonuses and
    penalties are first rounded to integers and the durations to quarter
    hours: every charge is then a multiple of 1/4 Wh, on the grid before
    and after doubling.
    """
    defaults = {key: getattr(RewardConfig(), key) for key in _BONUSES}
    doc["reward"] = {**defaults, **doc["reward"], "step_energy": True,
                     "time_margin_bonus": False}
    doc = on_grid(doc)
    base, doubled = values(doc), values(scaled(doc, lambda x: 2 * x))
    if isinstance(base, type):
        assert doubled == base
        return
    root, table, analytic = base
    assert doubled[0] == root
    assert doubled[1][root] == 2 * table[root]
    assert doubled[1] == {s: 2 * v for s, v in table.items()}
    assert doubled[2] == {name: twice(v) for name, v in analytic.items()}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mission_documents())
def test_value_is_the_mean_of_the_values_given_each_variable(doc):
    """(a) For every ground-truth variable ``rv`` and every applicable
    strategy, the analytic value equals the sum over values ``v`` of
    ``P(v)`` times the analytic value with ``rv`` pinned to ``v``.

    The two sides add the same episode totals in different orders (the
    enumeration runs in product order over all variables), so they agree
    only to rounding: exactly on builtin:2-4, and within 5.5e-16
    relative on ladder k=3 (seed 1).  Hence ``rel=1e-12``.
    """
    doc.pop("seeds")
    compiled = compiled_or_error(doc)
    if isinstance(compiled, type):
        return
    for name in applicable_strategies(compiled.spec):
        try:
            whole = analytic_expectation(compiled, name)
        except HadmError:
            continue
        for rv, dist in sorted(compiled.rv_defs.items()):
            total = sum(p * analytic_expectation(compiled, name, {rv: v})
                        for v, p in sorted(dist.items()))
            assert total == pytest.approx(whole, rel=1e-12)


def with_irrelevant_additions(doc):
    """``doc`` plus a waypoint that no segment enters, with a segment out
    of it, and a region that no segment crosses."""
    doc = copy.deepcopy(doc)
    doc["waypoints"].append({"id": "wX"})
    doc["segments"].append({"id": "sX", "from": "wX", "to": "w0"})
    doc["regions"].append({"id": "rX", "classes": {"hard": 0.5, "soft": 0.5}})
    return doc


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mission_documents())
def test_unreachable_additions_change_no_value(doc):
    """(d) The additions of ``with_irrelevant_additions`` leave the state
    count, every state's value (so the root value) and each applicable
    strategy's analytic value unchanged, exactly."""
    doc.pop("seeds")
    assert values(with_irrelevant_additions(doc)) == values(doc)


def reordered(items, rng):
    """``items`` shuffled, and rotated by one when the shuffle left them
    in their own order: most generated lists hold two items, and half
    their shuffles would test nothing."""
    order = list(items)
    rng.shuffle(order)
    return order[1:] + order[:1] if order == items else order


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mission_documents(), st.randoms(use_true_random=False))
def test_declaration_order_changes_no_value(doc, rng):
    """(b) Reordering ``waypoints``, ``segments``, ``regions`` and
    ``activities`` only renumbers the compiled states, so it leaves the
    multiset of state values and the root value unchanged, exactly, and
    each applicable strategy's analytic value within ``rel=1e-12``.
    Action indices follow the declaration order, and ``hadm`` breaks an
    exact Q-value tie toward the lowest index, so after a reordering it
    may play another action of equal value, whose episode totals add up
    to the same expectation only to rounding.  (No generated document
    has shown such a difference yet.)

    ``phm-commit`` is left out.  Its seeded ``"uniform"`` moves draw from
    the admissible actions sorted by index, so a reordering changes which
    move a draw picks, and so its episodes: its value changed on 8 of 216
    generated documents where it applies.
    """
    doc.pop("seeds")
    shuffled = copy.deepcopy(doc)
    for key in ("waypoints", "segments", "regions", "activities"):
        shuffled[key] = reordered(shuffled[key], rng)
    base, other = values(doc), values(shuffled)
    if isinstance(base, type):
        assert other == base
        return
    (root, table, analytic), (root2, table2, analytic2) = base, other
    assert table2[root2] == table[root]
    assert sorted(table2.values()) == sorted(table.values())
    analytic.pop("phm-commit", None)
    analytic2.pop("phm-commit", None)
    assert analytic2.keys() == analytic.keys()
    for name, value in analytic.items():
        if isinstance(value, type):
            assert analytic2[name] == value
        else:
            assert analytic2[name] == pytest.approx(value, rel=1e-12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mission_documents())
def test_hadm_attains_the_root_value(doc):
    """(f) ``hadm`` plays the optimal policy, so its analytic value equals
    the compiled problem's root value.  The enumeration sums episode
    totals while value iteration backs up the tree, so the two agree only
    to rounding: within one ulp on ladder k=3.  Hence ``rel=1e-9``.

    It runs 300 examples because few generated documents can show a
    wrong branch: a plant that takes the mirrored branch of a two-way
    row changed the value of 4 of 300 generated documents, and this test
    missed it at 100 examples."""
    doc.pop("seeds")
    compiled = compiled_or_error(doc)
    if isinstance(compiled, type):
        return
    root = value_iterate(compiled.problem)[compiled.initial_state]
    assert analytic_expectation(compiled, "hadm") == pytest.approx(root, rel=1e-9)
