"""Rover domain tests: scenario loading, compilation, plant simulation."""
import importlib.util
import json
from pathlib import Path

import pytest

from hadm.cli import main as cli_main
from hadm.errors import InadmissibleActionError, InvalidConfigError, ResourceLimitError
from hadm.model import value_iterate
from hadm.rover import (
    COMPLETE,
    MOTOR_FAILURE,
    STRANDED,
    STUCK,
    Plant,
    builtin_scenario,
    builtin_scenario_dict,
    compile_scenario,
    export_builtin,
    load_scenario,
    resolve_overrides,
    validate_scenario_dict,
)


@pytest.fixture(scope="module")
def crater():
    return compile_scenario(builtin_scenario(2))


@pytest.fixture(scope="module")
def recharge():
    return compile_scenario(builtin_scenario(3))


@pytest.fixture(scope="module")
def hill():
    return compile_scenario(builtin_scenario(4))


class TestScenarioLoading:
    def test_builtin_round_trip(self):
        for n in range(1, 5):
            doc = json.loads(export_builtin(n))
            assert load_scenario(doc) == builtin_scenario(n)

    def test_schema_violation_reports_path(self):
        with pytest.raises(InvalidConfigError) as err:
            validate_scenario_dict({"name": 1})
        assert "$.name" in str(err.value)
        assert "kind" in str(err.value)

    def test_unknown_waypoint_rejected(self):
        doc = builtin_scenario_dict(2)
        doc["segments"][0]["to"] = "nowhere"
        with pytest.raises(InvalidConfigError):
            load_scenario(doc)

    def test_region_probabilities_must_normalize(self):
        doc = builtin_scenario_dict(2)
        doc["regions"][0]["classes"] = {"difficult": 0.4, "moderate": 0.4}
        with pytest.raises(InvalidConfigError):
            load_scenario(doc)

    DUPLICATES = [
        (2, "waypoints", "waypoint", {"id": "wp0"}),
        (2, "regions", "region", {"id": "left", "classes": {"moderate": 1.0}}),
        (2, "segments", "segment", {"id": "L1", "from": "wp0", "to": "wp4"}),
        (3, "activities", "activity",
         {"id": "sci1", "waypoint": "wp0", "duration_h": 1}),
        (2, "routes", "route", {"id": "left", "moves": {"wp0": "drive:R1"}}),
    ]

    @pytest.mark.parametrize("n, section, kind, record", DUPLICATES,
                             ids=[d[2] for d in DUPLICATES])
    def test_duplicate_ids_rejected(self, n, section, kind, record, tmp_path,
                                    capsys):
        doc = builtin_scenario_dict(n)
        doc[section].append(record)
        message = f"duplicate {kind} id {record['id']!r}"
        with pytest.raises(InvalidConfigError, match=message):
            load_scenario(doc)
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_initial_charge_bounded_by_capacity(self):
        doc = builtin_scenario_dict(2)
        doc["battery"]["initial_wh"] = 5000
        with pytest.raises(InvalidConfigError):
            load_scenario(doc)

    @pytest.mark.parametrize("path", [
        ("segments", 0, "duration_h"),
        ("activities", 0, "duration_h"),
        ("actions", "cool_grid_h"),
        ("thermal", "heat_rate_c_per_h"),
        ("thermal", "cool_rate_c_per_h"),
    ])
    def test_negative_durations_and_rates_rejected(self, path):
        doc = builtin_scenario_dict(4)
        *parents, leaf = path
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = -1
        with pytest.raises(InvalidConfigError, match="non-negative"):
            load_scenario(doc)

    def test_integral_float_priority_reads_as_its_integer(self):
        doc = builtin_scenario_dict(4)
        doc["shm_rules"]["mitigations"][0]["priority"] = 5.0
        (rule,) = load_scenario(doc).shm_rules.mitigations
        assert type(rule.priority) is int and rule.priority == 5
        doc["shm_rules"]["mitigations"][0]["priority"] = 5.5
        with pytest.raises(InvalidConfigError, match="is not of type 'integer'"):
            load_scenario(doc)


def _moves(compiled, label):
    """(state, successor) for every ``label`` transition out of an ok state."""
    a, p = compiled.action(label), compiled.problem
    return [
        (compiled.states[s], compiled.states[s2])
        for (s, b), rows in p.transitions.items()
        if b == a and compiled.states[s].status == "ok"
        for s2, _, _ in rows
    ]


def _net_watts(compiled, hours_of, sunset):
    """Net battery watts per action label, over the transitions wholly in
    sunlight and those wholly after ``sunset``; a transition that ends at
    capacity hides its watts, so it is left out."""
    cap = compiled.spec.battery.capacity_wh
    sun, dark = {}, {}
    for label, hours in hours_of.items():
        for st, nxt in _moves(compiled, label):
            if nxt.battery_wh == cap:
                continue
            watts = (nxt.battery_wh - st.battery_wh) / hours
            if nxt.time_h <= sunset:
                sun.setdefault(label, set()).add(watts)
            elif st.time_h >= sunset:
                dark.setdefault(label, set()).add(watts)
    return sun, dark


class TestEnergyAndThermalModels:
    def test_net_power_table(self):
        # builtin:3 plus a one-hour idle (cool) action: sunlight until 12 h,
        # solar 250 W, heater 150 W after sunset, drive 300 W, sci1 200 W.
        doc = builtin_scenario_dict(3)
        doc["actions"]["cool_grid_h"] = 1
        compiled = compile_scenario(load_scenario(doc))
        hours = {"drive:d01": 4, "drive:d12": 4, "science:sci1": 2, "cool:1h": 1}
        sun, dark = _net_watts(compiled, hours, sunset=12)
        assert sun == {"drive:d01": {-50.0}, "drive:d12": {-50.0},
                       "science:sci1": {50.0}, "cool:1h": {250.0}}
        assert dark == {"drive:d01": {-450.0}, "drive:d12": {-450.0},
                        "science:sci1": {-350.0}, "cool:1h": {-150.0}}

    def test_motor_temperature_model(self, hill):
        # builtin:4: climbing heats 20 C/h, cooling takes 40 C/h, nominal 20.
        plant = Plant(hill, seed=0)
        for label in ("drive:up0", "drive:up1"):
            obs, _ = plant.step(hill.action(label))
        assert obs["motor_temp_c"] == 60.0
        assert {nxt.temp_c for st, nxt in _moves(hill, "cool:1h")
                if st.temp_c == 60} == {20.0}
        # Cooling never goes below nominal.
        doc = builtin_scenario_dict(4)
        doc["actions"]["cool_grid_h"] = 5
        compiled = compile_scenario(load_scenario(doc))
        assert {nxt.temp_c for st, nxt in _moves(compiled, "cool:5h")
                if st.temp_c == 40} == {20.0}


class TestCompilation:
    def test_crater_shape(self, crater):
        p = crater.problem
        assert p.n_states == 13
        assert p.gamma == 1.0
        root = crater.initial_state
        labels = [p.action_labels[a] for a in p.admissible[root]]
        assert labels == ["drive:L1", "drive:R1"]

    def test_terrain_reveal_probabilities(self, crater):
        p = crater.problem
        root = crater.initial_state
        a = crater.action("drive:L1")
        probs = sorted(pr for _, pr, _ in p.transitions[(root, a)])
        assert probs == [0.4, 0.6]

    def test_branch_energy_in_transition_rewards(self, crater):
        p = crater.problem
        root = crater.initial_state
        a = crater.action("drive:L1")
        energies = sorted(-r for _, _, r in p.transitions[(root, a)])
        assert energies == [300.0, 600.0]

    def test_rv_definitions(self, crater):
        assert crater.rv_defs == {
            "terrain:left": {"difficult": 0.4, "moderate": 0.6},
            "terrain:right": {"difficult": 0.5, "moderate": 0.5},
        }

    def test_terminal_states_absorb(self, crater):
        p = crater.problem
        for s in p.terminal:
            assert p.transitions[(s, p.admissible[s][0])] == ((s, 1.0, 0.0),)

    def test_battery_clamps_at_capacity(self, recharge):
        # Charging always ends exactly at capacity.
        for st in recharge.states:
            if st.battery_wh is not None and st.status == "ok":
                assert st.battery_wh <= recharge.spec.battery.capacity_wh

    def test_negative_segment_energy_clamps_at_capacity(self):
        # Driving D1 now gains 500 Wh; what would exceed the capacity is
        # lost, as when net power charges the battery.
        doc = builtin_scenario_dict(2)
        d1 = next(seg for seg in doc["segments"] if seg["id"] == "D1")
        d1["energy_wh"] = {"easy": -500}
        compiled = compile_scenario(load_scenario(doc))
        cap = compiled.spec.battery.capacity_wh
        assert max(st.battery_wh for st in compiled.states) == cap
        assert any(st.position == "wp3" and st.battery_wh == cap
                   for st in compiled.states)

    def test_stranded_keeps_deficit(self, crater):
        deficits = [
            st.battery_wh for st in crater.states if st.status == STRANDED
        ]
        assert deficits and all(b < 0 for b in deficits)

    def test_stuck_state_is_worth_nothing(self, recharge):
        p = recharge.problem
        table = value_iterate(p)
        for s, st in enumerate(recharge.states):
            if st.status == STUCK:
                assert table[s] == 0.0
                for (s0, a), row in p.transitions.items():
                    for s2, _, r in row:
                        if s2 == s and recharge.states[s0].status == "ok":
                            assert r == 0.0

    def test_motor_failure_reachable_and_penalized(self, hill):
        p = hill.problem
        failures = [s for s, st in enumerate(hill.states)
                    if st.status == MOTOR_FAILURE]
        assert failures
        penalties = {
            r
            for (s0, a), row in p.transitions.items()
            for s2, _, r in row
            if s2 in failures and hill.states[s0].status == "ok"
        }
        assert penalties == {-1000000.0}

    def test_three_consecutive_climbs_overheat(self, hill):
        up = [hill.action(f"drive:up{i}") for i in range(3)]
        plant = Plant(hill, seed=0)
        for a in up[:2]:
            plant.step(a)
        obs, reward = plant.step(up[2])
        assert obs["status"] == MOTOR_FAILURE
        assert reward == -1000000.0

    def test_state_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            compile_scenario(builtin_scenario(4), max_states=10)

    def test_state_cap_names_the_state_it_could_not_add(self):
        """The cap's message labels the first state past it as
        ``state_labels`` would."""
        with pytest.raises(ResourceLimitError) as err:
            compile_scenario(builtin_scenario(4), max_states=100)
        assert str(err.value) == (
            "compiled state count exceeded 100 "
            "(growing dimension near 'h4|t=8.0|T=60|sci2=todo')"
        )

    def test_prognostics_scenario_does_not_compile(self):
        with pytest.raises(InvalidConfigError):
            compile_scenario(builtin_scenario(1))


class TestPlant:
    def test_same_seed_same_ground_truth(self, crater):
        a = Plant(crater, seed=5)
        b = Plant(crater, seed=5)
        assert a.assignments == b.assignments

    def test_sampling_frequencies_match_declared(self, crater):
        count = 0
        n = 2000
        for seed in range(n):
            if Plant(crater, seed=seed).assignments["terrain:left"] == "difficult":
                count += 1
        assert abs(count / n - 0.4) < 0.05

    def test_override_alias_expansion(self, crater):
        got = resolve_overrides(crater, {"terrain": "difficult-both"})
        assert got == {"terrain:left": "difficult", "terrain:right": "difficult"}

    def test_raw_variable_override(self, crater):
        plant = Plant(crater, seed=0, overrides={"terrain:left": "moderate"})
        assert plant.assignments["terrain:left"] == "moderate"

    def test_unknown_override_rejected(self, crater):
        with pytest.raises(InvalidConfigError):
            Plant(crater, seed=0, overrides={"weather": "sunny"})

    def test_unknown_variant_rejected(self, crater):
        with pytest.raises(InvalidConfigError):
            Plant(crater, seed=0, overrides={"terrain": "muddy"})

    def test_alias_to_an_undeclared_value_rejected(self):
        doc = builtin_scenario_dict(2)
        doc["override_aliases"]["terrain"]["muddy-left"] = {"terrain:left": "muddy"}
        compiled = compile_scenario(load_scenario(doc))
        with pytest.raises(InvalidConfigError, match="'terrain:left' cannot be"):
            Plant(compiled, seed=0, overrides={"terrain": "muddy-left"})

    def test_step_follows_pinned_branch(self, crater):
        plant = Plant(crater, seed=0, overrides={"terrain": "difficult-both"})
        obs, reward = plant.step(crater.action("drive:L1"))
        assert obs["terrain:left"] == "difficult"
        assert reward == -600.0
        obs, reward = plant.step(crater.action("drive:L2"))
        assert obs["status"] == STRANDED
        assert obs["battery_wh"] == -100.0
        # The stranding branch also pays the terminal penalty/bonus (none
        # here beyond the energy itself).
        assert reward == -600.0

    def test_moderate_ground_truth_completes_left(self, crater):
        plant = Plant(crater, seed=0, overrides={"terrain": "moderate-both"})
        plant.step(crater.action("drive:L1"))
        obs, _ = plant.step(crater.action("drive:L2"))
        assert obs["status"] == COMPLETE
        assert obs["battery_wh"] == 500.0

    def test_inadmissible_action_rejected(self, crater):
        plant = Plant(crater, seed=0)
        with pytest.raises(InadmissibleActionError):
            plant.step(crater.action("drive:D1"))

    def test_charge_timeline(self, recharge):
        plant = Plant(recharge, seed=0)
        obs, _ = plant.step(recharge.action("charge_to_full"))
        assert obs["battery_wh"] == 1500
        assert obs["time_h"] == 4.0

    def test_redo_override_timeline(self, recharge):
        plant = Plant(recharge, seed=0, overrides={"redo": "true"})
        plant.step(recharge.action("drive:d01"))
        obs, _ = plant.step(recharge.action("science:sci1"))
        assert obs["science:sci1"] == "redo"
        obs, _ = plant.step(recharge.action("science:sci1"))
        assert obs["science:sci1"] == "done"
        assert obs["battery_wh"] == 500.0  # 300 + 2 * 100

    def test_observation_matches_compiled_state(self, crater):
        plant = Plant(crater, seed=3)
        obs = plant.observe()
        assert obs["state_index"] == plant.state
        assert obs["waypoint"] == "wp0"
        assert obs["battery_wh"] == 1100

    def test_each_observation_is_a_new_dict(self, crater):
        plant = Plant(crater, seed=0)
        a, b = plant.observe(), plant.observe()
        assert a == b and a is not b
        a["battery_wh"] = 0
        a["extra"] = 1
        assert plant.observe() == b


def _ladder(k):
    path = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return load_scenario(ladder.scenario(k, seed=1))


@pytest.mark.parametrize("load", [
    pytest.param(lambda: builtin_scenario(2), id="builtin:2"),
    pytest.param(lambda: builtin_scenario(3), id="builtin:3"),
    pytest.param(lambda: builtin_scenario(4), id="builtin:4"),
    pytest.param(lambda: _ladder(3), id="ladder-k3"),
])
def test_pinned_outcome_shows_in_the_successor(load):
    """Every value of a stochastic row's variable, pinned in a plant, leads
    to a successor whose own components show that value."""
    compiled = compile_scenario(load())
    assert bool(compiled.outcomes) == bool(compiled.rv_defs)
    for (s, a), (rv, values) in compiled.outcomes.items():
        assert sorted(values) == sorted(compiled.rv_defs[rv])
        kind, name = rv.split(":", 1)
        for value in compiled.rv_defs[rv]:
            plant = Plant(compiled, seed=0, overrides={rv: value})
            plant.state = s
            plant.step(a)
            reached = compiled.states[plant.state]
            if kind == "terrain":
                regions = [r.id for r in compiled.spec.regions]
                assert reached.terrain[regions.index(name)] == value
            else:
                assert kind == "redo"
                activities = [a.id for a in compiled.spec.activities]
                want = {"false": "done", "true": "redo"}[value]
                assert reached.science[activities.index(name)] == want
