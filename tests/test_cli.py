"""Command-line tests: exit codes, summaries, artifact reproducibility."""
import io
import json
import math
import time

import pytest

from hadm.cli import main


def run_cli(argv):
    return main(argv)


def builtin_with(tmp_path, n, path, value) -> str:
    """A file holding built-in ``n``'s document with ``value`` set at the
    key ``path``."""
    from hadm.rover import builtin_scenario_dict

    doc = builtin_scenario_dict(n)
    *parents, leaf = path
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    return str(scenario)


def star(n) -> dict:
    """A star: ``n`` segments from ``s``, each over its own two-class
    region, then an easy segment on to ``g``."""
    hubs = [f"m{i}" for i in range(n)]
    return {
        "name": f"star-{n}",
        "kind": "rover",
        "waypoints": [{"id": w} for w in ["s", "g", *hubs]],
        "regions": [{"id": f"r{i}", "classes": {"hard": 0.5, "soft": 0.5}}
                    for i in range(n)],
        "segments": [{"id": f"in{i}", "from": "s", "to": m, "region": f"r{i}"}
                     for i, m in enumerate(hubs)]
        + [{"id": f"out{i}", "from": m, "to": "g", "terrain": "easy"}
           for i, m in enumerate(hubs)],
        "mission": {"start": "s", "goal": "g"},
        "nominal_plan": ["drive:in0", "drive:out0"],
    }


class TestExitCodes:
    def test_run_success(self, capsys):
        assert run_cli(["run", "--scenario", "builtin:2"]) == 0

    def test_unknown_builtin_is_config_error(self, capsys):
        assert run_cli(["run", "--scenario", "builtin:9"]) == 2

    def test_missing_file_is_config_error(self, capsys):
        assert run_cli(["run", "--scenario", "/nonexistent/path.json"]) == 2

    def test_non_numeric_builtin_is_config_error(self, capsys):
        assert run_cli(["run", "--scenario", "builtin:x"]) == 2
        assert capsys.readouterr().err.startswith("error: no built-in scenario 'x'")

    def test_directory_path_is_config_error(self, capsys, tmp_path):
        assert run_cli(["run", "--scenario", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert run_cli(["run", "--scenario", "builtin:2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        assert run_cli(["run", "--scenario", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_override_is_config_error(self, capsys):
        assert run_cli(
            ["run", "--scenario", "builtin:2", "--set", "weather=sunny"]
        ) == 2

    @pytest.mark.parametrize("command", [
        ["run", "--strategy", "hadm"],
        ["run", "--strategy", "phm-commit"],
        ["compare", "--rollouts", "1"],
    ])
    def test_alias_to_an_unknown_variable_is_config_error(
        self, capsys, tmp_path, command
    ):
        from hadm.rover import builtin_scenario_dict

        doc = builtin_scenario_dict(2)
        doc["override_aliases"]["terrain"]["ghost"] = {"terrain:nowhere": "x"}
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*command, "--scenario", str(path), "--set", "terrain=ghost"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "'terrain:nowhere'" in err
        assert "['terrain:left', 'terrain:right']" in err

    def test_malformed_override_is_config_error(self, capsys):
        assert run_cli(["run", "--scenario", "builtin:2", "--set", "nopair"]) == 2

    def test_prognostics_scenario_cannot_run(self, capsys):
        assert run_cli(["run", "--scenario", "builtin:1"]) == 2

    def test_rover_scenario_cannot_predict(self, capsys):
        assert run_cli(["predict", "--scenario", "builtin:2"]) == 2

    def test_negative_duration_is_config_error(self, capsys, tmp_path):
        from hadm.rover import builtin_scenario_dict

        doc = builtin_scenario_dict(4)
        doc["segments"][0]["duration_h"] = -2
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["run", "--scenario", str(path)]) == 2

    @pytest.mark.parametrize("n, drop, message", [
        (3, ("battery", "power"), "reward.terminal_battery needs a battery section"),
        (4, ("deadline_h",), "reward.time_margin_bonus needs mission.deadline_h"),
    ])
    @pytest.mark.parametrize("command", [["solve"], ["run"], ["compare"]])
    def test_terminal_reward_without_its_input_is_config_error(
        self, capsys, tmp_path, n, drop, message, command
    ):
        from hadm.rover import builtin_scenario_dict

        doc = builtin_scenario_dict(n)
        for key in drop:
            (doc["mission"] if key == "deadline_h" else doc).pop(key)
        path = tmp_path / "reward.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli([*command, "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n, path, field", [
        (2, ("nominal_plan", 1), "$.nominal_plan[1]"),
        (2, ("routes", 1, "moves", "wp3"), "$.routes[1].moves.wp3"),
        (4, ("abort_plan", "A"), "$.abort_plan.A"),
        (3, ("shm_rules", "mitigations", 0, "action"),
         "$.shm_rules.mitigations[0].action"),
    ], ids=["nominal_plan", "routes", "abort_plan", "mitigation"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["run", "--strategy", "hadm"],
        ["run", "--strategy", "phm-commit"],
        ["compare", "--rollouts", "1"],
    ])
    def test_unknown_action_label_is_config_error(
        self, capsys, tmp_path, n, path, field, command
    ):
        scenario = builtin_with(tmp_path, n, path, "drive:X9")
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: {field}: unknown action 'drive:X9'\n"
        )

    @pytest.mark.parametrize("n, path, move, field", [
        (2, ("routes", 0, "moves", "wpX"), "drive:L1", "$.routes[0].moves.wpX"),
        (4, ("abort_plan", "nowhere"), "drive:down1", "$.abort_plan.nowhere"),
    ], ids=["routes", "abort_plan"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["run", "--strategy", "phm-commit"],
        ["run", "--strategy", "shm-baseline"],
        ["compare", "--rollouts", "1"],
    ])
    def test_unknown_waypoint_key_is_config_error(
        self, capsys, tmp_path, n, path, move, field, command
    ):
        scenario = builtin_with(tmp_path, n, path, move)
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: {field}: unknown waypoint {path[-1]!r}\n"
        )

    @pytest.mark.parametrize("n, path, value, field", [
        (3, ("segments", 0, "duration_h"), math.inf, "$.segments[0].duration_h"),
        (3, ("segments", 0, "duration_h"), math.nan, "$.segments[0].duration_h"),
        (2, ("segments", 2, "energy_wh", "moderate"), math.inf,
         "$.segments[2].energy_wh.moderate"),
        (4, ("shm_rules", "detectors", 0, "limit"), -math.inf,
         "$.shm_rules.detectors[0].limit"),
    ], ids=["inf_duration", "nan_duration", "inf_energy", "inf_limit"])
    @pytest.mark.parametrize("command", [["solve"], ["run"], ["compare"]])
    def test_non_finite_number_is_config_error(
        self, capsys, tmp_path, n, path, value, field, command
    ):
        scenario = builtin_with(tmp_path, n, path, value)
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: {field}: {value} is not a finite number\n"
        )

    @pytest.mark.parametrize("n, path, value, field, channel", [
        (2, ("shm_rules",),
         {"detectors": [{"channel": "motor_temp_c", "op": ">", "limit": 40}]},
         "detectors[0].channel", "motor_temp_c"),
        (3, ("shm_rules", "detectors", 0, "when"), {"at_nowhere": True},
         "detectors[0].when.at_nowhere", "at_nowhere"),
        (4, ("shm_rules", "diagnosis", 0, "channel"), "coolant_c",
         "diagnosis[0].channel", "coolant_c"),
        (4, ("shm_rules", "diagnosis", 0, "parameters", "channel"), "coolant_c",
         "diagnosis[0].parameters.channel", "coolant_c"),
        (4, ("shm_rules", "diagnosis", 0, "parameters", "channel"), ["x"],
         "diagnosis[0].parameters.channel", ["x"]),
    ], ids=["detector", "guard", "diagnosis", "parameters", "not_a_name"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["run", "--strategy", "hadm"],
        ["run", "--strategy", "shm-baseline"],
        ["compare", "--rollouts", "1"],
    ])
    def test_unknown_shm_channel_is_config_error(
        self, capsys, tmp_path, n, path, value, field, channel, command
    ):
        scenario = builtin_with(tmp_path, n, path, value)
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: $.shm_rules.{field}: unknown channel {channel!r}\n"
        )

    @pytest.mark.parametrize("n, path, value, field, channel", [
        (4, ("shm_rules", "detectors", 0, "channel"), "waypoint",
         "detectors[0].channel", "waypoint"),
        (4, ("shm_rules", "detectors", 0),
         {"channel": "status", "op": "<=", "limit": 1},
         "detectors[0].channel", "status"),
        (3, ("shm_rules", "detectors", 0),
         {"channel": "science:sci1", "op": ">=", "limit": 0},
         "detectors[0].channel", "science:sci1"),
        (2, ("shm_rules",),
         {"detectors": [{"channel": "terrain:left", "op": "<", "limit": 0}]},
         "detectors[0].channel", "terrain:left"),
        (4, ("shm_rules", "diagnosis", 0, "parameters", "channel"), "waypoint",
         "diagnosis[0].parameters.channel", "waypoint"),
    ], ids=["waypoint", "status", "science", "terrain", "parameters"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["run", "--strategy", "shm-baseline"],
        ["compare", "--rollouts", "1"],
    ])
    def test_ordering_on_a_non_numeric_channel_is_config_error(
        self, capsys, tmp_path, n, path, value, field, channel, command
    ):
        """An ordering detector or a prognosis ``parameters.channel`` on a
        string or None channel used to fail in the pipeline (exit 1)."""
        scenario = builtin_with(tmp_path, n, path, value)
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: $.shm_rules.{field}: channel {channel!r} is not numeric\n"
        )

    @pytest.mark.parametrize("op", ["==", "!="])
    def test_equality_on_a_non_numeric_channel_runs(self, capsys, tmp_path, op):
        scenario = builtin_with(tmp_path, 4, ("shm_rules", "detectors", 0),
                                {"channel": "waypoint", "op": op, "limit": 1})
        assert run_cli(["run", "--scenario", scenario,
                        "--strategy", "shm-baseline"]) == 0

    @pytest.mark.parametrize("path, value, field, message", [
        (("diagnosis", 0, "parameters", "rate"), "x",
         "diagnosis[0].parameters.rate", "'x' is not a number"),
        (("diagnosis", 0, "parameters", "limit"), "80",
         "diagnosis[0].parameters.limit", "'80' is not a number"),
        (("diagnosis", 0, "parameters", "rate"), True,
         "diagnosis[0].parameters.rate", "True is not a number"),
        (("mitigations", 0, "constraints", "grades"), 5,
         "mitigations[0].constraints.grades", "5 is not an array of strings"),
        (("mitigations", 0, "constraints", "grades"), "flat",
         "mitigations[0].constraints.grades", "'flat' is not an array of strings"),
        (("mitigations", 0, "constraints", "grades"), ["flat", None],
         "mitigations[0].constraints.grades",
         "['flat', None] is not an array of strings"),
    ], ids=["rate", "limit", "bool_rate", "grades_number", "grades_string",
            "grades_item"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["run", "--strategy", "shm-baseline"],
        ["compare", "--rollouts", "1"],
    ])
    def test_bad_shm_parameter_type_is_config_error(
        self, capsys, tmp_path, path, value, field, message, command
    ):
        """A non-numeric prognosis rate or limit used to fail in the
        pipeline (exit 1); a ``grades`` string was split into letters."""
        scenario = builtin_with(tmp_path, 4, ("shm_rules", *path), value)
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: $.shm_rules.{field}: {message}\n"
        )

    def test_null_prognosis_rate_runs_without_prognosis(self, capsys, tmp_path):
        scenario = builtin_with(
            tmp_path, 4, ("shm_rules", "diagnosis", 0, "parameters", "rate"), None
        )
        assert run_cli(["run", "--scenario", scenario,
                        "--strategy", "shm-baseline"]) == 0

    @pytest.mark.parametrize("probability", [1.5, -0.25])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["run", "--strategy", "hadm"],
        ["run", "--strategy", "shm-baseline"],
        ["compare", "--rollouts", "1"],
        ["predict"],
    ])
    def test_diagnosis_probability_outside_unit_interval_is_config_error(
        self, capsys, tmp_path, probability, command
    ):
        """Loading rejects it; before, only the baseline's pipeline did,
        once the detector fired."""
        scenario = builtin_with(
            tmp_path, 4, ("shm_rules", "diagnosis", 0, "probability"), probability
        )
        assert run_cli([*command, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            f"error: $.shm_rules.diagnosis[0].probability: "
            f"{probability!r} is not in [0, 1]\n"
        )

    def test_state_cap_is_resource_error(self, capsys):
        assert run_cli(
            ["run", "--scenario", "builtin:4", "--max-states", "10"]
        ) == 3

    def test_ground_truth_cap_is_resource_error(
        self, capsys, tmp_path, monkeypatch
    ):
        """22 two-class regions compile to 89 states but 2**22 ground
        truths: ``compare`` stops before its first episode."""
        import hadm.strategies

        path = tmp_path / "star.json"
        path.write_text(json.dumps(star(22)), encoding="utf-8")
        assert run_cli(["solve", "--scenario", str(path)]) == 0
        assert "states: 89\n" in capsys.readouterr().out
        assert run_cli(["run", "--scenario", str(path)]) == 0

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(hadm.strategies, "run_loop", no_episode)
        start = time.perf_counter()
        assert run_cli(["compare", "--scenario", str(path), "--rollouts", "1",
                        "--strategies", "fixed-plan"]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.endswith(
            "error: 4194304 ground-truth assignments to enumerate exceed "
            "the cap of 1000000\n"
        )

    @pytest.mark.parametrize("command", [
        ["run", "--strategy", "phm-commit"],
        ["compare", "--strategies", "phm-commit", "--rollouts", "1"],
    ])
    def test_open_loop_leaf_cap_is_resource_error(self, capsys, tmp_path, command):
        """A route that moves uniformly over 40 two-way forks has 2**40
        paths: the ``phm-commit`` route walk stops at the cap."""
        k = 40
        doc = {
            "name": "forks",
            "kind": "rover",
            "waypoints": [{"id": f"w{i}"} for i in range(k + 1)],
            "segments": [{"id": f"{x}{i}", "from": f"w{i - 1}", "to": f"w{i}",
                          "terrain": "easy"}
                         for i in range(1, k + 1) for x in "XY"],
            "mission": {"start": "w0", "goal": f"w{k}"},
            "routes": [{"id": "any", "moves": dict.fromkeys(
                [f"w{i}" for i in range(k)], "uniform")}],
        }
        path = tmp_path / "forks.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", "--scenario", str(path)]) == 0
        assert run_cli([*command, "--scenario", str(path)]) == 3
        assert capsys.readouterr().err.endswith(
            "error: open-loop enumeration exceeded 100000 scenarios\n"
        )

    def test_inapplicable_strategy_is_config_error(self, capsys):
        assert run_cli(
            ["compare", "--scenario", "builtin:3",
             "--strategies", "phm-commit", "--rollouts", "1"]
        ) == 2

    @pytest.mark.parametrize("strategy", ["shm-baseline", "fixed-plan", "phm-commit"])
    def test_run_with_an_inapplicable_strategy_is_config_error(
        self, capsys, tmp_path, strategy
    ):
        """``run`` reports what ``compare`` reports for a strategy that
        needs a nominal plan or routes the scenario does not declare."""
        doc = star(2)
        del doc["nominal_plan"]
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in (["run", "--strategy"], ["compare", "--strategies"]):
            assert run_cli([*command, strategy, "--scenario", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"error: strategy {strategy!r} is not applicable to scenario 'star-2'\n"
            )

    @pytest.mark.parametrize("command, message", [
        (["compare", "--strategies", "phm-commit,hadm", "--rollouts", "1"],
         "strategy 'phm-commit' is not applicable to scenario 'recharge-decision'"),
        (["compare", "--strategies", "hadm,phm-commit", "--rollouts", "1"],
         "unknown ground-truth variable 'weather'; declared: ['redo', 'redo:sci1']"),
        (["run", "--strategy", "phm-commit"],
         "strategy 'phm-commit' is not applicable to scenario 'recharge-decision'"),
        (["compare", "--strategies", ",", "--rollouts", "1"],
         "--strategies ',' names no strategy"),
        (["compare", "--strategies", "nosuch", "--max-states", "5"],
         "unknown strategy 'nosuch'"),
        (["run", "--max-states", "5", "--set", "bad"],
         "--set expects var=value, got 'bad'"),
        (["compare", "--max-states", "5", "--set", "bad"],
         "--set expects var=value, got 'bad'"),
    ], ids=["inapplicable_first", "applicable_first", "run", "no_strategy",
            "unknown_under_state_cap", "malformed_under_state_cap_run",
            "malformed_under_state_cap_compare"])
    def test_bad_override_with_an_inapplicable_strategy(
        self, capsys, command, message
    ):
        """The first listed strategy decides which error is reported;
        ``run`` checks its strategy before the overrides too.  A
        malformed ``--set`` is reported before the scenario compiles."""
        assert run_cli(
            [*command, "--scenario", "builtin:3", "--set", "weather=sunny"]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("extra", [[], ["--max-states", "5"]],
                             ids=["uncapped", "under_state_cap"])
    def test_zero_rollouts_is_config_error(self, capsys, extra):
        assert run_cli(
            ["compare", "--scenario", "builtin:2", "--rollouts", "0", *extra]
        ) == 2

    @pytest.mark.parametrize("command", [["solve"], ["run"], ["compare"]])
    def test_max_states_below_one_is_config_error(self, capsys, command):
        assert run_cli(
            [*command, "--scenario", "builtin:2", "--max-states", "0"]
        ) == 2
        assert capsys.readouterr().err == (
            "error: max_states must be at least 1, got 0\n"
        )

    @pytest.mark.parametrize("argv", [
        ["solve", "--scenario", "builtin:3", "--seed", "1"],
        ["solve", "--scenario", "builtin:3", "--out", "values.txt"],
        ["predict", "--scenario", "builtin:1", "--seed", "1"],
        ["predict", "--scenario", "builtin:1", "--max-states", "10"],
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[3:])}" in captured.err
        assert not (tmp_path / "values.txt").exists()

    def test_mark_faulty_is_rejected_by_the_schema(self, capsys, tmp_path):
        from hadm.rover import builtin_scenario_dict

        doc = builtin_scenario_dict(4)
        doc["shm_rules"]["mitigations"][0]["mark_faulty"] = "drive_motor"
        path = tmp_path / "mark_faulty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario file:\n")
        assert "$.shm_rules.mitigations[0]" in err
        assert "'mark_faulty' was unexpected" in err


def left_only(tmp_path, l1, l2) -> str:
    """A file holding builtin:2 without its battery, routes and right
    region: ``L1`` and ``L2`` over ``left``, with the energies given."""
    from hadm.rover import builtin_scenario_dict

    doc = builtin_scenario_dict(2)
    del doc["battery"], doc["routes"], doc["override_aliases"]
    doc["regions"] = [r for r in doc["regions"] if r["id"] == "left"]
    doc["segments"] = [s for s in doc["segments"] if s["id"] in ("L1", "L2")]
    doc["segments"][0]["energy_wh"] = l1
    doc["segments"][1]["energy_wh"] = l2
    scenario = tmp_path / "left.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    return str(scenario)


class TestRewardOverflow:
    """Finite energies whose sums leave the float range exit 4."""

    HUGE = {"difficult": -1.7e308, "moderate": 1.7e308}

    def overflow(self, capsys, argv):
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err
        return err

    def test_solve(self, tmp_path, capsys):
        path = left_only(tmp_path, self.HUGE, self.HUGE)
        value_out = tmp_path / "value.csv"
        err = self.overflow(capsys, [
            "solve", "--scenario", path, "--value-out", str(value_out)])
        assert "value overflow: state 'wp0|t=0.0|left=?' is worth nan" in err
        assert not value_out.exists()

    @pytest.mark.parametrize("strategy", ["hadm", "fixed-plan", "shm-baseline"])
    def test_run(self, tmp_path, capsys, strategy):
        path = left_only(tmp_path, self.HUGE, self.HUGE)
        out = tmp_path / "run.jsonl"
        err = self.overflow(capsys, [
            "run", "--scenario", path, "--strategy", strategy,
            "--format", "jsonl", "--out", str(out)])
        if strategy == "hadm":
            assert "value overflow" in err
        else:
            assert "reward overflow: the total after step 1 is -inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--strategies", "fixed-plan"]])
    def test_compare(self, tmp_path, capsys, extra):
        path = left_only(tmp_path, self.HUGE, self.HUGE)
        self.overflow(capsys, [
            "compare", "--scenario", path, "--rollouts", "10", *extra])

    def test_compare_mean(self, tmp_path, capsys):
        """Every total is finite, but their sum is not."""
        path = left_only(tmp_path, {"difficult": 1.7e308, "moderate": 1.7e308},
                         {"difficult": 0, "moderate": 0})
        assert run_cli(["compare", "--scenario", path, "--rollouts", "1"]) == 0
        capsys.readouterr()
        err = self.overflow(capsys, [
            "compare", "--scenario", path, "--rollouts", "2"])
        assert "strategy 'hadm' has mean -inf and standard error 0.0" in err

    def test_compare_standard_error(self, tmp_path, capsys):
        """The totals and their mean are finite, but their spread is not."""
        path = left_only(tmp_path, {"difficult": -1.5e308, "moderate": 1.5e308},
                         {"difficult": 0, "moderate": 0})
        err = self.overflow(capsys, [
            "compare", "--scenario", path, "--strategies", "fixed-plan",
            "--rollouts", "2"])
        assert "has mean 0.0 and standard error inf over 2 rollouts" in err


def write_degradation(tmp_path, **degradation):
    path = tmp_path / "degradation.json"
    doc = {"name": "degradation", "kind": "prognostics", "degradation": degradation}
    # json writes NaN and Infinity tokens, which json.load reads back.
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestPredictExitCodes:
    BASE = {"s0": 1.0, "rate_nominal": 0.05, "p_high": 0.2, "epsilon": 0.05,
            "horizon": 20, "sigma_max": 1.0, "h_min": 0.0}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["s0", "rate_nominal", "p_high", "epsilon", "h_min", "sigma_max"]
    )
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, field, value):
        scenario = write_degradation(tmp_path, **{**self.BASE, field: value})
        out = tmp_path / "predict.csv"
        assert run_cli(["predict", "--scenario", scenario, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {field} must be finite, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["0.25", "0.2"])
    def test_rho_at_or_below_threshold_is_config_error(self, tmp_path, capsys, rho):
        scenario = write_degradation(tmp_path, **{**self.BASE, "h_min": 0.25})
        assert run_cli(["predict", "--scenario", scenario, "--rho", rho]) == 2
        assert capsys.readouterr().err == (
            "error: threshold must be below the starting health\n"
        )

    def test_invalid_dist_rho_writes_nothing(self, tmp_path, capsys):
        out, dist = tmp_path / "o.csv", tmp_path / "d.csv"
        assert run_cli(
            ["predict", "--scenario", "builtin:1", "--out", str(out),
             "--dist-out", str(dist), "--dist-rho", "0"]
        ) == 2
        assert capsys.readouterr().err == "error: rho_p must be in (0, 1]\n"
        assert not out.exists() and not dist.exists()

    def test_node_cap_applies_only_to_the_distribution(self, tmp_path, capsys):
        # Nothing crosses within the horizon, so step k holds k + 1 live
        # high-step counts and the DP passes 10^6 nodes near step 1414.
        scenario = write_degradation(
            tmp_path, rate_nominal=1e-9, p_high=0.5, epsilon=1e-9, horizon=2000
        )
        dist = tmp_path / "dist.csv"
        argv = ["predict", "--scenario", scenario]
        assert run_cli([*argv, "--dist-out", str(dist)]) == 3
        assert capsys.readouterr().err == (
            "error: EOL DP exceeded 1000000 reachable nodes\n"
        )
        assert not dist.exists()
        # The rows are closed forms; without --dist-out no DP runs.
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.startswith("rho_p,t_p,eol_det,")


class TestIntegralFloats:
    BASE = TestPredictExitCodes.BASE

    @pytest.mark.parametrize("text, value", [("20.0", 20), ("1e3", 1000)])
    def test_integral_float_horizon_reads_as_its_integer(
        self, tmp_path, capsys, text, value
    ):
        # JSON Schema's integer type admits 20.0 and 1e3.
        def predict(tag, horizon_text):
            doc = {"name": "degradation", "kind": "prognostics",
                   "degradation": {**self.BASE, "horizon": "HORIZON"}}
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(doc).replace('"HORIZON"', horizon_text),
                            encoding="utf-8")
            dist = tmp_path / f"{tag}-dist.csv"
            assert run_cli(["predict", "--scenario", str(path),
                            "--dist-out", str(dist)]) == 0
            return capsys.readouterr().out, dist.read_bytes()

        assert predict("float", text) == predict("int", str(value))


class TestRunSummaries:
    def test_baseline_redo_strands_with_deficit(self, capsys):
        assert run_cli(
            ["run", "--scenario", "builtin:3", "--strategy", "shm-baseline",
             "--set", "redo=true"]
        ) == 0
        out = capsys.readouterr().out
        assert "final battery: -300 Wh" in out
        assert "terminal: stranded" in out

    def test_unified_redo_retains_reserve(self, capsys):
        assert run_cli(
            ["run", "--scenario", "builtin:3", "--strategy", "hadm",
             "--set", "redo=true"]
        ) == 0
        out = capsys.readouterr().out
        assert "final battery: 300 Wh" in out
        assert "terminal: complete" in out

    def test_seed_echoed(self, capsys):
        assert run_cli(["run", "--scenario", "builtin:2", "--seed", "42"]) == 0
        assert "seed: 42" in capsys.readouterr().out


class TestArtifactDeterminism:
    def artifact(self, tmp_path, name, argv):
        path = tmp_path / name
        assert run_cli(argv + ["--out", str(path)]) == 0
        return path.read_bytes()

    def test_run_jsonl_byte_identical(self, tmp_path, capsys):
        argv = ["run", "--scenario", "builtin:2", "--strategy", "phm-commit",
                "--seed", "7", "--format", "jsonl"]
        a = self.artifact(tmp_path, "a.jsonl", argv)
        b = self.artifact(tmp_path, "b.jsonl", argv)
        assert a == b
        lines = [json.loads(x) for x in a.decode().splitlines()]
        assert "total" in lines[-1]

    def test_run_csv_is_the_trace_csv(self, tmp_path, capsys):
        from hadm.loop import run_loop
        from hadm.rover import Plant, builtin_scenario, compile_scenario
        from hadm.strategies import make_provider

        argv = ["run", "--scenario", "builtin:4", "--strategy", "shm-baseline",
                "--seed", "3", "--format", "csv"]
        a = self.artifact(tmp_path, "a.csv", argv)
        compiled = compile_scenario(builtin_scenario(4))
        trace = run_loop(Plant(compiled, seed=3), compiled.problem,
                         make_provider("shm-baseline", compiled, seed=3))
        buf = io.StringIO(newline="")
        trace.write_csv(buf)
        assert a.decode("utf-8") == buf.getvalue()
        assert a.startswith(b"step,most_likely,action,provider,reward,cumulative")

    def test_compare_csv_byte_identical(self, tmp_path, capsys):
        argv = ["compare", "--scenario", "builtin:2", "--seed", "11",
                "--rollouts", "50", "--format", "csv"]
        a = self.artifact(tmp_path, "a.csv", argv)
        b = self.artifact(tmp_path, "b.csv", argv)
        assert a == b

    def test_predict_csv_byte_identical(self, tmp_path, capsys):
        argv = ["predict", "--scenario", "builtin:1"]
        a = self.artifact(tmp_path, "a.csv", argv)
        b = self.artifact(tmp_path, "b.csv", argv)
        assert a == b

    def test_solve_tables_byte_identical(self, tmp_path, capsys):
        def once(tag):
            pol = tmp_path / f"{tag}-policy.csv"
            val = tmp_path / f"{tag}-value.csv"
            assert run_cli(
                ["solve", "--scenario", "builtin:3",
                 "--policy-out", str(pol), "--value-out", str(val)]
            ) == 0
            return pol.read_bytes(), val.read_bytes()

        assert once("a") == once("b")

    def test_different_seed_changes_trace(self, tmp_path, capsys):
        base = ["run", "--scenario", "builtin:2", "--format", "jsonl"]
        a = self.artifact(tmp_path, "a.jsonl", base + ["--seed", "0"])
        b = self.artifact(tmp_path, "b.jsonl", base + ["--seed", "4"])
        # Seeds 0 and 4 draw different terrain classes for this scenario.
        assert a != b


class TestCompareContent:
    def test_csv_columns_and_energy(self, tmp_path, capsys):
        path = tmp_path / "cmp.csv"
        assert run_cli(
            ["compare", "--scenario", "builtin:2", "--rollouts", "200",
             "--format", "csv", "--out", str(path)]
        ) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "strategy,analytic,mean,se,rollouts,analytic_energy_wh"
        rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
        assert set(rows) == {"hadm", "shm-baseline", "phm-commit", "fixed-plan"}
        assert float(rows["hadm"][1]) == pytest.approx(-800.0)
        assert float(rows["phm-commit"][1]) == pytest.approx(-840.0)
        assert float(rows["hadm"][5]) == pytest.approx(800.0)
        # Empirical means sit within three standard errors of analytic.
        for name, row in rows.items():
            analytic, mean, se = float(row[1]), float(row[2]), float(row[3])
            assert abs(mean - analytic) <= max(3 * se, 1e-9)

    def test_pinned_compare(self, capsys):
        assert run_cli(
            ["compare", "--scenario", "builtin:3",
             "--strategies", "hadm,shm-baseline", "--rollouts", "1",
             "--set", "redo=true", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
        assert float(rows["hadm"][1]) == pytest.approx(300.0)
        assert float(rows["shm-baseline"][1]) == pytest.approx(-300.0)


class TestPredictContent:
    def test_sweep_values(self, capsys):
        assert run_cli(["predict", "--scenario", "builtin:1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rho_p,t_p,eol_det,eol_stoch,sigma,rul"
        full = lines[1].split(",")
        late = lines[2].split(",")
        assert float(full[0]) == 1.0 and float(full[1]) == 0.0
        assert float(full[4]) == pytest.approx(10.0 / 3.0, abs=0.01)
        assert float(late[0]) == 0.25 and float(late[1]) == 15.0
        assert float(late[4]) == pytest.approx(0.83, abs=0.01)
        # Event times are measured from the prediction time, so the
        # absolute deterministic event sits at t_p + eol_det = 20.
        assert float(late[1]) + float(late[2]) == 20.0
        assert float(late[5]) == 5.0  # remaining useful life
        assert lines[3].startswith("rho_star,")
        assert float(lines[3].split(",")[4]) == pytest.approx(0.3)

    def test_zero_spread_leaves_rho_star_unconstrained(self, tmp_path, capsys):
        scenario = write_degradation(
            tmp_path, **{**TestPredictExitCodes.BASE, "p_high": 0.0}
        )
        assert run_cli(["predict", "--scenario", scenario]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "rho_star,,,,unconstrained,"

    def test_distribution_export(self, tmp_path, capsys):
        dist = tmp_path / "dist.csv"
        assert run_cli(
            ["predict", "--scenario", "builtin:1",
             "--dist-out", str(dist), "--dist-rho", "1.0"]
        ) == 0
        rows = dist.read_text().strip().splitlines()
        assert rows[0] == "step,time,probability"
        mass = sum(float(r.split(",")[2]) for r in rows[1:])
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestSolveOutput:
    def test_recharge_root(self, capsys):
        assert run_cli(["solve", "--scenario", "builtin:3"]) == 0
        out = capsys.readouterr().out
        assert "root value: 250" in out
        assert "root action: drive:d01" in out
