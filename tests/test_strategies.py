"""Strategy tests: the four named behaviors over the built-in scenarios."""
import pytest

import hadm.loop
import hadm.strategies
from hadm.cli import main
from hadm.errors import InvalidConfigError
from hadm.loop import run_loop
from hadm.rover import (
    Plant,
    builtin_scenario,
    builtin_scenario_dict,
    compile_scenario,
    load_scenario,
)
from hadm.strategies import (
    STRATEGIES,
    analytic_expectation,
    applicable_strategies,
    make_provider,
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


def execute(compiled, strategy, seed=0, overrides=None):
    plant = Plant(compiled, seed=seed, overrides=overrides)
    provider = make_provider(strategy, compiled, seed=seed)
    trace = run_loop(plant, compiled.problem, provider)
    return trace, provider, plant


class TestRegistry:
    def test_known_strategies(self):
        assert set(STRATEGIES) == {"hadm", "shm-baseline", "phm-commit", "fixed-plan"}

    def test_unknown_strategy_rejected(self, crater):
        with pytest.raises(InvalidConfigError):
            make_provider("magic", crater)

    def test_applicability(self):
        assert applicable_strategies(builtin_scenario(2)) == [
            "hadm", "shm-baseline", "phm-commit", "fixed-plan"
        ]
        # No declared routes: the commit strategy does not apply.
        assert "phm-commit" not in applicable_strategies(builtin_scenario(3))
        assert applicable_strategies(builtin_scenario(1)) == []


class TestRouteCommitStrategy:
    def test_commits_left_and_strands_on_difficult(self, crater):
        trace, provider, plant = execute(
            crater, "phm-commit", overrides={"terrain": "difficult-both"}
        )
        assert crater.route_choice == ("left", {
            "left": pytest.approx(-840.0), "right": pytest.approx(-875.0)
        })
        assert trace.actions() == ["drive:L1", "drive:L2"]
        assert crater.states[plant.state].status == "stranded"
        assert crater.states[plant.state].battery_wh == -100.0

    def test_compare_chooses_the_route_once(self, monkeypatch, capsys):
        calls = []
        choose = hadm.strategies.phm_route_choice

        def counting(problem, *args, **kwargs):
            calls.append(problem)
            return choose(problem, *args, **kwargs)

        monkeypatch.setattr(hadm.strategies, "phm_route_choice", counting)
        assert main(["compare", "--scenario", "builtin:2", "--strategies",
                     "phm-commit", "--rollouts", "20"]) == 0
        assert len(calls) == 1

    def test_providers_share_one_choice(self):
        compiled = compile_scenario(builtin_scenario(2))
        make_provider("phm-commit", compiled)
        # Building a provider evaluates no route; its first decision does.
        assert compiled.route_choice is None
        execute(compiled, "phm-commit", seed=1)
        choice = compiled.route_choice
        assert choice[0] == "left"
        execute(compiled, "phm-commit", seed=2)
        assert compiled.route_choice is choice

    def test_moderate_truth_completes(self, crater):
        trace, _, plant = execute(
            crater, "phm-commit", overrides={"terrain": "moderate-both"}
        )
        assert crater.states[plant.state].status == "complete"
        assert trace.total == -600.0


class TestUnifiedStrategy:
    def test_takes_right_and_detours_on_difficult(self, crater):
        trace, _, plant = execute(
            crater, "hadm", overrides={"terrain": "difficult-both"}
        )
        assert trace.actions() == ["drive:R1", "drive:D1", "drive:D2"]
        assert crater.states[plant.state].status == "complete"
        assert crater.states[plant.state].battery_wh == 100.0

    def test_goes_direct_on_moderate(self, crater):
        trace, _, plant = execute(
            crater, "hadm", overrides={"terrain": "moderate-both"}
        )
        assert trace.actions() == ["drive:R1", "drive:R2"]
        assert trace.total == -600.0

    def test_skips_charge_and_absorbs_redo(self, recharge):
        trace, _, plant = execute(recharge, "hadm", overrides={"redo": "true"})
        assert trace.actions()[0] == "drive:d01"
        assert crater_battery(recharge, plant) == 300.0
        trace, _, plant = execute(recharge, "hadm", overrides={"redo": "false"})
        assert crater_battery(recharge, plant) == 200.0

    def test_paces_the_climb(self, hill):
        trace, _, plant = execute(hill, "hadm")
        assert trace.actions() == [
            "drive:up0", "drive:up1", "cool:1h", "drive:up2", "drive:up3",
            "cool:1h", "drive:up4", "drive:up5", "science:sci2",
        ]
        final = hill.states[plant.state]
        assert final.status == "complete"
        assert final.time_h == 9.0
        assert trace.total == 1.0
        assert max(r.observation["motor_temp_c"] for r in trace.records) == 60.0


def crater_battery(compiled, plant):
    return compiled.states[plant.state].battery_wh


class TestBaselineStrategy:
    def test_charges_first_then_strands_on_redo(self, recharge):
        trace, provider, plant = execute(
            recharge, "shm-baseline", overrides={"redo": "true"}
        )
        assert trace.actions() == [
            "charge_to_full", "drive:d01", "science:sci1", "science:sci1",
            "drive:d12",
        ]
        assert provider.events[0]["modes"] == ["low_battery"]
        assert provider.events[0]["recovery"] == "charge_to_full"
        final = recharge.states[plant.state]
        assert final.status == "stranded"
        assert final.battery_wh == -300.0

    def test_completes_without_redo(self, recharge):
        trace, _, plant = execute(
            recharge, "shm-baseline", overrides={"redo": "false"}
        )
        final = recharge.states[plant.state]
        assert final.status == "complete"
        assert final.battery_wh == 400.0

    def test_pipeline_order_detect_before_recovery(self, hill):
        trace, provider, plant = execute(hill, "shm-baseline")
        # One detection event, at the 60 degree observation, with the
        # one-hour linear prognosis and the cool-down mitigation.
        assert len(provider.events) == 1
        event = provider.events[0]
        assert event["modes"] == ["increased_friction"]
        assert event["rul_hours"] == 1.0
        assert event["recovery"] == "stop_and_cool_down"
        assert event["constraints"] == {"grades": ["flat", "downhill"]}

    def test_aborts_the_climb_and_returns(self, hill):
        trace, _, plant = execute(hill, "shm-baseline")
        assert trace.actions() == [
            "drive:up0", "drive:up1", "cool:1h", "drive:down2", "drive:down1",
        ]
        assert hill.states[plant.state].position == "A"
        assert trace.truncated
        assert trace.total == 0.0

    def test_baseline_value_strictly_below_unified(self, hill):
        base, _, _ = execute(hill, "shm-baseline")
        unified, _, _ = execute(hill, "hadm")
        assert base.total < unified.total

    def test_long_run_of_finished_activities(self, recharge):
        # 1500 repeats of an activity that is already done are skipped in
        # one decision, as the single plan entry is.
        doc = builtin_scenario_dict(3)
        plan = doc["nominal_plan"]
        i = plan.index("science:sci1") + 1
        doc["nominal_plan"] = plan[:i] + ["science:sci1"] * 1500 + plan[i:]
        long = compile_scenario(load_scenario(doc))
        for redo in ("false", "true"):
            got, _, plant = execute(long, "shm-baseline", overrides={"redo": redo})
            want, _, want_plant = execute(recharge, "shm-baseline",
                                          overrides={"redo": redo})
            assert got.actions() == want.actions()
            assert got.total == want.total
            assert plant.state == want_plant.state

    def test_follows_plan_without_rules(self, crater):
        trace, _, plant = execute(
            crater, "shm-baseline", overrides={"terrain": "difficult-both"}
        )
        assert trace.actions() == ["drive:L1", "drive:L2"]
        assert crater.states[plant.state].status == "stranded"


class TestFixedPlanStrategy:
    def test_plays_plan_verbatim(self, crater):
        trace, _, _ = execute(crater, "fixed-plan",
                              overrides={"terrain": "moderate-both"})
        assert trace.actions() == ["drive:L1", "drive:L2"]

    def test_sticks_on_redo(self, recharge):
        trace, _, plant = execute(recharge, "fixed-plan",
                                  overrides={"redo": "true"})
        # The plan drives off with the science incomplete and dead-ends.
        assert recharge.states[plant.state].status == "stuck"
        assert trace.total == 0.0


class TestAnalyticExpectations:
    def test_crater_values(self, crater):
        assert analytic_expectation(crater, "hadm") == pytest.approx(-800.0)
        assert analytic_expectation(crater, "phm-commit") == pytest.approx(-840.0)
        assert analytic_expectation(crater, "fixed-plan") == pytest.approx(-840.0)
        assert analytic_expectation(crater, "shm-baseline") == pytest.approx(-840.0)

    def test_recharge_values(self, recharge):
        assert analytic_expectation(recharge, "hadm") == pytest.approx(250.0)
        assert analytic_expectation(recharge, "shm-baseline") == pytest.approx(50.0)

    def test_hill_values(self, hill):
        assert analytic_expectation(hill, "hadm") == pytest.approx(1.0)
        assert analytic_expectation(hill, "shm-baseline") == pytest.approx(0.0)

    def test_pinned_override_restricts_enumeration(self, crater):
        got = analytic_expectation(
            crater, "phm-commit", overrides={"terrain": "difficult-both"}
        )
        assert got == pytest.approx(-1200.0)

    def test_empirical_mean_converges(self, crater):
        import math
        import statistics

        totals = []
        for i in range(2000):
            plant = Plant(crater, seed=i)
            provider = make_provider("phm-commit", crater, seed=i)
            totals.append(run_loop(plant, crater.problem, provider).total)
        mean = sum(totals) / len(totals)
        se = statistics.stdev(totals) / math.sqrt(len(totals))
        assert abs(mean - (-840.0)) <= 3 * se


class TestSharedSolve:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = hadm.loop.value_iterate

        def counting(problem, *args, **kwargs):
            calls.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(hadm.loop, "value_iterate", counting)
        return calls

    @pytest.mark.parametrize("rollouts", ["1", "20"])
    def test_compare_solves_once(self, solves, tmp_path, rollouts):
        out = tmp_path / "compare.csv"
        assert main(["compare", "--scenario", "builtin:2", "--rollouts", rollouts,
                     "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("hadm,-800.0,")
        assert len(solves) == 1

    def test_analytic_expectation_reuses_the_table(self, solves):
        compiled = compile_scenario(builtin_scenario(2))
        first = analytic_expectation(compiled, "hadm")
        assert analytic_expectation(compiled, "hadm") == first
        assert solves == [compiled.problem]

    def test_providers_share_one_table(self):
        compiled = compile_scenario(builtin_scenario(4))
        one = make_provider("hadm", compiled)
        two = make_provider("hadm", compiled, seed=1)
        assert one.table is two.table is compiled.table
