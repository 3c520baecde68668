"""Separated-pipeline tests: detect, diagnose, prognose, mitigate, commit."""
import pytest

from hadm.errors import EscalationRequired, InvalidConfigError
from hadm.model import open_loop_expectation
from hadm.rover import builtin_scenario, compile_scenario
from hadm.shm import (
    UNKNOWN_FAULT,
    DiagnosisRule,
    FaultDescriptor,
    MitigationRule,
    ThresholdPredicate,
    detect,
    diagnose,
    phm_route_choice,
    prognose_fault,
    select_recovery,
)

TEMP_PRED = ThresholdPredicate(channel="motor_temp_c", op=">", limit=40)


def obs(**channels):
    return channels


class TestDetection:
    def test_fires_above_limit(self):
        assert detect((TEMP_PRED,), obs(motor_temp_c=60)) == (TEMP_PRED,)

    def test_silent_at_nominal(self):
        assert detect((TEMP_PRED,), obs(motor_temp_c=20)) == ()

    def test_silent_at_exact_limit(self):
        assert detect((TEMP_PRED,), obs(motor_temp_c=40)) == ()

    def test_empty_detector(self):
        assert detect((), obs(motor_temp_c=200)) == ()

    def test_unknown_channel_is_config_error(self):
        with pytest.raises(InvalidConfigError):
            detect((TEMP_PRED,), obs(battery_wh=100))

    def test_every_predicate_is_evaluated_in_order(self):
        low = ThresholdPredicate(channel="battery_wh", op="<", limit=100)
        readings = obs(motor_temp_c=60, battery_wh=50)
        assert detect((low, TEMP_PRED), readings) == (low, TEMP_PRED)
        assert detect((TEMP_PRED, low), readings) == (TEMP_PRED, low)
        with pytest.raises(InvalidConfigError):
            detect((TEMP_PRED, ThresholdPredicate("coolant_c", ">", 1)), readings)

    def test_guarded_predicate(self):
        pred = ThresholdPredicate(
            channel="battery_wh", op="<", limit=1500,
            when={"at_charge_point": True},
        )
        assert pred.fires(obs(battery_wh=500, at_charge_point=True))
        assert not pred.fires(obs(battery_wh=500, at_charge_point=False))

    def test_all_comparators(self):
        for op, value, expected in [
            (">", 41, True), (">=", 40, True), ("<", 39, True),
            ("<=", 40, True), ("==", 40, True), ("!=", 40, False),
        ]:
            pred = ThresholdPredicate(channel="x", op=op, limit=40)
            assert pred.fires(obs(x=value)) is expected


class TestDiagnosis:
    RULES = (
        DiagnosisRule(
            channel="motor_temp_c", component="drive_motor",
            mode="increased_friction",
            parameters={"rate": 20, "channel": "motor_temp_c", "limit": 80},
        ),
    )

    def test_rule_match(self):
        out = diagnose(self.RULES, obs(motor_temp_c=60), (TEMP_PRED,))
        assert len(out) == 1
        assert out[0].component == "drive_motor"
        assert out[0].mode == "increased_friction"
        assert out[0].probability == 1.0

    def test_no_fired_predicates(self):
        assert diagnose(self.RULES, obs(motor_temp_c=20), ()) == []

    def test_unmatched_predicate_yields_unknown_fault(self):
        pred = ThresholdPredicate(channel="pressure", op=">", limit=5)
        out = diagnose(self.RULES, obs(pressure=9), (pred,))
        assert out == [UNKNOWN_FAULT]
        assert out[0].probability == 0.0

    def test_two_predicates_two_rules_in_order(self):
        rules = self.RULES + (
            DiagnosisRule(channel="battery_wh", component="battery",
                          mode="low_battery"),
        )
        preds = (
            ThresholdPredicate(channel="battery_wh", op="<", limit=100),
            TEMP_PRED,
        )
        out = diagnose(rules, obs(motor_temp_c=60, battery_wh=50), preds)
        assert [d.mode for d in out] == ["low_battery", "increased_friction"]


class TestFaultPrognosis:
    def descriptor(self, rate=20):
        return FaultDescriptor(
            component="drive_motor", mode="increased_friction",
            parameters={"rate": rate, "channel": "motor_temp_c", "limit": 80},
        )

    def test_one_hour_at_sixty(self):
        assert prognose_fault(self.descriptor(), obs(motor_temp_c=60)) == 1.0

    def test_zero_at_limit(self):
        assert prognose_fault(self.descriptor(), obs(motor_temp_c=80)) == 0.0

    def test_two_hours_at_slower_rate(self):
        assert prognose_fault(self.descriptor(rate=10), obs(motor_temp_c=60)) == 2.0

    def test_nonpositive_rate_has_no_prognosis(self):
        assert prognose_fault(self.descriptor(rate=0), obs(motor_temp_c=60)) is None

    def test_missing_parameters_has_no_prognosis(self):
        d = FaultDescriptor(component="x", mode="y")
        assert prognose_fault(d, obs(motor_temp_c=60)) is None


class TestRecoverySelection:
    RULES = (
        MitigationRule(
            fault_mode="increased_friction", action="stop_and_cool_down",
            constraints={"grades": ["flat", "downhill"]},
        ),
        MitigationRule(fault_mode="low_battery", action="charge_to_full"),
    )

    def test_friction_maps_to_cool_down(self):
        descriptors = [FaultDescriptor(component="m", mode="increased_friction")]
        action, constraints = select_recovery(descriptors, 1.0, self.RULES)
        assert action == "stop_and_cool_down"
        assert constraints == {"grades": ["flat", "downhill"]}

    def test_low_battery_restores_to_nominal(self):
        descriptors = [FaultDescriptor(component="battery", mode="low_battery")]
        action, constraints = select_recovery(descriptors, None, self.RULES)
        assert action == "charge_to_full"
        assert constraints == {}

    def test_empty_descriptors_escalate(self):
        with pytest.raises(EscalationRequired):
            select_recovery([], None, self.RULES)

    def test_no_matching_rule_escalates(self):
        with pytest.raises(EscalationRequired):
            select_recovery(
                [FaultDescriptor(component="x", mode="mystery")], None, self.RULES
            )

    def test_probability_gate(self):
        shaky = [FaultDescriptor(component="m", mode="increased_friction",
                                 probability=0.4)]
        with pytest.raises(EscalationRequired):
            select_recovery(shaky, None, self.RULES, min_probability=0.5)

    def test_priority_wins(self):
        rules = (
            MitigationRule(fault_mode="f", action="weak", priority=0),
            MitigationRule(fault_mode="f", action="strong", priority=5),
        )
        action, _ = select_recovery(
            [FaultDescriptor(component="c", mode="f")], None, rules
        )
        assert action == "strong"


@pytest.fixture(scope="module")
def crater():
    return compile_scenario(builtin_scenario(2))


class TestRouteCommitment:
    def test_commits_to_left(self, crater):
        policies = {
            r.id: crater.route_policy(r.id) for r in crater.spec.routes
        }
        best, expectations = phm_route_choice(crater.problem, policies)
        assert best == "left"
        assert expectations["left"] == pytest.approx(-840.0)
        assert expectations["right"] == pytest.approx(-875.0)

    def test_tie_breaks_to_first_listed(self, crater):
        start, left = crater.route_policy("left")
        best, _ = phm_route_choice(
            crater.problem, {"b": (start, left), "a": (start, left)}
        )
        assert best == "b"

    def test_single_route(self, crater):
        start, left = crater.route_policy("left")
        best, _ = phm_route_choice(crater.problem, {"only": (start, left)})
        assert best == "only"

    def test_no_routes_rejected(self, crater):
        with pytest.raises(InvalidConfigError):
            phm_route_choice(crater.problem, {})

    def test_interior_uniform_matches_manual_expectation(self, crater):
        # Right route with a uniform choice at the revealed-difficult fork:
        # scenarios 1200/600/1000/700 at 0.25 each.
        start, right = crater.route_policy("right")
        value, scenarios = open_loop_expectation(crater.problem, start, right)
        assert value == pytest.approx(-875.0)
        assert sorted((round(t), round(p, 4)) for p, t in scenarios) == [
            (-1200, 0.25), (-1000, 0.25), (-700, 0.25), (-600, 0.25)
        ]
