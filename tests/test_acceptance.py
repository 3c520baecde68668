"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they print.  Every criterion recomputes its expected numbers from an
independent oracle (closed forms, exhaustive enumeration, or brute-force
search) rather than trusting the implementation under test.
"""
import io
import itertools
import json
import math
import random

import pytest

from hadm.cli import main as cli_main
from hadm.loop import (
    OnlineExpectimaxProvider,
    SerPolicy,
    run_loop,
    validate_ser,
)
from hadm.model import (
    Problem,
    closed_loop_value,
    evaluate_policy,
    extract_nonstationary,
    open_loop_expectation,
    q_value,
    value_iterate,
)
from hadm.prognostics import (
    DegradationModel,
    EventThreshold,
    PrognosisRequest,
    eol_distribution,
    max_prediction_health,
    monte_carlo_eol,
    predict_eol_deterministic,
    predict_eol_stochastic,
    rul,
    sigma,
)
from hadm.rover import Plant, builtin_scenario, compile_scenario
from hadm.strategies import analytic_expectation, make_provider


def report(num, description, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {description}: {verdict}")
    assert ok, f"criterion {num} failed: {description}"


def close(a, b, tol):
    return abs(a - b) <= tol


# --- shared generators and oracles -----------------------------------


def random_problem(rng, max_states=4, max_actions=3, max_horizon=3,
                   with_terminal=False):
    n = rng.randint(2, max_states)
    m = rng.randint(1, max_actions)
    terminal = {n - 1} if with_terminal and n > 1 else set()
    admissible, transitions = [], {}
    for s in range(n):
        if s in terminal:
            acts = (0,)
        else:
            acts = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
        admissible.append(acts)
        for a in acts:
            if s in terminal:
                transitions[(s, a)] = ((s, 1.0, 0.0),)
                continue
            succs = rng.sample(range(n), rng.randint(1, n))
            weights = [rng.random() + 0.05 for _ in succs]
            z = sum(weights)
            transitions[(s, a)] = tuple(
                (s2, w / z, round(rng.uniform(-5, 5), 3))
                for s2, w in zip(succs, weights)
            )
    return Problem(
        state_labels=tuple(f"s{i}" for i in range(n)),
        action_labels=tuple(f"a{i}" for i in range(m)),
        admissible=tuple(admissible),
        transitions=transitions,
        terminal=frozenset(terminal),
        gamma=1.0,
        horizon=rng.randint(1, max_horizon),
    )


def oracle_value(problem, s, levels):
    """Recursive decision-tree expectimax; no tables, no memoization."""
    if levels == 0 or problem.is_terminal(s):
        return 0.0
    best = -math.inf
    for a in problem.admissible[s]:
        total = 0.0
        for s2, p, r in problem.transitions[(s, a)]:
            total += p * (r + problem.gamma * oracle_value(problem, s2, levels - 1))
        best = max(best, total)
    return best


def enumerate_eol(model, start, horizon):
    """First-crossing distribution by enumerating every 2^horizon path."""
    dist = {}
    for bits in itertools.product((0, 1), repeat=horizon):
        prob, health, hit = 1.0, start, None
        for k, b in enumerate(bits, start=1):
            prob *= model.p_high if b else (1.0 - model.p_high)
            health -= model.rate_nominal + b * model.epsilon
            if health <= 1e-9 and hit is None:
                hit = k
        if hit is not None:
            dist[hit] = dist.get(hit, 0.0) + prob
    return dist


# --- the nine criteria ------------------------------------------------


MODEL = DegradationModel(rate_nominal=0.05, p_high=0.2, epsilon=0.05, s0=1.0)


def test_criterion_1_prognostic_closed_forms():
    full = PrognosisRequest(rho_p=1.0, horizon=20)
    late = PrognosisRequest(rho_p=0.25, horizon=20)
    ok = close(sigma(MODEL, full), 10.0 / 3.0, 0.01)
    ok &= close(sigma(MODEL, late), 0.8333333, 0.01)
    ok &= predict_eol_deterministic(MODEL, full) == 20.0
    # Prediction at rho=0.25 happens at t_p = (1 - rho) * s0 / rate = 15;
    # the deterministic event sits exactly 5 units later, so the remaining
    # useful life is 5.
    ok &= (1.0 - late.rho_p) * MODEL.s0 / MODEL.rate_nominal == 15.0
    ok &= predict_eol_deterministic(MODEL, late) == 5.0
    ok &= rul(MODEL, late) == 5.0
    report(1, "prognostic uncertainty and remaining-life closed forms", ok)


def test_criterion_2_route_choice_values():
    crater = compile_scenario(builtin_scenario(2))
    p = crater.problem
    start, left = crater.route_policy("left")
    left_v, _ = open_loop_expectation(p, start, left)
    _, right = crater.route_policy("right")
    right_v, _ = open_loop_expectation(p, start, right)
    closed = closed_loop_value(p, start)
    ok = close(left_v, -840.0, 1e-9)
    ok &= close(right_v, -875.0, 1e-9)
    ok &= close(closed, -800.0, 1e-9)
    # Ground truth difficult on both routes: committing open-loop to the
    # cheaper-looking route strands the rover 100 Wh short, while acting
    # on revealed terrain finishes with 100 Wh to spare.
    overrides = {"terrain": "difficult-both"}
    plant = Plant(crater, seed=0, overrides=overrides)
    run_loop(plant, p, make_provider("phm-commit", crater))
    committed = crater.states[plant.state]
    ok &= committed.status == "stranded" and committed.battery_wh == -100.0
    plant = Plant(crater, seed=0, overrides=overrides)
    run_loop(plant, p, make_provider("hadm", crater))
    unified = crater.states[plant.state]
    ok &= unified.status == "complete" and unified.battery_wh == 100.0
    report(2, "open-loop route values -840/-875, closed-loop -800, "
              "strand vs 100 Wh reserve under difficult terrain", ok)


def test_criterion_3_recharge_decision_values():
    recharge = compile_scenario(builtin_scenario(3))
    p = recharge.problem
    root = recharge.initial_state
    table = value_iterate(p)
    skip = recharge.action("drive:d01")
    q1 = q_value(p, root, skip, table.values)
    # The committed alternative charges first and then follows the plan
    # without adapting; its value is the plan's probability-weighted
    # outcome, recomputed here by exhaustive ground-truth enumeration.
    q2 = analytic_expectation(recharge, "shm-baseline")
    ok = close(q1, 250.0, 1e-9)
    ok &= close(q2, 50.0, 1e-9)
    ok &= table[root] == q1
    ok &= p.action_labels[extract_root_action(p, table, root)] == "drive:d01"
    for strategy, override, battery in (
        ("shm-baseline", "true", -300.0),
        ("hadm", "true", 300.0),
        ("hadm", "false", 200.0),
    ):
        plant = Plant(recharge, seed=0, overrides={"redo": override})
        run_loop(plant, p, make_provider(strategy, recharge))
        ok &= recharge.states[plant.state].battery_wh == battery
    report(3, "recharge decision Q values 250/50, skip-charge root action, "
              "battery outcomes -300/300/200", ok)


def extract_root_action(problem, table, root):
    best, best_q = None, -math.inf
    for a in problem.admissible[root]:
        q = q_value(problem, root, a, table.values)
        if q > best_q + 1e-12:
            best, best_q = a, q
    return best


def test_criterion_4_thermal_pacing():
    hill = compile_scenario(builtin_scenario(4))
    p = hill.problem

    plant = Plant(hill, seed=0)
    baseline = make_provider("shm-baseline", hill)
    trace = run_loop(plant, p, baseline)
    event = baseline.events[0] if baseline.events else {}
    ok = event.get("rul_hours") == 1.0
    ok &= event.get("recovery") == "stop_and_cool_down"
    ok &= hill.states[plant.state].position == "A"  # aborted back to start
    ok &= trace.total == 0.0

    plant = Plant(hill, seed=0)
    trace = run_loop(plant, p, make_provider("hadm", hill))
    ok &= trace.actions() == [
        "drive:up0", "drive:up1", "cool:1h", "drive:up2", "drive:up3",
        "cool:1h", "drive:up4", "drive:up5", "science:sci2",
    ]
    final = hill.states[plant.state]
    ok &= final.status == "complete"
    # Arrives at the summit at hour 8, finishes science at hour 9, one
    # full hour inside the 10-hour deadline, never exceeding 60 degrees.
    times = [r.observation["time_h"] for r in trace.records]
    waypoints = [r.observation["waypoint"] for r in trace.records]
    ok &= waypoints[times.index(8.0)] == "wp2"
    ok &= final.time_h == 9.0
    margin = hill.spec.mission.deadline_h - final.time_h
    ok &= margin >= 1.0
    ok &= trace.total == margin
    ok &= max(r.observation["motor_temp_c"] for r in trace.records) == 60.0
    report(4, "baseline predicts 1 h life and aborts; paced 2+1+2+1+2 "
              "climb reaches the summit at hour 8 with a 60 degree peak", ok)


def test_criterion_5_solver_vs_brute_force():
    rng = random.Random(1234)
    ok = True
    for _ in range(100):
        p = random_problem(rng, with_terminal=rng.random() < 0.5)
        table = value_iterate(p, horizon=p.horizon)
        for s in range(p.n_states):
            ok &= close(table[s], oracle_value(p, s, p.horizon + 1), 1e-9)
        levels = extract_nonstationary(p)
        ev = evaluate_policy(p, levels, t=p.horizon)
        for s in range(p.n_states):
            ok &= close(ev[s], table[s], 1e-9)
    report(5, "value iteration matches brute-force expectimax and its "
              "extracted policy achieves the optimal utilities (100 MDPs)", ok)


def test_criterion_6_eol_distribution():
    req = PrognosisRequest(rho_p=1.0, horizon=20)
    dist, residual = eol_distribution(MODEL, req)
    mass = sum(p for _, p in dist) + residual
    ok = close(mass, 1.0, 1e-9)
    # Analytic support: all-high paths cross at step 10, all-nominal at 20.
    ok &= min(k for k, _ in dist) == 10
    ok &= max(k for k, _ in dist) == 20
    as_dict = dict(dist)
    ok &= close(as_dict[10], 0.2**10, 1e-15)
    # The earliest 19 steps must all be nominal to survive to step 20;
    # the 20th step then crosses regardless of its own outcome, so the
    # corner holds 0.8^19 of the mass (the all-nominal path, at 0.8^20,
    # is a strict subset of it).
    ok &= close(as_dict[20], 0.8**19, 1e-12)
    oracle = enumerate_eol(MODEL, 1.0, 20)
    for k, p in dist:
        ok &= close(oracle.get(k, 0.0), p, 1e-12)
    mc, mc_res = monte_carlo_eol(MODEL, req, n_samples=10**5, seed=0)
    mc_map = dict(mc)
    tv = 0.5 * (
        sum(abs(mc_map.get(k, 0.0) - p) for k, p in dist)
        + sum(p for k, p in mc_map.items() if k not in as_dict)
        + abs(mc_res - residual)
    )
    ok &= tv <= 0.01
    report(6, "exact end-of-life distribution: unit mass, support 10..20, "
              "corner probabilities, Monte Carlo within 0.01 TV", ok)


def test_criterion_7_information_never_hurts():
    rng = random.Random(777)
    ok = True
    for _ in range(50):
        p = random_problem(rng, with_terminal=True)
        closed = closed_loop_value(p, 0)
        behaviors = ["uniform",
                     {s: p.admissible[s][0] for s in range(p.n_states)},
                     {s: p.admissible[s][-1] for s in range(p.n_states)}]
        for behavior in behaviors:
            open_v, _ = open_loop_expectation(p, 0, behavior)
            ok &= closed >= open_v - 1e-9
    report(7, "closed-loop value dominates every open-loop commitment "
              "(50 random scenarios)", ok)


def test_criterion_8_execution_safety():
    crater = compile_scenario(builtin_scenario(2))

    def episode():
        plant = Plant(crater, seed=17)
        trace = run_loop(plant, crater.problem,
                         make_provider("hadm", crater, seed=17))
        buf = io.StringIO()
        trace.write_jsonl(buf)
        return trace, buf.getvalue()

    trace_a, blob_a = episode()
    _, blob_b = episode()
    ok = blob_a == blob_b
    replay = Plant(crater, seed=17)
    for record in trace_a.records:
        obs, reward = replay.step(crater.action(record.action))
        ok &= dict(obs) == record.observation
        ok &= reward == record.reward

    hill = compile_scenario(builtin_scenario(4))
    hot = {s for s, st in enumerate(hill.states)
           if st.status == "ok" and st.temp_c and st.temp_c >= 60}
    cool = hill.action("cool:1h")
    ser = SerPolicy(member=hot, actions={s: cool for s in hot})
    plant = Plant(hill, seed=0)
    trace = run_loop(plant, hill.problem, make_provider("hadm", hill), ser=ser)
    replay = Plant(hill, seed=0)
    for record in trace.records:
        pre = replay.state
        ok &= record.provider == ("SER" if pre in hot else "HADM")
        if pre in hot:
            ok &= record.action == "cool:1h"
        replay.step(hill.action(record.action))

    # A safety policy whose response never leaves the hot set is flagged.
    broken = SerPolicy(member=hot, actions={})
    ok &= not validate_ser(hill.problem, broken).ok
    good = SerPolicy(
        member=hot, actions={s: cool for s in hot},
        safe_set=frozenset(
            s for s, st in enumerate(hill.states)
            if st.temp_c is None or st.temp_c <= 20 or st.status != "ok"
        ),
    )
    ok &= validate_ser(hill.problem, good).ok
    report(8, "trace replay is deterministic, safety overrides fire "
              "exactly when triggered, broken safety policies are flagged", ok)


def test_criterion_9_cli_artifact_determinism(tmp_path, capsys):
    def artifact(name, argv):
        path = tmp_path / name
        assert cli_main(argv + ["--out", str(path)]) == 0
        return path.read_bytes()

    ok = True
    run_args = ["run", "--scenario", "builtin:2", "--strategy", "phm-commit",
                "--seed", "9", "--format", "jsonl"]
    ok &= artifact("r1.jsonl", run_args) == artifact("r2.jsonl", run_args)
    cmp_args = ["compare", "--scenario", "builtin:3", "--seed", "5",
                "--rollouts", "40", "--format", "csv"]
    ok &= artifact("c1.csv", cmp_args) == artifact("c2.csv", cmp_args)
    pre_args = ["predict", "--scenario", "builtin:1"]
    ok &= artifact("p1.csv", pre_args) == artifact("p2.csv", pre_args)
    with capsys.disabled():
        report(9, "identical CLI invocations with identical seeds produce "
                  "byte-identical artifacts", ok)
