"""Core decision-problem tests: construction, solvers, oracles."""
import dataclasses
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadm.model
from hadm.cli import main as cli_main

from hadm.errors import (
    ImpossibleObservationError,
    InadmissibleActionError,
    IncompleteValueTableError,
    InvalidConfigError,
    ModelError,
    ResourceLimitError,
)
from hadm.model import (
    MAX_OPEN_LOOP_LEAVES,
    MAX_STAGE_ENTRIES,
    Policy,
    Problem,
    belief_update,
    closed_loop_value,
    evaluate_policy,
    extract_nonstationary,
    extract_policy,
    open_loop_expectation,
    point_mass,
    q_value,
    validate_belief,
    value_iterate,
)
from hadm.rover import builtin_scenario_dict, compile_scenario, load_scenario


def chain_problem():
    """Three-state deterministic chain: 0 -a0-> 1 -a0-> 2 (terminal)."""
    return Problem(
        state_labels=("s0", "s1", "s2"),
        action_labels=("go", "stay"),
        admissible=((0,), (0,), (1,)),
        transitions={
            (0, 0): ((1, 1.0, 1.0),),
            (1, 0): ((2, 1.0, 2.0),),
            (2, 1): ((2, 1.0, 0.0),),
        },
        terminal=frozenset({2}),
        gamma=1.0,
        horizon=5,
    )


def coin_problem():
    """One decision, stochastic outcome, successor-dependent rewards."""
    return Problem(
        state_labels=("start", "good", "bad"),
        action_labels=("flip", "stay"),
        admissible=((0,), (1,), (1,)),
        transitions={
            (0, 0): ((1, 0.25, 11.0), (2, 0.75, -1.0)),
            (1, 1): ((1, 1.0, 0.0),),
            (2, 1): ((2, 1.0, 0.0),),
        },
        terminal=frozenset({1, 2}),
        gamma=1.0,
        horizon=3,
    )


def random_problem(rng, max_states=4, max_actions=3, max_horizon=3,
                   with_terminal=False):
    n = rng.randint(2, max_states)
    m = rng.randint(1, max_actions)
    terminal = set()
    if with_terminal and n > 1:
        terminal = {n - 1}
    admissible = []
    transitions = {}
    for s in range(n):
        if s in terminal:
            acts = (0,)
        else:
            k = rng.randint(1, m)
            acts = tuple(sorted(rng.sample(range(m), k)))
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
        gamma=1.0 if rng.random() < 0.5 else round(rng.uniform(0.5, 0.99), 2),
        horizon=rng.randint(1, max_horizon),
    )


def chain_of(n):
    """n-state deterministic chain 0 -> 1 -> ... -> n-1 (terminal), reward 1 per hop."""
    return Problem(
        state_labels=tuple(f"s{i}" for i in range(n)),
        action_labels=("go", "stay"),
        admissible=tuple((0,) for _ in range(n - 1)) + ((1,),),
        transitions={**{(s, 0): ((s + 1, 1.0, 1.0),) for s in range(n - 1)},
                     (n - 1, 1): ((n - 1, 1.0, 0.0),)},
        terminal=frozenset({n - 1}),
        gamma=1.0,
        horizon=n,
    )


def oracle_value(problem, s, levels):
    """Pure recursive decision-tree expectimax; no tables, no memoization."""
    if levels == 0 or problem.is_terminal(s):
        return 0.0
    best = -math.inf
    for a in problem.admissible[s]:
        total = 0.0
        for s2, p, r in problem.transitions[(s, a)]:
            total += p * (r + problem.gamma * oracle_value(problem, s2, levels - 1))
        best = max(best, total)
    return best


def oracle_policy_value(problem, s, levels, policy_levels):
    """Expected value of a nonstationary policy by trajectory enumeration."""
    if levels == 0 or problem.is_terminal(s):
        return 0.0
    a = policy_levels[0][s]
    total = 0.0
    for s2, p, r in problem.transitions[(s, a)]:
        total += p * (
            r + problem.gamma
            * oracle_policy_value(problem, s2, levels - 1, policy_levels[1:])
        )
    return total


class TestProblemValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ModelError):
            Problem(
                state_labels=("a", "b"),
                action_labels=("x",),
                admissible=((0,), (0,)),
                transitions={(0, 0): ((1, 0.5, 0.0),), (1, 0): ((1, 1.0, 0.0),)},
                horizon=1,
            )

    def test_terminal_must_self_loop(self):
        with pytest.raises(ModelError):
            Problem(
                state_labels=("a", "b"),
                action_labels=("x",),
                admissible=((0,), (0,)),
                transitions={(0, 0): ((1, 1.0, 0.0),), (1, 0): ((0, 1.0, 0.0),)},
                terminal=frozenset({1}),
                horizon=1,
            )

    @pytest.mark.parametrize("reward", [-1.0, 2.0])
    def test_terminal_must_absorb_with_zero_reward(self, reward):
        with pytest.raises(ModelError, match="zero reward"):
            Problem(
                state_labels=("a", "b"),
                action_labels=("x",),
                admissible=((0,), (0,)),
                transitions={(0, 0): ((1, 1.0, 0.0),), (1, 0): ((1, 1.0, reward),)},
                terminal=frozenset({1}),
                horizon=1,
            )

    def test_gamma_one_needs_horizon(self):
        with pytest.raises(ModelError):
            Problem(
                state_labels=("a",),
                action_labels=("x",),
                admissible=((0,),),
                transitions={(0, 0): ((0, 1.0, 0.0),)},
                gamma=1.0,
            )

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward(self, r):
        with pytest.raises(ModelError, match=r"non-finite for \(0, 0, 1\)"):
            Problem(
                state_labels=("a", "b"),
                action_labels=("x",),
                admissible=((0,), (0,)),
                transitions={(0, 0): ((1, 1.0, r),), (1, 0): ((1, 1.0, 0.0),)},
                terminal=frozenset({1}),
                horizon=1,
            )

    @pytest.mark.parametrize("horizon", [-1, 2.5, True, "3"])
    def test_horizon_is_none_or_a_count(self, horizon):
        with pytest.raises(ModelError, match="horizon must be a non-negative integer"):
            Problem(
                state_labels=("a",),
                action_labels=("x",),
                admissible=((0,),),
                transitions={(0, 0): ((0, 1.0, 1.0),)},
                horizon=horizon,
            )

    @pytest.mark.parametrize("solve", [
        lambda p: value_iterate(p, horizon=-3),
        lambda p: value_iterate(p, horizon=-1),
        lambda p: value_iterate(p, horizon=2.5),
        lambda p: value_iterate(p, horizon=True),
        lambda p: evaluate_policy(p, {0: 0}, -1),
        lambda p: evaluate_policy(p, {0: 0}, 2.5),
        lambda p: open_loop_expectation(p, 0, "uniform", horizon=-1),
        lambda p: closed_loop_value(p, 0, horizon=1.0),
        lambda p: extract_nonstationary(p, -1),
        lambda p: extract_nonstationary(p, [{0: 1.0}]),
    ], ids=["vi-3", "vi-1", "vi-2.5", "vi-True", "eval-1", "eval-2.5",
            "open-loop-1", "closed-loop-1.0", "levels-1", "levels-stages"])
    def test_solver_horizon_is_a_count(self, solve):
        """Every solver reads a horizon as H+1 backups, so it takes only a
        non-negative int; horizon 0 is one backup."""
        p = Problem(
            state_labels=("a",),
            action_labels=("x",),
            admissible=((0,),),
            transitions={(0, 0): ((0, 1.0, 1.0),)},
            horizon=0,
        )
        assert value_iterate(p).values == {0: 1.0}
        assert evaluate_policy(p, {0: 0}, 0).values == {0: 1.0}
        assert extract_nonstationary(p)[0].actions == {0: 0}
        with pytest.raises(InvalidConfigError, match="must be a non-negative integer"):
            solve(p)

    @pytest.mark.parametrize("kwargs, message", [
        ({"epsilon": float("nan")}, "positive finite number, got nan"),
        ({"epsilon": float("inf")}, "positive finite number, got inf"),
        ({"epsilon": -1}, "positive finite number, got -1"),
        ({"epsilon": 0.0}, "positive finite number, got 0.0"),
        ({"epsilon": True}, "positive finite number, got True"),
        ({"epsilon": "1e-3"}, "positive finite number, got '1e-3'"),
        ({"horizon": 2, "epsilon": 1e-3}, "a horizon or an epsilon, not both"),
    ], ids=["nan", "inf", "-1", "0", "True", "str", "both"])
    def test_value_iterate_epsilon_is_positive_and_finite(self, kwargs, message):
        """A residual below ``epsilon`` stops the sweeps, so only a positive
        finite number means something, and only without a horizon; before,
        NaN and inf returned the all-zero table and a horizon ignored it."""
        p = Problem(
            state_labels=("a",),
            action_labels=("x",),
            admissible=((0,),),
            transitions={(0, 0): ((0, 1.0, 1.0),)},
            gamma=0.5,
        )
        assert value_iterate(p, epsilon=1e-12)[0] == pytest.approx(2.0)
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            value_iterate(p, **kwargs)

    @pytest.mark.parametrize("change, message", [
        ({"transitions": {(0, 0): ((2, 1.0, 0.0),), (1, 0): ((1, 1.0, 0.0),)}},
         "T(0,0,.): index 2 out of range"),
        ({"transitions": {(0, 0): ((1, 1.5, 0.0), (0, -0.5, 0.0)),
                          (1, 0): ((1, 1.0, 0.0),)}},
         "T(0,0,.): probability 1.5 outside [0, 1]"),
        ({"transitions": {(0, 0): ((1, 1.0, 0.0),),
                          (1, 0): ((1, 0.5, 0.0), (0, 0.25, 0.0))}},
         "T(1,0,.): probabilities sum to 0.75, expected 1"),
        ({"transitions": {(0, 0): ((1, 1.0),), (1, 0): ((1, 1.0, 0.0),)}},
         "T(0,0,.): entry (1, 1.0) is not (s', p, r)"),
        ({"transitions": {(0, 0): ((1, 1.0, 0.0),), (1, 0): ((1, 1.0, 0.0, 2.0),)}},
         "T(1,0,.): entry (1, 1.0, 0.0, 2.0) is not (s', p, r)"),
        ({"observations": {(1, 0): ((0, 1.0, 0.0),)}},
         "O(1, 0): entry (0, 1.0, 0.0) is not (o, p)"),
        ({"observations": {(1, 0): ((3, 1.0),)}},
         "O(1, 0): index 3 out of range"),
        ({"observations": {(1, 0): ((0, -0.5), (1, 1.5))}},
         "O(1, 0): probability -0.5 outside [0, 1]"),
        ({"observations": {(0, 0): ((0, 1.0),), (1, 0): ((0, 0.5),)}},
         "O(1, 0): probabilities sum to 0.5, expected 1"),
        ({"transitions": {(1, 0): ((1, 1.0, 0.0),)}},
         "missing transition row for (0, 0)"),
        ({"terminal": frozenset({1}),
          "transitions": {(0, 0): ((1, 1.0, 0.0),), (1, 0): ((0, 1.0, 0.0),)}},
         "terminal state 1 must self-loop"),
    ], ids=["T-index", "T-probability", "T-sum", "T-pair", "T-arity",
            "O-triple", "O-index", "O-probability", "O-sum", "missing-row",
            "terminal-self-loop"])
    def test_row_check_messages(self, change, message):
        """Each row check raises with its exact message."""
        fields = dict(
            state_labels=("a", "b"),
            action_labels=("x",),
            admissible=((0,), (0,)),
            transitions={(0, 0): ((1, 1.0, 0.0),), (1, 0): ((1, 1.0, 0.0),)},
            horizon=1,
            observation_labels=("o0", "o1"),
            observations={(1, 0): ((0, 1.0),)},
        )
        with pytest.raises(ModelError) as err:
            Problem(**{**fields, **change})
        assert str(err.value) == message

    def test_inadmissible_action_raises(self):
        p = chain_problem()
        with pytest.raises(InadmissibleActionError):
            p.require_admissible(0, 1)


def dense_belief_update(problem, b, a, o):
    """Reference Bayes update over all n states of a dense belief list;
    None when the observation has zero probability."""
    n = problem.n_states
    pred = [0.0] * n
    for s in range(n):
        if b[s] <= 0.0:
            continue
        problem.require_admissible(s, a)
        for s2, p, _ in problem.transitions[(s, a)]:
            pred[s2] += p * b[s]
    post = [0.0] * n
    for s2 in range(n):
        if pred[s2] <= 0.0:
            continue
        if problem.observations is None:
            like = 1.0 if s2 == o else 0.0
        else:
            like = 0.0
            for oi, p in problem.observations.get((s2, a), ()):
                if oi == o:
                    like += p
        post[s2] = like * pred[s2]
    z = sum(post)
    return [x / z for x in post] if z > 0.0 else None


def random_pomdp(rng):
    """``random_problem`` with a random observation model (some rows missing)."""
    p = random_problem(rng, with_terminal=rng.random() < 0.5)
    n_obs = rng.randint(1, 3)
    observations = {}
    for s2 in range(p.n_states):
        for a in range(len(p.action_labels)):
            if rng.random() < 0.8:
                obs = rng.sample(range(n_obs), rng.randint(1, n_obs))
                weights = [rng.random() + 0.05 for _ in obs]
                z = sum(weights)
                observations[(s2, a)] = tuple(
                    (o, w / z) for o, w in zip(obs, weights)
                )
    return dataclasses.replace(
        p,
        observation_labels=tuple(f"o{i}" for i in range(n_obs)),
        observations=observations,
    )


class TestBeliefs:
    def test_point_mass(self):
        b = point_mass(3, 1)
        assert b == {1: 1.0}
        validate_belief(b)
        assert point_mass(3, 3) == {}
        with pytest.raises(ModelError):
            validate_belief(point_mass(3, 3))

    def test_invalid_belief(self):
        with pytest.raises(ModelError):
            validate_belief({0: 0.5, 1: 0.2})

    @pytest.mark.parametrize("b", [
        {0: math.nan, 1: 1.0},
        {0: 1.0, 1: math.nan},
        {0: math.inf},
        {0: 1.0, 1: math.inf, 2: -math.inf},
    ])
    def test_non_finite_belief_rejected(self, b):
        with pytest.raises(ModelError):
            validate_belief(b)

    def test_bayes_update_by_hand(self):
        # Two hidden states, noisy sensor: O(correct) = 0.9.
        p = Problem(
            state_labels=("h0", "h1"),
            action_labels=("look",),
            admissible=((0,), (0,)),
            transitions={(0, 0): ((0, 1.0, 0.0),), (1, 0): ((1, 1.0, 0.0),)},
            horizon=3,
            observation_labels=("o0", "o1"),
            observations={
                (0, 0): ((0, 0.9), (1, 0.1)),
                (1, 0): ((0, 0.1), (1, 0.9)),
            },
        )
        b = belief_update(p, {0: 0.5, 1: 0.5}, 0, 0)
        assert b[0] == pytest.approx(0.9)
        assert b[1] == pytest.approx(0.1)
        # Two consistent observations sharpen further: 0.81 / 0.82.
        b = belief_update(p, b, 0, 0)
        assert b[0] == pytest.approx(0.81 / 0.82)

    def test_impossible_observation(self):
        p = Problem(
            state_labels=("h0",),
            action_labels=("look",),
            admissible=((0,),),
            transitions={(0, 0): ((0, 1.0, 0.0),)},
            horizon=1,
            observation_labels=("o0", "o1"),
            observations={(0, 0): ((0, 1.0),)},
        )
        with pytest.raises(ImpossibleObservationError):
            belief_update(p, {0: 1.0}, 0, 1)

    def test_fully_observable_update_is_point_mass(self):
        # Without an observation model the observation names the successor.
        p = coin_problem()
        assert belief_update(p, point_mass(3, 0), 0, 2) == {2: 1.0}
        assert belief_update(p, {1: 0.5, 2: 0.5}, 1, 1) == {1: 1.0}

    def test_fully_observable_unreachable_successor(self):
        p = coin_problem()
        with pytest.raises(ImpossibleObservationError):
            belief_update(p, point_mass(3, 0), 0, 0)
        with pytest.raises(ImpossibleObservationError):
            belief_update(p, point_mass(3, 1), 1, 2)

    @pytest.mark.parametrize("observable", [False, True])
    def test_sparse_update_matches_dense_reference(self, observable):
        rng = random.Random(5)
        for _ in range(300):
            p = random_problem(rng) if observable else random_pomdp(rng)
            n = p.n_states
            support = rng.sample(range(n), rng.randint(1, n))
            weights = [rng.random() + 0.05 for _ in support]
            z = sum(weights)
            b = {s: w / z for s, w in zip(support, weights)}
            n_obs = n if observable else len(p.observation_labels)
            for _ in range(4):
                a = rng.choice(p.admissible[rng.choice(list(b))])
                o = rng.randrange(n_obs)
                dense = [b.get(s, 0.0) for s in range(n)]
                try:
                    want = dense_belief_update(p, dense, a, o)
                except InadmissibleActionError:
                    with pytest.raises(InadmissibleActionError):
                        belief_update(p, b, a, o)
                    break
                if want is None:
                    with pytest.raises(ImpossibleObservationError):
                        belief_update(p, b, a, o)
                    break
                b = belief_update(p, b, a, o)
                assert [b.get(s, 0.0) for s in range(n)] == want
                assert all(x != 0.0 for x in b.values())


class TestDeterministicValues:
    def test_chain_value(self):
        p = chain_problem()
        t = value_iterate(p)
        assert t[0] == pytest.approx(3.0)
        assert t[1] == pytest.approx(2.0)
        assert t[2] == 0.0

    def test_plan_value_is_its_open_loop_expectation(self):
        p = chain_problem()
        value, _ = open_loop_expectation(p, 0, [0, 0], horizon=2)
        assert value == pytest.approx(3.0)

    def test_plan_value_discounts_first_step_first(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 6)
            m = rng.randint(1, 3)
            transitions = {
                (s, a): ((rng.randrange(n), 1.0, round(rng.uniform(-5, 5), 3)),)
                for s in range(n) for a in range(m)
            }
            p = Problem(
                state_labels=tuple(f"s{i}" for i in range(n)),
                action_labels=tuple(f"a{i}" for i in range(m)),
                admissible=(tuple(range(m)),) * n,
                transitions=transitions,
                gamma=round(rng.uniform(0.1, 0.95), 2),
            )
            plan = [rng.randrange(m) for _ in range(rng.randint(1, 8))]
            # r0 + gamma * (r1 + gamma * (r2 + ...)), summed first step first.
            s, total, disc = 0, 0.0, 1.0
            for a in plan:
                (s, _, r), = transitions[(s, a)]
                total += disc * r
                disc *= p.gamma
            value, _ = open_loop_expectation(p, 0, plan, horizon=len(plan))
            assert value == total

    def test_transition_rewards_in_expectation(self):
        p = coin_problem()
        # 0.25*11 + 0.75*(-1) = 2.0
        assert q_value(p, 0, 0, {0: 0.0, 1: 0.0, 2: 0.0}) == pytest.approx(2.0)
        t = value_iterate(p)
        assert t[0] == pytest.approx(2.0)

    def test_backup_names_a_missing_successor(self):
        with pytest.raises(IncompleteValueTableError,
                           match="no value for successor 'bad'"):
            q_value(coin_problem(), 0, 0, {0: 0.0, 1: 0.0})


class TestSolverOracles:
    def test_value_iteration_matches_tree_oracle(self):
        rng = random.Random(1234)
        for _ in range(100):
            p = random_problem(rng, with_terminal=rng.random() < 0.5)
            t = value_iterate(p, horizon=p.horizon)
            for s in range(p.n_states):
                assert t[s] == pytest.approx(
                    oracle_value(p, s, p.horizon + 1), abs=1e-9
                )

    def test_greedy_nonstationary_policy_attains_optimum(self):
        rng = random.Random(99)
        for _ in range(50):
            p = random_problem(rng)
            t = value_iterate(p, horizon=p.horizon)
            levels = extract_nonstationary(p)
            ev = evaluate_policy(p, levels, t=p.horizon)
            for s in range(p.n_states):
                assert ev[s] == pytest.approx(t[s], abs=1e-9)

    def test_value_iteration_matches_literal_policy_enumeration(self):
        # Small enough to enumerate every nonstationary policy.
        rng = random.Random(7)
        for _ in range(20):
            p = random_problem(rng, max_states=3, max_actions=2, max_horizon=2)
            levels = p.horizon + 1
            per_level = []
            states = range(p.n_states)

            def all_rules():
                rules = [{}]
                for s in states:
                    rules = [
                        {**r, s: a} for r in rules for a in p.admissible[s]
                    ]
                return rules

            rules = all_rules()
            best = {s: -math.inf for s in states}
            for combo in itertools.product(rules, repeat=levels):
                for s in states:
                    v = oracle_policy_value(p, s, levels, list(combo))
                    best[s] = max(best[s], v)
            t = value_iterate(p, horizon=p.horizon)
            for s in states:
                assert t[s] == pytest.approx(best[s], abs=1e-9)

    def test_policy_evaluation_matches_trajectory_enumeration(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_problem(rng)
            pol = {s: rng.choice(p.admissible[s]) for s in range(p.n_states)}
            ev = evaluate_policy(p, pol, t=p.horizon)
            levels = [pol] * (p.horizon + 1)
            for s in range(p.n_states):
                assert ev[s] == pytest.approx(
                    oracle_policy_value(p, s, p.horizon + 1, levels), abs=1e-9
                )

    def test_discounted_contraction(self):
        p = Problem(
            state_labels=("a", "b"),
            action_labels=("x", "y"),
            admissible=((0, 1), (0,)),
            transitions={
                (0, 0): ((0, 0.5, 1.0), (1, 0.5, 1.0)),
                (0, 1): ((1, 1.0, 0.0),),
                (1, 0): ((0, 1.0, 2.0),),
            },
            gamma=0.9,
        )
        t = value_iterate(p, epsilon=1e-10)
        assert t.residual <= 1e-10
        # Residuals shrink at least geometrically with ratio gamma.
        hist = t.residual_history
        for r0, r1 in zip(hist, hist[1:]):
            assert r1 <= r0 * p.gamma + 1e-12

    def test_residual_stopping_defaults_to_1e_9(self):
        """Without a horizon on the call or the problem, the sweeps stop at
        the first residual at or below 1e-9; with gamma = 1 they need one."""
        p = Problem(
            state_labels=("a", "b"),
            action_labels=("x", "y"),
            admissible=((0, 1), (0,)),
            transitions={
                (0, 0): ((0, 0.5, 1.0), (1, 0.5, 1.0)),
                (0, 1): ((1, 1.0, 0.0),),
                (1, 0): ((0, 1.0, 2.0),),
            },
            gamma=0.9,
        )
        t = value_iterate(p)
        assert t.residual <= 1e-9 < t.residual_history[-2]
        assert t.values == value_iterate(p, epsilon=1e-9).values
        q = coin_problem()
        with pytest.raises(InvalidConfigError,
                           match="residual stopping requires gamma < 1"):
            value_iterate(q, epsilon=1e-3)

    def test_extract_policy_ties_lowest_index(self):
        # The tie rule holds whatever order ``admissible`` lists actions in.
        for order in ((0, 1), (1, 0)):
            p = Problem(
                state_labels=("a", "b"),
                action_labels=("x", "y"),
                admissible=(order, (0,)),
                transitions={
                    (0, 0): ((1, 1.0, 1.0),),
                    (0, 1): ((1, 1.0, 1.0),),
                    (1, 0): ((1, 1.0, 0.0),),
                },
                terminal=frozenset({1}),
                horizon=2,
            )
            pol = extract_policy(p, value_iterate(p))
            assert pol[0] == 0
            assert pol.ties[0] == (0, 1)


class TestOpenAndClosedLoop:
    def test_plan_expectation_and_scenarios(self):
        p = coin_problem()
        value, scenarios = open_loop_expectation(p, 0, [0])
        assert value == pytest.approx(2.0)
        assert dict((t, pr) for pr, t in scenarios) == {11.0: 0.25, -1.0: 0.75}

    def test_uniform_behavior(self):
        p = chain_problem()
        value, _ = open_loop_expectation(p, 0, "uniform")
        assert value == pytest.approx(3.0)

    def test_scenario_probabilities_sum_to_one(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_problem(rng, with_terminal=True)
            _, scenarios = open_loop_expectation(p, 0, "uniform")
            assert sum(pr for pr, _ in scenarios) == pytest.approx(1.0)

    def test_closed_loop_equals_value_iteration_when_observable(self):
        # closed_loop_value delegates to value iteration here, so the
        # reference is the independent tree expectimax.
        rng = random.Random(21)
        for _ in range(30):
            p = random_problem(rng, with_terminal=rng.random() < 0.5)
            assert closed_loop_value(p, 0) == pytest.approx(
                oracle_value(p, 0, p.horizon + 1), abs=1e-9
            )

    def test_long_chain_does_not_recurse(self):
        p = chain_of(3000)
        value, scenarios = open_loop_expectation(p, 0, "uniform")
        assert value == 2999.0
        assert scenarios == [(1.0, 2999.0)]

    def test_value_of_information(self):
        rng = random.Random(31)
        for _ in range(50):
            p = random_problem(rng, with_terminal=True)
            closed = closed_loop_value(p, 0)
            for behavior in ("uniform", {s: p.admissible[s][0] for s in range(p.n_states)}):
                open_v, _ = open_loop_expectation(p, 0, behavior)
                assert closed >= open_v - 1e-9

    def test_belief_expectimax_matches_decision_rule_enumeration(self):
        # Two hidden coin states; one noisy peek, then bet. The optimal
        # strategy conditions the bet on the peek outcome.
        reward = {
            (0, 0): 0.0, (1, 0): 0.0,
            (0, 1): 1.0, (0, 2): -1.0,
            (1, 1): -1.0, (1, 2): 1.0,
        }
        p = Problem(
            state_labels=("heads", "tails"),
            action_labels=("peek", "bet_heads", "bet_tails"),
            admissible=((0, 1, 2), (0, 1, 2)),
            transitions={(s, a): ((s, 1.0, r),) for (s, a), r in reward.items()},
            gamma=1.0,
            horizon=1,
            observation_labels=("saw_h", "saw_t"),
            observations={
                (0, 0): ((0, 0.8), (1, 0.2)),
                (1, 0): ((0, 0.2), (1, 0.8)),
                (0, 1): ((0, 0.5), (1, 0.5)),
                (1, 1): ((0, 0.5), (1, 0.5)),
                (0, 2): ((0, 0.5), (1, 0.5)),
                (1, 2): ((0, 0.5), (1, 0.5)),
            },
        )

        # Oracle: enumerate all two-stage strategies (first action, then a
        # second action per observation outcome) against the uniform prior.
        def strategy_value(a1, rule):
            total = 0.0
            for s, ps in ((0, 0.5), (1, 0.5)):
                for o, po in p.observations[(s, a1)]:
                    a2 = rule[o]
                    total += ps * po * (reward[(s, a1)] + reward[(s, a2)])
            return total

        best = -math.inf
        for a1 in range(3):
            for r0 in range(3):
                for r1 in range(3):
                    best = max(best, strategy_value(a1, {0: r0, 1: r1}))
        assert best == pytest.approx(0.6)  # peek, then follow the sensor

        # The same game with an explicit mixing start state, so the belief
        # recursion starts from a point mass and reaches the uniform prior.
        q = Problem(
            state_labels=("start", "heads", "tails"),
            action_labels=("deal", "peek", "bet_heads", "bet_tails"),
            admissible=((0,), (1, 2, 3), (1, 2, 3)),
            transitions={
                (0, 0): ((1, 0.5, 0.0), (2, 0.5, 0.0)),
                (1, 1): ((1, 1.0, 0.0),),
                (2, 1): ((2, 1.0, 0.0),),
                (1, 2): ((1, 1.0, 1.0),),
                (1, 3): ((1, 1.0, -1.0),),
                (2, 2): ((2, 1.0, -1.0),),
                (2, 3): ((2, 1.0, 1.0),),
            },
            gamma=1.0,
            horizon=2,
            observation_labels=("none", "saw_h", "saw_t"),
            observations={
                (1, 0): ((0, 1.0),),
                (2, 0): ((0, 1.0),),
                (1, 1): ((1, 0.8), (2, 0.2)),
                (2, 1): ((1, 0.2), (2, 0.8)),
                (1, 2): ((0, 1.0),),
                (1, 3): ((0, 1.0),),
                (2, 2): ((0, 1.0),),
                (2, 3): ((0, 1.0),),
            },
        )
        assert closed_loop_value(q, 0) == pytest.approx(best, abs=1e-9)

    def test_long_horizon_belief_expectimax_does_not_recurse(self):
        # A noisy sensor over a state that is redrawn every step, so each
        # level has two reachable beliefs; the walk is 1501 levels deep.
        p = Problem(
            state_labels=("ok", "worn"),
            action_labels=("run",),
            admissible=((0,), (0,)),
            transitions={(0, 0): ((0, 0.5, 1.0), (1, 0.5, 1.0)),
                         (1, 0): ((0, 0.5, 0.0), (1, 0.5, 0.0))},
            gamma=1.0,
            horizon=1500,
            observation_labels=("quiet", "noisy"),
            observations={(0, 0): ((0, 0.8), (1, 0.2)),
                          (1, 0): ((0, 0.3), (1, 0.7))},
        )
        # 1 at the start state, then half a unit of reward per level.
        assert closed_loop_value(p, 0) == pytest.approx(1.0 + 1500 * 0.5)

    def test_nonstationary_policy_length_checked(self):
        p = chain_problem()
        with pytest.raises(InvalidConfigError):
            evaluate_policy(p, [Policy(actions={0: 0, 1: 0, 2: 1})], t=1)

    def test_uniform_entry_equals_its_explicit_level(self):
        """A "uniform" policy entry reads as ((a, 1/k), ...) over
        ``admissible[s]``, bit for bit, in both policy readers."""
        p = compile_scenario(load_scenario(builtin_scenario_dict(4))).problem
        explicit = {s: tuple((a, 1.0 / len(acts)) for a in acts)
                    for s, acts in enumerate(p.admissible)}
        uniform = dict.fromkeys(range(p.n_states), "uniform")
        assert max(len(acts) for acts in p.admissible) == 3
        assert (repr(evaluate_policy(p, uniform, t=p.horizon).values)
                == repr(evaluate_policy(p, explicit, t=p.horizon).values))
        assert (repr(open_loop_expectation(p, 0, uniform))
                == repr(open_loop_expectation(p, 0, explicit)))


def tree_open_loop(problem, s0, behavior, horizon=None):
    """Open-loop expectation by plain recursion over the scenario tree.

    Collects the leaves as (probability, total reward) in depth-first
    order, then merges totals rounded to 9 places as the solver does.
    """
    horizon = problem.horizon if horizon is None else horizon
    if isinstance(behavior, Policy):
        behavior = behavior.actions

    def choices(s, pos):
        if isinstance(behavior, list):
            if pos == len(behavior):
                return None, pos
            return [(behavior[pos], 1.0)], pos + 1
        choice = "uniform" if behavior == "uniform" else behavior.get(s, "uniform")
        if choice == "uniform":
            acts = problem.admissible[s]
            return [(a, 1.0 / len(acts)) for a in acts], pos
        if isinstance(choice, int):
            return [(choice, 1.0)], pos
        return list(choice), pos

    def leaves(s, depth, prob, total, disc, pos):
        dist, pos = choices(s, pos)
        if problem.is_terminal(s) or depth > horizon or dist is None:
            return [(prob, total)]
        found = []
        for a, pa in dist:
            for s2, p, r in problem.transitions[(s, a)]:
                if pa > 0.0 and p > 0.0:
                    found += leaves(s2, depth + 1, prob * pa * p, total + disc * r,
                                    disc * problem.gamma, pos)
        return found

    found = leaves(s0, 0, 1.0, 0.0, 1.0, 0)
    merged = {}
    for prob, total in found:
        merged[round(total, 9)] = merged.get(round(total, 9), 0.0) + prob
    scenarios = sorted(((p, t) for t, p in merged.items()), key=lambda x: -x[1])
    return sum(p * t for p, t in found), scenarios


@st.composite
def open_loop_cases(draw):
    """(problem, start, behavior, horizon) for the open-loop walk.

    Every non-terminal state admits every action, so any drawn plan is
    admissible wherever it leads.  Mappings are partial and mix fixed,
    ``"uniform"`` and stochastic entries, some with probability 0.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    terminal = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    admissible, transitions = [], {}
    for s in range(n):
        acts = (0,) if s in terminal else tuple(range(m))
        admissible.append(acts)
        for a in acts:
            if s in terminal:
                transitions[(s, a)] = ((s, 1.0, 0.0),)
                continue
            succs = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=2, unique=True))
            weights = [draw(st.integers(0, 2)) for _ in succs]
            weights[0] += 1
            z = sum(weights)
            transitions[(s, a)] = tuple((s2, w / z, draw(_amounts))
                                        for s2, w in zip(succs, weights))
    problem = Problem(
        state_labels=tuple(f"s{i}" for i in range(n)),
        action_labels=tuple(f"a{i}" for i in range(m)),
        admissible=tuple(admissible),
        transitions=transitions,
        terminal=frozenset(terminal),
        gamma=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
        horizon=draw(st.integers(0, 3)),
    )
    actions = st.integers(0, m - 1)
    stochastic = st.lists(
        st.tuples(actions, st.sampled_from([0.0, 0.25, 0.5, 1.0])), min_size=1,
        max_size=2,
    ).map(tuple)
    entries = st.one_of(actions, st.just("uniform"), stochastic)
    behavior = draw(st.one_of(
        st.just("uniform"),
        st.lists(actions, max_size=5),
        st.dictionaries(st.integers(0, n - 1), entries),
        st.dictionaries(st.integers(0, n - 1), actions).map(Policy),
    ))
    horizon = draw(st.one_of(st.none(), st.integers(0, 3)))
    return problem, draw(st.integers(0, n - 1)), behavior, horizon


class TestOpenLoopAgainstTreeOracle:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(open_loop_cases())
    def test_expectation_and_scenarios_equal_the_tree(self, case):
        problem, s0, behavior, horizon = case
        assert (open_loop_expectation(problem, s0, behavior, horizon)
                == tree_open_loop(problem, s0, behavior, horizon))


def forks(k):
    """States 0..k; from each state below k two actions lead to the next,
    so state 0 has 2**k uniform paths to the terminal state k."""
    return Problem(
        state_labels=tuple(f"s{i}" for i in range(k + 1)),
        action_labels=("x", "y"),
        admissible=((0, 1),) * k + ((0,),),
        transitions={(s, a): ((min(s + 1, k), 1.0, -float(a)),)
                     for s in range(k + 1) for a in (0, 1)},
        terminal=frozenset({k}),
        gamma=1.0,
        horizon=k,
    )


class TestOpenLoopLeafCap:
    def test_cap_is_reached_and_passed(self, monkeypatch):
        monkeypatch.setattr(hadm.model, "MAX_OPEN_LOOP_LEAVES", 2**10)
        value, _ = open_loop_expectation(forks(10), 0, "uniform")
        assert value == -5.0
        with pytest.raises(ResourceLimitError, match="exceeded 1024 scenarios"):
            open_loop_expectation(forks(11), 0, "uniform")

    def test_long_uniform_walk_stops_at_the_cap(self):
        """2**60 paths: the walk stops after the cap, not at its end."""
        with pytest.raises(ResourceLimitError,
                           match=f"exceeded {MAX_OPEN_LOOP_LEAVES} scenarios"):
            open_loop_expectation(forks(60), 0, "uniform")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_builtin_routes_are_unchanged(self, n):
        compiled = compile_scenario(load_scenario(builtin_scenario_dict(n)))
        walks = [(compiled.initial_state, "uniform")]
        walks += [compiled.route_policy(r.id) for r in compiled.spec.routes]
        for s0, behavior in walks:
            assert (open_loop_expectation(compiled.problem, s0, behavior)
                    == tree_open_loop(compiled.problem, s0, behavior))


# Values that stress the bit-for-bit agreement of the two solver paths:
# signed zeros, exact small numbers and arbitrary finite floats.
_amounts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.5]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
# 5e-324 makes gamma * u(s') round to a signed zero.
_gammas = st.one_of(
    st.sampled_from([1.0, 0.0, 0.5, 0.9, 5e-324]),
    st.floats(min_value=0.0, max_value=1.0),
)


def reference_depth(problem):
    """Longest path from any state in actions, terminals counting 0, by
    relaxation; None when the non-terminal states form a cycle."""
    depth = dict.fromkeys(range(problem.n_states), 0)
    for _ in range(problem.n_states + 1):
        nxt = {
            s: 0 if problem.is_terminal(s) else 1 + max(
                depth[s2]
                for a in problem.admissible[s]
                for s2, _, _ in problem.transitions[(s, a)]
            )
            for s in range(problem.n_states)
        }
        if nxt == depth:
            return max(depth.values())
        depth = nxt
    return None


@st.composite
def dispatch_cases(draw):
    """(problem, horizon) on both sides of value_iterate's dispatch.

    ``dag`` and ``chain`` problems only move to higher state indices, the
    chain by one or two at a time so that its longest path is long;
    ``cyclic`` problems may move anywhere.  Terminals, zero-probability
    successors, branch rewards and discounting are all drawn, and the
    horizon falls on either side of the longest path.
    """
    shape = draw(st.sampled_from(["dag", "cyclic", "chain"]))
    n = draw(st.integers(2, 30 if shape == "chain" else 7))
    m = draw(st.integers(1, 3))
    terminal = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    if shape != "cyclic":
        terminal.add(n - 1)
    admissible, transitions = [], {}
    for s in range(n):
        if s in terminal:
            admissible.append((0,))
            transitions[(s, 0)] = ((s, 1.0, draw(st.sampled_from([0.0, -0.0]))),)
            continue
        acts = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
        admissible.append(acts)
        if shape == "cyclic":
            targets = range(n)
        elif shape == "dag":
            targets = range(s + 1, n)
        else:
            targets = range(s + 1, min(n, s + 3))
        for a in acts:
            succs = draw(st.lists(st.sampled_from(targets), min_size=1,
                                  max_size=3, unique=True))
            weights = [draw(st.integers(0, 4)) for _ in succs]
            weights[0] += 1
            z = sum(weights)
            transitions[(s, a)] = tuple((s2, w / z, draw(_amounts))
                                        for s2, w in zip(succs, weights))
    horizon = draw(st.integers(0, n + 2))
    problem = Problem(
        state_labels=tuple(f"s{i}" for i in range(n)),
        action_labels=tuple(f"a{i}" for i in range(m)),
        admissible=tuple(admissible),
        transitions=transitions,
        terminal=frozenset(terminal),
        gamma=draw(_gammas),
        horizon=horizon,
    )
    return problem, horizon


def value_bits(values):
    return [(s, v.hex()) for s, v in values.items()]


def swept(problem, horizon):
    """H+1 sweeps from the all-zero table: a horizon-H value by definition."""
    u = dict.fromkeys(range(problem.n_states), 0.0)
    for _ in range(horizon + 1):
        u = hadm.model._sweep(problem, u)
    return u


class TestSolverDispatch:
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(dispatch_cases())
    def test_backward_pass_equals_the_sweeps(self, case):
        p, horizon = case
        table = value_iterate(p, horizon)
        assert value_bits(table.values) == value_bits(swept(p, horizon))
        depth = reference_depth(p)
        backward = depth is not None and depth <= horizon + 1
        assert ((table.iterations, table.residual, table.residual_history)
                == (1, 0.0, [])) == backward

    def test_cycle_in_a_compiled_scenario_falls_back_to_the_sweeps(self, tmp_path):
        # Zero-duration segments both ways between wp1 and wp2 give the
        # states wp1|t=1.0 and wp2|t=1.0 a cycle.
        doc = builtin_scenario_dict(2)
        doc["segments"] += [
            {"id": "X12", "from": "wp1", "to": "wp2", "duration_h": 0},
            {"id": "X21", "from": "wp2", "to": "wp1", "duration_h": 0},
        ]
        p = compile_scenario(load_scenario(doc)).problem
        assert p.n_states == 25
        assert reference_depth(p) is None
        table = value_iterate(p)
        assert table.residual_history
        assert value_bits(table.values) == value_bits(swept(p, p.horizon))
        # Shuttling wp1 <-> wp2 is free, so the best plan pays for L1 and
        # loiters until the horizon runs out.
        assert table[0] == -(0.4 * 600 + 0.6 * 300)
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "values.csv"
        assert cli_main(["solve", "--scenario", str(path),
                         "--value-out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",-420.0")

    def test_stage_tables_are_capped(self):
        p = chain_of(3000)
        assert (p.horizon + 1) * p.n_states > MAX_STAGE_ENTRIES
        with pytest.raises(ResourceLimitError, match="stages of 3000 states"):
            extract_nonstationary(p)

    def test_long_chain_is_walked_without_recursion(self):
        table = value_iterate(chain_of(3000))
        assert (table.iterations, table.residual_history) == (1, [])
        assert table[0] == 2999.0
        assert table[2999] == 0.0

    def test_long_ring_is_found_without_recursion(self):
        n = 3000
        p = Problem(
            state_labels=tuple(f"s{i}" for i in range(n)),
            action_labels=("go",),
            admissible=((0,),) * n,
            transitions={(s, 0): (((s + 1) % n, 1.0, 1.0),) for s in range(n)},
            gamma=1.0,
            horizon=4,
        )
        table = value_iterate(p)
        assert table.iterations == 4
        assert set(table.values.values()) == {5.0}
