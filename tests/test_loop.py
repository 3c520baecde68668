"""Operational loop tests: arbitration, safety validation, trace replay."""
import io
import json
import math
import statistics
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadm.errors import ModelError
from hadm.loop import (
    OfflinePolicyProvider,
    OnlineExpectimaxProvider,
    SerPolicy,
    SerReport,
    arbitrate,
    belief_summary,
    most_likely_state,
    run_loop,
    terminal_mass,
    validate_ser,
)
from hadm.model import Problem, extract_policy, point_mass, value_iterate
from hadm.rover import Plant, builtin_scenario, compile_scenario
from hadm.strategies import make_provider


@pytest.fixture(scope="module")
def crater():
    return compile_scenario(builtin_scenario(2))


@pytest.fixture(scope="module")
def hill():
    return compile_scenario(builtin_scenario(4))


class TestArbitration:
    def test_ser_wins_when_triggered(self):
        ser = SerPolicy(member={3}, actions={3: 7})
        assert arbitrate(3, {}, ser, 1) == (7, "SER")

    def test_provider_when_not_triggered(self):
        ser = SerPolicy(member={3}, actions={3: 7})
        assert arbitrate(2, {}, ser, 1) == (1, "HADM")

    def test_channel_predicate(self):
        ser = SerPolicy(member=lambda ch: ch.get("solar_flare", False),
                        actions={0: 9})
        assert arbitrate(0, {"solar_flare": True}, ser, 1) == (9, "SER")
        assert arbitrate(0, {"solar_flare": False}, ser, 1) == (1, "HADM")

    def test_undefined_response_is_hard_fault(self):
        ser = SerPolicy(member={3}, actions={})
        with pytest.raises(ModelError):
            arbitrate(3, {}, ser, 1)

    def test_no_ser_passes_through(self):
        assert arbitrate(0, {}, None, 5) == (5, "HADM")


class TestSerValidation:
    def test_correct_chain_is_clean(self, hill):
        p = hill.problem
        # From any overheated state, cooling once reaches nominal.
        hot = {s for s, st in enumerate(hill.states)
               if st.status == "ok" and st.temp_c and st.temp_c >= 60}
        cool = hill.action("cool:1h")
        safe = frozenset(
            s for s, st in enumerate(hill.states)
            if st.temp_c is None or st.temp_c <= 20 or st.status != "ok"
        )
        ser = SerPolicy(member=hot, actions={s: cool for s in hot}, safe_set=safe)
        report = validate_ser(p, ser)
        assert report.ok

    def test_empty_membership_trivially_valid(self, hill):
        report = validate_ser(hill.problem, SerPolicy(member=set(), actions={}))
        assert report.ok

    def test_missing_response_flagged(self, hill):
        hot = sorted(
            s for s, st in enumerate(hill.states)
            if st.status == "ok" and st.temp_c and st.temp_c >= 60
        )
        ser = SerPolicy(member=set(hot), actions={})
        report = validate_ser(hill.problem, ser)
        assert not report.ok
        assert any("no response defined" in v for v in report.violations)

    def test_cycle_flagged_with_state_names(self, crater):
        # A response that ping-pongs between wp2 and wp3 never parks.
        p = crater.problem
        by_label = {st.position: s for s, st in enumerate(crater.states)
                    if st.status == "ok"}
        # Build a two-state toy cycle on the crater graph: the detour
        # segment runs wp2 -> wp3 -> wp4, so force a self-referencing pair
        # through inadmissible structure instead: use a dedicated problem.
        from hadm.model import Problem

        q = Problem(
            state_labels=("a", "b", "safe"),
            action_labels=("swap", "park"),
            admissible=((0, 1), (0,), (0,)),
            transitions={
                (0, 0): ((1, 1.0, 0.0),),
                (0, 1): ((2, 1.0, 0.0),),
                (1, 0): ((0, 1.0, 0.0),),
                (2, 0): ((2, 1.0, 0.0),),
            },
            terminal=frozenset({2}),
            horizon=5,
        )
        ser = SerPolicy(member={0}, actions={0: 0, 1: 0}, safe_set=frozenset({2}))
        report = validate_ser(q, ser)
        assert not report.ok
        assert any("cycle" in v and "'a'" in v and "'b'" in v
                   for v in report.violations)
        # The fixed response parks immediately.
        good = SerPolicy(member={0}, actions={0: 1}, safe_set=frozenset({2}))
        assert validate_ser(q, good).ok

    def test_long_chain_does_not_recurse(self):
        from hadm.model import Problem

        n = 3000
        p = Problem(
            state_labels=tuple(f"s{i}" for i in range(n)),
            action_labels=("go", "stay"),
            admissible=tuple((0,) for _ in range(n - 1)) + ((1,),),
            transitions={**{(s, 0): ((s + 1, 1.0, 0.0),) for s in range(n - 1)},
                         (n - 1, 1): ((n - 1, 1.0, 0.0),)},
            terminal=frozenset({n - 1}),
            horizon=n,
        )
        go = {s: 0 for s in range(n - 1)}
        assert validate_ser(p, SerPolicy(member={0}, actions=go)).ok
        report = validate_ser(p, SerPolicy(member={0}, actions=go, step_bound=10))
        assert report.violations == [
            "safety takes 2999 steps from 's0', exceeding the bound of 10"
        ]

    def test_inadmissible_response_flagged(self, crater):
        p = crater.problem
        root = crater.initial_state
        bad = crater.action("drive:D1")  # not available at wp0
        ser = SerPolicy(member={root}, actions={root: bad})
        report = validate_ser(p, ser)
        assert any("inadmissible" in v for v in report.violations)

    def test_step_bound_enforced(self, hill):
        p = hill.problem
        # Cooling from 60 takes one step; a bound of zero must trip.
        hot = {s for s, st in enumerate(hill.states)
               if st.status == "ok" and st.temp_c == 60}
        cool = hill.action("cool:1h")
        safe = frozenset(
            s for s, st in enumerate(hill.states)
            if st.temp_c is None or st.temp_c <= 20 or st.status != "ok"
        )
        ser = SerPolicy(member=hot, actions={s: cool for s in hot},
                        safe_set=safe, step_bound=0)
        report = validate_ser(p, ser)
        assert any("exceeding the bound" in v for v in report.violations)


def stack_validate_ser(problem: Problem, ser: SerPolicy) -> SerReport:
    """Exhaustively check the safety policy offline.

    From every state the policy covers, executing its actions must reach
    the safe set (or a terminal state) along every stochastic branch,
    without cycles and within the step bound.  Findings are reported, not
    raised.
    """
    report = SerReport()
    members = set(ser.actions) if callable(ser.member) else set(ser.member)
    bound = ser.step_bound if ser.step_bound is not None else problem.n_states

    for s in sorted(members):
        if s in ser.safe_set or problem.is_terminal(s):
            continue
        if ser.actions.get(s) is None:
            report.violations.append(
                f"no response defined for covered state {problem.state_labels[s]!r}"
            )

    seen_cycles = set()
    # depth[state] = worst-case steps still needed to reach safety, or None
    # once the state is known to fail.
    resolved = {}
    expand = object()

    def settle(s, path):
        """Depth of ``s`` if known without its successors, else ``expand``."""
        if s in ser.safe_set or problem.is_terminal(s):
            return 0
        if s in resolved:
            return resolved[s]
        if s in path:
            states = list(path)
            cycle = tuple(sorted(set(states[states.index(s):])))
            if cycle not in seen_cycles:
                seen_cycles.add(cycle)
                labels = ", ".join(repr(problem.state_labels[x]) for x in cycle)
                report.violations.append(
                    f"response cycle never reaches the safe set: {labels}"
                )
            return None
        a = ser.actions.get(s)
        if a is None:
            if s not in members:
                report.violations.append(
                    f"no response defined for reachable state "
                    f"{problem.state_labels[s]!r}"
                )
            resolved[s] = None
            return None
        if a not in problem.admissible[s]:
            report.violations.append(
                f"response {problem.action_labels[a]!r} is inadmissible at "
                f"state {problem.state_labels[s]!r}"
            )
            resolved[s] = None
            return None
        return expand

    def chase(root):
        """Depth-first walk of the response chains from ``root``.

        ``path`` maps each state being expanded, root first, to
        [its unvisited successors, worst depth so far]; an explicit stack
        keeps long chains clear of the recursion limit.  A failing
        successor fails every state on the path.
        """
        path = {}
        s, d = root, settle(root, path)
        while True:
            if d is expand:
                a = ser.actions[s]
                path[s] = [iter([s2 for s2, p, _ in problem.transitions[(s, a)]
                                 if p > 0.0]), 0]
            elif d is None:
                resolved.update(dict.fromkeys(path))
                return None
            elif not path:
                return d
            else:
                frame = path[next(reversed(path))]
                frame[1] = max(frame[1], d)
            top = next(reversed(path))
            pending, worst = path[top]
            s = next(pending, None)
            if s is None:  # every successor reached safety
                del path[top]
                d = resolved[top] = worst + 1
            else:
                d = settle(s, path)

    for s in sorted(members):
        d = chase(s)
        if d is not None and d > bound:
            report.violations.append(
                f"safety takes {d} steps from {problem.state_labels[s]!r}, "
                f"exceeding the bound of {bound}"
            )
    return report


@st.composite
def ser_cases(draw):
    """(problem, safety policy) pairs that reach every kind of finding.

    Successors may be the state itself or any other state, so responses
    form self-loops and cycles; some successors have probability 0.
    Responses may be missing, None or inadmissible, and the membership is
    either a state set or a channel predicate over the response table.
    """
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    terminal = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    admissible, transitions = [], {}
    for s in range(n):
        if s in terminal:
            admissible.append((0,))
            transitions[(s, 0)] = ((s, 1.0, 0.0),)
            continue
        acts = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
        admissible.append(acts)
        for a in acts:
            succs = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=3, unique=True))
            weights = [draw(st.integers(0, 2)) for _ in succs]
            weights[draw(st.integers(0, len(succs) - 1))] += 1
            z = sum(weights)
            transitions[(s, a)] = tuple((s2, w / z, 0.0)
                                        for s2, w in zip(succs, weights))
    problem = Problem(
        state_labels=tuple(f"s{i}" for i in range(n)),
        action_labels=tuple(f"a{i}" for i in range(m)),
        admissible=tuple(admissible),
        transitions=transitions,
        terminal=frozenset(terminal),
        horizon=n,
    )
    actions = {}
    for s in range(n):
        kind = draw(st.sampled_from(["admissible"] * 4 + ["any", "none", "missing"]))
        if kind == "admissible":
            actions[s] = draw(st.sampled_from(admissible[s]))
        elif kind == "any":
            actions[s] = draw(st.integers(0, m - 1))
        elif kind == "none":
            actions[s] = None
    states = st.integers(0, n - 1)
    member = draw(st.one_of(st.sets(states, min_size=1), st.sets(states),
                            st.just(lambda ch: False)))
    ser = SerPolicy(
        member=member,
        actions=actions,
        safe_set=frozenset(draw(st.sets(states, max_size=2))),
        step_bound=draw(st.one_of(st.none(), st.integers(0, 3), st.integers(0, n + 1))),
    )
    return problem, ser


class TestSerValidationAgainstStackOracle:
    """The validator against the explicit-stack walk it replaced, which
    reports the same findings in the same order."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(ser_cases())
    def test_violations_equal_the_stack_walk(self, case):
        problem, ser = case
        assert (validate_ser(problem, ser).violations
                == stack_validate_ser(problem, ser).violations)


class TestRunLoop:
    def test_terminal_start_gives_empty_trace(self, crater):
        p = crater.problem
        terminal = next(iter(p.terminal))
        plant = Plant(crater, seed=0)
        trace = run_loop(plant, p, OnlineExpectimaxProvider(p),
                         b0=point_mass(p.n_states, terminal))
        assert trace.records == []
        assert trace.terminal

    def test_replay_determinism(self, crater):
        def one():
            plant = Plant(crater, seed=17)
            provider = make_provider("hadm", crater, seed=17)
            trace = run_loop(plant, crater.problem, provider)
            buf = io.StringIO()
            trace.write_jsonl(buf)
            return buf.getvalue()

        assert one() == one()

    def test_trace_replay_reproduces_observations_and_rewards(self, crater):
        plant = Plant(crater, seed=23)
        provider = make_provider("hadm", crater, seed=23)
        trace = run_loop(plant, crater.problem, provider)
        replay = Plant(crater, seed=23)
        for record in trace.records:
            action = crater.action(record.action)
            obs, reward = replay.step(action)
            assert dict(obs) == record.observation
            assert reward == record.reward

    def test_ser_override_completeness(self, hill):
        # Inject a safety condition: any motor at or above 60 must cool.
        p = hill.problem
        hot = {s for s, st in enumerate(hill.states)
               if st.status == "ok" and st.temp_c and st.temp_c >= 60}
        cool = hill.action("cool:1h")
        ser = SerPolicy(member=hot, actions={s: cool for s in hot})
        plant = Plant(hill, seed=0)
        provider = make_provider("hadm", hill, seed=0)
        trace = run_loop(plant, p, provider, ser=ser)
        assert trace.records
        replay = Plant(hill, seed=0)
        for record in trace.records:
            pre = replay.state
            expected_tag = "SER" if pre in hot else "HADM"
            assert record.provider == expected_tag
            if pre in hot:
                assert record.action == "cool:1h"
            replay.step(hill.action(record.action))
        # The safety layer never lets the motor overheat.
        assert all(r.observation["motor_temp_c"] < 80 for r in trace.records)

    def test_initial_belief_outside_the_problem_is_rejected(self, crater):
        p = crater.problem
        for b0 in ({p.n_states: 1.0}, {-1: 1.0}, {0: 0.5, p.n_states: 0.5}):
            with pytest.raises(ModelError):
                run_loop(Plant(crater, seed=0), p, make_provider("hadm", crater),
                         b0=b0)

    def test_nan_initial_belief_is_rejected(self, crater):
        p = crater.problem
        b0 = {crater.initial_state: 1.0, 1: math.nan}
        with pytest.raises(ModelError):
            run_loop(Plant(crater, seed=0), p, make_provider("hadm", crater), b0=b0)

    @pytest.mark.parametrize("strategy", ["hadm", "shm-baseline"])
    def test_decide_sees_a_one_entry_belief(self, hill, strategy):
        # Compiled scenarios are fully observable, so every belief the
        # providers see is the point mass on the plant's state.
        provider = make_provider(strategy, hill, seed=0)
        plant = Plant(hill, seed=0)
        seen = []
        decide = provider.decide

        def spy(problem, belief, observation, step):
            seen.append((dict(belief), plant.state))
            return decide(problem, belief, observation, step)

        provider.decide = spy
        run_loop(plant, hill.problem, provider)
        assert seen
        assert all(belief == {state: 1.0} for belief, state in seen)

    @pytest.mark.parametrize("channel", ["state_index", "observation_index"])
    def test_a_pomdp_reads_only_observation_indices(self, channel):
        """A problem with an observation model never reads a plant's
        ``state_index`` as an observation.  State 1 may emit either
        observation, so its index would pass silently as "light"."""
        problem = Problem(
            state_labels=("start", "end"),
            action_labels=("go", "stay"),
            admissible=((0,), (1,)),
            transitions={(0, 0): ((1, 1.0, -1.0),), (1, 1): ((1, 1.0, 0.0),)},
            terminal=frozenset({1}),
            horizon=2,
            observation_labels=("dark", "light"),
            observations={(1, 0): ((0, 0.5), (1, 0.5))},
        )

        class Plant:
            state = 0

            def observe(self):
                return {channel: 0}

            def step(self, action):
                self.state = 1
                return {channel: 0 if channel == "observation_index" else 1}, -1.0

        class Go:
            def decide(self, problem, belief, observation, step):
                return 0

        if channel == "state_index":
            with pytest.raises(ModelError, match="no observation_index"):
                run_loop(Plant(), problem, Go())
        else:
            trace = run_loop(Plant(), problem, Go())
            assert trace.terminal and trace.total == -1.0

    def test_step_cap_truncates(self, hill):
        class Idler:
            def decide(self, problem, belief, observation, step):
                return hill.action("cool:1h")

        plant = Plant(hill, seed=0)
        trace = run_loop(plant, hill.problem, Idler(), max_steps=3)
        assert trace.truncated
        assert len(trace.records) == 3

    def test_offline_policy_mean_matches_root_value(self, crater):
        p = crater.problem
        table = value_iterate(p)
        policy = extract_policy(p, table)
        totals = []
        n = 10000
        for i in range(n):
            plant = Plant(crater, seed=i)
            trace = run_loop(plant, p, OfflinePolicyProvider(policy))
            assert trace.terminal
            totals.append(trace.total)
        mean = sum(totals) / n
        se = statistics.stdev(totals) / math.sqrt(n)
        assert abs(mean - table[crater.initial_state]) <= 3 * se

    def test_cumulative_rewards_consistent(self, crater):
        plant = Plant(crater, seed=2)
        trace = run_loop(plant, crater.problem, make_provider("hadm", crater))
        running = 0.0
        for r in trace.records:
            running += r.reward
            assert r.cumulative == pytest.approx(running)
        assert trace.total == pytest.approx(running)

    def test_table_and_csv_serializations(self, crater):
        plant = Plant(crater, seed=2)
        trace = run_loop(plant, crater.problem, make_provider("hadm", crater))
        text = trace.to_table()
        assert "total reward" in text
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 1 + len(trace.records)


# Belief entries that stress the argmax tie rule: exact zeros (both signs),
# the tiny negatives validate_belief admits, masses at or below the 1e-9
# tie tolerance, and values within it of each other.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-9]),
    st.floats(min_value=1e-12, max_value=3e-9),
    st.sampled_from([0.25, 0.25 + 4e-10, 0.25 + 9e-10, 0.25 + 1.5e-9, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


def dense_most_likely_state(b):
    """Reference argmax over a dense belief list; ties go to the lowest index."""
    best, best_p = 0, -1.0
    for s, p in enumerate(b):
        if p > best_p + 1e-9:
            best, best_p = s, p
    return best


def dense_summary(labels, b, top=3):
    """Reference summary over a dense belief list."""
    ranked = sorted(
        ((p, s) for s, p in enumerate(b) if p > 1e-9), key=lambda x: (-x[0], x[1])
    )
    return [(labels[s], round(p, 9)) for p, s in ranked[:top]]


class TestBeliefScan:
    @settings(max_examples=500, derandomize=True, database=None)
    @given(st.lists(_entries, min_size=1, max_size=12), st.data())
    def test_scan_matches_dense_argmax_and_terminal_sum(self, b, data):
        n = len(b)
        terminal = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        # The mapping holds the nonzero entries (zeros only if drawn), in
        # a drawn insertion order: no result may depend on that order.
        order = data.draw(st.permutations(range(n)))
        keep_zeros = data.draw(st.booleans())
        sparse = {s: b[s] for s in order if keep_zeros or b[s] != 0.0}
        assert most_likely_state(sparse) == dense_most_likely_state(b)
        assert terminal_mass(sparse, terminal) == sum(
            p for s, p in enumerate(b) if s in terminal
        )
        problem = SimpleNamespace(state_labels=tuple(f"s{i}" for i in range(n)))
        assert belief_summary(problem, sparse) == dense_summary(
            problem.state_labels, b
        )

    def test_zero_first_entry_keeps_the_dense_start(self):
        # An absent state 0 counts as probability 0, as in the dense scan,
        # so 5e-10 does not displace it but 1.2e-9 does.
        assert dense_most_likely_state((0.0, 5e-10, 1.2e-9)) == 2
        assert most_likely_state({1: 5e-10, 2: 1.2e-9}) == 2
        assert most_likely_state({2: 1.2e-9, 1: 5e-10}) == 2
        assert most_likely_state({1: 5e-10}) == 0
