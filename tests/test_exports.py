"""``solve``'s table exports: byte for byte what ``csv.writer`` writes."""
import csv
import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_rover import _ladder

from hadm.cli import main
from hadm.model import Policy, Problem, ValueTable, extract_policy, value_iterate
from hadm.rover.builtins import builtin_scenario
from hadm.rover.compiler import _Compiler, compile_scenario
from hadm.rover.spec import load_scenario_file


def absorbing_problem(state_labels, action_labels=("stay",)) -> Problem:
    """Every state terminal, its one action 0 a zero-reward self-loop."""
    n = len(state_labels)
    return Problem(
        state_labels=tuple(state_labels),
        action_labels=tuple(action_labels),
        admissible=((0,),) * n,
        transitions={(s, 0): ((s, 1.0, 0.0),) for s in range(n)},
        terminal=frozenset(range(n)),
        horizon=0,
    )


def written(export, problem) -> str:
    buf = io.StringIO(newline="")
    export.write_csv(problem, buf)
    return buf.getvalue()


def csv_writer_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def expected_exports(problem, values, actions):
    labels, names = problem.state_labels, problem.action_labels
    value_rows = [("state", "value")] + [
        (labels[s], repr(values[s])) for s in sorted(values)]
    policy_rows = [("state", "action")] + [
        (labels[s], names[actions[s]]) for s in sorted(actions)]
    return csv_writer_text(value_rows), csv_writer_text(policy_rows)


# Characters the excel dialect treats specially, and a few that it does not.
_SPECIAL = st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x00", "é", "雪", " ", ""])
_LABELS = st.lists(st.one_of(st.text(), _SPECIAL), min_size=1, max_size=8)


class TestWriterEqualsCsvWriter:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_LABELS, st.lists(st.one_of(st.text(), _SPECIAL), min_size=1, max_size=4),
           st.data())
    def test_any_labels(self, state_labels, action_labels, data):
        if sys.version_info < (3, 11):
            # Python 3.10's csv cannot write NUL; test_nul_is_written_verbatim
            # pins what 3.11's csv writes.
            assume(not any("\x00" in x for x in state_labels + action_labels))
        problem = absorbing_problem(state_labels, action_labels)
        n = problem.n_states
        states = data.draw(st.sets(st.integers(0, n - 1)))
        values = {s: data.draw(st.floats()) for s in states}
        actions = {s: data.draw(st.integers(0, len(action_labels) - 1))
                   for s in states}
        want_values, want_policy = expected_exports(problem, values, actions)
        assert written(ValueTable(values), problem) == want_values
        assert written(Policy(actions), problem) == want_policy

    def test_none_and_non_string_labels(self):
        problem = absorbing_problem(
            [None, 7, 2.5, ("a", "b,c"), True], [None, 3, "x,y"])
        values = {0: 1.0, 1: -0.0, 2: float("inf"), 3: float("nan"), 4: 1e-310}
        actions = {0: 0, 1: 1, 2: 2, 3: 0, 4: 1}
        want_values, want_policy = expected_exports(problem, values, actions)
        assert written(ValueTable(values), problem) == want_values
        assert written(Policy(actions), problem) == want_policy
        assert want_policy.splitlines()[1:5] == [
            ",", "7,3", '2.5,"x,y"', "\"('a', 'b,c')\","]

    def test_nul_is_written_verbatim(self):
        problem = absorbing_problem(["a\x00b", "\x00,"], ["\x00"])
        assert written(ValueTable({0: 1.0, 1: 2.0}), problem) == (
            'state,value\r\na\x00b,1.0\r\n"\x00,",2.0\r\n')
        assert written(Policy({0: 0, 1: 0}), problem) == (
            'state,action\r\na\x00b,\x00\r\n"\x00,",\x00\r\n')

    def test_keys_inserted_out_of_order(self):
        """Rows come out in state order whatever order the keys were
        inserted in, and a state the table leaves out gets no row."""
        problem = absorbing_problem([f"s{i}" for i in range(6)], ["a", "b"])
        values = {4: 0.5, 0: -1.0, 5: 2.0, 2: 3.0}
        actions = {5: 1, 2: 0, 0: 1, 4: 0}
        want_values, want_policy = expected_exports(problem, values, actions)
        assert written(ValueTable(values), problem) == want_values
        assert written(Policy(actions), problem) == want_policy
        assert want_values.splitlines()[1:] == [
            "s0,-1.0", "s2,3.0", "s4,0.5", "s5,2.0"]

    def test_more_rows_than_one_block(self):
        labels = [f"s{i}" + "," * (i % 3) + '"' * (i % 2) for i in range(1500)]
        problem = absorbing_problem(labels)
        values = {s: s / 7 for s in range(1500)}
        actions = dict.fromkeys(range(1500), 0)
        want_values, want_policy = expected_exports(problem, values, actions)
        assert written(ValueTable(values), problem) == want_values
        assert written(Policy(actions), problem) == want_policy


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


def test_memory_is_one_block():
    """Traced memory holds one block of rows, not the file and not a
    sorted copy of the states: 10^5 rows of this table come to about
    4.8 MB, and their sorted state list alone to 800 KB, traced on the
    first export.  A compiled problem keeps its labels once they are
    read, and the 19,531 rows of the ladder at k=6 export in one block
    as well, traced on the export after the one that read them."""
    n = 10**5
    by_hand = absorbing_problem([f"state-{s}|t={s}.0|status=ok" for s in range(n)])
    compiled = compile_scenario(_ladder(6)).problem
    for problem, warm in ((by_hand, False), (compiled, True)):
        table = ValueTable({s: s / 3 for s in range(problem.n_states)})
        if warm:
            table.write_csv(problem, _Discard())
        tracemalloc.start()
        try:
            table.write_csv(problem, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18


@pytest.fixture
def formatted(monkeypatch):
    """Each label that ``_Compiler.label`` formats, in call order."""
    labels, label = [], _Compiler.label

    def counting(self, state):
        labels.append(label(self, state))
        return labels[-1]

    monkeypatch.setattr(_Compiler, "label", counting)
    return labels


def test_compile_formats_no_label(formatted):
    compile_scenario(builtin_scenario(4))
    assert formatted == []


def test_solve_formats_each_label_once(tmp_path, capsys, formatted):
    """Both exports read one pass of the labels: builtin:4's 172 states
    format 172 labels, where an export apiece would format 344."""
    value_out, policy_out = tmp_path / "value.csv", tmp_path / "policy.csv"
    assert main(["solve", "--scenario", "builtin:4",
                 "--value-out", str(value_out),
                 "--policy-out", str(policy_out)]) == 0
    assert "states: 172" in capsys.readouterr().out
    assert len(formatted) == len(set(formatted)) == 172
    with open(value_out, encoding="utf-8", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == formatted


def test_run_formats_only_the_labels_it_reports(capsys, formatted):
    """An episode formats the labels of its belief summaries and of its
    final state, each of which its JSONL trace reports, and no more."""
    assert main(["run", "--scenario", "builtin:4", "--format", "jsonl"]) == 0
    out = capsys.readouterr().out
    assert 0 < len(formatted) < 172
    assert all(json.dumps(label) in out for label in formatted)


ODD_IDS = {
    "name": "odd ids",
    "kind": "rover",
    "waypoints": [{"id": 'a,"0'}, {"id": "b\n1"}, {"id": 'c"\r\n2'}],
    "regions": [{"id": 'r,"\n', "classes": {"x,y": 0.5, 'q"z\n': 0.5}}],
    "segments": [
        {"id": 'S,1"', "from": 'a,"0', "to": "b\n1", "region": 'r,"\n'},
        {"id": 'T"2\n', "from": "b\n1", "to": 'c"\r\n2', "terrain": "easy"},
    ],
    "mission": {"start": 'a,"0', "goal": 'c"\r\n2'},
}


def test_solve_exports_read_back_as_the_labels(tmp_path, capsys):
    scenario = tmp_path / "odd.json"
    scenario.write_text(json.dumps(ODD_IDS), encoding="utf-8")
    value_out, policy_out = tmp_path / "value.csv", tmp_path / "policy.csv"
    assert main(["solve", "--scenario", str(scenario),
                 "--value-out", str(value_out),
                 "--policy-out", str(policy_out)]) == 0
    problem = compile_scenario(load_scenario_file(str(scenario))).problem
    table = value_iterate(problem)
    chosen = extract_policy(problem, table)

    def read(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    labels = problem.state_labels
    assert read(value_out) == [["state", "value"]] + [
        [labels[s], repr(table[s])] for s in range(problem.n_states)]
    assert read(policy_out) == [["state", "action"]] + [
        [labels[s], problem.action_labels[chosen[s]]]
        for s in range(problem.n_states)]
    assert any("\r\n" in label for label in labels)
    assert {'drive:S,1"', 'drive:T"2\n'} <= {
        problem.action_labels[chosen[s]] for s in range(problem.n_states)}
