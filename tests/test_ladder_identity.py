"""Byte identity of a 781-state compile, beyond the compiler oracle's cap.

``tests/test_compiler_oracle.py`` compares the compiler with its frozen
reference only on documents of at most 200 states.  This file builds a
ladder-shaped document inline (four stages of three segments, two
two-class regions per stage: 1 + 5 + 25 + 125 + 625 = 781 states) and
pins the SHA-256 of what ``solve`` and ``run`` write for it, so a change
to how the compiler expands or records states that moves any byte of a
state label, a value, a policy or a trace fails here.  It also holds the
analytic values of ``hadm``, ``fixed-plan`` and ``shm-baseline`` to an
exact rational oracle.
"""
import hashlib
import json
from fractions import Fraction

import pytest

from hadm.cli import main
from hadm.rover import compile_scenario, load_scenario
from hadm.strategies import analytic_expectation

# Per stage: P(difficult) of its "a" and "b" regions.
STAGES = (("0.3", "0.6"), ("0.55", "0.25"), ("0.8", "0.45"), ("0.15", "0.9"))


def ladder_document():
    regions, segments = [], []
    for i, probs in enumerate(STAGES, start=1):
        frm, to = f"w{i - 1}", f"w{i}"
        for region, p, energy in (("a", probs[0], {"difficult": 600, "moderate": 300}),
                                  ("b", probs[1], {"difficult": 700, "moderate": 200})):
            p = float(p)
            regions.append({"id": f"{region}{i}",
                            "classes": {"difficult": p, "moderate": 1.0 - p}})
            segments.append({"id": f"{region.upper()}{i}", "from": frm, "to": to,
                             "region": f"{region}{i}", "energy_wh": energy})
        segments.append({"id": f"C{i}", "from": frm, "to": to, "terrain": "easy",
                         "energy_wh": {"easy": 420}})
    return {
        "name": "ladder-781",
        "kind": "rover",
        "waypoints": [{"id": f"w{i}"} for i in range(len(STAGES) + 1)],
        "regions": regions,
        "segments": segments,
        "battery": {"capacity_wh": 2800, "initial_wh": 2800},
        "mission": {"start": "w0", "goal": f"w{len(STAGES)}"},
        "reward": {"step_energy": True},
        "nominal_plan": [f"drive:A{i}" for i in range(1, len(STAGES) + 1)],
    }


# (case id, argv after --scenario FILE, artifact files the command writes)
CASES = [
    ("solve", ["solve", "--value-out", "{value.csv}", "--policy-out", "{policy.csv}"],
     ("value.csv", "policy.csv")),
    *(
        (f"run-{strategy}",
         ["run", "--strategy", strategy, "--seed", "3", "--format", "jsonl",
          "--out", "{trace.jsonl}"],
         ("trace.jsonl",))
        for strategy in ("hadm", "fixed-plan")
    ),
]

# case id -> {"stdout" or artifact file: SHA-256 hex digest}
GOLDEN = {
    "solve": {
        "stdout": "48a15d911f40149107108027a958d6b0f056aaea02abf5dde8d4d316ca86db6f",
        "value.csv": "eb7cebcbc4329b93f8231741bf7dce82cd14b26db6e9651c5423f0bbc3e62506",
        "policy.csv": "5444c325a677f715583290e12169be74b3ccb335765388e98dba0470bdfac719",
    },
    "run-hadm": {
        "stdout": "6ce087c299cb5345279ffc0e07bcc0fffb045b496c4569b8b0f688a33d6d57c1",
        "trace.jsonl": "97e5e47b46de8dd29f245170530f8a56cd0d561bb1274dba3b15c4ba54bdc644",
    },
    "run-fixed-plan": {
        "stdout": "4be7e40f855990db11b95cbbde0e74dd460ba4c05169e18994155a4a69f1332c",
        "trace.jsonl": "074c21dc111b17ca4dc7507c079cf1a26c6f1ce8e22bdb27aa80fbd97c8d2cba",
    },
}


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ladder") / "ladder-781.json"
    path.write_text(json.dumps(ladder_document()))
    return path


@pytest.mark.parametrize("case_id, argv, files", CASES, ids=[c[0] for c in CASES])
def test_artifacts_are_byte_identical(case_id, argv, files, scenario_file,
                                      tmp_path, capsys):
    paths = {name: tmp_path / name for name in files}
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
    assert main(argv[:1] + ["--scenario", str(scenario_file)] + argv[1:]) == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for name, path in paths.items():
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN[case_id]


def test_absorbing_states_stay_in_place():
    """781 states; every non-``ok`` state is terminal with the one admissible
    action ``stay`` and the row ``((s, 1.0, 0.0),)``, and no other state is."""
    compiled = compile_scenario(load_scenario(ladder_document()))
    p = compiled.problem
    assert p.n_states == 781
    stay = compiled.action("stay")
    absorbing = {s for s, st in enumerate(compiled.states) if st.status != "ok"}
    assert len(absorbing) == 625
    assert p.terminal == absorbing
    for s in absorbing:
        assert p.admissible[s] == (stay,)
        assert p.transitions[(s, stay)] == ((s, 1.0, 0.0),)
    assert all(stay not in p.admissible[s] for s in range(p.n_states)
               if s not in absorbing)


def exact_values() -> dict:
    """Each strategy's expected reward as a ``Fraction``.  Every drive
    costs its energy, the battery never runs out, and each region is
    revealed only by its own stage's drive, so the optimum takes each
    stage's cheapest expected drive, and the nominal plan, with no
    mitigation rules, each stage's ``A``."""
    best = plan = Fraction(0)
    for pa, pb in STAGES:
        a = Fraction(pa) * 600 + (1 - Fraction(pa)) * 300
        b = Fraction(pb) * 700 + (1 - Fraction(pb)) * 200
        best -= min(a, b, Fraction(420))
        plan -= a
    return {"hadm": best, "fixed-plan": plan, "shm-baseline": plan}


def test_analytic_values_are_exact():
    compiled = compile_scenario(load_scenario(ladder_document()))
    exact = exact_values()
    assert exact == {"hadm": -1480, "fixed-plan": -1740, "shm-baseline": -1740}
    for strategy, value in exact.items():
        assert analytic_expectation(compiled, strategy) == value
