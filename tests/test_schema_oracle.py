"""The in-tree scenario schema check against jsonschema.

``validate_scenario_dict`` and ``load_scenario`` check a document
against ``SCENARIO_SCHEMA`` in-tree, in the walk that builds the
records.  Over seeded mutations of builtin:1-4, a ladder-shaped document
and documents sampled from the schema itself (dropped and added keys,
retyped values, bools in number fields, integral floats in ``horizon``
and ``priority``, unknown enum values, empty ``classes``), its error
lines must equal those of jsonschema's Draft 2020-12 validator, in
order.
"""
import copy
import os
import random
import subprocess
import sys

import pytest

import hadm
from hadm.errors import InvalidConfigError
from hadm.rover import (
    ScenarioSpec,
    builtin_scenario_dict,
    load_scenario,
    validate_scenario_dict,
)
from hadm.rover.spec import SCENARIO_SCHEMA

jsonschema = pytest.importorskip("jsonschema")

DOCUMENTS = 3000

PALETTE = [None, True, False, 0, 1, -3, 20.0, 2.5, 1e3, float("inf"), float("nan"),
           "", "x", "rover", "uphill", ">", [], [1, "a"], {}, {"a": 1}, {"id": "w0"}]
# Replacement values for a key, by name; numbers get bools, strings and
# integral floats as well.
BY_KEY = {
    "horizon": [20.0, 1e3, 20.5, True, "20", 7, -1.0],
    "priority": [5.0, 5.5, False, "5", 0, 1e3],
    "kind": ["robot", "Rover", 1, None, True],
    "grade": ["steep", "", 0, None],
    "op": ["=>", "=", 1, None],
    "classes": [{}, {"hard": True}, {"hard": "1"}, [], {"hard": 1}],
}
NUMBER = [True, False, "1", None, 2.0, 3]
EXTRA_KEYS = ["extra", "mark_faulty", "zz", "id", "Name", "a"]


def reference_lines(doc):
    """The error lines the jsonschema-based check reported."""
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    lines = []
    for err in errors:
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        lines.append(f"{path}: {err.message}")
    return lines


def checker_lines(doc):
    try:
        validate_scenario_dict(doc)
    except InvalidConfigError as exc:
        head, *lines = str(exc).split("\n")
        assert head == "invalid scenario file:"
        return lines
    return []


def ladder_document(k=3):
    waypoints = [{"id": f"w{i}"} for i in range(k + 1)]
    regions, segments = [], []
    for i in range(1, k + 1):
        for region in (f"a{i}", f"b{i}"):
            regions.append({"id": region, "classes": {"difficult": 0.3, "moderate": 0.7}})
        frm, to = f"w{i - 1}", f"w{i}"
        segments += [
            {"id": f"A{i}", "from": frm, "to": to, "region": f"a{i}",
             "energy_wh": {"difficult": 600, "moderate": 300}},
            {"id": f"B{i}", "from": frm, "to": to, "region": f"b{i}",
             "energy_wh": {"difficult": 700, "moderate": 200}},
            {"id": f"C{i}", "from": frm, "to": to, "terrain": "easy",
             "energy_wh": {"easy": 420}},
        ]
    return {
        "name": f"ladder-k{k}",
        "kind": "rover",
        "waypoints": waypoints,
        "regions": regions,
        "segments": segments,
        "battery": {"capacity_wh": 700 * k, "initial_wh": 700 * k},
        "mission": {"start": "w0", "goal": f"w{k}"},
        "reward": {"step_energy": True},
        "routes": [
            {"id": route, "moves": {f"w{i - 1}": f"drive:{route}{i}"
                                    for i in range(1, k + 1)}}
            for route in "ABC"
        ],
        "nominal_plan": [f"drive:A{i}" for i in range(1, k + 1)],
    }


def sample(rng, schema):
    """A value that mostly fits ``schema``."""
    if "enum" in schema:
        return rng.choice(schema["enum"])
    kind = schema.get("type")
    if isinstance(kind, list):
        kind = rng.choice(kind)
    if kind == "object":
        props = schema.get("properties", {})
        out = {name: sample(rng, props.get(name, {})) for name in schema.get("required", ())}
        out.update((name, sample(rng, sub)) for name, sub in props.items()
                   if rng.random() < 0.4)
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for i in range(rng.randint(schema.get("minProperties", 0), 2)):
                out[f"k{i}"] = sample(rng, extra)
        return out
    if kind == "array":
        return [sample(rng, schema.get("items", {})) for _ in range(rng.randint(0, 2))]
    return {
        "string": lambda: rng.choice(["wp0", "a", ""]),
        "number": lambda: rng.choice([0, 1.5, 300, -2]),
        "integer": lambda: rng.choice([0, 5, 20]),
        "boolean": lambda: rng.choice([True, False]),
        "null": lambda: None,
    }.get(kind, lambda: copy.deepcopy(rng.choice(PALETTE)))()


def sites(value):
    """Every (container, key) in ``value``, depth first."""
    out = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            out += sites(child)
    return out


def mutate(rng, doc):
    spots = sites(doc)
    if not spots:
        doc["extra"] = 1
        return
    named = [(parent, key) for parent, key in spots if key in BY_KEY]
    op = rng.choice(["drop", "retype", "retype", "named", "add", "section"])
    parent, key = rng.choice(named if op == "named" and named else spots)
    if op == "drop":
        del parent[key]
    elif op in ("retype", "named"):
        value = parent[key]
        if key in BY_KEY and rng.random() < 0.8:
            choices = BY_KEY[key]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            choices = NUMBER
        else:
            choices = PALETTE
        parent[key] = copy.deepcopy(rng.choice(choices))
    elif op == "add":
        target = parent if isinstance(parent, dict) else doc
        target[rng.choice(EXTRA_KEYS)] = copy.deepcopy(rng.choice(PALETTE))
    else:
        name = rng.choice(sorted(SCENARIO_SCHEMA["properties"]))
        doc[name] = sample(rng, SCENARIO_SCHEMA["properties"][name])


def documents(seed, count):
    rng = random.Random(seed)
    bases = [builtin_scenario_dict(n) for n in range(1, 5)] + [ladder_document()]
    for _ in range(count):
        if rng.random() < 0.2:
            doc = sample(rng, SCENARIO_SCHEMA)
        else:
            doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            mutate(rng, doc)
        yield doc


def test_checker_matches_jsonschema_on_mutated_documents():
    failing = 0
    for doc in documents(14, DOCUMENTS):
        expected = reference_lines(doc)
        assert checker_lines(doc) == expected, doc
        failing += bool(expected)
    # Both outcomes are well represented.
    assert DOCUMENTS // 3 < failing < DOCUMENTS * 9 // 10


def test_load_scenario_on_mutated_documents():
    """``load_scenario`` checks and builds in one walk: every document
    ends in records or ``InvalidConfigError``, never another exception,
    and one that jsonschema rejects fails with exactly its lines."""
    loaded = 0
    for doc in documents(14, DOCUMENTS):
        expected = reference_lines(doc)
        try:
            spec = load_scenario(doc)
        except InvalidConfigError as exc:
            if expected:
                assert str(exc).split("\n") == ["invalid scenario file:", *expected], doc
            continue
        assert not expected, doc
        assert isinstance(spec, ScenarioSpec)
        loaded += 1
    # Many documents get as far as records.
    assert loaded > DOCUMENTS // 5


def test_unmutated_documents_pass():
    for n in range(1, 5):
        assert checker_lines(builtin_scenario_dict(n)) == []
    assert checker_lines(ladder_document()) == []


def test_messages_for_each_keyword():
    doc = ladder_document()
    doc["kind"] = "robot"
    doc["battery"] = []
    doc["regions"][0]["classes"] = {}
    doc["segments"][0]["energy_wh"]["difficult"] = True
    doc["segments"][1].update(grade="steep", extra=1, zz=2)
    doc["shm_rules"] = {"mitigations": [{"fault_mode": "f", "priority": 5.0},
                                        {"fault_mode": "f", "action": "a", "priority": 5.5}]}
    doc["degradation"] = {"horizon": 20.0}
    assert checker_lines(doc) == [
        "$.battery: [] is not of type 'object', 'null'",
        "$.kind: 'robot' is not one of ['rover', 'prognostics']",
        "$.regions[0].classes: {} should be non-empty",
        "$.segments[0].energy_wh.difficult: True is not of type 'number'",
        "$.segments[1]: Additional properties are not allowed ('extra', 'zz' were unexpected)",
        "$.segments[1].grade: 'steep' is not one of ['flat', 'uphill', 'downhill']",
        "$.shm_rules.mitigations[0]: 'action' is a required property",
        "$.shm_rules.mitigations[1].priority: 5.5 is not of type 'integer'",
    ]
    assert checker_lines(doc) == reference_lines(doc)


def test_every_schema_keyword_is_implemented():
    """The reader checks the keywords its dispatch emits, and only those;
    this walk reaches every subschema, so a field metadata keyword that
    the reader does not check fails here."""
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
    stack = [SCENARIO_SCHEMA]
    seen = set()
    while stack:
        schema = stack.pop()
        seen |= set(schema)
        # The reader compares enum members with ``in``, exact for strings.
        assert all(isinstance(v, str) for v in schema.get("enum", ()))
        stack += schema.get("properties", {}).values()
        extra = schema.get("additionalProperties")
        assert extra is False or isinstance(extra, dict) or "additionalProperties" not in schema
        if isinstance(extra, dict):
            stack.append(extra)
        if "items" in schema:
            stack.append(schema["items"])
    assert seen == {"$schema", "type", "enum", "required", "properties",
                    "additionalProperties", "items", "minProperties"}


def test_command_line_import_leaves_jsonschema_unloaded():
    src = os.path.dirname(os.path.dirname(hadm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    code = "import sys\nimport hadm.cli\nprint('jsonschema' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
