"""The scenario schema and loader against a frozen reference copy.

``SCENARIO_SCHEMA`` must serialise byte for byte like the literal in
``spec_reference.py``, key order included.  ``load_scenario`` must
build the same records as the reference loader, or fail with the same
message, on builtin:1-4 and on every document from
``test_schema_oracle.py``'s generator that passes the schema check:
mutated built-ins, ladder documents and documents sampled from the
schema, with empty and null sections and integral floats in
``horizon`` and ``priority``.  Records are compared by ``repr``, which
also tells ``20`` from ``20.0`` and a list from a tuple.
"""
import copy
import json

from spec_reference import FROZEN_SCHEMA, reference_load
from test_schema_oracle import documents

from hadm.errors import InvalidConfigError
from hadm.rover import builtin_scenario_dict, load_scenario, validate_scenario_dict
from hadm.rover.spec import SCENARIO_SCHEMA


def outcome(load, doc):
    try:
        return repr(load(copy.deepcopy(doc)))
    except InvalidConfigError as exc:
        return f"InvalidConfigError: {exc}"


def test_schema_equals_the_frozen_literal():
    assert json.dumps(SCENARIO_SCHEMA) == json.dumps(FROZEN_SCHEMA)


def test_builtins_load_like_the_reference():
    for n in range(1, 5):
        doc = builtin_scenario_dict(n)
        assert outcome(load_scenario, doc) == outcome(reference_load, doc)
        assert not outcome(load_scenario, doc).startswith("InvalidConfigError")


EDITS = [
    (1, ("degradation", "horizon"), 20.0),
    (1, ("degradation",), {}),
    (1, ("degradation",), None),
    (3, ("power",), {}),
    (3, ("power",), None),
    (3, ("shm_rules",), {}),
    (3, ("shm_rules", "mitigations", 0, "priority"), 5.0),
    (4, ("thermal",), {}),
    (4, ("reward",), {}),
    (4, ("actions", "cool_grid_h"), None),
    (4, ("shm_rules", "mitigations", 0, "priority"), 1e3),
    (4, ("shm_rules", "detectors", 0, "when"), {}),
]


def test_edited_builtins_load_like_the_reference():
    for n, (*parents, leaf), value in EDITS:
        doc = builtin_scenario_dict(n)
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
        validate_scenario_dict(doc)
        assert outcome(load_scenario, doc) == outcome(reference_load, doc), doc


def test_generated_documents_load_like_the_reference():
    loaded = 0
    for doc in documents(15, 3000):
        try:
            validate_scenario_dict(doc)
        except InvalidConfigError:
            continue
        expected = outcome(reference_load, doc)
        assert outcome(load_scenario, doc) == expected, doc
        loaded += not expected.startswith("InvalidConfigError")
    # Many documents get as far as records.
    assert loaded > 300
