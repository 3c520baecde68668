"""Golden digests of CLI artifacts: every export and summary stays byte-identical.

Each case runs ``hadm.cli.main`` in process, writes its artifacts under
``tmp_path`` and compares the SHA-256 of stdout and of every file written
with the pinned value.  A refactor that changes any byte of an export, a
value table, a trace or a comparison fails here.
"""
import hashlib
import json

import pytest

from hadm.cli import main

# (case id, argv, artifact files the command writes)
CASES = [
    *(
        (f"solve-builtin{n}",
         ["solve", "--scenario", f"builtin:{n}",
          "--value-out", "{value.csv}", "--policy-out", "{policy.csv}"],
         ("value.csv", "policy.csv"))
        for n in (2, 3, 4)
    ),
    *(
        (f"run-builtin{n}-{strategy}",
         ["run", "--scenario", f"builtin:{n}", "--strategy", strategy,
          "--seed", "7", "--format", "jsonl", "--out", "{trace.jsonl}"],
         ("trace.jsonl",))
        for n, strategies in (
            (2, ("hadm", "shm-baseline", "phm-commit", "fixed-plan")),
            (3, ("hadm", "shm-baseline", "fixed-plan")),
            (4, ("hadm", "shm-baseline", "fixed-plan")),
        )
        for strategy in strategies
    ),
    *(
        (f"compare-builtin{n}",
         ["compare", "--scenario", f"builtin:{n}", "--rollouts", "50",
          "--format", "csv", "--out", "{compare.csv}"],
         ("compare.csv",))
        for n in (2, 3, 4)
    ),
    ("predict-builtin1",
     ["predict", "--scenario", "builtin:1", "--out", "{predict.csv}",
      "--dist-out", "{dist.csv}"],
     ("predict.csv", "dist.csv")),
    ("run-builtin3-redo-pinned",
     ["run", "--scenario", "builtin:3", "--strategy", "shm-baseline",
      "--set", "redo=true", "--format", "jsonl", "--out", "{trace.jsonl}"],
     ("trace.jsonl",)),
]

# case id -> {"stdout" or artifact file: SHA-256 hex digest}
GOLDEN = {
    "solve-builtin2": {
        "stdout": "3b62ac05f75c216a6ac9f801e0d9837c1da47c43dae4f2fa967dbbeae48d330d",
        "value.csv": "f9376e8e441828f56ecb07c781e279344c138491b25adc65271b0012390e619e",
        "policy.csv": "43c4fccb270129183259a6fb6cf11fbfe4e0f650596d25e1f3a6eeadedb6d348",
    },
    "solve-builtin3": {
        "stdout": "899c3e53f69528dd4a0cfd5f39b8cd28463e09d98310ce85226855e587266b18",
        "value.csv": "d063d9e31be9beb51de3012c6696aaf04adbe6d1636672fc9474ba323c17f4ce",
        "policy.csv": "eab7b82197174579edfbb7b99365c3761a5dbf2defb62db65ec375136542cc4e",
    },
    "solve-builtin4": {
        "stdout": "008250433ba4f57e7aa732eab0a6295c08a85956b2f532ab8e00e6e978cacd0d",
        "value.csv": "ad53260fd714ab02cf873392ae8744398187d91f8a0d092a1bcbc27f8946389b",
        "policy.csv": "53aeefe1c85ee2e643a570f2dbaf4259a6bce2e549ffca4425c4936aead6eccc",
    },
    "run-builtin2-hadm": {
        "stdout": "419c6181c5d582b6440d521d9bf2ce5462510bb02dd969e93b856596b2ef9d8b",
        "trace.jsonl": "abe72b6c20b4b8aa6f18b491ce32a8e50476f56a08bcab86acfd59f12e7708a8",
    },
    "run-builtin2-shm-baseline": {
        "stdout": "0ee5324ee78731625fb31bb853f859927cffdcd5b156a5f65812c7eddacbeaaa",
        "trace.jsonl": "e801308295c1930e582399ed379d3ed10a72652d34b6d084ebf683917b57c63b",
    },
    "run-builtin2-phm-commit": {
        "stdout": "1fae9d030a0be655dbf037e3b796f360492e33fe3ca6b5617a20b7b87c1b620d",
        "trace.jsonl": "e801308295c1930e582399ed379d3ed10a72652d34b6d084ebf683917b57c63b",
    },
    "run-builtin2-fixed-plan": {
        "stdout": "a3bad24a0dcd8e1546dd3ec75e0e4e9b823ca3a2e63d49fc7dbef64ff471217e",
        "trace.jsonl": "e801308295c1930e582399ed379d3ed10a72652d34b6d084ebf683917b57c63b",
    },
    "run-builtin3-hadm": {
        "stdout": "8a69b2302d18ad1d8e1fa169b0c0f56d05df0a69845fb17f0c84ba4ed6a759bd",
        "trace.jsonl": "80aa1bd856be15a2d51dff089a48a3039bc856b3147415afd785604e59734c4f",
    },
    "run-builtin3-shm-baseline": {
        "stdout": "5bf4fc51e66ce4a91f4db5a6de1c49284d08b08d17490e0b9095881e552d8449",
        "trace.jsonl": "0fe070c516ed2a99554ce311e245a61f9e250f7255c50ce88b8f76eeb13eb64f",
    },
    "run-builtin3-fixed-plan": {
        "stdout": "99386ba67300db46b7717f36a4c2cc9e58ce4bbf12a0d5db41b4e28923f7cde3",
        "trace.jsonl": "80aa1bd856be15a2d51dff089a48a3039bc856b3147415afd785604e59734c4f",
    },
    "run-builtin4-hadm": {
        "stdout": "a216e2424f70151c1c5ad0e5777f1e166508c304299b969dba414f1c8b86ea15",
        "trace.jsonl": "3ef24ab285c521152b3d672b3a53cf993df89ef7b08adbf8e2c240990f1a6d99",
    },
    "run-builtin4-shm-baseline": {
        "stdout": "d78491e2acc32f85e3d5be0a905800c751d3ea681f5b34175715b50f3a7da54c",
        "trace.jsonl": "2db48d6d08c0a14cca14214e391cb284a53f1980f5e9dba74b3cb7ea4e9455b2",
    },
    "run-builtin4-fixed-plan": {
        "stdout": "7e49094af46abac61852df23937e9935df3151252027ee67e10b721782ea6b22",
        "trace.jsonl": "447ce9406c7cd245c74ffdf26caf97ff9252636435b68b99dbf0d5da299aeea1",
    },
    "compare-builtin2": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "compare.csv": "31f42522a27734c2c9ba7780720dc3a63eba823f725d2779a640431540b2d227",
    },
    "compare-builtin3": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "compare.csv": "94084aaa8084dcc87e078a9900265b94294f9d46217e715b11aa19964100f024",
    },
    "compare-builtin4": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "compare.csv": "86912edca5e46191ee4a422da54d4a8f9eb686d150f71d895cfb7e9f0ac411eb",
    },
    "predict-builtin1": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "predict.csv": "f1432231b50ae1933f5a78c04e5ed702ec156eec4f77ef884803750ac5042db9",
        "dist.csv": "2efa408668f16b3fcc43228649c1d71dfb1b5d5e52c09da0dc7d6d498c786097",
    },
    "run-builtin3-redo-pinned": {
        "stdout": "80a49489f6dd309533bb54534e4d72f5d7b8490f53e3d2bfa25b487de4a634ac",
        "trace.jsonl": "d05f60f5c2b45b04ac1caf8b69aaf8e3070d6d317e895a70d73cbcab9ba80769",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, files, tmp_path, capsys):
    paths = {name: tmp_path / name for name in files}
    argv = [
        str(paths[arg[1:-1]]) if arg.startswith("{") else arg for arg in argv
    ]
    assert main(argv) == 0
    digests = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    for name, path in paths.items():
        digests[name] = _sha256(path.read_bytes())
    return digests


@pytest.mark.parametrize(
    "case_id, argv, files", CASES, ids=[case[0] for case in CASES]
)
def test_artifact_digests(case_id, argv, files, tmp_path, capsys):
    assert _run(argv, files, tmp_path, capsys) == GOLDEN[case_id]


# A degradation-only scenario with the numbers of the bench's ladder model:
# about 850-1250 steps to end of life, so the 1000-step DP spends most of
# its steps in the region where mass crosses.  builtin:1 crosses within
# 20 steps and never gets there.
LONG_DEGRADATION = {
    "name": "long-degradation",
    "kind": "prognostics",
    "degradation": {
        "s0": 1.0, "rate_nominal": 0.0008, "p_high": 0.27, "epsilon": 0.0012,
        "horizon": 1000, "sigma_max": 20.0, "h_min": 0.0,
    },
}


def test_long_prognosis_digests(tmp_path, capsys):
    scenario = tmp_path / "long-degradation.json"
    scenario.write_text(json.dumps(LONG_DEGRADATION), encoding="utf-8")
    argv = ["predict", "--scenario", str(scenario),
            "--rho", "1.0", "--rho", "0.75", "--rho", "0.5", "--rho", "0.25",
            "--out", "{predict.csv}", "--dist-out", "{dist.csv}"]
    assert _run(argv, ("predict.csv", "dist.csv"), tmp_path, capsys) == {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "predict.csv": "a09b27ef5627151b2afd101c73e3715950ca4de9bdc6d2dd86d05e8550f77d98",
        "dist.csv": "79a41a93b60f5513804a14eb5fa4a0b25f5e0efea5d4de098de3a81dd62f4e78",
    }
