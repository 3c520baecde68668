"""The benchmark's workloads: their inputs, commands and output checks.

Every workload runs the whole ``hadm`` surface (``compare``, ``solve``,
``run``, ``predict``) plus the Monte Carlo end-of-life cross-check, at
the sizes of the layer it is meant to stress; see README.md for why each
exists.  A workload is built from its seed alone: the seed varies
rollout seeds and probabilities, never sizes.

Each check compares an output with an oracle that does not run the code
under test: values pinned by the repository's tests or derived by hand
for the built-ins, and closed forms for the generated scenarios
(``ladder.py``, ``degradation.py``).
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import degradation
import ladder

# A Monte Carlo mean may sit this many standard errors from its analytic
# value; a correct sampler fails one such check with probability ~6e-7.
MC_SIGMAS = 5.0
REL_TOL = 1e-9

# Analytic strategy values of the built-in scenarios.  Those marked
# "pinned" are asserted by tests/test_strategies.py; the others follow
# by hand from the scenario documents.
BUILTIN_ANALYTIC = {
    "builtin:2": {  # all pinned
        "hadm": -800.0, "shm-baseline": -840.0,
        "phm-commit": -840.0, "fixed-plan": -840.0,
    },
    "builtin:3": {
        "hadm": 250.0,  # pinned
        "shm-baseline": 50.0,  # pinned
        # Nominal plan without charging: 500 - 4 h * 50 W + 2 h * 50 W
        # - 4 h * 50 W = 200 Wh at the goal when the science succeeds
        # (p = 0.5); after a redo the plan ends short of completion with
        # nothing collected.
        "fixed-plan": 100.0,
    },
    "builtin:4": {
        "hadm": 1.0,  # pinned
        "shm-baseline": 0.0,  # pinned
        # Climbing without cooling reaches 20 + 3 h * 20 C/h = 80 C, the
        # motor limit, on the third segment.
        "fixed-plan": -1e6,
    },
}
# Compiled state counts of the built-ins and their optimal root values
# (the hadm strategy is optimal on these fully observable problems).
BUILTIN_STATES = {"builtin:2": 13, "builtin:3": 18, "builtin:4": 172}
BUILTIN_ROOT_VALUE = {"builtin:4": 1.0}
# builtin:1, the two-rate degradation model (tests/test_cli.py pins its
# sweep and distribution).
BUILTIN_1_DEGRADATION = {
    "s0": 1.0, "rate_nominal": 0.05, "p_high": 0.2, "epsilon": 0.05,
    "horizon": 20, "sigma_max": 1.0, "h_min": 0.0,
}


@dataclass
class Command:
    """One process of a workload and the checks on its outputs."""

    name: str
    kind: str  # compare | solve | run | predict | mc
    argv: Callable  # output directory -> program arguments
    artifacts: tuple  # file names the command writes in its output directory
    check: Callable  # (stdout, {artifact name: bytes}) -> [(check, ok, detail)]
    rollouts: int = 0  # per strategy, for compare


@dataclass
class Workload:
    setup_refs: list  # scenarios that set-up loads (and compiles, if rover)
    expected_sizes: dict  # scenario ref -> {size name: value}
    commands: list = field(default_factory=list)


def _close(a, b, rel=REL_TOL, abs_tol=1e-9) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def _csv_rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


# --- checks ------------------------------------------------------------


def check_compare(expected: dict, rollouts: int, energy: bool):
    header = ["strategy", "analytic", "mean", "se", "rollouts"]
    if energy:
        header.append("analytic_energy_wh")

    def check(stdout, files):
        rows = _csv_rows(files["compare.csv"])
        out = [("header", rows[:1] == [header], rows[:1]),
               ("strategies", [r[0] for r in rows[1:]] == list(expected),
                [r[0] for r in rows[1:]])]
        for row in rows[1:]:
            name = row[0]
            if name not in expected or len(row) != len(header):
                continue
            analytic, mean, se = float(row[1]), float(row[2]), float(row[3])
            want = expected[name]
            out.append((f"{name} analytic", _close(analytic, want),
                        f"{analytic!r} vs {float(want)!r}"))
            slack = max(MC_SIGMAS * se, REL_TOL * max(1.0, abs(analytic)))
            out.append((f"{name} mean within {MC_SIGMAS:g} se",
                        abs(mean - analytic) <= slack, f"{mean!r} +- {se!r}"))
            out.append((f"{name} rollouts", row[4] == str(rollouts), row[4]))
            if energy:
                out.append((f"{name} energy", float(row[5]) == -analytic, row[5]))
        return out

    return check


def check_solve(states: int, root_value, root_actions=None):
    def check(stdout, files):
        lines = dict(
            line.split(": ", 1) for line in stdout.splitlines() if ": " in line
        )
        values = _csv_rows(files["value.csv"])
        policy = _csv_rows(files["policy.csv"])
        out = [
            ("states", lines.get("states") == str(states), lines.get("states")),
            # The summary prints with %g: six significant digits.
            ("root value", _close(lines.get("root value", "nan"), root_value,
                                  rel=1e-5), lines.get("root value")),
            ("value rows", values[:1] == [["state", "value"]]
             and len(values) == states + 1, len(values)),
            ("policy rows", policy[:1] == [["state", "action"]]
             and len(policy) == states + 1, len(policy)),
        ]
        if len(values) > 1 and len(policy) > 1:
            out.append(("root value csv", _close(values[1][1], root_value),
                        values[1][1]))
            out.append(("root action csv",
                        policy[1][1] == lines.get("root action"), policy[1][1]))
        if root_actions is not None:
            out.append(("root action optimal",
                        lines.get("root action") in root_actions,
                        lines.get("root action")))
        return out

    return check


def _episode_checks(stdout, files):
    lines = files["run.jsonl"].decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    summary, steps = records[-1], records[:-1]
    total = summary.get("total")
    out = [
        ("summary keys", sorted(summary) == [
            "aborted", "terminal", "terminal_label", "total", "truncated"],
         sorted(summary)),
        ("terminal", summary.get("terminal") is True
         and str(summary.get("terminal_label")).endswith("|complete"),
         summary.get("terminal_label")),
        ("reward sum", _close(math.fsum(r["reward"] for r in steps), total),
         total),
        ("cumulative", bool(steps) and _close(steps[-1]["cumulative"], total),
         total),
        ("stdout total", f"total reward: {total:g}" in stdout, total),
    ]
    return out, steps, total


def check_run(exact_total=None):
    def check(stdout, files):
        out, _, total = _episode_checks(stdout, files)
        if exact_total is not None:
            out.append(("total", total == exact_total, total))
        return out

    return check


def check_ladder_run(k: int, seed: int):
    """The optimal policy's segments, paid at the revealed terrain."""
    optimal = ladder.optimal_segments(k, seed)

    def check(stdout, files):
        out, steps, _ = _episode_checks(stdout, files)
        out.append(("steps", len(steps) == k, len(steps)))
        for i, (rec, best) in enumerate(zip(steps, optimal), start=1):
            seg = rec["action"].split(":", 1)[-1]
            out.append((f"stage {i} action", seg in best, rec["action"]))
            if seg.startswith("C"):
                cost = ladder.ENERGY_C
            else:
                table = ladder.ENERGY_A if seg.startswith("A") else ladder.ENERGY_B
                region = ("a" if seg.startswith("A") else "b") + str(i)
                cost = table.get(rec["observation"].get(f"terrain:{region}"))
            out.append((f"stage {i} reward", cost is not None
                        and rec["reward"] == -cost, rec["reward"]))
        return out

    return check


def check_predict(deg: dict, rhos, oracle):
    header = ["rho_p", "t_p", "eol_det", "eol_stoch", "sigma", "rul"]

    def check(stdout, files):
        rows = _csv_rows(files["predict.csv"])
        out = [("header", rows[:1] == [header], rows[:1]),
               ("rows", len(rows) == len(rhos) + 2, len(rows))]
        for rho, row in zip(rhos, rows[1:]):
            want = degradation.closed_forms(deg, rho)
            out.append((f"rho {rho}", float(row[0]) == float(rho), row[0]))
            for col, got in zip(header[1:], row[1:]):
                out.append((f"rho {rho} {col}", _close(got, want[col]), got))
        last = rows[-1] if rows else []
        out.append(("rho_star", len(last) == 6 and last[0] == "rho_star"
                    and _close(last[4], degradation.rho_star(deg)), last))
        dist_rows = _csv_rows(files["dist.csv"])
        dist, residual = oracle
        got = {int(r[0]): float(r[2]) for r in dist_rows[1:-1]}
        got_residual = float(dist_rows[-1][2])
        out += [
            ("dist header", dist_rows[0] == ["step", "time", "probability"],
             dist_rows[0]),
            ("dist times", all(float(r[1]) == float(r[0]) for r in dist_rows[1:-1]),
             None),
            ("dist mass + residual", _close(math.fsum(got.values()) + got_residual,
                                            1.0), got_residual),
            ("dist vs binomial oracle", max(
                abs(got.get(s, 0.0) - dist.get(s, 0.0)) for s in set(got) | set(dist)
            ) <= 1e-9, None),
            ("dist residual", abs(got_residual - residual) <= 1e-9, got_residual),
        ]
        return out

    return check


def check_mc(oracle):
    dist, residual = oracle
    bound = degradation.tv_bound(dist, residual, degradation.SAMPLES)

    def check(stdout, files):
        rows = _csv_rows(files["mc.csv"])
        got = {int(r[0]): float(r[1]) for r in rows[1:-1]}
        got_residual = float(rows[-1][1])
        tv = degradation.tv_distance(got, got_residual, dist, residual)
        return [
            ("mc mass", _close(math.fsum(got.values()) + got_residual, 1.0), None),
            (f"mc total variation <= {bound:.4f}", tv <= bound, tv),
        ]

    return check


# --- commands ----------------------------------------------------------


def compare(ref, label, expected, rollouts, energy, seed):
    return Command(
        f"compare:{label}", "compare",
        lambda d: ["compare", "--scenario", ref, "--format", "csv",
                   "--rollouts", str(rollouts), "--seed", str(seed),
                   "--out", str(d / "compare.csv")],
        ("compare.csv",), check_compare(expected, rollouts, energy), rollouts,
    )


def solve(ref, label, states, root_value, root_actions=None):
    return Command(
        f"solve:{label}", "solve",
        lambda d: ["solve", "--scenario", ref, "--value-out", str(d / "value.csv"),
                   "--policy-out", str(d / "policy.csv")],
        ("value.csv", "policy.csv"), check_solve(states, root_value, root_actions),
    )


def run(ref, label, seed, check):
    return Command(
        f"run:{label}", "run",
        lambda d: ["run", "--scenario", ref, "--strategy", "hadm",
                   "--format", "jsonl", "--seed", str(seed),
                   "--out", str(d / "run.jsonl")],
        ("run.jsonl",), check,
    )


def predict(ref, label, deg):
    rhos = degradation.SWEEP
    argv = ["predict", "--scenario", ref]
    for rho in rhos:
        argv += ["--rho", rho]
    return Command(
        f"predict:{label}", "predict",
        lambda d: argv + ["--out", str(d / "predict.csv"),
                          "--dist-out", str(d / "dist.csv")],
        ("predict.csv", "dist.csv"),
        check_predict(deg, rhos, degradation.first_crossing(deg, degradation.RHO)),
    )


def mc(ref, label, deg, seed):
    return Command(
        f"mc:{label}", "mc",
        lambda d: [ref, str(seed), str(d / "mc.csv")],
        ("mc.csv",), check_mc(degradation.first_crossing(deg, degradation.RHO)),
    )


def _ladder_doc(k, seed):
    doc = ladder.scenario(k, seed)
    doc["degradation"] = degradation.section(seed)
    return doc


def _ladder_commands(ref, label, k, seed, parts, rollouts=None):
    """compare/solve/run commands on a generated ladder file."""
    want = ladder.oracle(k, seed)
    out = []
    if "compare" in parts:
        out.append(compare(ref, label, want["strategies"], rollouts, True, seed))
    if "solve" in parts:
        out.append(solve(ref, label, ladder.state_count(k), want["root_value"],
                         {f"drive:{s}" for s in ladder.optimal_segments(k, seed)[0]}))
    if "run" in parts:
        out.append(run(ref, label, seed, check_ladder_run(k, seed)))
    return out


def _ladder_sizes(k):
    return {"states": ladder.state_count(k), "random_variables": 2 * k,
            "ground_truths": 4 ** k}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload ``name`` for ``seed``; writes its input files to ``workdir``."""
    if name == "builtin-compare":
        wl = Workload(["builtin:1", "builtin:2", "builtin:3", "builtin:4"],
                      {ref: {"states": n} for ref, n in BUILTIN_STATES.items()})
        for ref, expected in BUILTIN_ANALYTIC.items():
            wl.commands.append(compare(ref, ref, expected, 1000, ref == "builtin:2", seed))
        wl.commands.append(solve("builtin:4", "builtin:4", BUILTIN_STATES["builtin:4"],
                                 BUILTIN_ROOT_VALUE["builtin:4"]))
        for ref in ("builtin:2", "builtin:3"):
            wl.commands.append(run(ref, ref, seed, check_run()))
        wl.commands.append(run("builtin:4", "builtin:4", seed,
                               check_run(BUILTIN_ROOT_VALUE["builtin:4"])))
        deg = BUILTIN_1_DEGRADATION
        wl.commands.append(predict("builtin:1", "builtin:1", deg))
        wl.commands.append(mc("builtin:1", "builtin:1", deg, seed))
        return wl

    if name == "ladder":
        refs = {}
        for k in (6, 4):
            doc = _ladder_doc(k, seed)
            path = workdir / f"ladder{k}.json"
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            refs[k] = str(path)
        wl = Workload([refs[6], refs[4]],
                      {refs[k]: _ladder_sizes(k) for k in (6, 4)})
        wl.commands += _ladder_commands(refs[6], "ladder-k6", 6, seed, ("solve", "run"))
        wl.commands += _ladder_commands(refs[4], "ladder-k4", 4, seed, ("compare",),
                                        rollouts=200)
        deg = degradation.section(seed)
        wl.commands.append(predict(refs[6], "ladder-k6", deg))
        wl.commands.append(mc(refs[6], "ladder-k6", deg, seed))
        return wl

    raise ValueError(f"unknown workload {name!r}")


NAMES = ("builtin-compare", "ladder")
