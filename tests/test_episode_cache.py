"""The episode cache: cached totals against fresh episodes, and how many
episodes ``compare`` runs.

``episode_total`` runs an episode only for a realized path its trie has
not met yet.  Over generated documents (``mission_documents``: routes
with "uniform" moves among them), every applicable strategy's cached
total must equal the total of a fresh episode on a separately compiled
scenario, or fail with the same typed error.
"""
import json

import pytest
from hypothesis import example, given, settings
from test_strategies_oracle import MAX_STATES, _typed, mission_documents

import hadm.cli
import hadm.strategies
from hadm.cli import main
from hadm.loop import run_loop
from hadm.rover import (
    Plant,
    builtin_scenario_dict,
    compile_scenario,
    load_scenario,
    resolve_overrides,
)
from hadm.rover.plant import sample_assignments
from hadm.strategies import (
    PhmCommitProvider,
    applicable_strategies,
    episode_total,
    make_provider,
)


def right_only():
    """Built-in 2 with only its ``right`` route, which leaves the move at
    wp2 "uniform", so ``phm-commit`` commits to a route that draws from
    its seed."""
    doc = builtin_scenario_dict(2)
    doc["routes"] = [r for r in doc["routes"] if r["id"] == "right"]
    return doc


def _cached(compiled, strategy, seed, overrides):
    pinned = resolve_overrides(compiled, overrides)
    truth = sample_assignments(compiled, seed, pinned)
    return episode_total(compiled, strategy, seed, truth)


def _fresh(compiled, strategy, seed, overrides):
    plant = Plant(compiled, seed=seed, overrides=overrides)
    provider = make_provider(strategy, compiled, seed=seed)
    return run_loop(plant, compiled.problem, provider).total


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mission_documents())
@example({**right_only(), "seeds": [1, 2, 3]})
def test_cached_totals_match_fresh_episodes(doc):
    seeds = (0, *doc.pop("seeds"))
    spec = load_scenario(doc)
    warm = _typed(compile_scenario, spec, max_states=MAX_STATES)
    if isinstance(warm, str):
        return
    fresh = compile_scenario(spec, max_states=MAX_STATES)
    pins = [
        None,
        {rv: min(values) for rv, values in sorted(warm.rv_defs.items())},
        {rv: max(values) for rv, values in sorted(warm.rv_defs.items())},
    ]
    for strategy in applicable_strategies(spec):
        for overrides in pins:
            for seed in seeds:
                assert (_typed(_cached, warm, strategy, seed, overrides)
                        == _typed(_fresh, fresh, strategy, seed, overrides))


def test_right_only_commits_to_a_seeded_route():
    compiled = compile_scenario(load_scenario(right_only()))
    _cached(compiled, "phm-commit", 0, None)
    assert compiled.route_choice[0] == "right"
    assert "uniform" in compiled.route_policies["right"].values()
    assert set(compiled.episode_tries) == {("phm-commit", 0)}


def _uncached(compiled, strategy, seed, assignments):
    """``episode_total`` without the cache: always a fresh episode."""
    plant = Plant(compiled, assignments=assignments)
    provider = make_provider(strategy, compiled, seed=seed)
    return run_loop(plant, compiled.problem, provider).total


def count_episodes(monkeypatch) -> list:
    """Log each episode ``hadm.strategies`` runs as (provider class,
    provider seed or None, visited states).  The seed is kept only for a
    ``phm-commit`` provider whose route has "uniform" moves, the one
    case where the provider draws from it."""
    episodes, seeds = [], {}
    make, run = hadm.strategies.make_provider, hadm.strategies.run_loop

    def making(name, compiled, seed=0):
        provider = make(name, compiled, seed=seed)
        seeds[id(provider)] = seed
        return provider

    def running(plant, problem, provider, **kwargs):
        trace = run(plant, problem, provider, **kwargs)
        choice = plant.compiled.route_choice
        policies = plant.compiled.route_policies
        seeded = (isinstance(provider, PhmCommitProvider) and choice is not None
                  and "uniform" in policies[choice[0]].values())
        path = tuple(r.observation["state_index"] for r in trace.records)
        episodes.append((type(provider).__name__,
                         seeds[id(provider)] if seeded else None, path))
        return trace

    monkeypatch.setattr(hadm.strategies, "make_provider", making)
    monkeypatch.setattr(hadm.strategies, "run_loop", running)
    return episodes


@pytest.mark.parametrize("scenario", ["builtin:2", "builtin:3", "builtin:4",
                                      "right_only"])
def test_compare_runs_one_episode_per_realized_path(
    monkeypatch, capsys, tmp_path, scenario
):
    if scenario == "right_only":
        path = tmp_path / "right_only.json"
        path.write_text(json.dumps(right_only()), encoding="utf-8")
        scenario = str(path)
    argv = ["compare", "--scenario", scenario, "--rollouts", "1000",
            "--seed", "1", "--format", "csv"]
    episodes = count_episodes(monkeypatch)
    assert main(argv) == 0
    cached = capsys.readouterr().out
    assert episodes
    assert len(episodes) == len(set(episodes))

    monkeypatch.setattr(hadm.strategies, "episode_total", _uncached)
    monkeypatch.setattr(hadm.cli, "episode_total", _uncached)
    assert main(argv) == 0
    assert capsys.readouterr().out == cached
