"""The strategies as pure controllers.

Every strategy has ``choose(s, observation, memory, step)``, which
returns ``(entry, memory', events)`` and keeps nothing between calls;
``fixed-plan``, ``phm-commit`` and ``shm-baseline`` also decide through
it.  Over generated documents (``mission_documents``), every call that a
pinned episode makes must take and return a hashable memory and return
at most one pipeline event, each call must get the memory the one before
it returned, and a provider built afresh on a separately compiled
scenario must return an equal result for the same arguments, replayed
last call first.
"""
from hypothesis import given, settings
from test_strategies_oracle import MAX_STATES, mission_documents

from hadm.errors import HadmError
from hadm.loop import run_loop
from hadm.rover import Plant, compile_scenario, load_scenario
from hadm.strategies import STRATEGIES, applicable_strategies, make_provider

CONTROLLERS = ("hadm", "fixed-plan", "phm-commit", "shm-baseline")


def recorded_calls(compiled, strategy, seed, overrides) -> list:
    """Each ``choose`` call of one episode as (arguments, result)."""
    provider = make_provider(strategy, compiled, seed=seed)
    choose, calls = provider.choose, []

    def recording(s, observation, memory, step):
        result = choose(s, observation, memory, step)
        calls.append(((s, dict(observation), memory, step), result))
        return result

    provider.choose = recording
    plant = Plant(compiled, seed=seed, overrides=overrides)
    try:
        run_loop(plant, compiled.problem, provider)
    except HadmError:
        pass  # the calls made before a typed failure still count
    return calls


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mission_documents())
def test_choose_is_a_function_of_its_arguments(doc):
    seeds = doc.pop("seeds")
    spec = load_scenario(doc)
    try:
        compiled = compile_scenario(spec, max_states=MAX_STATES)
    except HadmError:
        return
    fresh = compile_scenario(spec, max_states=MAX_STATES)
    pins = [
        {rv: min(values) for rv, values in sorted(compiled.rv_defs.items())},
        {rv: max(values) for rv, values in sorted(compiled.rv_defs.items())},
    ]
    for strategy in [n for n in applicable_strategies(spec) if n in CONTROLLERS]:
        for overrides in pins:
            for seed in seeds:
                calls = recorded_calls(compiled, strategy, seed, overrides)
                memories = [args[2] for args, _ in calls]
                returned = [result[1] for _, result in calls]
                assert all(type(hash(m)) is int for m in memories + returned)
                assert all(len(result[2]) <= 1 for _, result in calls)
                assert memories[:1] in ([], [STRATEGIES[strategy].memory])
                assert memories[1:] == returned[:-1]
                for args, result in reversed(calls):
                    provider = make_provider(strategy, fresh, seed=seed)
                    assert provider.choose(*args) == result
