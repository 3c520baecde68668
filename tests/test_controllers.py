"""The strategies as pure controllers.

Every strategy has ``choose(s, observation, memory, step)``, which
returns ``(entry, memory', events)`` and keeps nothing between calls;
``fixed-plan``, ``phm-commit`` and ``shm-baseline`` also decide through
it.  Over generated documents (``mission_documents``), every call that a
pinned episode makes (for ``hadm``, whose episodes decide without
``choose``, every call of the pinned analytic walk) must take and return
a hashable memory and return at most one pipeline event, each call must
get the memory the one before it returned, and a provider built afresh
on a separately compiled scenario must return an equal result for the
same arguments, replayed last call first.
"""
from unittest import mock

from hypothesis import given, settings
from test_strategies_oracle import MAX_STATES, mission_documents

from hadm import strategies
from hadm.errors import HadmError
from hadm.loop import run_loop
from hadm.rover import Plant, compile_scenario, load_scenario
from hadm.strategies import (
    STRATEGIES,
    analytic_expectation,
    applicable_strategies,
    make_provider,
)

CONTROLLERS = ("hadm", "fixed-plan", "phm-commit", "shm-baseline")


def recorded_calls(compiled, strategy, seed, overrides) -> list:
    """Each ``choose`` call of one pinned episode as (arguments, result);
    for ``hadm``, each call of the analytic walk, its one caller."""
    calls = []

    def recording_provider(name, compiled, seed=0):
        provider = make_provider(name, compiled, seed=seed)
        choose = provider.choose

        def recording(s, observation, memory, step):
            result = choose(s, observation, memory, step)
            calls.append(((s, dict(observation), memory, step), result))
            return result

        provider.choose = recording
        return provider

    try:
        if strategy == "hadm":
            with mock.patch.object(strategies, "make_provider", recording_provider):
                analytic_expectation(compiled, strategy, overrides=overrides)
        else:
            plant = Plant(compiled, seed=seed, overrides=overrides)
            run_loop(plant, compiled.problem,
                     recording_provider(strategy, compiled, seed=seed))
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
    starts_terminal = compiled.initial_state in compiled.problem.terminal
    for strategy in [n for n in applicable_strategies(spec) if n in CONTROLLERS]:
        for overrides in pins:
            for seed in seeds:
                calls = recorded_calls(compiled, strategy, seed, overrides)
                assert bool(calls) != starts_terminal, strategy
                memories = [args[2] for args, _ in calls]
                returned = [result[1] for _, result in calls]
                assert all(type(hash(m)) is int for m in memories + returned)
                assert all(len(result[2]) <= 1 for _, result in calls)
                assert memories[:1] in ([], [STRATEGIES[strategy].memory])
                assert memories[1:] == returned[:-1]
                for args, result in reversed(calls):
                    provider = make_provider(strategy, fresh, seed=seed)
                    assert provider.choose(*args) == result
