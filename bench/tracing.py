"""Span recording at ``hadm``'s module boundaries, from outside ``src/``.

``install`` replaces the callables one ``hadm`` module calls in another
(looked up through the caller's namespace, so only calls across that
boundary are seen) with wrappers that record a span: name, start, end,
parent span and episode id.  Providers and plants are wrapped in proxies
so that ``decide`` and ``step`` are spans too.  Spans stay in memory;
``summary`` reduces them to per-name and per-layer totals, and the
caller writes both out when the process ends.

The spans named in ``MEMORY_SPANS`` also record the peak of the memory
that ``tracemalloc`` traced during the call; numpy reports its array
buffers to it.  Tracing memory costs time per allocation, so such a call
runs twice: once untimed under ``tracemalloc``, then timed as the span.
Only pure functions may be listed there.

A span's layer is the part of its name before the first dot.  Its self
time is its duration minus that of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

_now = time.perf_counter

# (module, attribute, span name, hook name).  The hook derives counts
# from the call's arguments and result once the span has closed.
BOUNDARIES = (
    ("hadm.cli", "builtin_scenario", "spec.load", None),
    ("hadm.cli", "load_scenario_file", "spec.load", None),
    ("hadm.cli", "compile_scenario", "compiler.compile", "compiled"),
    ("hadm.rover.compiler", "Problem", "model.problem_validate", None),
    ("hadm.cli", "value_iterate", "model.vi", "vi"),
    ("hadm.loop", "value_iterate", "model.vi", "vi"),
    ("hadm.cli", "extract_policy", "model.extract", None),
    ("hadm.loop", "belief_update", "model.belief_update", None),
    ("hadm.cli", "make_provider", "strategies.provider_init", "provider"),
    ("hadm.strategies", "make_provider", "strategies.provider_init", "provider"),
    ("hadm.cli", "analytic_expectation", "strategies.analytic", None),
    ("hadm.cli", "run_loop", "loop.episode", "episode"),
    ("hadm.strategies", "run_loop", "loop.episode", "episode"),
    ("hadm.cli", "Plant", "plant.init", "plant"),
    ("hadm.strategies", "Plant", "plant.init", "plant"),
    ("hadm.strategies", "phm_route_choice", "shm.route_choice", None),
    ("hadm.cli", "prognose", "prognostics.prognose", None),
    ("hadm.prognostics", "eol_distribution", "prognostics.eol_dp", None),
    ("hadm.prognostics", "monte_carlo_eol", "prognostics.mc", "mc"),
    # Artifact serialisation and the write to the output file.
    ("hadm.cli", "_emit", "cli.artifact_write", None),
    ("hadm.model", "ValueTable.write_csv", "cli.artifact_write", None),
    ("hadm.model", "Policy.write_csv", "cli.artifact_write", None),
    ("hadm.loop", "LoopTrace.write_jsonl", "cli.artifact_write", None),
    ("hadm.loop", "LoopTrace.write_csv", "cli.artifact_write", None),
    ("hadm.prognostics", "PrognosisResult.write_csv", "cli.artifact_write", None),
)

MEMORY_SPANS = ("prognostics.mc",)

LAYERS = ("spec", "compiler", "model", "loop", "plant", "strategies", "shm",
          "prognostics", "cli")

# Fields of one span record.
ID, PARENT, EPISODE, NAME, START, END, INFO = range(7)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.episodes = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if name == "loop.episode":
            self.episodes += 1
            episode = self.episodes
        else:
            episode = self.spans[parent][EPISODE] if parent >= 0 else 0
        self.spans.append([sid, parent, episode, name, _now(), None, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][END] = _now()
        self.stack.pop()

    def add(self, name: str, start: float, end: float):
        """Record a finished root span."""
        self.spans.append([len(self.spans), -1, 0, name, start, end, None])

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, hook=None):
        memory = name in MEMORY_SPANS

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if memory:
                self.spans[sid][INFO] = {"peak_bytes": peak}
            if hook is not None:
                return hook(self, self.spans[sid], args, kwargs, result)
            return result

        return traced


class _ProviderProxy:
    def __init__(self, rec, target):
        self._rec, self._target = rec, target

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def decide(self, *args, **kwargs):
        return self._rec.call("strategies.decide", self._target.decide, *args, **kwargs)


class _PlantProxy:
    def __init__(self, rec, target):
        self._rec, self._target = rec, target

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def observe(self):
        return self._rec.call("plant.observe", self._target.observe)

    def step(self, action):
        return self._rec.call("plant.step", self._target.step, action)


def _hook_compiled(rec, span, args, kwargs, compiled):
    p = compiled.problem
    span[INFO] = {
        "states": p.n_states,
        "transitions": sum(len(row) for row in p.transitions.values()),
        "obs_rows": len(p.observations) if p.observations is not None else 0,
    }
    return compiled


def _hook_vi(rec, span, args, kwargs, table):
    problem = args[0] if args else kwargs["problem"]
    span[INFO] = {"sweeps": table.iterations, "states": problem.n_states}
    return table


def _hook_provider(rec, span, args, kwargs, provider):
    return _ProviderProxy(rec, provider)


def _hook_plant(rec, span, args, kwargs, plant):
    return _PlantProxy(rec, plant)


def _hook_episode(rec, span, args, kwargs, trace):
    span[INFO] = {
        "steps": len(trace.records),
        "path": (tuple(trace.actions()), trace.terminal_label, trace.total),
    }
    return trace


def _hook_mc(rec, span, args, kwargs, result):
    span[INFO]["samples"] = kwargs.get("n_samples", args[3] if len(args) > 3 else None)
    return result


HOOKS = {
    "compiled": _hook_compiled, "vi": _hook_vi, "provider": _hook_provider,
    "plant": _hook_plant, "episode": _hook_episode, "mc": _hook_mc,
}


def install(rec: Recorder) -> list:
    """Wrap every boundary that exists; returns the ones that do not."""
    missing = []
    for module, attr, name, hook in BOUNDARIES:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        setattr(owner, leaf, rec.wrap(name, fn, HOOKS.get(hook)))
    return missing


def summary(spans: list) -> dict:
    """Per-name and per-layer totals plus the counters the hooks left.

    ``incl_s`` of a name sums only its outermost spans, so a nested call
    of the same name is not counted twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    names, layers = {}, dict.fromkeys(LAYERS, 0.0)
    counters = dict.fromkeys(
        ("states", "transitions", "obs_rows", "vi_sweeps", "state_sweeps",
         "steps", "analytic_episodes", "analytic_distinct", "mc_samples",
         "mc_peak_bytes"), 0)
    decide_us = []
    analytic_paths = {}
    for s in spans:
        dur = s[END] - s[START]
        entry = names.setdefault(s[NAME], {"count": 0, "incl_s": 0.0})
        entry["count"] += 1
        outer, p = True, s[PARENT]
        analytic = None
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                outer = False
            if analytic is None and spans[p][NAME] == "strategies.analytic":
                analytic = p
            p = spans[p][PARENT]
        if outer:
            entry["incl_s"] += dur
        layer = s[NAME].split(".", 1)[0]
        if layer in layers:
            layers[layer] += dur - child[s[ID]]
        info = s[INFO] or {}
        if s[NAME] == "compiler.compile":
            for key in ("states", "transitions", "obs_rows"):
                counters[key] += info[key]
        elif s[NAME] == "model.vi":
            counters["vi_sweeps"] += info["sweeps"]
            counters["state_sweeps"] += info["sweeps"] * info["states"]
        elif s[NAME] == "loop.episode":
            counters["steps"] += info["steps"]
            if analytic is not None:
                analytic_paths.setdefault(analytic, []).append(info["path"])
        elif s[NAME] == "strategies.decide":
            decide_us.append(dur * 1e6)
        elif s[NAME] == "prognostics.mc":
            counters["mc_samples"] += info["samples"]
            counters["mc_peak_bytes"] = max(counters["mc_peak_bytes"],
                                            info["peak_bytes"])
    for paths in analytic_paths.values():
        counters["analytic_episodes"] += len(paths)
        counters["analytic_distinct"] += len(set(paths))
    return {"names": names, "layers": layers, "counters": counters,
            "decide_us": decide_us}
