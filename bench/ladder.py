"""Synthetic ladder scenario and its closed-form oracle.

A ladder has ``k`` stages.  Stage ``i`` joins waypoint ``w{i-1}`` to
``w{i}`` by three segments: ``A{i}`` and ``B{i}`` cross terrain whose
class ("difficult" or "moderate") is unknown until driven, each in its
own region, and ``C{i}`` is a bypass with fixed terrain.  The reward is
the negated drive energy.  The battery covers the most expensive path,
so no branch strands and the compiled state count is
``1 + 5 + ... + 5**k`` whatever the seed: every stage multiplies the
states by five (two reveals for ``A``, two for ``B``, one bypass).

The seed draws the probability that each region is difficult; sizes,
energies and the graph never depend on it.  Because every region is
crossed by exactly one segment, a terrain reveal says nothing about
later stages, so each strategy's expected reward is a sum of per-stage
expectations.  ``oracle`` gives those sums in exact rational arithmetic,
without touching the code under test.
"""
from __future__ import annotations

import random
from fractions import Fraction

ENERGY_A = {"difficult": 600, "moderate": 300}
ENERGY_B = {"difficult": 700, "moderate": 200}
ENERGY_C = 420
ROUTES = ("A", "B", "bypass")
# The nominal plan (followed by fixed-plan and shm-baseline) drives A.
NOMINAL = "A"


def probabilities(k: int, seed: int) -> list:
    """[(P(a_i difficult), P(b_i difficult)), ...] as two-decimal strings."""
    rng = random.Random(f"ladder:{seed}")
    return [
        (f"{rng.randint(5, 95) / 100:.2f}", f"{rng.randint(5, 95) / 100:.2f}")
        for _ in range(k)
    ]


def _segment_id(route: str, i: int) -> str:
    return {"A": "A", "B": "B", "bypass": "C"}[route] + str(i)


def scenario(k: int, seed: int) -> dict:
    """The ladder as a scenario document for ``hadm --scenario FILE``."""
    probs = probabilities(k, seed)
    waypoints = [{"id": f"w{i}"} for i in range(k + 1)]
    regions, segments = [], []
    for i, (pa, pb) in enumerate(probs, start=1):
        for region, p in ((f"a{i}", pa), (f"b{i}", pb)):
            p = float(p)
            regions.append({"id": region,
                            "classes": {"difficult": p, "moderate": 1.0 - p}})
        frm, to = f"w{i - 1}", f"w{i}"
        segments += [
            {"id": f"A{i}", "from": frm, "to": to, "region": f"a{i}",
             "energy_wh": dict(ENERGY_A)},
            {"id": f"B{i}", "from": frm, "to": to, "region": f"b{i}",
             "energy_wh": dict(ENERGY_B)},
            {"id": f"C{i}", "from": frm, "to": to, "terrain": "easy",
             "energy_wh": {"easy": ENERGY_C}},
        ]
    capacity = k * max(max(ENERGY_A.values()), max(ENERGY_B.values()), ENERGY_C)
    return {
        "name": f"ladder-k{k}",
        "kind": "rover",
        "waypoints": waypoints,
        "regions": regions,
        "segments": segments,
        "battery": {"capacity_wh": capacity, "initial_wh": capacity},
        "mission": {"start": "w0", "goal": f"w{k}"},
        "reward": {"step_energy": True},
        "routes": [
            {"id": route,
             "moves": {f"w{i - 1}": f"drive:{_segment_id(route, i)}"
                       for i in range(1, k + 1)}}
            for route in ROUTES
        ],
        "nominal_plan": [f"drive:{_segment_id(NOMINAL, i)}" for i in range(1, k + 1)],
    }


def state_count(k: int) -> int:
    return sum(5 ** i for i in range(k + 1))


def stage_costs(k: int, seed: int) -> list:
    """Exact expected energy of A, B and C at every stage."""
    out = []
    for pa, pb in probabilities(k, seed):
        pa, pb = Fraction(pa), Fraction(pb)
        out.append({
            "A": pa * ENERGY_A["difficult"] + (1 - pa) * ENERGY_A["moderate"],
            "B": pb * ENERGY_B["difficult"] + (1 - pb) * ENERGY_B["moderate"],
            "bypass": Fraction(ENERGY_C),
        })
    return out


def oracle(k: int, seed: int) -> dict:
    """Expected reward of the optimum and of each strategy, exactly.

    * ``hadm`` is optimal: with nothing to learn about later stages it
      takes the cheapest expected segment at every stage.
    * ``phm-commit`` commits to the declared route with the best
      expectation (A, B or bypass throughout).
    * ``fixed-plan`` and ``shm-baseline`` (no rules) drive the nominal
      route A.
    """
    costs = stage_costs(k, seed)
    route_value = {r: -sum(c[r] for c in costs) for r in ROUTES}
    optimum = -sum(min(c.values()) for c in costs)
    return {
        "root_value": optimum,
        "strategies": {
            "hadm": optimum,
            "shm-baseline": route_value[NOMINAL],
            "phm-commit": max(route_value.values()),
            "fixed-plan": route_value[NOMINAL],
        },
    }


def optimal_segments(k: int, seed: int) -> list:
    """Per stage, the segment ids whose expected energy is minimal."""
    out = []
    for i, c in enumerate(stage_costs(k, seed), start=1):
        best = min(c.values())
        out.append({_segment_id(r, i) for r in ROUTES if c[r] == best})
    return out
