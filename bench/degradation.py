"""Degradation sections for generated scenarios, and their oracles.

``section`` builds the ``degradation`` block of a scenario document.
Its rates are fixed multiples of one health unit, so the set of
(step, high-step count) pairs that have not crossed the threshold, and
with it the work of the end-of-life DP, is the same for every seed; the
seed draws only the probability of a high-rate step.

The oracles restate the closed forms and the first-crossing law without
the code under test.  Health only decreases, so the first crossing is
at or before step ``k`` exactly when health at ``k`` is at or below the
threshold, which for ``J_k ~ Binomial(k, p_high)`` high steps is
``P(J_k >= m_k)`` for the smallest crossing count ``m_k``.  Thresholds
are found in exact rational arithmetic.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

# Health unit, nominal units per step, extra units of a high step,
# horizon in steps and sigma budget in steps: about 850-1100 steps to
# end of life against a 1000-step horizon, so part of the mass is still
# alive at the horizon on most seeds.
UNIT, NOMINAL, EXTRA, HORIZON, SIGMA_MAX = Fraction(1, 2500), 2, 3, 1000, 20.0
# Health fractions at which ``hadm predict`` is asked for a prognosis.
SWEEP = ("1.0", "0.75", "0.5", "0.25")
# Health fraction of the end-of-life distribution: ``hadm predict``'s
# default ``--dist-rho``, and the start of the Monte Carlo check.
RHO = "1.0"
# First-crossing times the Monte Carlo check draws.
SAMPLES = 20000


def p_high(seed: int) -> str:
    rng = random.Random(f"degradation:{seed}")
    return f"{rng.randint(10, 30) / 100:.2f}"


def section(seed: int) -> dict:
    return {
        "s0": 1.0,
        "rate_nominal": float(UNIT * NOMINAL),
        "p_high": float(p_high(seed)),
        "epsilon": float(UNIT * EXTRA),
        "horizon": HORIZON,
        "sigma_max": SIGMA_MAX,
        "h_min": 0.0,
    }


def _exact(x) -> Fraction:
    # Scenario numbers are written as short decimals; read them back as
    # the decimal they denote, not as the nearest binary float.
    return Fraction(repr(float(x)))


def closed_forms(deg: dict, rho: str) -> dict:
    """The ``predict`` row for health fraction ``rho``, as floats."""
    rho = float(rho)
    s0, rate, eps, p = deg["s0"], deg["rate_nominal"], deg["epsilon"], deg["p_high"]
    mean_rate = rate + p * eps
    eol_det = rho * s0 / rate
    eol_stoch = rho * s0 / mean_rate
    return {
        "t_p": (1.0 - rho) * s0 / rate,
        "eol_det": eol_det,
        "eol_stoch": eol_stoch,
        "sigma": abs(eol_det - eol_stoch),
        "rul": max(0.0, (rho * s0 - deg["h_min"]) / rate),
    }


def rho_star(deg: dict) -> float:
    """Largest health fraction whose sigma stays within ``sigma_max``."""
    s0, rate, eps, p = deg["s0"], deg["rate_nominal"], deg["epsilon"], deg["p_high"]
    return deg["sigma_max"] / (s0 * abs(1.0 / rate - 1.0 / (rate + p * eps)))


def _binomial_tail(k: int, m: int, p: float) -> float:
    """P(Binomial(k, p) >= m), summed in log space."""
    if m <= 0:
        return 1.0
    if m > k:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    lk = math.lgamma(k + 1)
    return math.fsum(
        math.exp(lk - math.lgamma(j + 1) - math.lgamma(k - j + 1) + j * lp + (k - j) * lq)
        for j in range(m, k + 1)
    )


def first_crossing(deg: dict, rho: str) -> tuple:
    """({step: probability}, residual) of the first threshold crossing."""
    start = _exact(rho) * _exact(deg["s0"])
    rate, eps = _exact(deg["rate_nominal"]), _exact(deg["epsilon"])
    margin = start - _exact(deg["h_min"])
    p = float(deg["p_high"])
    dist, prev = {}, 0.0
    for k in range(1, deg["horizon"] + 1):
        need = margin - k * rate  # health to lose through high steps
        if need <= 0:
            crossed = 1.0
        elif eps == 0:
            crossed = 0.0
        else:
            crossed = _binomial_tail(k, math.ceil(need / eps), p)
        if crossed - prev > 0.0:
            dist[k] = crossed - prev
        prev = crossed
        if crossed >= 1.0:
            break
    return dist, max(0.0, 1.0 - prev)


def tv_bound(dist: dict, residual: float, n: int, delta: float = 1e-6) -> float:
    """A total-variation distance that an ``n``-sample empirical law of
    ``dist`` exceeds with probability below ``delta``.

    The expected distance is at most ``sum(sqrt(p (1 - p) / n)) / 2``
    (Jensen, bin by bin), and one sample moves the distance by at most
    ``1 / n``, so McDiarmid's inequality adds ``sqrt(ln(1/delta) / 2n)``.
    """
    masses = list(dist.values()) + [residual]
    expected = 0.5 * sum(math.sqrt(max(0.0, q * (1.0 - q)) / n) for q in masses)
    return expected + math.sqrt(math.log(1.0 / delta) / (2 * n))


def tv_distance(a: dict, a_residual: float, b: dict, b_residual: float) -> float:
    keys = set(a) | set(b)
    return 0.5 * (
        sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
        + abs(a_residual - b_residual)
    )
