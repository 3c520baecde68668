"""Event-time prediction for uncontrolled degrading systems.

A health scalar decays by a nominal amount each step, with some
probability of an extra loss.  The module provides the closed-form
deterministic and stochastic expected end-of-life (EOL), the prediction
uncertainty sigma (their absolute difference), the exact first-crossing
distribution by dynamic programming, a seeded Monte Carlo estimator, and
the inversion that finds the latest prediction health satisfying a
sigma budget.  All times are in prediction steps.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO

from .errors import InvalidConfigError, ResourceLimitError, UnconstrainedSigmaError

_TOL = 1e-9
# Largest block of samples x steps that ``monte_carlo_eol`` draws at once.
_BLOCK_CELLS = 2**16


def _require_finite(record, *names):
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DegradationModel:
    """Two-rate stochastic health decay.

    ``rate_nominal`` is the health lost per step under nominal
    degradation; with probability ``p_high`` a step additionally loses
    ``epsilon``.
    """

    rate_nominal: float
    p_high: float = 0.0
    epsilon: float = 0.0
    s0: float = 1.0

    def __post_init__(self):
        _require_finite(self, "rate_nominal", "p_high", "epsilon", "s0")
        if self.s0 <= 0:
            raise InvalidConfigError("initial health must be positive")
        if self.rate_nominal <= 0:
            raise InvalidConfigError("nominal degradation rate must be positive")
        if self.epsilon < 0:
            raise InvalidConfigError("epsilon must be non-negative")
        if not (0.0 <= self.p_high <= 1.0):
            raise InvalidConfigError("p_high must be in [0, 1]")

    @property
    def rate_high(self):
        return self.rate_nominal + self.epsilon

    @property
    def mean_rate(self):
        return self.rate_nominal + self.p_high * self.epsilon


@dataclass(frozen=True)
class EventThreshold:
    """Event fires when health drops to ``h_min`` or below."""

    h_min: float = 0.0

    def __post_init__(self):
        _require_finite(self, "h_min")

    def crossed(self, health: float) -> bool:
        return health <= self.h_min + _TOL


@dataclass(frozen=True)
class PrognosisRequest:
    """Prediction made when a fraction ``rho_p`` of full health remains."""

    rho_p: float = 1.0
    horizon: int = 100

    def __post_init__(self):
        _require_finite(self, "rho_p")
        if not (0.0 < self.rho_p <= 1.0):
            raise InvalidConfigError("rho_p must be in (0, 1]")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int):
            raise InvalidConfigError(
                f"prediction horizon must be an integer, got {self.horizon!r}"
            )
        if self.horizon <= 0:
            raise InvalidConfigError("prediction horizon must be positive")


@dataclass
class PrognosisResult:
    eol_det: float
    eol_stoch: float
    sigma: float
    rul: float
    distribution: list = field(default_factory=list)  # [(step, probability)]
    residual: float = 0.0

    def write_csv(self, fh: IO):
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "probability"])
        for k, p in self.distribution:
            writer.writerow([k, repr(float(k)), repr(p)])
        writer.writerow(["residual", "", repr(self.residual)])


def predict_eol_deterministic(model: DegradationModel, req: PrognosisRequest) -> float:
    """Remaining time to threshold under the nominal rate: rho * s0 / rate."""
    return req.rho_p * model.s0 / model.rate_nominal


def predict_eol_stochastic(model: DegradationModel, req: PrognosisRequest) -> float:
    """Ratio-of-expected-rate form: rho * s0 / (rate_nominal + p_high * eps).

    This is the cited closed form, not the true expected hitting time of
    the discrete walk; ``eol_distribution`` exposes the gap.
    """
    return req.rho_p * model.s0 / model.mean_rate


def sigma(model: DegradationModel, req: PrognosisRequest) -> float:
    """Prediction uncertainty: |deterministic EOL - stochastic EOL|."""
    return abs(predict_eol_deterministic(model, req) - predict_eol_stochastic(model, req))


def max_prediction_health(model: DegradationModel, sigma_max: float) -> float:
    """Largest health fraction rho at which sigma(rho) <= sigma_max."""
    if not math.isfinite(sigma_max):
        raise InvalidConfigError(f"sigma_max must be finite, got {sigma_max!r}")
    slope = model.s0 * abs(1.0 / model.rate_nominal - 1.0 / model.mean_rate)
    if slope == 0.0:
        raise UnconstrainedSigmaError("sigma is identically zero (p_high * epsilon = 0)")
    return sigma_max / slope


def rul(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
) -> float:
    """Remaining useful life to ``h_min`` under the nominal rate."""
    return max(0.0, (req.rho_p * model.s0 - threshold.h_min) / model.rate_nominal)


def _starting_health(model, req, threshold) -> float:
    """Health when the prediction is made; it must lie above the threshold."""
    start = req.rho_p * model.s0
    if threshold.h_min >= start:
        raise InvalidConfigError("threshold must be below the starting health")
    return start


def eol_distribution(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
    node_cap: int = 10**6,
):
    """Exact first-crossing-time distribution within the horizon.

    Forward DP over the number of high-rate steps taken so far (health
    after k steps with j high ones is determined by k and j).  Health
    falls as j grows, so the counts still alive after step k form one
    range ``lo <= j < lo + len(alive)``, and ``alive`` lists their
    probabilities.  Returns ([(step, probability), ...], residual) where
    residual is the mass that has not crossed by the horizon.
    """
    start = _starting_health(model, req, threshold)
    p_nom, p_high = 1.0 - model.p_high, model.p_high
    shift = 0 if p_nom > 0.0 else 1  # a sure high step leaves no count unchanged
    grow = 1 if p_high > 0.0 else 0  # a high step reaches one count more
    lo, alive = 0, [1.0]  # alive[i]: probability of lo + i high steps
    dist = []
    nodes = 0
    for k in range(1, req.horizon + 1):
        n = len(alive)
        # Step k reaches counts lo + i for shift <= i < n + grow; those
        # from lo + m on cross.
        m = n + grow
        while m > shift and threshold.crossed(
            start - k * model.rate_nominal - (lo + m - 1) * model.epsilon
        ):
            m -= 1
        # Crossed mass in (count, nominal then high) order; a branch of
        # probability 0 adds 0.0, which changes no bit.
        crossed_mass = 0.0
        for i in range(max(m - 1, 0), n):
            if i >= m:
                crossed_mass += alive[i] * p_nom
            crossed_mass += alive[i] * p_high
        if crossed_mass > 0.0:
            dist.append((k, crossed_mass))
        # Count lo + i now has alive[i] * p_nom + alive[i - 1] * p_high,
        # with a 0.0 product past either end.
        alive = [
            b * p_nom + a * p_high for a, b in zip([0.0, *alive], [*alive, 0.0])
        ][shift:m]
        lo += shift
        nodes += len(alive)
        if nodes > node_cap:
            raise ResourceLimitError(f"EOL DP exceeded {node_cap} reachable nodes")
        if not alive:
            break
    return dist, sum(alive)


def monte_carlo_eol(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
    n_samples: int = 10**5,
    seed: int = 0,
):
    """Seeded Monte Carlo estimate of the first-crossing distribution.

    Samples are drawn and reduced in blocks of whole rows of at most
    ``_BLOCK_CELLS`` samples x steps, in two buffers reused for every
    block, so memory does not grow with ``n_samples``.  The generator
    fills the rows in the same order as one ``n_samples x horizon``
    draw, and each row goes through the same float operations, so the
    result equals the whole-matrix estimate bit for bit.
    """
    if n_samples < 1:
        raise InvalidConfigError(f"n_samples must be at least 1, got {n_samples}")
    start = _starting_health(model, req, threshold)
    import numpy as np  # only this estimator needs it; loading it costs every command

    rng = np.random.default_rng(seed)
    h = req.horizon
    rows = max(1, min(n_samples, _BLOCK_CELLS // h))
    x = np.empty((rows, h))  # draws, then losses, then health
    c = np.empty((rows, h), dtype=bool)  # high steps, then crossings
    counts = np.zeros(h + 1, dtype=np.int64)  # [0]: never crossed
    for done in range(0, n_samples, rows):
        r = min(rows, n_samples - done)
        xb, cb = x[:r], c[:r]
        rng.random(out=xb)
        np.less(xb, model.p_high, out=cb)
        np.multiply(model.epsilon, cb, out=xb)
        np.add(model.rate_nominal, xb, out=xb)
        np.cumsum(xb, axis=1, out=xb)
        np.subtract(start, xb, out=xb)
        np.less_equal(xb, threshold.h_min + _TOL, out=cb)
        first = np.where(cb.any(axis=1), cb.argmax(axis=1) + 1, 0)
        counts += np.bincount(first, minlength=h + 1)
    alive, *crossed = counts.tolist()
    dist = [(k, n / n_samples) for k, n in enumerate(crossed, 1) if n]
    return dist, float(alive) / n_samples


def closed_forms(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
) -> PrognosisResult:
    """The prognosis without the exact distribution, which it leaves empty."""
    _starting_health(model, req, threshold)
    return PrognosisResult(
        eol_det=predict_eol_deterministic(model, req),
        eol_stoch=predict_eol_stochastic(model, req),
        sigma=sigma(model, req),
        rul=rul(model, req, threshold),
    )


def prognose(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
) -> PrognosisResult:
    """Assemble the full prognosis for one request."""
    res = closed_forms(model, req, threshold)
    res.distribution, res.residual = eol_distribution(model, req, threshold)
    return res
