"""Reference Monte Carlo estimator for ``test_prognostics_oracle.py``.

A verbatim copy of ``hadm.prognostics.monte_carlo_eol`` as of commit
67997af, when it drew and reduced the whole ``n_samples x horizon``
matrix at once, with the tolerance constant it read.  Only the imports
are changed, to absolute ones.  Do not edit the code below: the oracle
test holds the estimator to exactly this behaviour.
"""
from __future__ import annotations

from hadm.prognostics import DegradationModel, EventThreshold, PrognosisRequest

_TOL = 1e-9


def monte_carlo_eol(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
    n_samples: int = 10**5,
    seed: int = 0,
):
    """Seeded Monte Carlo estimate of the first-crossing distribution."""
    import numpy as np  # only this estimator needs it; loading it costs every command

    rng = np.random.default_rng(seed)
    start = req.rho_p * model.s0
    h = req.horizon
    losses = model.rate_nominal + model.epsilon * (
        rng.random((n_samples, h)) < model.p_high
    )
    health = start - np.cumsum(losses, axis=1)
    crossed = health <= threshold.h_min + _TOL
    any_cross = crossed.any(axis=1)
    first = np.where(any_cross, crossed.argmax(axis=1) + 1, 0)
    dist = []
    for k in range(1, h + 1):
        c = int(np.count_nonzero(first == k))
        if c:
            dist.append((k, c / n_samples))
    residual = float(np.count_nonzero(~any_cross)) / n_samples
    return dist, residual
