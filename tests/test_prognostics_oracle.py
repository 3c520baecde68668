"""The Monte Carlo estimator against a frozen reference copy of itself.

``prognostics_reference.py`` holds ``monte_carlo_eol`` as it stood while
it drew and reduced the whole ``n_samples x horizon`` matrix at once.
The estimator now streams the samples through one block of whole rows.
Over generated models (int and float parameters, powers of two that
put health exactly on the threshold, ``p_high`` of 0, 1 and in between,
no extra loss, thresholds above 0, prediction before full health) and
sizes (horizons below and above the block's cell count,
sample counts that do not fill the last block, a single sample), both
must return the same distribution and residual, bit for bit.
"""
import importlib.util
import math
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadm.prognostics import (
    _BLOCK_CELLS,
    _TOL,
    DegradationModel,
    EventThreshold,
    PrognosisRequest,
    monte_carlo_eol,
)

_path = Path(__file__).resolve().parent / "prognostics_reference.py"
_spec = importlib.util.spec_from_file_location("prognostics_reference", _path)
reference = sys.modules["prognostics_reference"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def _fractions(lo, hi):
    """Hundredths in ``[lo, hi]``, away from the ends that floats favour."""
    return st.integers(round(lo * 100), round(hi * 100)).map(lambda k: k / 100)


@st.composite
def cases(draw):
    """(model, request, threshold, n_samples) with at most three blocks."""
    horizon = draw(st.one_of(
        st.integers(1, 300),
        st.integers(1, _BLOCK_CELLS + 64),
        st.sampled_from([_BLOCK_CELLS // 2, _BLOCK_CELLS, _BLOCK_CELLS + 1]),
    ))
    rows = max(1, _BLOCK_CELLS // horizon)
    n_samples = draw(st.one_of(st.integers(1, rows), st.integers(rows + 1, 3 * rows)))
    p_high = draw(st.one_of(
        st.sampled_from([0, 0.0, 1, 1.0]), st.floats(0.0, 1.0), _fractions(0.01, 0.99)
    ))
    kind = draw(st.sampled_from(["int", "dyadic", "float"]))
    if kind == "int":
        # Whole numbers throughout, so the reference sums integer losses.
        s0 = draw(st.integers(1, 40))
        rho_p, h_min = 1, draw(st.integers(-2, s0 - 1))
        rate_nominal = draw(st.integers(1, 3))
        epsilon = draw(st.integers(0, 3))
    elif kind == "dyadic":
        # Losses are powers of two, so health lands exactly on 0, which
        # is h_min + _TOL for h_min = -_TOL: a health rounded differently
        # by one bit would cross a step later.
        s0, rho_p = 1.0, draw(st.sampled_from([1.0, 0.75, 0.5]))
        h_min = draw(st.sampled_from([0.0, -_TOL]))
        rate_nominal = 2.0 ** -draw(st.integers(0, 8))
        epsilon = rate_nominal * draw(st.integers(0, 3))
    else:
        s0 = draw(st.one_of(st.just(1.0), st.integers(1, 5), st.floats(0.1, 10.0)))
        rho_p = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
        start = rho_p * s0
        h_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9).map(lambda f: f * start)))
        # The mean walk reaches the threshold after ``steps`` steps, from
        # inside the horizon to past it.  Crossing times spread over
        # about sqrt(horizon) steps, so within that of the horizon some
        # draws cross and some do not.
        steps = draw(st.one_of(
            st.floats(0.3, 2.5).map(lambda f: f * horizon),
            _fractions(-0.5, 1.0).map(lambda z: horizon + z * math.sqrt(horizon)),
        ))
        extra = draw(st.one_of(
            st.sampled_from([0, 0.0]), st.floats(0.0, 2.0), _fractions(0.1, 2.0)
        ))
        rate_nominal = (start - h_min) / steps / (1 + p_high * extra)
        epsilon = extra * rate_nominal
    model = DegradationModel(
        rate_nominal=rate_nominal, p_high=p_high, epsilon=epsilon, s0=s0
    )
    req = PrognosisRequest(rho_p=rho_p, horizon=horizon)
    return model, req, EventThreshold(h_min=h_min), n_samples


def _case(horizon, n_samples, rate_nominal=0.05):
    model = DegradationModel(rate_nominal=rate_nominal, p_high=0.2, epsilon=rate_nominal)
    return model, PrognosisRequest(horizon=horizon), EventThreshold(), n_samples


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**32 - 1))
# One sample; the last block short by one row; one row per block above
# the block's cell count, with crossings inside the horizon and past it.
@example(case=_case(20, 1), seed=0)
@example(case=_case(20, 3 * (_BLOCK_CELLS // 20) - 1), seed=1)
@example(case=_case(_BLOCK_CELLS + 5, 4, rate_nominal=1 / (1.2 * (_BLOCK_CELLS + 5))), seed=0)
def test_streamed_estimate_equals_the_whole_matrix(case, seed):
    model, req, threshold, n_samples = case
    want = reference.monte_carlo_eol(model, req, threshold, n_samples=n_samples, seed=seed)
    assert monte_carlo_eol(model, req, threshold, n_samples=n_samples, seed=seed) == want
