"""Prognostics tests: closed forms, exact distribution, Monte Carlo."""
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadm

from hadm.errors import InvalidConfigError, ResourceLimitError, UnconstrainedSigmaError
from hadm.prognostics import (
    DegradationModel,
    EventThreshold,
    PrognosisRequest,
    eol_distribution,
    max_prediction_health,
    monte_carlo_eol,
    predict_eol_deterministic,
    predict_eol_stochastic,
    prognose,
    rul,
    sigma,
)

MODEL = DegradationModel(rate_nominal=0.05, p_high=0.2, epsilon=0.05, s0=1.0)


def enumerate_eol(model, req, threshold=EventThreshold()):
    """Brute-force first-crossing distribution over all 2^horizon paths."""
    dist = {}
    residual = 0.0
    start = req.rho_p * model.s0
    for path in itertools.product((0, 1), repeat=req.horizon):
        prob = 1.0
        health = start
        crossed_at = None
        for k, high in enumerate(path, start=1):
            prob *= model.p_high if high else 1.0 - model.p_high
            health -= model.rate_nominal + (model.epsilon if high else 0.0)
            if crossed_at is None and threshold.crossed(health):
                crossed_at = k
        if crossed_at is None:
            residual += prob
        else:
            dist[crossed_at] = dist.get(crossed_at, 0.0) + prob
    return sorted(dist.items()), residual


def dict_eol_distribution(
    model: DegradationModel,
    req: PrognosisRequest,
    threshold: EventThreshold = EventThreshold(),
    node_cap: int = 10**6,
):
    """Exact first-crossing-time distribution within the horizon.

    Forward DP over the number of high-rate steps taken so far (health
    after k steps with j high ones is determined by k and j).  Returns
    ([(step, probability), ...], residual) where residual is the mass
    that has not crossed by the horizon.
    """
    start = req.rho_p * model.s0
    if threshold.h_min >= start:
        raise InvalidConfigError("threshold must be below the starting health")
    alive = {0: 1.0}  # high-step count -> probability, among survivors
    dist = []
    nodes = 0
    for k in range(1, req.horizon + 1):
        nxt = {}
        crossed_mass = 0.0
        for j, p in alive.items():
            for dj, pb in ((0, 1.0 - model.p_high), (1, model.p_high)):
                if pb <= 0.0:
                    continue
                j2 = j + dj
                health = start - k * model.rate_nominal - j2 * model.epsilon
                if threshold.crossed(health):
                    crossed_mass += p * pb
                else:
                    nxt[j2] = nxt.get(j2, 0.0) + p * pb
        if crossed_mass > 0.0:
            dist.append((k, crossed_mass))
        alive = nxt
        nodes += len(alive)
        if nodes > node_cap:
            raise ResourceLimitError(f"EOL DP exceeded {node_cap} reachable nodes")
        if not alive:
            break
    return dist, sum(alive.values())


class TestClosedForms:
    def test_sigma_full_health(self):
        req = PrognosisRequest(rho_p=1.0, horizon=20)
        assert sigma(MODEL, req) == pytest.approx(10.0 / 3.0, abs=0.01)

    def test_sigma_quarter_health(self):
        req = PrognosisRequest(rho_p=0.25, horizon=20)
        assert sigma(MODEL, req) == pytest.approx(0.8333, abs=0.01)

    def test_sigma_linear_in_rho(self):
        s1 = sigma(MODEL, PrognosisRequest(rho_p=1.0))
        for rho in (0.75, 0.5, 0.1):
            assert sigma(MODEL, PrognosisRequest(rho_p=rho)) == pytest.approx(
                rho * s1
            )

    def test_deterministic_eol(self):
        assert predict_eol_deterministic(MODEL, PrognosisRequest(rho_p=1.0)) == 20.0
        assert predict_eol_deterministic(MODEL, PrognosisRequest(rho_p=0.25)) == 5.0

    def test_stochastic_eol_ratio_form(self):
        got = predict_eol_stochastic(MODEL, PrognosisRequest(rho_p=1.0))
        assert got == pytest.approx(1.0 / 0.06)

    def test_rul(self):
        assert rul(MODEL, PrognosisRequest(rho_p=0.25)) == pytest.approx(5.0)
        assert rul(MODEL, PrognosisRequest(rho_p=1.0)) == pytest.approx(20.0)

    def test_rho_star_round_trip(self):
        rho_star = max_prediction_health(MODEL, 1.0)
        assert rho_star == pytest.approx(0.3)
        assert sigma(MODEL, PrognosisRequest(rho_p=rho_star)) == pytest.approx(1.0)

    def test_sigma_unconstrained_without_high_rate(self):
        flat = DegradationModel(rate_nominal=0.05)
        with pytest.raises(UnconstrainedSigmaError):
            max_prediction_health(flat, 1.0)

    def test_deterministic_model_has_zero_sigma(self):
        flat = DegradationModel(rate_nominal=0.05)
        assert sigma(flat, PrognosisRequest(rho_p=1.0)) == 0.0


class TestDistribution:
    def test_mass_and_support(self):
        dist, residual = eol_distribution(MODEL, PrognosisRequest(rho_p=1.0, horizon=20))
        assert sum(p for _, p in dist) + residual == pytest.approx(1.0, abs=1e-9)
        assert residual == pytest.approx(0.0, abs=1e-12)
        # Analytic support bounds: fastest all-high, slowest all-nominal.
        fastest = math.ceil(MODEL.s0 / MODEL.rate_high)
        slowest = math.ceil(MODEL.s0 / MODEL.rate_nominal)
        assert dist[0][0] == fastest == 10
        assert dist[-1][0] == slowest == 20

    def test_corner_probabilities(self):
        dist = dict(eol_distribution(MODEL, PrognosisRequest(rho_p=1.0, horizon=20))[0])
        # Fastest outcome: every one of the 10 steps takes the high rate.
        assert dist[10] == pytest.approx(0.2**10, abs=0.0)
        # Slowest outcome needs the first 19 steps nominal; health entering
        # step 20 is 0.05, so the 20th step crosses at either rate.
        assert dist[20] == pytest.approx(0.8**19, rel=1e-12)

    def test_matches_path_enumeration(self):
        model = DegradationModel(rate_nominal=0.1, p_high=0.3, epsilon=0.1, s0=1.0)
        req = PrognosisRequest(rho_p=1.0, horizon=12)
        dist, residual = eol_distribution(model, req)
        ref, ref_residual = enumerate_eol(model, req)
        assert residual == pytest.approx(ref_residual, abs=1e-12)
        assert len(dist) == len(ref)
        for (k, p), (k2, p2) in zip(dist, ref):
            assert k == k2
            assert p == pytest.approx(p2, abs=1e-12)

    def test_truncated_horizon_reports_residual(self):
        dist, residual = eol_distribution(MODEL, PrognosisRequest(rho_p=1.0, horizon=12))
        assert residual > 0.0
        assert sum(p for _, p in dist) + residual == pytest.approx(1.0, abs=1e-9)

    def test_threshold_above_start_rejected(self):
        with pytest.raises(InvalidConfigError):
            eol_distribution(MODEL, PrognosisRequest(rho_p=0.25), EventThreshold(h_min=0.5))

    def test_deterministic_model_point_mass(self):
        flat = DegradationModel(rate_nominal=0.05)
        dist, residual = eol_distribution(flat, PrognosisRequest(rho_p=1.0, horizon=25))
        assert dist == [(20, 1.0)]
        assert residual == 0.0

    def test_mean_gap_against_ratio_form(self):
        # The cited closed form is not the exact mean hitting time, but it
        # is close for these constants.
        res = prognose(MODEL, PrognosisRequest(rho_p=1.0, horizon=20))
        mean_eol = sum(k * p for k, p in res.distribution) / sum(
            p for _, p in res.distribution
        )
        assert abs(mean_eol - res.eol_stoch) / res.eol_stoch <= 0.05


class TestDistributionAgainstDictOracle:
    """The list DP against a per-node dict DP, the previous implementation.

    Both add the same products in the same order, so results are equal
    bit for bit, and both raise the same error at the same step.
    """

    @staticmethod
    def outcome(fn, model, req, threshold, node_cap):
        try:
            return fn(model, req, threshold, node_cap=node_cap)
        except (InvalidConfigError, ResourceLimitError) as exc:
            return type(exc), str(exc)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        p_high=st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.05, 0.95)
        ),
        # Reciprocals of whole step counts put the crossing inside the
        # horizon and make many (step, count) healths land on the threshold.
        rate_nominal=st.one_of(
            st.floats(1e-3, 0.3),
            st.floats(0.004, 0.1),
            st.integers(3, 250).map(lambda n: 1.0 / n),
        ),
        epsilon=st.one_of(
            st.just(0.0), st.floats(0.0, 0.3), st.integers(1, 40).map(lambda n: n / 2500)
        ),
        s0=st.one_of(st.just(1.0), st.floats(0.1, 3.0)),
        # Threshold as a fraction of the starting health; from 1 on it is rejected.
        h_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.05)),
        rho_p=st.one_of(st.just(1.0), st.floats(0.01, 1.0), st.floats(0.3, 1.0)),
        horizon=st.integers(1, 300),
        node_cap=st.one_of(st.just(10**6), st.integers(1, 20_000)),
    )
    def test_list_dp_equals_dict_dp(
        self, p_high, rate_nominal, epsilon, s0, h_frac, rho_p, horizon, node_cap
    ):
        model = DegradationModel(
            rate_nominal=rate_nominal, p_high=p_high, epsilon=epsilon, s0=s0
        )
        req = PrognosisRequest(rho_p=rho_p, horizon=horizon)
        threshold = EventThreshold(h_min=h_frac * rho_p * s0)
        got = self.outcome(eol_distribution, model, req, threshold, node_cap)
        want = self.outcome(dict_eol_distribution, model, req, threshold, node_cap)
        assert got == want

    @pytest.mark.parametrize("p_high", [0.0, 0.27, 1.0])
    def test_node_cap_fires_at_the_same_step(self, p_high):
        # No mass crosses within the horizon, so nodes only accumulate.
        model = DegradationModel(rate_nominal=1e-6, p_high=p_high, epsilon=1e-6)
        req = PrognosisRequest(rho_p=1.0, horizon=400)
        for node_cap in (1, 399, 400, 5000, 80_000, 80_200):
            got = self.outcome(eol_distribution, model, req, EventThreshold(), node_cap)
            want = self.outcome(
                dict_eol_distribution, model, req, EventThreshold(), node_cap
            )
            assert got == want


class TestMonteCarlo:
    def test_total_variation_against_dp(self):
        req = PrognosisRequest(rho_p=1.0, horizon=20)
        exact = dict(eol_distribution(MODEL, req)[0])
        sampled, residual = monte_carlo_eol(MODEL, req, n_samples=10**5, seed=0)
        sampled = dict(sampled)
        keys = set(exact) | set(sampled)
        tv = 0.5 * (
            sum(abs(exact.get(k, 0.0) - sampled.get(k, 0.0)) for k in keys)
            + residual
        )
        assert tv <= 0.01

    def test_seed_reproducibility(self):
        req = PrognosisRequest(rho_p=1.0, horizon=20)
        a = monte_carlo_eol(MODEL, req, n_samples=2000, seed=42)
        b = monte_carlo_eol(MODEL, req, n_samples=2000, seed=42)
        assert a == b
        c = monte_carlo_eol(MODEL, req, n_samples=2000, seed=43)
        assert a != c

    def test_pinned_draws(self):
        req = PrognosisRequest(rho_p=1.0, horizon=16)
        assert monte_carlo_eol(MODEL, req, n_samples=200, seed=42) == (
            [(13, 0.01), (14, 0.065), (15, 0.125), (16, 0.22)],
            0.58,
        )

    @pytest.fixture
    def no_draws(self, monkeypatch):
        """Any draw from a generator fails the test."""
        import numpy

        def default_rng(seed):
            raise AssertionError("drew samples")

        monkeypatch.setattr(numpy.random, "default_rng", default_rng)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_is_config_error(self, no_draws, n_samples):
        req = PrognosisRequest(rho_p=1.0, horizon=16)
        with pytest.raises(InvalidConfigError, match="n_samples must be at least 1"):
            monte_carlo_eol(MODEL, req, n_samples=n_samples)

    @pytest.mark.parametrize("h_min", [1.0, 1.5])
    def test_threshold_at_or_above_start_is_config_error(self, no_draws, h_min):
        req = PrognosisRequest(rho_p=1.0, horizon=16)
        with pytest.raises(InvalidConfigError, match="threshold must be below"):
            monte_carlo_eol(MODEL, req, EventThreshold(h_min=h_min), n_samples=10)

    def test_memory_is_one_block(self):
        """Traced memory stays at one block of draws, whatever
        ``n_samples`` is; one float64 matrix of all 20,000 x 1000 draws
        would take 153 MiB."""
        # Importing numpy's generators allocates; trace only the estimator.
        import numpy.random  # noqa: F401

        req = PrognosisRequest(rho_p=1.0, horizon=1000)
        tracemalloc.start()
        try:
            monte_carlo_eol(MODEL, req, n_samples=20_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_command_line_import_leaves_numpy_unloaded(self):
        src = os.path.dirname(os.path.dirname(hadm.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        code = (
            "import sys\n"
            "import hadm.cli\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_prognostics_loads_no_other_layer(self):
        """The ``hadm`` package re-exports nothing, so importing one
        module loads only the modules it depends on."""
        assert hadm_modules_loaded_by("import hadm.prognostics") == {
            "hadm", "hadm.errors", "hadm.prognostics",
        }

    def test_rover_loads_neither_the_loop_nor_the_strategies(self):
        loaded = hadm_modules_loaded_by("from hadm.rover import compile_scenario")
        assert "hadm.rover.compiler" in loaded
        assert not loaded & {"hadm.loop", "hadm.strategies"}


def hadm_modules_loaded_by(statement) -> set:
    """The ``hadm`` modules a fresh interpreter holds after ``statement``."""
    src = os.path.dirname(os.path.dirname(hadm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (
        "import sys\n"
        f"{statement}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'hadm'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return set(out.stdout.split())


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(InvalidConfigError):
            DegradationModel(rate_nominal=0.0)
        with pytest.raises(InvalidConfigError):
            DegradationModel(rate_nominal=0.05, p_high=1.5)
        with pytest.raises(InvalidConfigError):
            PrognosisRequest(rho_p=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, value):
        for field in ("rate_nominal", "p_high", "epsilon", "s0"):
            with pytest.raises(InvalidConfigError, match=f"{field} must be finite"):
                DegradationModel(**{"rate_nominal": 0.05, field: value})
        with pytest.raises(InvalidConfigError, match="h_min must be finite"):
            EventThreshold(h_min=value)
        with pytest.raises(InvalidConfigError, match="rho_p must be finite"):
            PrognosisRequest(rho_p=value)
        with pytest.raises(InvalidConfigError, match="sigma_max must be finite"):
            max_prediction_health(MODEL, value)

    @pytest.mark.parametrize("horizon", [20.0, True, "20"])
    def test_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(InvalidConfigError, match="must be an integer"):
            PrognosisRequest(rho_p=1.0, horizon=horizon)

    def test_result_csv(self, tmp_path):
        res = prognose(MODEL, PrognosisRequest(rho_p=1.0, horizon=20))
        out = tmp_path / "dist.csv"
        with open(out, "w", newline="") as fh:
            res.write_csv(fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,time,probability"
        assert lines[-1].startswith("residual")
        assert len(lines) == 1 + 11 + 1  # header, steps 10..20, residual
