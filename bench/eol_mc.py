"""Monte Carlo end-of-life cross-check, run as its own process.

    python3 bench/eol_mc.py SCENARIO SEED OUT

Loads the scenario's degradation model through ``hadm``, draws
``degradation.SAMPLES`` first-crossing times from health fraction
``degradation.RHO`` with ``hadm.prognostics.monte_carlo_eol``, in
chunks of at most ``CHUNK_CELLS`` samples x steps (seeds ``SEED``,
``SEED + 1``, ...) so that the sample arrays stay small, and writes the
pooled distribution to ``OUT`` as ``step,probability`` rows plus a
``residual`` row.  The harness checks it against an exact oracle.
"""
import sys

from hadm import prognostics
from hadm.rover import builtin_scenario, load_scenario_file

from degradation import RHO, SAMPLES

CHUNK_CELLS = 10**6


def load_spec(ref: str):
    """A scenario named as on the ``hadm`` command line."""
    if ref.startswith("builtin:"):
        return builtin_scenario(int(ref.split(":", 1)[1]))
    return load_scenario_file(ref)


def main(argv) -> int:
    scenario, seed, out = argv
    seed = int(seed)
    deg = load_spec(scenario).degradation
    model = prognostics.DegradationModel(
        rate_nominal=deg.rate_nominal, p_high=deg.p_high,
        epsilon=deg.epsilon, s0=deg.s0,
    )
    req = prognostics.PrognosisRequest(rho_p=float(RHO), horizon=deg.horizon)
    threshold = prognostics.EventThreshold(h_min=deg.h_min)
    chunk = max(1, CHUNK_CELLS // deg.horizon)
    counts, alive = {}, 0
    for i, start in enumerate(range(0, SAMPLES, chunk)):
        n = min(chunk, SAMPLES - start)
        dist, residual = prognostics.monte_carlo_eol(
            model, req, threshold, n_samples=n, seed=seed + i
        )
        for step, p in dist:
            counts[step] = counts.get(step, 0) + round(p * n)
        alive += round(residual * n)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("step,probability\n")
        for step in sorted(counts):
            fh.write(f"{step},{counts[step] / SAMPLES!r}\n")
        fh.write(f"residual,{alive / SAMPLES!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
