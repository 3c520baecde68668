"""Set-up time of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py SCENARIO...

Times importing ``hadm``, loading and schema-checking every scenario
(``builtin:N`` or a file) and compiling the rover ones, then prints one
JSON object with the time and the compiled sizes.
"""
import time

_t0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

from hadm.rover import compile_scenario  # noqa: E402

from eol_mc import load_spec  # noqa: E402


def main(refs) -> int:
    specs = [load_spec(ref) for ref in refs]
    compiled = [compile_scenario(s) if s.kind == "rover" else None for s in specs]
    setup_s = time.perf_counter() - _t0
    sizes = {}
    for ref, spec, comp in zip(refs, specs, compiled):
        size = {}
        if comp is not None:
            p = comp.problem
            size.update(
                states=p.n_states,
                transitions=sum(len(row) for row in p.transitions.values()),
                random_variables=len(comp.rv_defs),
                ground_truths=math.prod(len(d) for d in comp.rv_defs.values()),
                horizon=p.horizon,
            )
        if spec.degradation is not None:
            size["prognosis_horizon"] = spec.degradation.horizon
        sizes[ref] = size
    print(json.dumps({"setup_s": setup_s, "sizes": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
