"""Run one benchmark process with span recording.

    python3 bench/traced.py OUT cli HADM_ARGS...
    python3 bench/traced.py OUT mc EOL_MC_ARGS...

Times ``import hadm``, installs the wrappers of ``tracing.py`` and runs
the ``hadm`` command line (``cli``) or the Monte Carlo cross-check
(``mc``, see ``eol_mc.py``) as the untraced run would.  At exit it
writes the spans to ``OUT.spans.json`` and their summary to
``OUT.summary.json``.
"""
import json
import sys
import time

import tracing


def main(argv) -> int:
    out, mode, *args = argv
    rec = tracing.Recorder()
    start = time.perf_counter()
    import hadm.cli
    rec.add("import.hadm", start, time.perf_counter())
    numpy_loaded = int("numpy" in sys.modules)
    missing = tracing.install(rec)
    if mode == "cli":
        code = rec.call("cli.main", hadm.cli.main, args)
    else:
        import eol_mc
        code = rec.call("bench.mc", eol_mc.main, args)
    summary = tracing.summary(rec.spans)
    summary.update(numpy_loaded=numpy_loaded, missing_boundaries=missing)
    with open(out + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    with open(out + ".spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "episode", "name", "start", "end"],
                   "spans": [s[:tracing.INFO] for s in rec.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
