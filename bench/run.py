"""The hadm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hadm`` must be there).
Builds the workload's inputs from the seed (``workloads.py``), then:

* ``--trace 0``: runs the workload's commands one process at a time, a
  closed loop with one client, cycling through them for ``--seconds``
  seconds of command wall time, and measures set-up in fresh
  interpreters (``setup_probe.py``) between the first cycles.  Each
  command's wall time is the median of its runs; an end-to-end metric
  sums those medians over the commands of its kind.
* ``--trace 1``: probes set-up once for the sizes, then alternates an
  untraced cycle with a traced one (``traced.py``) and reports per-layer
  metrics, the medians over traced cycles.

Every output is checked (``workloads.py``); the first run of a command
is checked against the oracles, and later runs, traced ones included,
must reproduce its artifacts byte for byte.  The last line of standard
output is the JSON result; a fuller record, with artifact digests,
machine information and sizes, goes to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
COMMAND_TIMEOUT_S = 150

KIND_METRIC = {"compare": "compare_s", "solve": "solve_s", "run": "run_s",
               "predict": "predict_s", "mc": "eol_mc_s"}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float  # user plus system time
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv, log: Path) -> Proc:
    """Run one process to completion; wall time and its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out_path.read_text("utf-8", "replace"),
                err_path.read_text("utf-8", "replace"))


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """Runs a workload's processes and keeps the operation tally."""

    def __init__(self, wl: workloads.Workload, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        self.ops = 0
        self.failures = []
        self.digests = {}  # command -> {artifact: sha256} of its first run
        self.artifact_bytes = {}  # command -> total artifact size

    def tally(self, label: str, ok: bool, detail=None):
        self.ops += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def probe(self, index: int) -> dict:
        log = self.workdir / f"probe{index}"
        proc = run_process(
            [sys.executable, str(BENCH / "setup_probe.py"), *self.wl.setup_refs], log)
        self.tally("setup probe exit", proc.code == 0, proc.stderr[-400:])
        if proc.code != 0:
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        if index == 0:
            for ref, want in self.wl.expected_sizes.items():
                got = result["sizes"].get(ref, {})
                for key, value in want.items():
                    self.tally(f"size {ref} {key}", got.get(key) == value,
                               f"{got.get(key)} != {value}")
        return result

    def execute(self, cmd: workloads.Command, tag: str, trace_out: Path = None):
        """Run ``cmd`` and check its outputs; returns (Proc, summary or None)."""
        out_dir = self.workdir / tag / _slug(cmd.name)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in cmd.artifacts:
            (out_dir / name).unlink(missing_ok=True)
        if trace_out is not None:
            prog = [sys.executable, str(BENCH / "traced.py"), str(trace_out),
                    "mc" if cmd.kind == "mc" else "cli"]
        elif cmd.kind == "mc":
            prog = [sys.executable, str(BENCH / "eol_mc.py")]
        else:
            prog = [sys.executable, "-m", "hadm.cli"]
        proc = run_process(prog + cmd.argv(out_dir), out_dir / "process")
        self.tally(f"{cmd.name} exit code", proc.code == 0,
                   f"{proc.code}: {proc.stderr[-400:]}")
        if proc.code != 0:
            return proc, None
        files = {}
        for name in cmd.artifacts:
            path = out_dir / name
            files[name] = path.read_bytes() if path.is_file() else b""
        digests = {name: _sha256(data) for name, data in files.items()}
        digests["stdout"] = _sha256(proc.stdout.encode("utf-8"))
        first = self.digests.get(cmd.name)
        if first is None:
            self.digests[cmd.name] = digests
            self.artifact_bytes[cmd.name] = sum(len(d) for d in files.values())
            try:
                results = cmd.check(proc.stdout, files)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                results = [("output parses", False, repr(exc))]
            for label, ok, detail in results:
                self.tally(f"{cmd.name} {label}", ok, detail)
        else:
            what = "traced" if trace_out is not None else "repeated"
            self.tally(f"{cmd.name} {what} run byte-identical", digests == first,
                       digests)
        summary = None
        if trace_out is not None:
            with open(str(trace_out) + ".summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
            self.tally(f"{cmd.name} all boundaries traced",
                       not summary["missing_boundaries"],
                       summary["missing_boundaries"])
        return proc, summary


def measure(bench: Bench, seconds: float):
    """End-to-end metrics: timed command cycles, with the set-up probes
    spread over the run (one before each of the first cycles).

    After the first cycle a command runs only if its previous run says it
    still fits in ``seconds``; cheaper commands go on after a dearer one
    has stopped, so that they gather more samples.
    """
    probes = []
    wall = {cmd.name: [] for cmd in bench.wl.commands}
    cpu = {cmd.name: [] for cmd in bench.wl.commands}
    rss = []
    spent = 0.0  # command wall time so far; probes and checks excluded
    cycles = 0
    while True:
        if len(probes) < SETUP_PROBES:
            probes.append(bench.probe(len(probes)))
        ran = False
        for cmd in bench.wl.commands:
            if cycles and spent + wall[cmd.name][-1] > seconds:
                continue
            proc, _ = bench.execute(cmd, "untraced")
            wall[cmd.name].append(proc.wall_s)
            cpu[cmd.name].append(proc.cpu_s)
            rss.append(proc.rss_mb)
            spent += proc.wall_s
            ran = True
        if not ran:
            break
        cycles += 1
    while len(probes) < SETUP_PROBES:
        probes.append(bench.probe(len(probes)))
    probes = [p for p in probes if p is not None]
    metrics = dict.fromkeys(KIND_METRIC.values(), 0.0)
    for cmd in bench.wl.commands:
        metrics[KIND_METRIC[cmd.kind]] += statistics.median(wall[cmd.name])
    metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes)
                          if probes else 0.0)
    metrics["peak_rss_mb"] = max(rss)
    detail = {"command_wall_s": wall, "command_cpu_s": cpu,
              "setup_probes": probes, "cycles": cycles}
    return metrics, detail, probes[0]["sizes"] if probes else {}


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(bench: Bench, summaries: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced cycle (command -> span summary)."""
    def incl(name):
        return sum(s["names"].get(name, {}).get("incl_s", 0.0)
                   for s in summaries.values())

    def count(name):
        return sum(s["names"].get(name, {}).get("count", 0)
                   for s in summaries.values())

    def counter(name):
        return sum(s["counters"][name] for s in summaries.values())

    cli = [c.name for c in bench.wl.commands if c.kind != "mc"]
    m = {
        "import.hadm_s": statistics.median(
            s["names"]["import.hadm"]["incl_s"] for s in summaries.values()),
        "import.numpy_loaded": max(summaries[c]["numpy_loaded"] for c in cli),
        "spec.load_s": incl("spec.load"),
        "compiler.compile_s": incl("compiler.compile"),
        "compiler.states": counter("states"),
        "compiler.transitions": counter("transitions"),
        "model.problem_validate_s": incl("model.problem_validate"),
        "model.obs_rows": counter("obs_rows"),
        "model.vi_s": incl("model.vi"),
        "model.vi_sweeps": counter("vi_sweeps"),
        "model.vi_calls": count("model.vi"),
        "model.extract_s": incl("model.extract"),
        "cli.artifact_write_s": incl("cli.artifact_write"),
        "cli.artifact_bytes": sum(bench.artifact_bytes.get(c, 0) for c in cli),
        "strategies.provider_init_s": incl("strategies.provider_init"),
        "strategies.provider_inits": count("strategies.provider_init"),
        "strategies.analytic_s": incl("strategies.analytic"),
        "strategies.analytic_episodes": counter("analytic_episodes"),
        "model.belief_update_s": incl("model.belief_update"),
        "model.belief_updates": count("model.belief_update"),
        "loop.steps": counter("steps"),
        "loop.episodes": count("loop.episode"),
        "plant.init_s": incl("plant.init"),
        "plant.step_s": incl("plant.step"),
        "shm.route_choice_s": incl("shm.route_choice"),
        "shm.route_choice_calls": count("shm.route_choice"),
        "prognostics.eol_dp_s": incl("prognostics.eol_dp"),
        "prognostics.eol_dp_calls": count("prognostics.eol_dp"),
        "prognostics.mc_s": incl("prognostics.mc"),
        "prognostics.mc_bytes": max(
            s["counters"]["mc_peak_bytes"] for s in summaries.values()),
        "trace.overhead_s": overhead_s,
    }
    compile_s, vi_s, mc_s = m["compiler.compile_s"], m["model.vi_s"], m["prognostics.mc_s"]
    m["compiler.states_per_s"] = m["compiler.states"] / compile_s if compile_s else 0.0
    m["model.state_sweeps_per_s"] = counter("state_sweeps") / vi_s if vi_s else 0.0
    m["prognostics.mc_samples_per_s"] = counter("mc_samples") / mc_s if mc_s else 0.0
    episodes = m["strategies.analytic_episodes"]
    m["strategies.analytic_distinct_ratio"] = (
        counter("analytic_distinct") / episodes if episodes else 0.0)
    decide_us = [d for s in summaries.values() for d in s["decide_us"]]
    m["loop.decide_p50_us"] = _percentile(decide_us, 0.50)
    m["loop.decide_p99_us"] = _percentile(decide_us, 0.99)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["layers"][layer] for s in summaries.values())
    return m


def trace(bench: Bench, seconds: float):
    """Per-layer metrics: untraced and traced cycles, alternating."""
    untraced = {cmd.name: [] for cmd in bench.wl.commands}
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for cmd in bench.wl.commands:
            proc, _ = bench.execute(cmd, "untraced")
            untraced[cmd.name].append(proc.wall_s)
        summaries, walls = {}, {}
        spans_dir = bench.workdir / "spans"
        spans_dir.mkdir(exist_ok=True)
        for cmd in bench.wl.commands:
            out = spans_dir / _slug(cmd.name)
            proc, summary = bench.execute(cmd, "traced", trace_out=out)
            if summary is not None:
                summaries[cmd.name] = summary
                walls[cmd.name] = proc.wall_s
        cycles.append((summaries, walls))
        pair_s = time.perf_counter() - began
        if time.perf_counter() - start + pair_s > seconds:
            break
    per_cycle = []
    for summaries, walls in cycles:
        if len(summaries) != len(bench.wl.commands):
            continue
        overhead = sum(walls[c] - statistics.median(untraced[c]) for c in walls)
        per_cycle.append(layer_metrics(bench, summaries, overhead))
    if not per_cycle:
        return {}, {"cycles": len(cycles)}
    metrics = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    return metrics, {"cycles": len(cycles), "per_cycle": per_cycle,
                     "untraced_wall_s": untraced}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version()}
    for pkg in ("numpy", "jsonschema"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hadm" / "cli.py").is_file():
        print(f"error: no hadm sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results_dir = ROOT / ".bench_results"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        bench = Bench(wl, workdir)
        if args.trace:
            probe = bench.probe(0)
            metrics, detail = trace(bench, args.seconds)
            sizes = probe["sizes"] if probe else {}
        else:
            metrics, detail, sizes = measure(bench, args.seconds)
        units = declared_units(args.trace)
        bench.tally("metrics declared in BENCHMARK.json",
                    set(metrics) == set(units),
                    {"undeclared": sorted(set(metrics) - set(units)),
                     "not computed": sorted(set(units) - set(metrics))})
        metrics = {k: v for k, v in metrics.items() if k in units}
        sizes = {Path(ref).name: size for ref, size in sizes.items()}
        rollouts = {c.name: c.rollouts for c in wl.commands if c.rollouts}
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "sizes": sizes,
            "rollouts": rollouts, "metrics": metrics, "detail": detail,
            "ops": bench.ops, "failed_ops": len(bench.failures),
            "failures": bench.failures, "digests": bench.digests,
        }
        results_dir.mkdir(exist_ok=True)
        if args.trace and (workdir / "spans").is_dir():
            spans_dir = results_dir / f"{tag}-spans"
            shutil.rmtree(spans_dir, ignore_errors=True)
            shutil.move(str(workdir / "spans"), str(spans_dir))
        (results_dir / f"{tag}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    m = record["machine"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"nproc {m['nproc']}, {m['cpu_model'] or 'unknown cpu'}, python "
          f"{m['python']}, numpy {m['numpy']}, jsonschema {m['jsonschema']}")
    for ref, size in sizes.items():
        print(f"size {ref}: " + ", ".join(f"{k} {v}" for k, v in size.items()))
    for name, n in rollouts.items():
        print(f"size {name}: rollouts {n}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"ops = {bench.ops} count")
    print(f"failed_ops = {len(bench.failures)} count")
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    for name, digests in sorted(bench.digests.items()):
        for artifact, digest in sorted(digests.items()):
            print(f"sha256 {name} {artifact} {digest}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.ops,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
