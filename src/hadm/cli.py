"""Command-line surface.

Subcommands:

* ``run``: execute one episode of a scenario under a named strategy.
* ``compare``: analytic and Monte Carlo comparison of strategies.
* ``predict``: prognostics sweep for a degradation scenario.
* ``solve``: solve a compiled scenario and export policy/value tables.

All randomness funnels through the --seed flag; identical invocations
produce byte-identical artifacts.  Exit codes: 0 success, 2 bad
configuration, 3 resource cap exceeded, 4 model inconsistency.
"""
from __future__ import annotations

import argparse
import importlib
import io
import math
import sys

from .errors import (
    HadmError,
    InvalidConfigError,
    ModelError,
    ResourceLimitError,
    UnconstrainedSigmaError,
)

# The module of each name the commands call.  A name is imported when it
# is first read, as an attribute of this module (PEP 562) or by a
# command's ``_need``, and is then kept in this module's globals: a
# command loads only its own modules, and a name replaced from outside
# (a tracer's wrapper, a test's stub) stays replaced.
_HOMES = {
    "run_loop": ".loop",
    "extract_policy": ".model",
    "value_iterate": ".model",
    "DegradationModel": ".prognostics",
    "EventThreshold": ".prognostics",
    "PrognosisRequest": ".prognostics",
    "closed_forms": ".prognostics",
    "max_prediction_health": ".prognostics",
    "prognose": ".prognostics",
    "builtin_scenario": ".rover.builtins",
    "compile_scenario": ".rover.compiler",
    "Plant": ".rover.plant",
    "resolve_overrides": ".rover.plant",
    "sample_assignments": ".rover.plant",
    "load_scenario_file": ".rover.spec",
    "STRATEGIES": ".strategies",
    "analytic_expectation": ".strategies",
    "applicable_strategies": ".strategies",
    "applicable_strategy": ".strategies",
    "episode_total": ".strategies",
    "make_provider": ".strategies",
}

# ``sorted(STRATEGIES)``, kept here so that the parser loads no strategy.
STRATEGY_NAMES = ["fixed-plan", "hadm", "phm-commit", "shm-baseline"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home, __package__), name)
    globals()[name] = value
    return value


def _need(*names):
    """Import each of ``names`` that this module does not hold yet."""
    held = globals()
    for name in names:
        if name not in held:
            __getattr__(name)


def _load_spec(arg: str):
    _need("builtin_scenario", "load_scenario_file")
    if arg.startswith("builtin:") or arg.isdigit():
        number = arg.split(":", 1)[-1]
        try:
            n = int(number)
        except ValueError:
            raise InvalidConfigError(
                f"no built-in scenario {number!r}; choose 1-4"
            ) from None
        return builtin_scenario(n)
    return load_scenario_file(arg)


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InvalidConfigError(f"--set expects var=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")


def _require_rover(spec):
    if spec.kind != "rover":
        raise InvalidConfigError(
            f"scenario {spec.name!r} is not a rover scenario; use 'predict'"
        )


def cmd_run(args) -> int:
    _need("compile_scenario", "applicable_strategy", "Plant", "make_provider",
          "run_loop")
    overrides = _parse_overrides(args.set)  # needs no scenario
    spec = _load_spec(args.scenario)
    _require_rover(spec)
    compiled = compile_scenario(spec, max_states=args.max_states)
    # Checked where ``compare`` checks it: after compile, before --set
    # is resolved against the scenario's variables.
    applicable_strategy(args.strategy, spec)
    plant = Plant(compiled, seed=args.seed, overrides=overrides)
    provider = make_provider(args.strategy, compiled, seed=args.seed)
    trace = run_loop(plant, compiled.problem, provider)

    if args.format == "jsonl":
        buf = io.StringIO()
        trace.write_jsonl(buf)
        artifact = buf.getvalue()
    elif args.format == "csv":
        buf = io.StringIO()
        trace.write_csv(buf)
        artifact = buf.getvalue()
    else:
        artifact = trace.to_table() + "\n"
    _emit(artifact, args.out)

    final = compiled.states[plant.state]
    summary = [
        f"scenario: {spec.name}",
        f"strategy: {args.strategy}",
        f"seed: {args.seed}",
        f"total reward: {trace.total:g}",
    ]
    if final.battery_wh is not None:
        summary.append(f"final battery: {final.battery_wh:g} Wh")
    summary.append(f"final state: {compiled.problem.state_labels[plant.state]}")
    summary.append(f"terminal: {final.status if final.status != 'ok' else 'no'}")
    print("\n".join(summary))
    return 0


def cmd_compare(args) -> int:
    _need("STRATEGIES", "compile_scenario", "applicable_strategies",
          "applicable_strategy", "analytic_expectation", "resolve_overrides",
          "sample_assignments", "episode_total")
    # The arguments that need no scenario are checked before it compiles.
    names = None
    if args.strategies:
        names = [s.strip() for s in args.strategies.split(",") if s.strip()]
        if not names:
            raise InvalidConfigError(
                f"--strategies {args.strategies!r} names no strategy"
            )
        for name in names:
            if name not in STRATEGIES:
                raise InvalidConfigError(f"unknown strategy {name!r}")
    if args.rollouts < 1:
        raise InvalidConfigError("--rollouts must be at least 1")
    overrides = _parse_overrides(args.set)
    spec = _load_spec(args.scenario)
    _require_rover(spec)
    compiled = compile_scenario(spec, max_states=args.max_states)
    if names is None:
        names = applicable_strategies(spec)

    import statistics  # only the standard error needs it; loading it costs each command

    rows = []
    truths = None  # each rollout's ground truth, shared by every strategy
    for name in names:
        applicable_strategy(name, spec)
        analytic = analytic_expectation(compiled, name, overrides=overrides)
        if truths is None:
            # Resolved after the first strategy's checks, which report first.
            pinned = resolve_overrides(compiled, overrides)
            distinct = {}  # equal ground truths share one mapping
            truths = []
            for i in range(args.rollouts):
                truth = sample_assignments(compiled, args.seed + i, pinned)
                truths.append(distinct.setdefault(tuple(truth.values()), truth))
        totals = [episode_total(compiled, name, args.seed + i, truth)
                  for i, truth in enumerate(truths)]
        mean = sum(totals) / len(totals)
        try:
            se = (
                statistics.stdev(totals) / math.sqrt(len(totals))
                if len(totals) > 1
                else 0.0
            )
        except OverflowError:  # each total is finite, their spread is not
            se = math.inf
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise ModelError(
                f"reward overflow: strategy {name!r} has mean {mean!r} and "
                f"standard error {se!r} over {len(totals)} rollouts"
            )
        rows.append((name, analytic, mean, se))

    energy = spec.reward.step_energy
    if args.format == "csv":
        lines = ["strategy,analytic,mean,se,rollouts"]
        if energy:
            lines[0] = "strategy,analytic,mean,se,rollouts,analytic_energy_wh"
        for name, analytic, mean, se in rows:
            line = f"{name},{analytic!r},{mean!r},{se!r},{args.rollouts}"
            if energy:
                line += f",{-analytic!r}"
            lines.append(line)
        artifact = "\n".join(lines) + "\n"
    else:
        header = f"{'strategy':<14s} {'analytic':>12s} {'mean':>12s} {'se':>10s}"
        if energy:
            header += f" {'energy Wh':>10s}"
        lines = [header]
        for name, analytic, mean, se in rows:
            line = f"{name:<14s} {analytic:>12g} {mean:>12g} {se:>10.4g}"
            if energy:
                line += f" {-analytic:>10g}"
            lines.append(line)
        lines.append(f"rollouts per strategy: {args.rollouts}, base seed: {args.seed}")
        artifact = "\n".join(lines) + "\n"
    _emit(artifact, args.out)
    return 0


def cmd_predict(args) -> int:
    _need("DegradationModel", "EventThreshold", "PrognosisRequest",
          "closed_forms", "max_prediction_health", "prognose")
    spec = _load_spec(args.scenario)
    deg = spec.degradation
    if deg is None:
        raise InvalidConfigError(
            f"scenario {spec.name!r} declares no degradation model"
        )
    model = DegradationModel(
        rate_nominal=deg.rate_nominal,
        p_high=deg.p_high,
        epsilon=deg.epsilon,
        s0=deg.s0,
    )
    threshold = EventThreshold(h_min=deg.h_min)
    rhos = args.rho if args.rho else [1.0, 0.25]
    # Every check runs before the first write, so an error writes nothing.
    dist_req = PrognosisRequest(rho_p=args.dist_rho, horizon=deg.horizon)

    lines = ["rho_p,t_p,eol_det,eol_stoch,sigma,rul"]
    for rho_p in rhos:
        t_p = (1.0 - rho_p) * model.s0 / model.rate_nominal
        req = PrognosisRequest(rho_p=rho_p, horizon=deg.horizon)
        res = closed_forms(model, req, threshold)
        lines.append(
            f"{rho_p!r},{t_p!r},{res.eol_det!r},{res.eol_stoch!r},"
            f"{res.sigma!r},{res.rul!r}"
        )
    if deg.sigma_max is not None:
        try:
            rho_star = max_prediction_health(model, deg.sigma_max)
            lines.append(f"rho_star,,,,{rho_star!r},")
        except UnconstrainedSigmaError:
            lines.append("rho_star,,,,unconstrained,")
    dist = prognose(model, dist_req, threshold) if args.dist_out else None
    _emit("\n".join(lines) + "\n", args.out)
    if dist is not None:
        with open(args.dist_out, "w", encoding="utf-8", newline="") as fh:
            dist.write_csv(fh)
    return 0


def cmd_solve(args) -> int:
    _need("compile_scenario", "value_iterate", "extract_policy")
    spec = _load_spec(args.scenario)
    _require_rover(spec)
    compiled = compile_scenario(spec, max_states=args.max_states)
    problem = compiled.problem
    table = value_iterate(problem)
    policy = extract_policy(problem, table)
    root = compiled.initial_state
    print(f"scenario: {spec.name}")
    print(f"states: {problem.n_states}")
    print(f"root value: {table[root]:g}")
    print(f"root action: {problem.action_labels[policy[root]]}")
    if args.value_out:
        with open(args.value_out, "w", encoding="utf-8", newline="") as fh:
            table.write_csv(problem, fh)
    if args.policy_out:
        with open(args.policy_out, "w", encoding="utf-8", newline="") as fh:
            policy.write_csv(problem, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadm",
        description="Health-aware decision making: scenario runner and solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--seed": {"type": int, "default": 0},
        "--max-states": {"type": int, "default": 10**6},
        "--out": {"default": None, "help": "artifact output path"},
    }

    def common(p, *names):
        """``--scenario`` plus those of ``flags`` the subcommand reads."""
        p.add_argument("--scenario", required=True,
                       help="builtin:N (1-4) or a scenario JSON file path")
        for name in names:
            p.add_argument(name, **flags[name])

    p_run = sub.add_parser("run", help="execute one episode")
    common(p_run, "--seed", "--max-states", "--out")
    p_run.add_argument("--strategy", default="hadm", choices=STRATEGY_NAMES)
    p_run.add_argument("--format", default="table",
                       choices=["table", "csv", "jsonl"])
    p_run.add_argument("--set", action="append", metavar="VAR=VALUE",
                       help="pin a ground-truth variable (repeatable)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare strategies")
    common(p_cmp, "--seed", "--max-states", "--out")
    p_cmp.add_argument("--strategies", default=None,
                       help="comma-separated; default: all applicable")
    p_cmp.add_argument("--rollouts", type=int, default=1000)
    p_cmp.add_argument("--format", default="table", choices=["table", "csv"])
    p_cmp.add_argument("--set", action="append", metavar="VAR=VALUE")
    p_cmp.set_defaults(func=cmd_compare)

    p_pre = sub.add_parser("predict", help="prognostics sweep")
    common(p_pre, "--out")
    p_pre.add_argument("--rho", type=float, action="append",
                       help="prediction health fraction (repeatable)")
    p_pre.add_argument("--dist-out", default=None,
                       help="write the event-time distribution CSV here")
    p_pre.add_argument("--dist-rho", type=float, default=1.0)
    p_pre.set_defaults(func=cmd_predict)

    p_sol = sub.add_parser("solve", help="solve a scenario")
    common(p_sol, "--max-states")
    p_sol.add_argument("--policy-out", default=None)
    p_sol.add_argument("--value-out", default=None)
    p_sol.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, UnconstrainedSigmaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HadmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
