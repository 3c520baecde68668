"""Health-aware decision making: system health management unified with
sequential decision making under uncertainty.

The package provides a tabular decision-problem substrate with exact
solvers, event-time prognostics for degrading components, the classical
separated health-management pipeline for comparison, a rover scenario
domain compiled into decision problems, and the operational loop that
executes policies against a simulated plant with a safety override
layer.

Each name is imported from the module that defines it (``hadm.model``,
``hadm.rover``, ...); the package itself exports none.
"""
