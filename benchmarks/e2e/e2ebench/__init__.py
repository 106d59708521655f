"""The whole-scenario benchmark of the RAIN reproduction.

``run.py`` beside this package is the one command; the modules are:

- :mod:`e2ebench.spec` — metric names, units, bounds and the layer → file map;
- :mod:`e2ebench.workloads` — the five workloads and their output checks;
- :mod:`e2ebench.collector` — the layer collector behind the traced pass;
- :mod:`e2ebench.stats` — medians, the tail-percentile rule, the bound checker;
- :mod:`e2ebench.child` — one repeat, run in a fresh interpreter;
- :mod:`e2ebench.suite` — spawning repeats, aggregation, printing, selfcheck.

Everything the benchmark measures goes through ``repro``'s public API;
nothing under ``src/`` is edited or patched.
"""
