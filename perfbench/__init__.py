"""Benchmark harness for the xubirkhoff package.

``python3 perfbench/run.py`` runs the workloads defined in
``perfbench.workloads`` against the package in ``src/``, each in a fresh
interpreter, and prints their end-to-end metrics (``--trace 0``) or the
per-layer metrics of an outside-in traced run (``--trace 1``).
"""
