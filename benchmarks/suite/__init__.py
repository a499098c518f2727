"""The one benchmark of the auction service (see README.md beside this file).

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S
--trace 0|1`` is the contract entry point named in ``BENCHMARK.json``;
``PYTHONPATH=src python -m benchmarks.suite`` runs the whole set.
"""
