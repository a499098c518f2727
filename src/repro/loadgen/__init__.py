"""Seeded workload streams and the hostile-input fuzz campaign.

Two modules, imported directly by their users (nothing is re-exported):

* :mod:`repro.loadgen.workload` — deterministic XMark operation
  streams over the auction service's endpoints; the benchmark suite's
  ``serve-*`` workloads draw from them.
* :mod:`repro.loadgen.hostile` — ``python -m repro.loadgen.hostile``,
  the seeded fuzz campaign over the binding, parser and document
  channels (see ``docs/fuzz.md``).
"""
