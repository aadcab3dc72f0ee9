"""Empty module: the cache-blocked dense MTTKRP it held has been removed.

The einsum kernel of :mod:`repro.core.kernels` is the default dense per-call
MTTKRP; the communication-optimal blocked schedule of Algorithm 2 runs as a
counted program in :mod:`repro.sequential.blocked`.  This file holds no code
and is kept importable only because the benchmark harness
(``perfbench/layers.py``) still imports ``repro.core.blocked_mttkrp`` by name.
Nothing in the package, its tests, benchmarks or examples imports it.
"""
