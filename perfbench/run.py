"""CP-ALS benchmark: whole driver calls on four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload dense4 --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer split from a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it tags the result with a host
fingerprint.  Nothing is written to disk.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_IMPORTS = "import repro.cp.als, repro.cp.parallel_als, repro.tensor.sparse, repro.sketch"
SETUP_REPEATS = 3
#: The measured seconds are split into this many interleaved rounds, each
#: giving every slot an equal share of time: cheap slots get many calls.
ROUNDS = 3
#: Sweep times are reported at the host's nominal speed: each run's median is
#: scaled by this / the run's median HostProbe time.  It is the probe's median
#: on the 2-vCPU host the benchmark was written on (26-28 ms when the host is
#: quiet, 30-37 ms when it is busy).
CALIBRATION_NOMINAL_S = 0.03
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Keep BLAS thread counts within ``nproc``; must run before NumPy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def host_fingerprint(nproc: int) -> dict:
    import numpy as np

    try:
        l3 = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        l3 = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "l3_bytes": l3,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repro_threads": os.environ.get("REPRO_THREADS", "default"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def measure_setup() -> float:
    """Median wall seconds for a fresh interpreter to import the public drivers."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostProbe:
    """Fixed work that runs none of the program's code, timed between slots.

    The speed of a shared host drifts by 10-30 % over minutes, and every slot
    of a run shifts with it, so each run's sweep times are divided by this
    probe's median time.  The probe mixes an interpreter loop (like the
    simulated-parallel bookkeeping), a small GEMM (BLAS) and a sum over an
    array larger than the last-level cache (like the memory-bound
    contractions).  A change to the program cannot change the probe's work.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((256, 256))
        self.stream = rng.standard_normal(1 << 24)  # 128 MiB
        self.times: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(16):
            self.matrix @ self.matrix
        self.stream.sum()
        self.times.append(time.perf_counter() - start)


class Runner:
    """Makes every driver call of a run and gates each one."""

    def __init__(self, problem) -> None:
        from gates import parallel_lower_bound

        self.problem = problem
        self.attempted = 0
        self.draws = itertools.count()
        self.failures: list[str] = []
        self.bound = parallel_lower_bound(problem) if problem.n_procs else None
        self.reference = self._attempt("reference", problem.reference)[0]

    def _attempt(self, slot, fn):
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # a raising call is a failed call, not a crash
            self.failures.append(f"{slot}: raised {type(exc).__name__}: {exc}")
            return None, 0.0
        return outcome, time.perf_counter() - start

    def call(self, slot, wrap=None, draw=None):
        """One gated call: ``(outcome, seconds, exact_fit)``; outcome None if it failed.

        ``wrap`` decorates the zero-argument call; ``draw`` numbers its
        sampling stream (the next unused number by default).
        """
        from gates import check

        draw = next(self.draws) if draw is None else draw
        fn = functools.partial(self.problem.calls[slot], draw)
        outcome, elapsed = self._attempt(slot, wrap(fn) if wrap else fn)
        if outcome is None:
            return None, elapsed, float("nan")
        fit, failures = check(self.problem, slot, outcome, self.reference, self.bound)
        self.failures.extend(failures)
        return (None if failures else outcome), elapsed, fit

    def result(self, metrics: dict) -> dict:
        failed = len(self.failures)
        return {"correct": failed == 0, "attempted": self.attempted, "failed": failed,
                "metrics": metrics}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _with_peak_alloc(call, peaks: dict, key: str):
    """``call`` with its peak traced allocation (MiB) stored in ``peaks[key]``."""

    def run():
        tracemalloc.start()
        try:
            outcome = call()
            peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        return outcome

    return run


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, float]:
    """End-to-end metrics of a run, and the run's median HostProbe seconds."""
    from workloads import EXACT_SLOTS, SLOTS, SWEEPS

    for slot in SLOTS:  # warm-up: fills the einsum path cache and workspace pool
        runner.call(slot)
    sweep_s = {slot: [] for slot in SLOTS}
    fits = {slot: [] for slot in SLOTS}
    probe = HostProbe()
    probe()
    share = seconds / (ROUNDS * len(SLOTS))
    start = time.perf_counter()
    while True:
        for slot in SLOTS:
            slot_start = time.perf_counter()
            while True:
                outcome, elapsed, fit = runner.call(slot)
                if outcome is not None:
                    sweep_s[slot].append(elapsed / SWEEPS)
                    fits[slot].append(fit)
                if time.perf_counter() - slot_start >= share:
                    break
            probe()
        if time.perf_counter() - start >= seconds:
            break
    peak_mb = {}
    for slot in EXACT_SLOTS:  # a pass of its own: tracemalloc slows allocation
        outcome, _, _ = runner.call(slot, lambda call: _with_peak_alloc(call, peak_mb, slot))
        if outcome is None:
            peak_mb[slot] = None

    def median(values):
        return statistics.median(values) if values else None

    probe_s = statistics.median(probe.times)
    metrics = {}
    for slot in SLOTS:
        wall = median(sweep_s[slot])
        metrics[f"sweep_s.{slot}"] = _metric(
            None if wall is None else wall * CALIBRATION_NOMINAL_S / probe_s, "s")
    for slot in SLOTS:
        if slot != "dimtree":  # exact kernels share the default's fit (gated)
            metrics[f"fit.{slot}"] = _metric(median(fits[slot]), "fit")
    for slot in EXACT_SLOTS:
        metrics[f"peak_alloc_mb.{slot}"] = _metric(peak_mb[slot], "MiB")
    return metrics, probe_s


def run_traced(runner: Runner, seconds: float) -> dict:
    from gates import identical
    from layers import LayerProbe, layer_metrics
    from workloads import SLOTS

    problem = runner.problem
    for slot in SLOTS:
        runner.call(slot)
    probe = LayerProbe(problem)
    untraced_s = traced_s = 0.0
    rounds = 0
    last = {}
    start = time.perf_counter()
    while True:
        for slot in SLOTS:
            draw = next(runner.draws)
            plain, plain_s, _ = runner.call(slot, draw=draw)
            traced, trace_s, _ = runner.call(slot, probe.traced, draw=draw)
            if plain is None or traced is None:
                continue
            if not identical(plain, traced):
                runner.failures.append(f"{slot}: traced call differs from untraced call")
                continue
            untraced_s += plain_s
            traced_s += trace_s
            last[slot] = plain
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return layer_metrics(probe, rounds, last, runner.bound,
                         traced_s / untraced_s - 1.0 if untraced_s else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setup_s = None if args.trace else measure_setup()
    runner = Runner(WORKLOADS[args.workload].build(args.seed))
    probe_s = None
    if args.trace:
        metrics = run_traced(runner, args.seconds)
    else:
        e2e, probe_s = run_untraced(runner, args.seconds)
        metrics = {"setup_s": _metric(setup_s, "s"), **e2e}
    for failure in runner.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"host": host_fingerprint(nproc), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "host_probe_s": probe_s}))
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
