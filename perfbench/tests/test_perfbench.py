"""Tests of the benchmark harness itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from gates import reference_mttkrp
from workloads import (
    RANK,
    build_dense,
    build_parallel,
    build_sparse,
    low_rank_dense,
    sparse_low_rank,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_problems(seed=3):
    return [
        build_dense(seed, (7, 6, 5)),
        build_parallel(seed, (4, 4, 4, 4)),
        build_sparse(seed, 20, support=4),
    ]


def test_generators_are_deterministic_per_seed():
    a, fa = low_rank_dense(np.random.default_rng(5), (6, 5, 4), RANK)
    b, fb = low_rank_dense(np.random.default_rng(5), (6, 5, 4), RANK)
    c, _ = low_rank_dense(np.random.default_rng(6), (6, 5, 4), RANK)
    assert np.array_equal(a, b) and all(np.array_equal(x, y) for x, y in zip(fa, fb))
    assert not np.array_equal(a, c)
    s1 = sparse_low_rank(np.random.default_rng(5), 20, 3, RANK, 4)
    s2 = sparse_low_rank(np.random.default_rng(5), 20, 3, RANK, 4)
    s3 = sparse_low_rank(np.random.default_rng(6), 20, 3, RANK, 4)
    assert all(np.array_equal(x, y) for x, y in zip(s1[:2], s2[:2]))
    assert not np.array_equal(s1[1], s3[1])
    for p, q in zip(tiny_problems(), tiny_problems()):
        assert np.array_equal(p.dense, q.dense)


def test_sparse_generator_is_low_rank_on_its_support():
    coords, values, factors = sparse_low_rank(np.random.default_rng(1), 20, 3, RANK, 4,
                                              noise=0.0)
    model = np.einsum("ir,jr,kr->ijk", *factors)
    assert len(np.unique(coords, axis=0)) == len(coords)
    assert np.allclose(values, model[tuple(coords.T)])
    support = np.zeros(model.shape, dtype=bool)
    support[tuple(coords.T)] = True
    assert np.all(model[~support] == 0)


def test_reference_mttkrp_matches_unfolding_definition():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 5))
    factors = [rng.standard_normal((n, 2)) for n in x.shape]
    expected = np.einsum("ijk,jr,kr->ir", x, factors[1], factors[2])
    assert np.allclose(reference_mttkrp(x, factors, 0), expected)


def _declared(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("index", range(3))
def test_every_metric_is_declared_and_well_named(index):
    problem = tiny_problems()[index]
    untraced = run.Runner(problem)
    metrics, probe_s = run.run_untraced(untraced, seconds=0)
    e2e = {"setup_s": None, **metrics}
    traced = run.Runner(problem)
    layers = run.run_traced(traced, seconds=0)
    assert set(e2e) == _declared("end_to_end")
    assert set(layers) == _declared("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in list(e2e.items())[1:] + list(layers.items()):
        assert NAME.fullmatch(name)
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    # Every call passed its gate, and the traced calls were bitwise untraced ones.
    assert untraced.failures == [] and traced.failures == []
    assert all(e2e[f"sweep_s.{slot}"]["value"] > 0 for slot in ("default", "dimtree"))
    assert probe_s > 0


def test_perturbed_kernel_is_counted_as_failed():
    def off_by_a_little(dense, factors, mode):
        return 1.001 * reference_mttkrp(dense, factors, mode)

    problem = build_sparse(3, 20, support=4,
                           sparse_kernel=off_by_a_little)
    runner = run.Runner(problem)
    outcome, _, _ = runner.call("default")
    assert outcome is None
    result = runner.result({})
    assert result["failed"] >= 1 and result["correct"] is False
    assert result["attempted"] == 2  # the reference and the perturbed call


def test_raising_call_is_counted_not_propagated():
    problem = tiny_problems()[0]
    runner = run.Runner(problem)

    def boom():
        raise RuntimeError("kernel fell over")

    outcome, _, _ = runner.call("default", lambda call: boom)
    assert outcome is None and runner.result({})["failed"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workloads_match_the_spec():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
