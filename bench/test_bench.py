"""Self-checks of the benchmark's ESS estimator and span tracer.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
from pathlib import Path

import numpy as np

from ess import ess, ess_per_coordinate
from spans import Tracer, layer_self_times

BENCH = Path(__file__).resolve().parent


def ar1(n, rho, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


def test_ar1_ess_near_theory():
    n, rho = 200_000, 0.9
    expected = n * (1.0 - rho) / (1.0 + rho)
    for seed in range(3):
        assert abs(ess(ar1(n, rho, seed)) / expected - 1.0) < 0.1


def test_independent_draws_ess_near_n():
    x = np.random.default_rng(0).standard_normal(50_000)
    assert abs(ess(x) / x.size - 1.0) < 0.1


def test_pooled_chains_add_up():
    chains = [ar1(50_000, 0.9, seed) for seed in range(4)]
    single = sum(ess(c) for c in chains)
    assert abs(ess(np.stack(chains)) / single - 1.0) < 0.15


def test_nearly_stuck_chain_is_finite_and_nonnegative():
    # a Metropolis chain that accepted a handful of moves in 40k draws
    rng = np.random.default_rng(3)
    y = np.zeros((40_000, 20))
    state = rng.uniform(-1.0, 1.0, 20)
    for t in range(y.shape[0]):
        if rng.random() < 2e-4:
            state = state + 0.07 * rng.standard_normal(20)
        y[t] = state
    per_coord = ess_per_coordinate([y])
    assert np.isfinite(per_coord).all() and (per_coord >= 0.0).all()


def test_constant_and_degenerate_chains_give_zero():
    assert ess(np.ones(1000)) == 0.0
    assert ess(np.ones(3)) == 0.0
    assert ess(np.array([0.0, np.nan, 1.0, 2.0, 3.0])) == 0.0


class Box:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


def test_tracer_spans_aggregates_and_restore():
    tracer = Tracer()
    original = Box.inner
    tracer.wrap(Box, "outer", "box.outer", note=lambda a, r: {"result": r})
    tracer.wrap(Box, "inner", "leaf.inner", hot=True)
    with tracer.operation("op-1"):
        assert Box().outer(5) == 10
    tracer.restore()
    assert Box.inner is original
    (span,) = tracer.op_spans("op-1")
    assert span["name"] == "box.outer" and span["parent"] is None
    assert span["attrs"] == {"result": 10}
    calls, total_ns, self_ns = span["agg"]["leaf.inner"]
    assert calls == 5 and 0 <= self_ns <= total_ns
    assert 0.0 <= span["self"] <= span["end"] - span["start"]
    selfs = layer_self_times([span])
    assert math.isclose(selfs["box"] + selfs["leaf"], span["end"] - span["start"],
                        rel_tol=1e-6, abs_tol=1e-9)


def test_benchmark_json_lists_the_layer_catalogue():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    catalogue = json.loads((BENCH / "layers.json").read_text())
    assert doc["per_layer"] == [
        {k: row[k] for k in ("name", "unit", "better")} for row in catalogue
    ]
