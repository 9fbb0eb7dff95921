import math

import numpy as np
import pytest

from brwre.errors import SupportBelowRetention
from brwre.measures import MeasureBlock, PointMeasure
from brwre.stats import (
    Ecdf,
    TestFunction,
    count_distribution_tv,
    ks_distance,
    laplace_estimate,
)


def test_ecdf_eval():
    e = Ecdf.from_samples([3.0, 1.0, 2.0])
    assert e.eval(0.5) == 0.0
    assert e.eval(1.0) == pytest.approx(1 / 3)
    assert e.eval(10.0) == 1.0


def test_ks_self_draw_dkw(rng):
    # samples drawn from the oracle itself stay within the DKW band w.h.p.
    n = 10_000
    samples = rng.random(n) ** -0.5  # Pareto(2)
    oracle = lambda x: max(0.0, 1.0 - x ** -2.0)
    e = Ecdf.from_samples(samples)
    assert ks_distance(e, oracle, np.linspace(1.0, 10.0, 200)) < 0.02


def test_ks_constant_samples_vs_step():
    e = Ecdf.from_samples([2.0] * 50)
    oracle = lambda x: 1.0 if x >= 2.0 else 0.0
    assert ks_distance(e, oracle, [0.5, 1.0, 3.0, 4.0]) == 0.0


def test_ks_empty_grid_rejected():
    e = Ecdf.from_samples([1.0])
    with pytest.raises(ValueError):
        ks_distance(e, lambda x: x, [])


def test_ks_self_comparison_zero():
    e = Ecdf.from_samples(np.arange(1, 101, dtype=float))
    assert ks_distance(e, lambda x: float(e.eval(x)), np.linspace(0, 120, 77)) == 0.0


def test_ks_invariant_under_monotone_transform(rng):
    samples = rng.random(2000) ** -0.5
    grid = np.linspace(1.0, 8.0, 50)
    oracle = lambda x: max(0.0, 1.0 - x ** -2.0)
    d1 = ks_distance(Ecdf.from_samples(samples), oracle, grid)
    d2 = ks_distance(
        Ecdf.from_samples(np.exp(samples)), lambda y: oracle(math.log(y)), np.exp(grid)
    )
    assert d1 == pytest.approx(d2, abs=1e-15)


def test_tv_examples(rng):
    assert count_distribution_tv([1, 2, 2, 5], [2, 2, 1, 5]) == 0.0
    assert count_distribution_tv([0, 0, 1], [3, 4]) == 1.0
    a = rng.poisson(1.0, 10_000)
    b = rng.poisson(1.0, 10_000)
    assert count_distribution_tv(a, b) < 0.03
    with pytest.raises(ValueError):
        count_distribution_tv([], [1])


def test_tv_overflow_bucket():
    # values past the cap collapse into one bucket
    assert count_distribution_tv([100], [70]) == 0.0
    assert count_distribution_tv([100], [7]) == 1.0


def test_test_function_shapes():
    above = TestFunction("indicator_above", 1.0, theta=2.0)
    assert above.eval(np.array([0.5, 1.5])).tolist() == [0.0, 2.0]
    below = TestFunction("indicator_below", 1.0, theta=1.0)
    assert below.eval(np.array([-2.0, -0.5, 2.0])).tolist() == [1.0, 0.0, 0.0]
    bump = TestFunction("bump", 1.0, b=2.0, theta=3.0)
    assert bump.eval(np.array([1.0, 1.5, -2.5])).tolist() == [0.0, 1.5, 3.0]
    with pytest.raises(ValueError):
        TestFunction("bump", 2.0, b=1.0)
    with pytest.raises(ValueError):
        TestFunction("indicator_above", 0.0)


def measures_from(arrays):
    return [PointMeasure.from_locations(np.asarray(a, dtype=float)) for a in arrays]


def test_laplace_empty_measures_is_one():
    assert laplace_estimate([], TestFunction("indicator_above", 1.0)) == 1.0
    assert laplace_estimate([PointMeasure.empty()] * 3, TestFunction("indicator_above", 1.0)) == 1.0


def test_laplace_large_theta_recovers_void_probability():
    ms = measures_from([[0.5, 2.0], [0.7], [3.0, 3.0], [0.9]])
    f = TestFunction("indicator_above", 1.0, theta=1e4)
    void = np.mean([m.count_above(1.0) == 0 for m in ms])
    assert laplace_estimate(ms, f) == pytest.approx(void, abs=1e-12)


def test_laplace_antitone_in_theta():
    ms = measures_from([[1.5, 2.5], [1.2], [0.8]])
    vals = [
        laplace_estimate(ms, TestFunction("bump", 1.0, b=2.0, theta=t))
        for t in (0.1, 0.5, 1.0, 4.0)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_laplace_support_guard():
    ms = measures_from([[1.5]])
    with pytest.raises(SupportBelowRetention):
        laplace_estimate(ms, TestFunction("indicator_above", 0.05), retention_floor=0.1)
    # at or above the floor is fine
    laplace_estimate(ms, TestFunction("indicator_above", 0.2), retention_floor=0.1)


def test_laplace_counts_multiplicity():
    m = PointMeasure(np.array([2.0]), np.array([3]))
    f = TestFunction("indicator_above", 1.0, theta=0.5)
    assert laplace_estimate([m], f) == pytest.approx(math.exp(-1.5))


def test_laplace_block_matches_per_measure_loop():
    # 9 rows, empty ones at the front, in the middle and at the end, with
    # coinciding values grouped into multiplicities
    rng = np.random.default_rng(11)
    rows = []
    for size in (0, 3, 0, 40, 1, 0, 120, 25, 0):
        values = np.round(rng.choice([-1.0, 1.0], size) * (rng.pareto(1.5, size) + 0.1), 1)
        rows.append(PointMeasure.from_locations(values))
    block = MeasureBlock(
        np.concatenate([[0], np.cumsum([m.n_atoms for m in rows])]),
        np.concatenate([m.locations for m in rows]),
        np.concatenate([m.multiplicities for m in rows]),
    )
    assert block.multiplicities.max() > 1

    def loop(measures, f):
        return float(np.mean([np.exp(-m.integrate(f.eval(m.locations))) if m.n_atoms else 1.0 for m in measures]))

    for theta in (1.0, 0.5, 2.5):
        for kind in ("indicator_above", "indicator_below"):
            f = TestFunction(kind, 0.4, theta=theta)
            assert laplace_estimate(block, f) == loop(rows, f) == laplace_estimate(rows, f)
    for theta in (0.3, 1.0, 7.0):
        f = TestFunction("bump", 0.3, b=2.0, theta=theta)
        assert laplace_estimate(block, f) == pytest.approx(loop(rows, f), rel=1e-12, abs=0.0)
        assert laplace_estimate(rows, f) == laplace_estimate(block, f)
