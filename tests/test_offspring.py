import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as st

from brwre.offspring import (
    Binomial,
    Deterministic,
    Finite,
    Geometric,
    Poisson,
    compose_generation,
    extinct_prob_by_gen,
)
from pmf_oracle import exact_compose, segment_pmf

LAW_POOL = [
    Deterministic(2),
    Deterministic(3),
    Poisson(2.0),
    Poisson(0.8),
    Geometric(0.6),
    Binomial(3, 0.7),
    Finite((0.5, 0.0, 0.5)),
    Finite((0.25, 0.5, 0.25)),
]


def test_parameter_validation():
    with pytest.raises(ValueError):
        Deterministic(0)
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        Geometric(1.0)
    with pytest.raises(ValueError):
        Binomial(0, 0.5)
    with pytest.raises(ValueError):
        Finite((0.5, 0.4))  # does not sum to 1
    with pytest.raises(ValueError):
        Finite((1.0, 0.0))  # zero mean


def test_pgf_domain_rejected():
    with pytest.raises(ValueError):
        Poisson(2.0).pgf(1.5)
    with pytest.raises(ValueError):
        Deterministic(2).pgf(-0.1)
    with pytest.raises(ValueError):
        Poisson(2.0).pgf_prime(1.5)


@pytest.mark.parametrize("law", LAW_POOL)
def test_pgf_basics(law):
    assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-12)
    s_grid = np.linspace(0.0, 1.0, 9)
    vals = [law.pgf(float(s)) for s in s_grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))  # monotone
    # mean equals the derivative at 1 (one-sided finite difference)
    h = 1e-7
    fd = (law.pgf(1.0) - law.pgf(1.0 - h)) / h
    assert fd == pytest.approx(law.mean(), rel=1e-5)


def test_pgf_closed_forms():
    assert Poisson(2.0).pgf(0.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert Deterministic(2).pgf(0.7) == pytest.approx(0.49)
    assert Deterministic(2).mean() == 2.0
    assert Finite((0.25, 0.5, 0.25)).mean() == pytest.approx(1.0)
    assert Geometric(0.6).mean() == pytest.approx(1.5)
    assert Binomial(3, 0.7).mean() == pytest.approx(2.1)


@pytest.mark.parametrize("law,dist", [
    (Poisson(2.0), st.poisson(2.0)),
    (Geometric(0.6), st.geom(0.4, loc=-1)),
    (Binomial(3, 0.7), st.binom(3, 0.7)),
])
def test_pmf_against_scipy(law, dist):
    for k in range(12):
        assert law.pmf(k) == pytest.approx(dist.pmf(k), abs=1e-12)


@pytest.mark.parametrize("law", LAW_POOL + [Poisson(30.0), Geometric(0.95), Binomial(60, 0.5)])
def test_sampling_matches_pmf(law, rng):
    n = 100_000
    draws = law.sample_many(rng, n)
    assert draws.min() >= 0
    # frequency of each small value within 3 sigma of the pmf
    for k in range(6):
        p = law.pmf(k)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs((draws == k).mean() - p) < 3 * se + 1e-9
    mean_se = draws.std() / math.sqrt(n)
    assert abs(draws.mean() - law.mean()) < 3 * mean_se + 1e-9


def test_finite_half_half(rng):
    law = Finite((0.5, 0.0, 0.5))
    draws = law.sample_many(rng, 100_000)
    assert set(np.unique(draws)) <= {0, 2}
    assert abs((draws == 2).mean() - 0.5) < 3 * math.sqrt(0.25 / 100_000)


@pytest.mark.parametrize("law", LAW_POOL)
def test_sample_total_matches_sum(law, rng):
    # total progeny of z parents equals z i.i.d. draws in distribution:
    # compare means and variances at 3 sigma
    z = 7
    n = 40_000
    totals = np.array([law.sample_total(rng, z) for _ in range(n)])
    assert abs(totals.mean() - z * law.mean()) < 3 * totals.std() / math.sqrt(n) + 1e-9


def test_extinct_prob_examples():
    assert extinct_prob_by_gen([]) == 0.0
    assert extinct_prob_by_gen([Deterministic(2)] * 5) == 0.0
    assert extinct_prob_by_gen([Poisson(2.0)]) == pytest.approx(math.exp(-2.0), abs=1e-15)
    # two generations, generation 0 governed by the first entry
    expect = math.exp(2.0 * (math.exp(-3.0) - 1.0))
    assert extinct_prob_by_gen([Poisson(2.0), Poisson(3.0)]) == pytest.approx(expect, abs=1e-14)


def test_extinct_prob_vs_simulation(rng):
    # 10^6 two-generation populations, root progeny Poisson(2), then Poisson(3)
    n = 1_000_000
    z1 = rng.poisson(2.0, n)
    z2 = rng.poisson(3.0 * z1)
    freq = (z2 == 0).mean()
    p = math.exp(2.0 * (math.exp(-3.0) - 1.0))
    assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_extinct_prob_monotone_in_generations(rng):
    laws = [Poisson(1.4), Geometric(0.5), Finite((0.3, 0.3, 0.4)), Poisson(2.0)]
    env = [laws[int(i)] for i in rng.integers(0, len(laws), 12)]
    # appending a further generation to the segment nests the extinction events
    values = [extinct_prob_by_gen(env[:i]) for i in range(0, 13)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def _chain(env_rev):
    """(P(Z = 0), P(Z = 1)) by compose_generation, env_rev[0] at the root."""
    base = (0.0, 1.0)
    for law in reversed(list(env_rev)):
        base = compose_generation(law, base)
    return base


@pytest.mark.parametrize("law", LAW_POOL + [Deterministic(1), Binomial(1, 0.4), Poisson(30.0)])
def test_pgf_prime_matches_series(law):
    # sum_k k pmf(k) s^(k-1); an infinite support is cut at k = 400, where the terms are below 1e-80
    ks = np.arange(1, (law.support_max or 400) + 1)
    coeffs = ks * np.array([law.pmf(int(k)) for k in ks])
    for s in np.linspace(0.0, 1.0, 11):
        series = float(coeffs @ s ** (ks - 1.0))
        assert law.pgf_prime(float(s)) == pytest.approx(series, rel=1e-12)


def test_generation_size_pmf_deterministic_cube():
    pmf = segment_pmf([Deterministic(2)] * 3, 16)
    assert pmf[8] == 1.0 and pmf.sum() == 1.0
    assert _chain([Deterministic(2)] * 3) == (0.0, 0.0)


def test_generation_size_pmf_single_generation_copies_law():
    law = Finite((0.5, 0.0, 0.5))
    assert segment_pmf([law], 16)[:4] == pytest.approx([0.5, 0.0, 0.5, 0.0], abs=1e-15)
    assert _chain([law]) == (0.5, 0.0)


def test_generation_size_pmf_poisson_truncation():
    pmf = segment_pmf([Poisson(2.0)], 50)
    expect = st.poisson.pmf(np.arange(51), 2.0)
    assert np.abs(pmf - expect).max() < 1e-14
    assert _chain([Poisson(2.0)]) == pytest.approx(expect[:2], abs=1e-16)


def test_generation_size_pmf_empty_is_one_particle():
    assert segment_pmf([], 16) == pytest.approx(np.eye(17)[1])
    assert _chain([]) == (0.0, 1.0)


def test_pmf_zero_entry_matches_scalar_composition(rng):
    # the chain rule carries the scalar extinction composition along unchanged
    for trial in range(25):
        env = [LAW_POOL[int(i)] for i in rng.integers(0, len(LAW_POOL), int(rng.integers(1, 6)))]
        assert _chain(env)[0] == extinct_prob_by_gen(env)


def test_chain_rule_matches_exact_convolution(rng):
    # random segments over all five families against the convolution oracle
    for trial in range(60):
        env = [LAW_POOL[int(i)] for i in rng.integers(0, len(LAW_POOL), int(rng.integers(1, 9)))]
        exact = segment_pmf(env, 32)
        assert np.abs(np.array(_chain(env)) - exact[:2]).max() <= 1e-14


@pytest.mark.parametrize("env", [
    [Poisson(1.6)],
    [Geometric(0.6), Poisson(2.0)],
    [Finite((0.2, 0.3, 0.5)), Finite((0.1, 0.9)), Binomial(2, 0.6)],
])
def test_pmf_matches_simulation(env, rng):
    pmf = segment_pmf(env, 16)
    n = 100_000
    draws = np.empty(n, dtype=np.int64)
    for i in range(n):
        z = 1
        for law in env:  # env[0] governs generation 0
            z = law.sample_total(rng, z)
            if z == 0:
                break
        draws[i] = z
    for r in range(10):
        p = pmf[r]
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs((draws == r).mean() - p) < 3 * se + 1e-9


@pytest.mark.parametrize("law,cap,depth", [
    *[(law, cap, 6) for law in LAW_POOL for cap in (16, 64, 512, 4096)],
    (Poisson(1.3), 4096, 12),  # near-critical: the pmf fills the whole cap
])
def test_compose_matches_exact_convolution(law, cap, depth):
    # entries 0 and 1 of `depth` compose steps against the truncated
    # convolution powers, which are exact up to the cap
    base, exact = (0.0, 1.0), np.eye(cap + 1)[1]
    for _ in range(depth):
        base = compose_generation(law, base)
        exact = exact_compose(law, exact, cap)
        assert np.abs(np.array(base) - exact[:2]).max() <= 1e-14


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import brwre, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
