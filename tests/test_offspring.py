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
    TruncatedPMF,
    compose_generation,
    extinct_prob_by_gen,
    generation_size_pmf,
)

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


def test_generation_size_pmf_deterministic_cube():
    pmf = generation_size_pmf([Deterministic(2)] * 3, 4096)
    assert pmf.mass_beyond == 0.0
    assert pmf.probs[8] == pytest.approx(1.0, abs=1e-15)
    assert pmf.probs[:8] == pytest.approx(np.zeros(8), abs=1e-15)


def test_generation_size_pmf_single_generation_copies_law():
    pmf = generation_size_pmf([Finite((0.5, 0.0, 0.5))], 4096)
    assert pmf.probs == pytest.approx([0.5, 0.0, 0.5], abs=1e-15)
    assert pmf.mass_beyond == 0.0


def test_generation_size_pmf_poisson_truncation():
    pmf = generation_size_pmf([Poisson(2.0)], 50)
    expect = st.poisson.pmf(np.arange(pmf.degree + 1), 2.0)
    assert np.abs(pmf.probs - expect).max() < 1e-14
    assert pmf.mass_beyond < 1e-12


def test_generation_size_pmf_empty_is_one_particle():
    pmf = generation_size_pmf([], 16)
    assert pmf.probs == pytest.approx([0.0, 1.0])
    assert pmf.mass_beyond == 0.0


def test_pmf_zero_entry_matches_scalar_composition(rng):
    # pgf composition consistency whenever the truncation never spilled
    for trial in range(25):
        env = [LAW_POOL[int(i)] for i in rng.integers(0, len(LAW_POOL), int(rng.integers(1, 6)))]
        pmf = generation_size_pmf(env, 2048)
        if pmf.mass_beyond < 1e-9:
            assert abs(pmf.probs[0] - extinct_prob_by_gen(env)) < 1e-9


def test_mass_conservation_and_mean_bound(rng):
    for trial in range(25):
        env = [LAW_POOL[int(i)] for i in rng.integers(0, len(LAW_POOL), int(rng.integers(1, 7)))]
        cap = int(rng.choice([64, 256, 2048]))
        pmf = generation_size_pmf(env, cap)
        assert np.all(pmf.probs >= 0.0)
        assert abs(pmf.probs.sum() + pmf.mass_beyond - 1.0) < 1e-9
        mean_product = float(np.prod([law.mean() for law in env]))
        assert pmf.mean_lower_bound() <= mean_product * (1.0 + 1e-9)


def test_mean_converges_with_cap():
    env = [Poisson(2.0), Poisson(3.0)]
    exact = 6.0
    lo = generation_size_pmf(env, 16).mean_lower_bound()
    hi = generation_size_pmf(env, 512).mean_lower_bound()
    assert lo <= hi <= exact + 1e-9
    assert hi == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("env", [
    [Poisson(1.6)],
    [Geometric(0.6), Poisson(2.0)],
    [Finite((0.2, 0.3, 0.5)), Finite((0.1, 0.9)), Binomial(2, 0.6)],
])
def test_pmf_matches_simulation(env, rng):
    pmf = generation_size_pmf(env, 4096)
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
        p = pmf.probs[r] if r <= pmf.degree else 0.0
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs((draws == r).mean() - p) < 3 * se + 1e-9


def test_truncated_pmf_invariants():
    with pytest.raises(ValueError):
        TruncatedPMF(np.array([0.5, 0.4]), 0.2)  # mass 1.1
    with pytest.raises(ValueError):
        TruncatedPMF(np.array([-0.1, 1.1]), 0.0)
    pmf = TruncatedPMF(np.array([0.25, 0.5]), 0.25)
    assert pmf.degree == 1


def test_compose_spills_to_mass_beyond():
    base = generation_size_pmf([Deterministic(3)] * 2, 4096)  # point mass at 9
    squeezed = compose_generation(Deterministic(3), base, 16)  # 27 > 16
    assert squeezed.probs.sum() == pytest.approx(0.0, abs=1e-15)
    assert squeezed.mass_beyond == pytest.approx(1.0, abs=1e-12)


def test_pgf_many_matches_scalar_pgf():
    s_grid = np.linspace(0.0, 1.0, 9)
    for law in LAW_POOL:
        many = law.pgf_many(s_grid + 0j)
        assert np.abs(many - [law.pgf(float(s)) for s in s_grid]).max() < 1e-15


@pytest.mark.parametrize("law", LAW_POOL + [
    Poisson(1.3), Poisson(2.5), Poisson(4.0), Binomial(2000, 0.5), Finite((0.5, 0.5, 0.0)),
])
def test_coefficients_end_at_last_nonzero(law):
    coeffs, _ = law.coefficients(4096)
    assert coeffs[-1] > 0.0


def test_poisson_coefficients_stop_past_underflow():
    # the running sum stalls below 1 - 1e-16 for this rate; the list must
    # still end where the terms underflow, not at the cap
    assert len(Poisson(2.5).coefficients(4096)[0]) < 300


def _exact_compose(law, base: np.ndarray, cap: int) -> np.ndarray:
    """Truncated sum_k P(law = k) base^{*k} by direct convolution powers.

    The law's coefficients run past the cap (a zero-heavy base puts mass of
    many copies below it) until they fall under 1e-20 beyond the mean.
    """
    coeffs = [law.pmf(0)]
    k = 0
    while law.support_max is None or k < law.support_max:
        k += 1
        coeffs.append(law.pmf(k))
        if law.support_max is None and k > law.mean() and coeffs[-1] < 1e-20:
            break
    out = np.zeros(cap + 1)
    out[0] = coeffs[0]
    power = np.ones(1)
    for c in coeffs[1:]:
        power = np.convolve(power, base)[: cap + 1]
        out[: power.size] += c * power
        if power.sum() < 1e-18:
            break
    return out


def _assert_matches_exact(law, base: TruncatedPMF, exact_base: np.ndarray, cap: int):
    """One FFT compose step against the exact one; returns both results."""
    pmf = compose_generation(law, base, cap)
    exact = _exact_compose(law, exact_base, cap)
    fft = np.zeros(cap + 1)
    fft[: pmf.probs.size] = pmf.probs
    diff = np.abs(fft - exact).max()
    assert diff <= pmf.error_bound
    assert diff <= 1e-12
    assert np.all(pmf.probs >= 0.0)
    assert abs(pmf.probs.sum() + pmf.mass_beyond - 1.0) <= 1e-12
    return pmf, exact


@pytest.mark.parametrize("law,cap,depth", [
    *[(law, cap, 6) for law in LAW_POOL for cap in (16, 64, 512, 4096)],
    (Poisson(1.3), 4096, 12),  # near-critical: the pmf fills the whole cap
])
def test_compose_matches_exact_convolution(law, cap, depth):
    pmf = TruncatedPMF(np.array([0.0, 1.0]), 0.0)
    exact = pmf.probs
    for _ in range(depth):
        pmf, exact = _assert_matches_exact(law, pmf, exact, cap)


def test_compose_matches_exact_convolution_spilled():
    base = generation_size_pmf([Deterministic(3)] * 2, 4096)  # point mass at 9
    _assert_matches_exact(Deterministic(3), base, base.probs, 16)


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import brwre, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
