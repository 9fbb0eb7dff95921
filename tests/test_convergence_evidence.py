"""Convergence evidence at feasible scales.

Several fixed-scenario checks in test_acceptance.py compare n = 14
simulations against asymptotic oracles under a displacement marginal whose
mean shifts every position by roughly 2n; at that scale the gap provably
exceeds the pinned tolerances.  The tests here document that the gap is the
finite-scale transient and not an implementation error: the distance to the
limit law falls monotonically in n, hits the same tolerance once the
normalisation outgrows the drift, and vanishes outright when the signed
balance removes the drift.
"""

import math

import numpy as np
import pytest

from brwre.brw import SimConfig, replication_rng, simulate
from brwre.displacement import DisplacementModel
from brwre.environment import EnvironmentModel
from brwre.limit_laws import (
    ClusterSampler,
    EnvStream,
    LimitConfig,
    QSample,
    sample_limit_point_process,
    top_two_cdf_multiplicity_adjusted,
)
from brwre.offspring import Deterministic
from brwre.stats import Ecdf, count_distribution_tv, ks_distance

GRID = np.array([0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
BINARY = EnvironmentModel.single(Deterministic(2))


def run_stats(n, reps, p, seed):
    cfg = SimConfig(
        n=n, env=BINARY, disp=DisplacementModel.iid(2.0, p), retain_delta=0.1,
        top_k=2, jump_eta=1.0, seed=seed, track_argmax_jump=False,
    )
    b = 2.0 ** (n / 2.0)
    m1 = np.empty(reps)
    m2 = np.empty(reps)
    counts = np.empty(reps, dtype=np.int64)
    two = np.empty(reps, dtype=bool)
    for r in range(reps):
        o = simulate(cfg, replication_rng(seed, r))
        m1[r] = o.top[0] / b
        m2[r] = o.top[1] / b
        counts[r] = o.atoms.count_above(1.0)
        two[r] = o.diagnostics.paths_with_two_big_jumps > 0
    return {"m1": m1, "m2": m2, "counts": counts, "two_jump": float(two.mean())}


def grid_ks(samples, q) -> float:
    return ks_distance(Ecdf.from_samples(samples), lambda x: math.exp(-q * x ** -2.0), GRID)


@pytest.mark.slow
def test_max_law_distance_shrinks_with_n():
    # positive displacements carry a mean drift of ~2n; the KS distance to
    # the limit must fall as the norming scale 2^(n/2) outgrows it
    ks = {n: grid_ks(run_stats(n, 800, 1.0, 200 + n)["m1"], 2.0) for n in (10, 14, 17)}
    print(f"KS trend (p=1): {ks[10]:.4f} > {ks[14]:.4f} > {ks[17]:.4f}")
    assert ks[10] > ks[14] + 0.05
    assert ks[14] > ks[17] + 0.03
    assert ks[17] < 0.07


def test_max_law_matches_at_stated_tolerance_without_drift():
    # balanced signs cancel the drift: the n = 14 run meets the 0.05 bound
    stats = run_stats(14, 1200, 0.5, 101)
    ks = grid_ks(stats["m1"], 1.0)  # q = p * size-norm = 0.5 * 2
    print(f"KS (p=1/2, n=14) = {ks:.4f}")
    assert ks < 0.05


@pytest.mark.slow
def test_count_distribution_distance_shrinks_with_n(rng):
    lc = LimitConfig(u_min=0.6)
    disp = DisplacementModel.iid(2.0, 1.0)
    limit = np.array([
        m.count_above(1.0) for m in sample_limit_point_process(disp, BINARY, lc, rng, size=20_000)[0]
    ])
    tv = {
        n: count_distribution_tv(run_stats(n, 800, 1.0, 300 + n)["counts"], limit)
        for n in (10, 14, 17)
    }
    print(f"TV trend (p=1): {tv[10]:.4f} > {tv[14]:.4f} > {tv[17]:.4f}")
    assert tv[10] > tv[14] > tv[17]


def test_two_jump_fraction_trend_at_informative_threshold():
    # at jump_eta = 1.0 the two-jump event is rare and its decay is visible;
    # at 0.1 it saturates at probability one for these n
    fractions = {n: run_stats(n, 1500, 1.0, 400 + n)["two_jump"] for n in (8, 11, 14)}
    print(f"two-jump trend (eta=1): {fractions[8]:.4f} > {fractions[11]:.4f} > {fractions[14]:.4f}")
    assert fractions[8] > fractions[11] > fractions[14]
    assert fractions[14] < 0.01


def test_top_two_empirics_match_multiplicity_adjusted_form():
    # the closed top-two expression without the size-one cluster factor
    # overstates the probability; the adjusted form matches the simulation
    stats = run_stats(14, 1200, 0.5, 101)
    emp = float(np.mean((stats["m1"] <= 2.0) & (stats["m2"] <= 1.0)))
    qs = QSample(q=np.array([1.0]), w=np.array([1.0]), c_value=np.array([2.0]))
    plain = top_two_cdf_multiplicity_adjusted(qs, 1.0, 2.0, 2.0, 0.5, np.ones(qs.q.size))
    adjusted = top_two_cdf_multiplicity_adjusted(qs, 1.0, 2.0, 2.0, 0.5, [0.5])
    print(f"top-two: emp={emp:.4f} adjusted={adjusted:.4f} plain={plain:.4f}")
    assert abs(emp - adjusted) < 0.05
    assert abs(emp - plain) > 0.08


def test_single_descendant_probability_feeding_adjustment(rng):
    # the 1/2 used above is the quenched size-one cluster probability
    sampler = ClusterSampler(EnvStream(BINARY, rng), LimitConfig())
    assert sampler.single_descendant_prob() == pytest.approx(0.5, rel=1e-8)


def test_laplace_functional_two_sided_agreement(rng):
    # finite-n vs limit-sampler Laplace functionals agree once the drift is
    # out of the way (balanced signs), at the indicator past 1
    from brwre.stats import TestFunction, laplace_estimate

    cfg = SimConfig(
        n=14, env=BINARY, disp=DisplacementModel.iid(2.0, 0.5), retain_delta=0.1,
        top_k=2, jump_eta=1.0, seed=77, track_argmax_jump=False,
    )
    finite = [simulate(cfg, replication_rng(77, r)).atoms for r in range(800)]
    lc = LimitConfig(u_min=0.6)
    disp = DisplacementModel.iid(2.0, 0.5)
    limit = sample_limit_point_process(disp, BINARY, lc, rng, size=4000)[0]
    f = TestFunction("indicator_above", 1.0, theta=1.0)
    fin = laplace_estimate(finite, f, retention_floor=0.1)
    lim = laplace_estimate(limit, f)
    print(f"laplace: finite={fin:.4f} limit={lim:.4f}")
    assert abs(fin - lim) < 0.05
