"""Fixed-scenario verification suite.

Each test prints one PASS/FAIL line with the measured statistic and the
stated tolerance before asserting, so a full run documents every verdict.
Several desk-scale checks compare finite-generation simulations against
asymptotic oracles; where the finite-scale gap provably exceeds the pinned
tolerance the test fails honestly (see tests/test_convergence_evidence.py
for the matching convergence evidence at feasible scales).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as st

from brwre.brw import SimConfig, replication_rng, simulate, simulate_naive
from brwre.displacement import DisplacementModel
from brwre.environment import EnvironmentModel
from brwre.limit_laws import (
    ClusterSampler,
    EnvStream,
    LimitConfig,
    limit_max_cdf,
    sample_limit_point_process,
    sample_martingale_limit,
    sample_q,
)
from brwre.offspring import Deterministic, Poisson, extinct_prob_by_gen
from brwre.stats import Ecdf, count_distribution_tv, ks_distance

from test_brw import _random_config, outcomes_equal

SEED = 20240810
GRID = np.array([0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
BINARY = EnvironmentModel.single(Deterministic(2))
MIXTURE = EnvironmentModel((Poisson(2.0), Poisson(3.0)), (0.5, 0.5))


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def run_binary_summary(disp, n, reps, seed_offset=0):
    """Per-replication scalars only: full outcomes at this retention level
    hold every leaf and would pin hundreds of MB."""
    cfg = SimConfig(
        n=n, env=BINARY, disp=disp, retain_delta=0.1, top_k=2, jump_eta=0.1,
        seed=SEED + seed_offset,
    )
    rows = {
        "m1": np.empty(reps), "m2": np.empty(reps), "mn": np.empty(reps),
        "count_above_1": np.empty(reps, dtype=np.int64),
        "two_jump": np.empty(reps, dtype=bool),
        "argmax_gen": np.empty(reps, dtype=np.int64),
        "has_cluster": np.empty(reps, dtype=bool),
    }
    early = total = 0
    t0 = time.perf_counter()
    for r in range(reps):
        o = simulate(cfg, replication_rng(cfg.seed, r))
        rows["m1"][r] = o.top[0] / o.b_n
        rows["m2"][r] = o.top[1] / o.b_n
        rows["mn"][r] = o.bottom[0] / o.b_n
        rows["count_above_1"][r] = o.atoms.count_above(1.0)
        rows["two_jump"][r] = o.diagnostics.paths_with_two_big_jumps > 0
        rows["argmax_gen"][r] = o.diagnostics.max_leaf_jump_gen
        rows["has_cluster"][r] = bool((o.atoms.multiplicities >= 2).any())
        hist = o.diagnostics.big_jump_generations
        total += int(hist.sum())
        early += int(hist[: max(0, n - 10)].sum())
    rows["seconds"] = time.perf_counter() - t0
    rows["two_jump_fraction"] = float(rows["two_jump"].mean())
    rows["early_jump_fraction"] = early / total if total else 0.0
    return rows


@pytest.fixture(scope="module")
def binary_iid_n14():
    return run_binary_summary(DisplacementModel.iid(2.0, 1.0), 14, 2000)


@pytest.fixture(scope="module")
def binary_fulldep_n14():
    return run_binary_summary(DisplacementModel.full_dep(2.0, 1.0), 14, 2000)


@pytest.fixture(scope="module")
def binary_signed_n14():
    return run_binary_summary(DisplacementModel.iid(2.0, 0.5), 14, 2000)


def grid_ks_from(samples, oracle) -> float:
    return ks_distance(Ecdf.from_samples(samples), oracle, GRID)


def test_criterion_01_binary_iid_max_law(binary_iid_n14):
    run = binary_iid_n14
    ks = grid_ks_from(run["m1"], lambda x: math.exp(-2.0 * x ** -2.0))
    seconds = run["seconds"]
    ok = ks < 0.05 and seconds < 60.0
    verdict("criterion 1 (iid max law, n=14)", ok, f"KS_grid={ks:.4f} tol=0.05, runtime={seconds:.1f}s")
    assert seconds < 60.0
    assert ks < 0.05


def test_criterion_02_full_dependence(binary_fulldep_n14):
    run = binary_fulldep_n14
    ks = grid_ks_from(run["m1"], lambda x: math.exp(-(x ** -2.0)))
    early_argmax = run["argmax_gen"] < 14 - 1
    cluster_ok = bool(np.all(run["has_cluster"][early_argmax]))
    ok = ks < 0.05 and cluster_ok
    verdict(
        "criterion 2 (full dependence, n=14)", ok,
        f"KS_grid={ks:.4f} tol=0.05, early-argmax clusters>=2: {cluster_ok}",
    )
    assert cluster_ok
    assert ks < 0.05


def test_criterion_03_general_q_consistency():
    cfg = LimitConfig()
    cases = [
        ("iid", DisplacementModel.iid(2.0, 0.6), "shortcut", 1.2),
        ("full_dep", DisplacementModel.full_dep(2.0, 0.6), "shortcut", 0.6),
        ("diagonal", DisplacementModel.diagonal_angular(2.0, 2, 0.6), None, 0.6),
    ]
    worst = 0.0
    for idx, (name, disp, ref_method, exact) in enumerate(cases):
        ref_disp = DisplacementModel.full_dep(2.0, 0.6) if ref_method is None else disp
        for r in range(10_000):
            a = sample_q(disp, BINARY, cfg, np.random.default_rng((SEED, idx, r)), "general")
            b = sample_q(
                ref_disp, BINARY, cfg, np.random.default_rng((SEED, idx, r)), "shortcut"
            )
            tol = 1e-6 + cfg.series_tol * abs(b.q)
            dev = abs(a.q - b.q)
            worst = max(worst, dev - tol)
            assert dev <= tol, (name, r, a.q, b.q)
            assert abs(b.q - exact) <= 1e-6 + cfg.series_tol * exact
    verdict("criterion 3 (general-Q consistency)", True, f"max excess dev={worst:.2e} (<=0)")


@pytest.mark.slow
def test_criterion_04_random_environment():
    cfg = SimConfig(
        n=16, env=MIXTURE, disp=DisplacementModel.iid(2.0, 1.0), retain_delta=0.1,
        top_k=2, jump_eta=0.1, seed=SEED, condition_on_survival=True,
        population_cap=1 << 26, track_argmax_jump=False,
    )
    reps = 1500
    t0 = time.perf_counter()
    m_over_b = np.empty(reps)
    for r in range(reps):
        o = simulate(cfg, replication_rng(cfg.seed, r))
        m_over_b[r] = o.top[0] / o.b_n
    lc = LimitConfig(w_horizon=30, n_limit_samples=10_000)
    rng = np.random.default_rng((SEED, 777))
    disp = DisplacementModel.iid(2.0, 1.0)
    qs = sample_q(disp, MIXTURE, lc, rng, size=10_000)
    ks = grid_ks_from(m_over_b, lambda x: limit_max_cdf(qs, float(x), 2.0))
    seconds = time.perf_counter() - t0
    ok = ks < 0.07 and seconds < 600.0
    verdict(
        "criterion 4 (random environment, n=16)", ok,
        f"KS_grid={ks:.4f} tol=0.07, runtime={seconds:.0f}s",
    )
    assert seconds < 600.0
    assert ks < 0.07


def test_criterion_05_joint_laws(binary_signed_n14):
    run = binary_signed_n14
    mx, m2, mn = run["m1"], run["m2"], run["mn"]

    joint_emp = float(np.mean((mn > -1.0) & (mx <= 1.0)))
    joint_oracle = math.exp(-2.0)  # W=1, size norm 2, p=1/2 at x=y=1
    joint_dev = abs(joint_emp - joint_oracle)

    # top-two closed form at (x, y) = (1, 2) with W = 1, size norm 2, p = 1/2.
    # The limit is cluster-decorated: cluster centres above u form a Poisson
    # process with mean p * 2 * u^-2 = u^-2, and each centre carries
    # coincident atoms.  A big jump on a generation-k edge of the binary tree
    # has 2^(n-k) descendants and the last generation holds half of all
    # edges, so a cluster has size one with probability 1/2.  The event
    # {max <= 2, second <= 1} needs no centre above 2 and, in (1, 2], either
    # no centre or exactly one centre of size one:
    #   e^-1 * (1 + (1 - 2^-2) * 1/2) ~= 0.5058
    tt_emp = float(np.mean((mx <= 2.0) & (m2 <= 1.0)))
    tt_oracle = math.exp(-1.0) * (1.0 + (1.0 - 2.0 ** -2.0) * 0.5)
    tt_dev = abs(tt_emp - tt_oracle)

    ok = joint_dev < 0.05 and tt_dev < 0.05
    verdict(
        "criterion 5 (joint min/max and top-two)", ok,
        f"joint dev={joint_dev:.4f}, top-two dev={tt_dev:.4f} (emp={tt_emp:.4f} vs {tt_oracle:.4f}), tol=0.05",
    )
    assert joint_dev < 0.05
    assert tt_dev < 0.05


def test_criterion_06_cluster_law_chi_square():
    rng = np.random.default_rng((SEED, 6))
    sampler = ClusterSampler(EnvStream(BINARY, rng), LimitConfig())
    n = 100_000
    draws = sampler.sample_size(rng, np.zeros(n, dtype=int))
    i_vals = np.round(np.log2(draws)).astype(int)
    assert np.allclose(2.0 ** i_vals, draws)
    cap = 13
    obs = np.bincount(np.minimum(i_vals, cap), minlength=cap + 1)
    expect = np.array([n * 2.0 ** -(i + 1) for i in range(cap)] + [n * 2.0 ** -cap])
    stat = float(((obs - expect) ** 2 / expect).sum())
    crit = float(st.chi2.ppf(0.99, cap))
    ok = stat < crit
    verdict("criterion 6 (cluster-size law)", ok, f"chi2={stat:.1f} < {crit:.1f} (1% level)")
    assert ok


def test_criterion_07_count_process_tv(binary_iid_n14):
    finite = binary_iid_n14["count_above_1"]
    # u_min below the coverage edge 1/sqrt(2) keeps every relevant atom
    lc = LimitConfig(u_min=0.6)
    rng = np.random.default_rng((SEED, 7))
    disp = DisplacementModel.iid(2.0, 1.0)
    limit = np.array([
        sample_limit_point_process(disp, BINARY, lc, rng)[0].count_above(1.0)
        for _ in range(20_000)
    ])
    tv = count_distribution_tv(finite, limit)
    ok = tv < 0.05
    verdict("criterion 7 (count distribution)", ok, f"TV={tv:.4f} tol=0.05")
    assert ok


def test_criterion_08_diagnostics_trends(binary_iid_n14):
    fractions = {}
    for n in (8, 11):
        run = run_binary_summary(DisplacementModel.iid(2.0, 1.0), n, 2000, seed_offset=n)
        fractions[n] = run["two_jump_fraction"]
    fractions[14] = binary_iid_n14["two_jump_fraction"]
    early = binary_iid_n14["early_jump_fraction"]
    decreasing = fractions[8] > fractions[11] > fractions[14]
    early_ok = early < 0.05
    ok = decreasing and early_ok
    verdict(
        "criterion 8 (diagnostics trends)", ok,
        f"two_jump={fractions[8]:.4f}/{fractions[11]:.4f}/{fractions[14]:.4f} "
        f"(strictly decreasing: {decreasing}), early={early:.4f} tol=0.05",
    )
    assert early_ok
    assert decreasing


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng((SEED, 9))
    for _ in range(100):
        cfg = _random_config(rng)
        assert outcomes_equal(simulate(cfg), simulate_naive(cfg)), cfg
    verdict("criterion 9 (streaming vs full-tree oracle)", True, "100 configs bit-identical")


def test_criterion_10_quenched_pgf_and_martingale():
    exact = math.exp(2.0 * (math.exp(-3.0) - 1.0))
    value = extinct_prob_by_gen([Poisson(2.0), Poisson(3.0)])
    formula_ok = abs(value - exact) < 1e-12

    rng = np.random.default_rng((SEED, 10))
    n = 1_000_000
    z1 = rng.poisson(2.0, n)
    z2 = rng.poisson(3.0 * z1)
    freq = float((z2 == 0).mean())
    freq_ok = abs(freq - exact) < 3 * math.sqrt(exact * (1 - exact) / n)

    reps = 100_000
    env = EnvironmentModel.single(Poisson(2.0))
    w = sample_martingale_limit(env, 10, False, rng, size=reps)
    mart_dev = abs(w.mean() - 1.0)
    mart_tol = 3 * float(w.std()) / math.sqrt(reps)
    mart_ok = mart_dev < mart_tol

    ok = formula_ok and freq_ok and mart_ok
    verdict(
        "criterion 10 (quenched pgf machinery)", ok,
        f"|pgf err|={abs(value - exact):.2e}, extinction freq dev={abs(freq - exact):.2e}, "
        f"martingale dev={mart_dev:.4f} (tol {mart_tol:.4f})",
    )
    assert formula_ok and freq_ok and mart_ok
