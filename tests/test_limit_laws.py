import math
import time
from typing import Tuple

import numpy as np
import pytest
from scipy import stats as st

from brwre.displacement import DisplacementModel
from brwre.environment import EnvironmentModel, check_assumptions, series_tail
from brwre.errors import ArgumentOrder, NonGeometricGrowth, UnboundedProgenyInGeneralMode
from brwre import limit_laws
from brwre.limit_laws import (
    ClusterSampler,
    EnvStream,
    LimitConfig,
    QSample,
    cluster_norm_series,
    joint_min_max_cdf,
    limit_max_cdf,
    sample_limit_point_process,
    sample_martingale_limit,
    sample_q,
    top_two_cdf_multiplicity_adjusted,
)
from brwre.measures import MeasureBlock, PointMeasure
from brwre.offspring import Binomial, Deterministic, Finite, Geometric, Poisson
from pmf_oracle import stream_pmf

BINARY = EnvironmentModel.single(Deterministic(2))
POISSON2 = EnvironmentModel.single(Poisson(2.0))
MIXTURE = EnvironmentModel((Poisson(2.0), Poisson(3.0)), (0.5, 0.5))
BOUNDED_MIX = EnvironmentModel((Binomial(3, 0.7), Finite((0.2, 0.3, 0.5))), (0.5, 0.5))
CFG = LimitConfig()
# Z_2 is 2 Poisson(3) with the Poisson law at the root and Poisson(6) with the
# other order, so the two orders of a stream's laws give clearly different
# cluster-size laws (MIXTURE's two Poisson laws differ too little for it)
ORDER_MIX = EnvironmentModel((Deterministic(2), Poisson(3.0)), (0.5, 0.5))


def fresh_stream(model, rng) -> EnvStream:
    return EnvStream(model, rng)


# ---------------------------------------------------------------- martingale


def test_martingale_limit_deterministic_is_one(rng):
    assert sample_martingale_limit(BINARY, 12, True, rng, size=1)[0] == 1.0


def test_martingale_limit_unconditioned_mean(rng):
    n = 100_000
    w = sample_martingale_limit(POISSON2, 10, False, rng, size=n)
    assert abs(w.mean() - 1.0) < 3 * w.std() / math.sqrt(n)


def test_martingale_limit_conditioned_positive(rng):
    assert np.all(sample_martingale_limit(MIXTURE, 8, True, rng, size=200) > 0.0)
    assert sample_martingale_limit(MIXTURE, 8, True, rng, size=1)[0] > 0.0


# -------------------------------------------------------------------- series


def test_series_deterministic_binary(rng):
    stream = fresh_stream(BINARY, rng)
    c0 = cluster_norm_series("inverse_mean", stream, CFG)
    c3 = cluster_norm_series("cluster_size", stream, CFG)
    c1 = cluster_norm_series("cluster_vector", stream, CFG)
    c2 = cluster_norm_series("cluster_vector_leafless", stream, CFG)
    assert c0.value == pytest.approx(2.0, rel=1e-8)
    assert c3.value == pytest.approx(2.0, rel=1e-8)
    assert c1.value == pytest.approx(1.0, rel=1e-8)
    assert c2.value == pytest.approx(1.0, rel=1e-8)
    assert c0.tail_bound < CFG.series_tol * c0.value


@pytest.mark.parametrize("k", [2, 3, 5])
def test_series_deterministic_k_geometric_sum(k, rng):
    stream = fresh_stream(EnvironmentModel.single(Deterministic(k)), rng)
    c0 = cluster_norm_series("inverse_mean", stream, CFG)
    assert c0.value == pytest.approx(k / (k - 1.0), rel=1e-8)


def test_leafless_size_series_equals_inverse_mean(rng):
    # every generation survives, so the survival weight is 1
    leafless = EnvironmentModel((Deterministic(2), Finite((0.0, 0.4, 0.6))), (0.5, 0.5))
    stream = fresh_stream(leafless, rng)
    a = cluster_norm_series("inverse_mean", stream, CFG)
    b = cluster_norm_series("cluster_size", stream, CFG)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_vector_norm_is_size_norm_minus_one(rng):
    # the brood-vector normalizer telescopes against the size normalizer
    for _ in range(5):
        stream = fresh_stream(MIXTURE, rng)
        c3 = cluster_norm_series("cluster_size", stream, CFG)
        c1 = cluster_norm_series("cluster_vector", stream, CFG)
        tol = c3.tail_bound + c1.tail_bound + 1e-12
        assert abs(c1.value - (c3.value - 1.0)) <= tol


def test_series_non_geometric_growth():
    critical = EnvironmentModel.single(Deterministic(1))
    with pytest.raises(NonGeometricGrowth):
        cluster_norm_series("inverse_mean", fresh_stream(critical, np.random.default_rng(0)), CFG)


def test_series_deterministic_rule_when_every_mean_exceeds_one(rng):
    # the bound (1/pi_{i+shift}) / (g - 1), g the smallest support mean
    for model in (BINARY, MIXTURE):
        g = min(law.mean() for law in model.support)
        for kind, (_, shift) in limit_laws._SERIES.items():
            stream = fresh_stream(model, rng)
            sv = cluster_norm_series(kind, stream, CFG)
            assert sv.certified == "deterministic"
            assert sv.tail_bound[0] == (1.0 / stream.pi[0, sv.terms_used - 1 + shift]) / (g - 1.0)


# a = E[1/m(Y)] = 0.2/0.9 + 0.8/4 = 0.42 and E[1/m(Y)^2] = 0.30 < 1, so the
# ratio of the truncation error to the annealed bound has finite variance
ANNEALED = EnvironmentModel((Poisson(0.9), Poisson(4.0)), (0.2, 0.8))


@pytest.mark.parametrize("kind", ["inverse_mean", "cluster_size"])
def test_series_annealed_bound_holds_in_expectation(kind):
    # Stream count fixed beforehand from a 1000-stream pilot on another seed:
    # the ratio's sd was about 0.96 (inverse_mean) and 0.51 (cluster_size), so
    # 400 streams give 4 se of about 0.19 and 0.10, below the excess of the
    # realized-mean window this rule replaced (mean ratio 1.30 and 1.14).
    n_streams, extra = 400, 300
    term = limit_laws._SERIES[kind][0]
    rng = np.random.default_rng(90210)
    stream = EnvStream(ANNEALED, rng, n_streams)
    sv = cluster_norm_series(kind, stream, CFG)
    assert sv.certified == "annealed"
    rows = np.arange(n_streams)
    width = int(sv.row_terms.max()) + extra
    stream.grow(rows, width)
    cols = np.arange(width)
    later = (cols >= sv.row_terms[:, None]) & (cols < sv.row_terms[:, None] + extra)
    ratios = np.where(later, term(stream, rows, width), 0.0).sum(axis=1) / sv.tail_bound
    se = ratios.std(ddof=1) / math.sqrt(n_streams)
    assert ratios.mean() <= 1.0 + 4.0 * se


def test_series_refused_when_expected_tail_diverges():
    # E log m = log(5)/2 > 0, but a = E[1/m(Y)] = 0.5/0.5 + 0.5/10 = 1.05
    model = EnvironmentModel((Poisson(0.5), Poisson(10.0)), (0.5, 0.5))
    assert check_assumptions(model).verdict == "SupercriticalOK"
    for kind in limit_laws._SERIES:
        stream = fresh_stream(model, np.random.default_rng(0))
        with pytest.raises(NonGeometricGrowth, match="1.05"):
            limit_laws._series_terms(kind, stream, CFG)
        assert stream.length.sum() == 0


# every mean exceeds 1 (a certified tail, excess 0.02), but slowly enough
# that the rows of a series stop after different numbers of growth steps
SLOW_MIX = EnvironmentModel((Poisson(1.02), Poisson(4.0)), (0.5, 0.5))


def _assert_row_major_growth(stream, sv, model, seed) -> None:
    """The block contract after one series on a fresh block: a row stops
    growing at the step that covers its last summed term, and step k drew one
    uniform per generation of the rows still growing, in row-major order."""
    step = limit_laws._GROW
    steps = -(-sv.row_terms // step)
    assert np.array_equal(stream.length, step * steps)
    replay = np.random.default_rng(seed)
    for k in range(1, int(steps.max()) + 1):
        rows = np.flatnonzero(steps >= k)
        drawn = model.draw_indices(replay, (rows.size, step))
        assert np.array_equal(stream.indices[rows, (k - 1) * step : k * step], drawn)
    # nothing else was drawn: the next uniform is the replay's next one
    assert stream._rng.random() == replay.random()


def test_every_series_grows_its_rows_row_major():
    for kind in limit_laws._SERIES:
        for model in (MIXTURE, SLOW_MIX):
            stream = EnvStream(model, np.random.default_rng(17), 20)
            sv = limit_laws._series_terms(kind, stream, CFG)[0]
            _assert_row_major_growth(stream, sv, model, 17)
        # the rows of SLOW_MIX stop after different numbers of steps
        assert len(set(stream.length.tolist())) > 1
    stream = EnvStream(BOUNDED_MIX, np.random.default_rng(18), 20)
    sv = limit_laws._general_q_series(DisplacementModel.iid(2.0, 0.6), stream, CFG)
    assert isinstance(sv.terms_used, int) and sv.terms_used == sv.row_terms.sum()
    _assert_row_major_growth(stream, sv, BOUNDED_MIX, 18)


def test_second_series_grows_only_the_rows_it_needs():
    # a later series on the same block draws only past each row's length,
    # row-major over the rows it grows
    stream = EnvStream(SLOW_MIX, np.random.default_rng(19), 20)
    first = limit_laws._series_terms("inverse_mean", stream, CFG)[0]
    before = stream.indices.copy(), stream.length.copy()
    state = stream._rng.bit_generator.state
    stream.grow(np.arange(20), int(stream.length.max()) + 5)
    width = int(stream.length.max())
    assert np.all(stream.length == width)
    for row in range(20):
        assert np.array_equal(stream.indices[row, : before[1][row]], before[0][row, : before[1][row]])
    replay = np.random.default_rng(19)
    replay.bit_generator.state = state
    fresh = np.concatenate([stream.indices[r, before[1][r] : width] for r in range(20)])
    assert np.array_equal(fresh, SLOW_MIX.draw_indices(replay, fresh.size))
    assert first.terms_used == first.row_terms.sum()


def _block_oracle(stream, row: int, kind: str, used: int):
    """Plain-Python recomputation of one row of a block from its law indices:
    pi by a running product; each extinction probability as one scalar pgf
    step from the block's previous one; terms 0..used-1 of ``kind`` from
    those.  Returns (pi, extinct, terms, ulps), ``ulps`` the distance allowed
    between each block extinction probability and its step."""
    laws = [stream.model.support[k] for k in stream.indices[row, : stream.length[row]].tolist()]
    pi = [1.0]
    for law in laws:
        pi.append(pi[-1] * law.mean())
    e = stream.extinct[row, : len(laws) + 1].tolist()
    extinct = [0.0] + [float(law.pgf(e[j])) for j, law in enumerate(laws)]
    # numpy evaluates exp and pow on arrays by other routines than on one
    # float, within 1 ulp; arithmetic pgfs agree exactly
    ulps = [0.0] + [0.0 if isinstance(law, (Geometric, Finite)) else 1.0 for law in laws]
    term = {
        "inverse_mean": lambda i: 1.0 / pi[i],
        "cluster_size": lambda i: (1.0 - e[i]) / pi[i],
        "cluster_vector": lambda i: (1.0 - e[i + 1]) / pi[i + 1],
        "cluster_vector_leafless": lambda i: (1.0 - laws[i].pmf(0)) / pi[i + 1],
        "_inverse_mean_next": lambda i: 1.0 / pi[i + 1],
    }[kind]
    return np.array(pi), np.array(extinct), [term(i) for i in range(used)], np.array(ulps)


GEO_FINITE = EnvironmentModel((Geometric(0.6), Finite((0.2, 0.3, 0.5))), (0.4, 0.6))
_SHIFT = {kind: shift for kind, (_, shift) in limit_laws._SERIES.items()}


@pytest.mark.parametrize(
    "model", [MIXTURE, BOUNDED_MIX, SLOW_MIX, ORDER_MIX, GEO_FINITE],
    ids=["mixture", "bounded", "slow", "order", "geometric-finite"],
)
def test_block_series_match_plain_python_oracle(model):
    for kind in limit_laws._SERIES:
        stream = EnvStream(model, np.random.default_rng(23), 12)
        sv, terms = limit_laws._series_terms(kind, stream, CFG)
        for row in range(12):
            used = int(sv.row_terms[row])
            pi, extinct, expect, ulps = _block_oracle(stream, row, kind, used)
            width = stream.length[row] + 1
            assert np.array_equal(stream.pi[row, :width], pi)
            assert np.all(np.abs(stream.extinct[row, :width] - extinct) <= ulps * np.spacing(extinct))
            assert terms[row, :used].tolist() == expect
            assert np.all(terms[row, used:] == 0.0)
            total = 0.0
            for t in expect:
                total += t
            assert sv.value[row] == total
            assert sv.tail_bound[row] == (1.0 / pi[used - 1 + _SHIFT[kind]]) / series_tail(model)[0]


def test_vector_norm_matches_direct_enumeration(rng):
    # first ten terms recomputed from exact pmf arrays, no pgf shortcuts
    env = EnvironmentModel.single(Finite((0.2, 0.3, 0.5)))
    stream = fresh_stream(env, rng)
    from brwre.limit_laws import _series_terms

    _, terms = _series_terms("cluster_vector", stream, CFG)
    law = env.support[0]
    for i in range(10):
        pmf = stream_pmf(stream, i, 2 ** i)  # Z_i <= 2^i
        s_total = pmf.sum()
        assert s_total == pytest.approx(1.0, abs=1e-12)
        dead = pmf[0]
        direct = sum(
            law.pmf(v) * (s_total ** v - dead ** v) for v in range(1, 3)
        ) / stream.pi[0, i + 1]
        assert terms[0, i] == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------- cluster laws


def test_cluster_size_binary_support_and_pmf(rng):
    stream = fresh_stream(BINARY, rng)
    sampler = ClusterSampler(stream, CFG)
    n = 20_000
    draws = sampler.sample_size(rng, np.zeros(n, dtype=int))
    logs = np.log2(draws)
    assert np.allclose(logs, np.round(logs))  # support in powers of two
    # chi-square against P(R = 2^i) = 2^-(i+1)
    i_vals = np.round(logs).astype(int)
    cap = 10
    obs = np.bincount(np.minimum(i_vals, cap), minlength=cap + 1)
    expect = np.array([n * 2.0 ** -(i + 1) for i in range(cap)] + [n * 2.0 ** -cap])
    stat = float(((obs - expect) ** 2 / expect).sum())
    assert stat < st.chi2.ppf(0.99, cap)


def test_cluster_size_ternary_support(rng):
    stream = fresh_stream(EnvironmentModel.single(Deterministic(3)), rng)
    sampler = ClusterSampler(stream, CFG)
    draws = sampler.sample_size(rng, np.zeros(500, dtype=int))
    logs = np.log(draws) / np.log(3.0)
    assert np.allclose(logs, np.round(logs))


def _chi_square_stat(draws, pmf) -> Tuple[float, int]:
    """Chi-square statistic of positive draws against a pmf on 0..rmax, cells
    1..rmax and the rest, cells expecting fewer than 5 pooled; and its degrees
    of freedom."""
    rmax, n = pmf.size - 1, draws.size
    obs = np.bincount(np.minimum(draws, rmax + 1), minlength=rmax + 2)[1:]
    expect = n * np.append(pmf[1:], max(1.0 - pmf[1:].sum(), 1e-12))
    keep = expect >= 5
    obs_k = np.append(obs[keep], obs[~keep].sum())
    exp_k = np.append(expect[keep], expect[~keep].sum())
    return float(((obs_k - exp_k) ** 2 / np.maximum(exp_k, 1e-9)).sum()), int(keep.sum())


def _assembled_size_pmf(stream, sampler, row: int, rmax: int) -> np.ndarray:
    """The cluster-size pmf of one row, from its exact generation-size pmfs."""
    pmf = np.zeros(rmax + 1)
    for i in range(int(sampler.size_norm.row_terms[row])):
        pmf += stream_pmf(stream, i, rmax, row) / stream.pi[row, i]
    return pmf / sampler.size_norm.value[row]


def _check_size_draws_against_assembled_pmf(model, rng) -> EnvStream:
    """Chi-square of 20 000 ``sample_size`` draws on a fresh stream against the
    pmf assembled from its exact generation-size pmfs; returns the stream."""
    stream = fresh_stream(model, rng)
    sampler = ClusterSampler(stream, CFG)
    pmf = _assembled_size_pmf(stream, sampler, 0, 25)
    stat, df = _chi_square_stat(sampler.sample_size(rng, np.zeros(20_000, dtype=int)), pmf)
    assert stat < st.chi2.ppf(0.99, df)
    return stream


def test_cluster_size_poisson_vs_assembled_pmf(rng):
    # two-route check: sampled frequencies against the pmf assembled from the
    # quenched generation-size arrays
    _check_size_draws_against_assembled_pmf(POISSON2, rng)


def test_cluster_size_mixture_vs_assembled_pmf(rng):
    # the walk puts the newest law at the root, as the composed pmfs do.  The
    # draw count was fixed before the run: against the root-first order,
    # computed from this stream's laws, 20 000 draws give a chi-square
    # non-centrality of about 160 on 25 cells, where MIXTURE gives about 5
    stream = _check_size_draws_against_assembled_pmf(ORDER_MIX, rng)
    assert len(set(stream.indices[0, : stream.length[0]].tolist())) == 2


def test_block_cluster_sizes_follow_their_own_rows(rng):
    # one array walk serves the big jumps of every row: 12 000 draws per row
    # of a three-row block, interleaved, each against its own row's
    # assembled pmf.  The level, 1% over the three rows, was fixed before
    # the run.
    stream = EnvStream(ORDER_MIX, rng, 3)
    sampler = ClusterSampler(stream, CFG)
    rows = np.tile(np.arange(3), 12_000)
    draws = sampler.sample_size(rng, rows)
    pmfs = [_assembled_size_pmf(stream, sampler, row, 25) for row in range(3)]
    for row in range(3):
        stat, df = _chi_square_stat(draws[rows == row], pmfs[row])
        assert stat < st.chi2.ppf(1.0 - 0.01 / 3, df)


def test_population_walk_matches_exact_generation_pmfs(rng):
    # Z_i drawn by the array walk for mixed rows and depths, in one shuffled
    # call, against the convolution oracle of each (row, depth); the level,
    # 1% over the six cells, was fixed before the run
    stream = EnvStream(ORDER_MIX, rng, 2)
    stream.grow(np.arange(2), 4)
    cells = [(row, depth) for row in range(2) for depth in (1, 2, 4)]
    n = 8000
    rows = np.repeat([c[0] for c in cells], n)
    gens = np.repeat([c[1] for c in cells], n)
    order = rng.permutation(rows.size)
    z = np.empty(rows.size, dtype=np.int64)
    z[order] = stream.simulate_population(rows[order], gens[order], rng)
    for k, (row, depth) in enumerate(cells):
        pmf = stream_pmf(stream, depth, 60, row)
        expect = n * np.append(pmf, max(1.0 - pmf.sum(), 0.0))
        obs = np.bincount(np.minimum(z[k * n : (k + 1) * n], 61), minlength=62)
        keep = expect >= 5
        obs_k = np.append(obs[keep], obs[~keep].sum())
        exp_k = np.append(expect[keep], expect[~keep].sum())
        stat = float(((obs_k - exp_k) ** 2 / np.maximum(exp_k, 1e-9)).sum())
        assert stat < st.chi2.ppf(1.0 - 0.01 / len(cells), max(int(keep.sum()) - 1, 1))


def test_cluster_vector_binary(rng):
    sampler = ClusterSampler(fresh_stream(BINARY, rng), CFG)
    for _ in range(40):
        v, sizes = sampler.sample_brood_vector(rng, [0])
        assert v[0] == 2
        assert sizes[0] == sizes[1]
        assert sizes[0] >= 1 and (sizes[0] & (sizes[0] - 1)) == 0  # power of two


def test_cluster_vector_marginal_matches_enumeration(rng):
    # P(V = v) enumerated from the series terms for a fixed Poisson environment
    stream = fresh_stream(POISSON2, rng)
    cfg = CFG
    sampler = ClusterSampler(stream, cfg)
    from brwre.limit_laws import _series_terms

    c1, _ = _series_terms("cluster_vector", stream, cfg)
    terms = c1.terms_used
    law = POISSON2.support[0]
    vmax = 12
    marginal = np.zeros(vmax + 1)
    for i in range(terms):
        e_i = stream.extinct[0, i]
        for v in range(1, vmax + 1):
            marginal[v] += law.pmf(v) * (1.0 - e_i ** v) / stream.pi[0, i + 1]
    marginal /= c1.value[0]
    n = 20_000
    draws = sampler.sample_brood_vector(rng, np.zeros(n, dtype=int))[0]
    for v in range(1, 7):
        p = marginal[v]
        se = math.sqrt(p * (1 - p) / n)
        assert abs((draws == v).mean() - p) < 3 * se + 1e-3


def test_cluster_size_one_prob_binary(rng):
    stream = fresh_stream(BINARY, rng)
    sampler = ClusterSampler(stream, CFG)
    assert sampler.single_descendant_prob() == pytest.approx(0.5, rel=1e-8)


def test_single_descendant_prob_matches_exact_pmfs(rng):
    # the chain rule against P(Z_i = 1) of the convolution oracle, on
    # streams whose two law orders give different sizes
    for _ in range(5):
        stream = fresh_stream(ORDER_MIX, rng)
        sampler = ClusterSampler(stream, CFG)
        exact = sum(
            stream_pmf(stream, i, 1)[1] / stream.pi[0, i] for i in range(sampler.size_norm.terms_used)
        ) / sampler.size_norm.value
        assert sampler.single_descendant_prob() == pytest.approx(exact, rel=1e-12)


# ------------------------------------------------------------------- Q draws


def test_q_binary_iid_exact(rng):
    for p in (1.0, 0.4):
        s = sample_q(DisplacementModel.iid(2.0, p), BINARY, CFG, rng)
        assert s.q == pytest.approx(2.0 * p, rel=1e-8)
        assert s.w == 1.0
        assert s.c_value == pytest.approx(2.0, rel=1e-8)


def test_q_binary_full_dep_exact(rng):
    s = sample_q(DisplacementModel.full_dep(2.0, 1.0), BINARY, CFG, rng)
    assert s.q == pytest.approx(1.0, rel=1e-8)


def test_q_binary_angular_diagonal_exact(rng):
    s = sample_q(DisplacementModel.diagonal_angular(2.0, 2), BINARY, CFG, rng)
    assert s.q == pytest.approx(1.0, rel=1e-8)


def test_q_general_equals_shortcut_per_sample(rng):
    # identical W and environment streams via a shared seed
    for offset, disp in (
        (1000, DisplacementModel.iid(2.0, 0.6)),
        (2000, DisplacementModel.full_dep(2.0, 0.6)),
    ):
        for r in range(40):
            a = sample_q(disp, BOUNDED_MIX, CFG, np.random.default_rng((offset, r)), "shortcut")
            b = sample_q(disp, BOUNDED_MIX, CFG, np.random.default_rng((offset, r)), "general")
            assert abs(a.q - b.q) <= 1e-6 + CFG.series_tol * abs(a.q)


def test_q_shortcut_refusal_draws_nothing():
    # an angular model has no closed shortcut: the refusal comes before the
    # first draw, so the generator is where the caller left it
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="no shortcut"):
        sample_q(DisplacementModel.diagonal_angular(2.0, 3), BOUNDED_MIX, CFG, rng, "shortcut", size=64)
    assert rng.bit_generator.state == before


def test_q_general_rejects_unbounded_progeny(rng):
    with pytest.raises(UnboundedProgenyInGeneralMode):
        sample_q(DisplacementModel.iid(2.0, 1.0), POISSON2, CFG, rng, "general")


def test_q_angular_matches_full_dep_per_sample(rng):
    full = DisplacementModel.full_dep(2.0, 0.7)
    # 24 coordinates: 2^24 exceedance patterns, far past any enumeration
    for k, law in ((3, Binomial(3, 0.8)), (24, Binomial(24, 0.2))):
        angular = DisplacementModel.diagonal_angular(2.0, k, 0.7)
        env = EnvironmentModel.single(law)
        for r in range(25):
            a = sample_q(angular, env, CFG, np.random.default_rng(r), "general")
            b = sample_q(full, env, CFG, np.random.default_rng(r), "shortcut")
            assert abs(a.q - b.q) <= 1e-6 + CFG.series_tol * abs(a.q)


@pytest.mark.parametrize("disp, method", [
    (DisplacementModel.iid(2.0, 0.6), "shortcut"),
    (DisplacementModel.full_dep(2.0, 0.6), "shortcut"),
    (DisplacementModel.diagonal_angular(2.0, 3, 0.6), "general"),
])
def test_one_draw_is_row_zero_of_a_block_of_one(disp, method):
    # size=None is the one one-draw mode left: row 0 of a block of one, on
    # the same stream, with plain floats for the fields and the scale
    one = sample_q(disp, BOUNDED_MIX, CFG, np.random.default_rng(41), method)
    block = sample_q(disp, BOUNDED_MIX, CFG, np.random.default_rng(41), method, size=1)
    for field in ("q", "w", "c_value"):
        assert type(getattr(one, field)) is float
        assert getattr(one, field) == getattr(block, field)[0]
    cfg = LimitConfig(u_min=0.2)
    m, scale = sample_limit_point_process(disp, BOUNDED_MIX, cfg, np.random.default_rng(42))
    measures, scales = sample_limit_point_process(disp, BOUNDED_MIX, cfg, np.random.default_rng(42), size=1)
    assert isinstance(m, PointMeasure) and isinstance(measures, MeasureBlock) and len(measures) == 1
    assert m.n_atoms > 0
    assert np.array_equal(m.locations, measures[0].locations)
    assert np.array_equal(m.multiplicities, measures[0].multiplicities)
    assert type(scale) is float and scale == scales[0]


# ------------------------------------------------------------------ limit CDFs


def test_limit_max_cdf_degenerate():
    samples = QSample(q=np.full(4, 3.0), w=np.ones(4), c_value=np.full(4, 3.0))
    for x in (0.5, 1.0, 2.0):
        assert limit_max_cdf(samples, x, 2.0) == pytest.approx(math.exp(-3.0 * x ** -2.0))


def test_limit_max_cdf_binary_value(rng):
    qs = sample_q(DisplacementModel.iid(2.0, 1.0), BINARY, CFG, rng, size=50)
    assert limit_max_cdf(qs, 1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_limit_max_cdf_monotone_to_one():
    samples = QSample(q=np.array([2.0]), w=np.array([1.0]), c_value=np.array([2.0]))
    vals = [limit_max_cdf(samples, x, 2.0) for x in (1.0, 5.0, 50.0, 5000.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999999


def test_limit_max_cdf_homogeneity_algebraic():
    qs = np.array([0.5, 2.0, 7.0])
    samples = QSample(q=qs, w=np.ones(3), c_value=qs)
    s = 1.7
    scaled = QSample(q=samples.q * s ** 2.0, w=samples.w, c_value=samples.c_value)
    for x in (0.8, 1.0, 2.5):
        assert limit_max_cdf(samples, x / s, 2.0) == pytest.approx(
            limit_max_cdf(scaled, x, 2.0), rel=1e-12
        )


def test_joint_min_max_examples(rng):
    qs = sample_q(DisplacementModel.iid(2.0, 1.0), BINARY, CFG, rng, size=20)
    # p = 1: no mass on the negative side, y is irrelevant
    a = joint_min_max_cdf(qs, 1.0, 0.3, 2.0, 1.0)
    b = joint_min_max_cdf(qs, 1.0, 30.0, 2.0, 1.0)
    assert a == pytest.approx(b, rel=1e-12)
    # p = 1/2 at x = y = 1: exponent is the full size normalizer
    c = joint_min_max_cdf(qs, 1.0, 1.0, 2.0, 0.5)
    assert c == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_top_two_examples(rng):
    qs = sample_q(DisplacementModel.iid(2.0, 1.0), BINARY, CFG, rng, size=20)
    # singleton clusters: the top-two law of the undecorated Poisson process
    ones = np.ones(qs.q.size)
    assert top_two_cdf_multiplicity_adjusted(qs, 1.0, 1.0, 2.0, 1.0, ones) == pytest.approx(math.exp(-2.0), rel=1e-6)
    with pytest.raises(ArgumentOrder):
        top_two_cdf_multiplicity_adjusted(qs, 2.0, 1.0, 2.0, 1.0, ones)
    # joint law sandwiched between the marginal CDFs at the two thresholds
    tt = top_two_cdf_multiplicity_adjusted(qs, 1.0, 2.0, 2.0, 1.0, ones)
    assert limit_max_cdf(qs, 1.0, 2.0) - 1e-12 <= tt <= limit_max_cdf(qs, 2.0, 2.0) + 1e-12


def test_top_two_multiplicity_adjusted_bounds(rng):
    qs = sample_q(DisplacementModel.iid(2.0, 0.5), BINARY, CFG, rng, size=20)
    plain = top_two_cdf_multiplicity_adjusted(qs, 1.0, 2.0, 2.0, 0.5, np.ones(qs.q.size))
    adjusted = top_two_cdf_multiplicity_adjusted(qs, 1.0, 2.0, 2.0, 0.5, [0.5] * qs.q.size)
    assert adjusted < plain  # size-one clusters are rarer than clusters


# --------------------------------------------------------------- point process


def test_pp_radial_point_count(rng):
    cfg = LimitConfig(u_min=0.05, n_limit_samples=1)
    disp = DisplacementModel.iid(2.0, 1.0)
    n = 400
    counts = {1.0: [], 2.0: []}
    for m, scale in zip(*sample_limit_point_process(disp, BINARY, cfg, rng, size=n)):
        for u in counts:
            # atom radius in point units is |location| / scale
            counts[u].append(int((np.abs(m.locations / scale) > u).sum()))
    for u, vals in counts.items():
        vals = np.asarray(vals, dtype=float)
        lam = u ** -2.0
        assert abs(vals.mean() - lam) < 3 * math.sqrt(lam / n)


def test_pp_max_atom_frechet(rng):
    cfg = LimitConfig(u_min=0.2)
    disp = DisplacementModel.iid(2.0, 1.0)
    n = 4000
    draws, _ = sample_limit_point_process(disp, BINARY, cfg, rng, size=n)
    maxima = np.array([m.locations.max() if m.n_atoms else 0.0 for m in draws])
    # independent oracle: Frechet with scale (C3 W)^(1/alpha) = sqrt(2)
    frechet = math.sqrt(2.0) * rng.exponential(size=n) ** -0.5
    assert st.ks_2samp(maxima, frechet).pvalue > 1e-4


def test_pp_full_dep_multiplicities(rng):
    cfg = LimitConfig(u_min=0.5)
    disp = DisplacementModel.full_dep(2.0, 1.0)
    m, _ = sample_limit_point_process(disp, BINARY, cfg, rng)
    assert np.all(m.multiplicities >= 2)  # binary broods: two lines survive


def test_pp_expected_count_above_threshold(rng):
    x = 1.3
    # u_min placed exactly at the coverage edge for this threshold
    cfg = LimitConfig(u_min=x / math.sqrt(2.0))
    disp = DisplacementModel.iid(2.0, 1.0)
    n = 600
    counts = np.array([m.n_atoms for m in sample_limit_point_process(disp, BINARY, cfg, rng, size=n)[0]], dtype=float)
    lam = 2.0 * x ** -2.0
    assert abs(counts.mean() - lam) < 3 * math.sqrt(lam / n)


def test_pp_coverage_floor(rng):
    cfg = LimitConfig(u_min=0.3)
    disp = DisplacementModel.iid(2.0, 0.5)
    for _ in range(20):
        m, scale = sample_limit_point_process(disp, BINARY, cfg, rng)
        if m.n_atoms:
            assert np.abs(m.locations).min() >= scale * cfg.u_min - 1e-12


def test_pp_angular_atoms(rng):
    cfg = LimitConfig(u_min=0.4)
    disp = DisplacementModel.discrete_angular(
        2.0, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [3.0, 3.0, 1.0, 1.0]
    )
    env = EnvironmentModel.single(Deterministic(2))
    signs = []
    for m in sample_limit_point_process(disp, env, cfg, rng, size=300)[0]:
        signs.extend(np.sign(m.locations).tolist())
    # derived balance 0.75 shows up in the atom signs
    signs = np.asarray(signs)
    frac = (signs > 0).mean()
    assert abs(frac - 0.75) < 3 * math.sqrt(0.75 * 0.25 / signs.size)


def test_pp_angular_max_atom_matches_general_q(rng):
    # the point-process draw (brood vectors over angular atoms) and the
    # general Q series (exceedance-count masses) are separate code; both give
    # P(max atom <= x) = E exp(-x^-alpha Q) wherever x is above the floor
    row = np.array([0.6, -0.8, 0.0])
    disp = DisplacementModel.discrete_angular(2.0, [np.roll(row, s) for s in range(3)], [1.0] * 3)
    cfg = LimitConfig(u_min=0.5)
    grid = (2.0, 3.0, 4.0, 6.0)
    n, delta = 1500, 1e-3
    # DKW for the point-process ECDF, Hoeffding over the grid for the Q means
    tol = math.sqrt(math.log(2 / delta) / (2 * n)) + math.sqrt(math.log(2 * len(grid) / delta) / (2 * n))
    draws, scales = sample_limit_point_process(disp, BOUNDED_MIX, cfg, rng, size=n)
    assert np.all(scales * cfg.u_min < grid[0])
    maxima = np.array([m.locations.max() if m.n_atoms else -np.inf for m in draws])
    qs = sample_q(disp, BOUNDED_MIX, cfg, rng, "general", size=n)
    for x in grid:
        assert abs((maxima <= x).mean() - limit_max_cdf(qs, x, disp.alpha)) < tol


def test_pp_angular_refuses_broods_wider_than_coordinates():
    # a Poisson brood can exceed the two coordinates; the draw refuses the
    # model before it reads the rng, as SimConfig does, not mid-draw
    rng = np.random.default_rng(3)
    disp = DisplacementModel.diagonal_angular(2.0, 2)
    with pytest.raises(ValueError, match="within the 2 angular coordinates"):
        sample_limit_point_process(disp, EnvironmentModel.single(Poisson(3.0)), CFG, rng)
    assert rng.random() == np.random.default_rng(3).random()


def test_pp_draws_never_compose_pmfs(monkeypatch):
    # every cluster size comes from the population walk, not a composed pmf
    def refuse(*args):
        raise AssertionError("a point-process draw composed a generation pmf")

    monkeypatch.setattr(limit_laws, "compose_generation", refuse)
    rng = np.random.default_rng(11)
    disp = DisplacementModel.iid(2.0, 1.0)
    for _ in range(20):
        m, _ = sample_limit_point_process(disp, MIXTURE, LimitConfig(u_min=0.2), rng)
        assert np.all(m.multiplicities >= 1)


def test_near_critical_draws_finish(rng):
    # Poisson(1.3) once returned all 4097 coefficients, and these five draws
    # took about 10 s composing its pmfs by convolution powers
    env = EnvironmentModel.single(Poisson(1.3))
    disp = DisplacementModel(alpha=2.0, p=1.0, mode="iid")
    cfg = LimitConfig(u_min=0.2)
    t0 = time.perf_counter()
    for _ in range(5):
        sample_limit_point_process(disp, env, cfg, rng)
    assert time.perf_counter() - t0 < 5.0
