"""Every categorical draw lands on a positive-weight category of its own law,
also for the largest uniform below 1, where float rounding leaves a gap
between the last cumulative weight and the uniform."""

import numpy as np
import pytest

from brwre.displacement import DisplacementModel, _invert, _pareto, brood_flat, draw_steps
from brwre.environment import EnvironmentModel, sample_env
from brwre.limit_laws import ClusterSampler, EnvStream, LimitConfig, cluster_norm_series
from brwre.offspring import Binomial, Deterministic, Finite, Geometric, Poisson


class TopUniform:
    """A stand-in rng whose every uniform is 1 - 2^-53."""

    u = 1.0 - 2.0 ** -53

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


TOP = TopUniform()
# weights that pass validation but sum to 1 - 1e-13, below the top uniform
SHORT = (0.5, 0.5 - 1e-13)
# every family whose child counts come from a guide table
TABLE_LAWS = [Poisson(2.0), Geometric(0.6), Binomial(3, 0.7), Finite((0.2, 0.3, 0.5)), Finite(SHORT)]


class FixedUniforms:
    """A stand-in rng that hands out the given uniforms, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def test_environment_draws_stay_in_support():
    for weights in (SHORT, SHORT + (0.0,)):
        model = EnvironmentModel((Poisson(2.0), Poisson(3.0), Poisson(4.0))[: len(weights)], weights)
        assert model.draw_indices(TOP, 5).tolist() == [1] * 5
        assert model.draw_indices(TOP, 1).tolist() == [1]
        assert sample_env(model, 3, TOP).laws == [Poisson(3.0)] * 3


def test_finite_child_counts_stay_in_support():
    assert Finite(SHORT).sample_many(TOP, 5).tolist() == [1] * 5
    assert Finite(SHORT + (0.0,)).sample_many(TOP, 5).tolist() == [1] * 5


# its second cut exceeds 1, which no uniform reaches
@pytest.mark.parametrize("law", TABLE_LAWS + [Finite((0.5, 0.5 + 1e-13, 1e-14))], ids=repr)
def test_child_count_guide_equals_cut_point_search(law):
    cuts = law._table.cuts
    edges = np.arange(2 ** 16 + 1) / 2 ** 16
    u = np.concatenate([
        np.random.default_rng(7).random(200_000),
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0),
        cuts,
        np.nextafter(cuts, 0.0),
        np.nextafter(cuts, 1.0),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    draws = law.sample_many(FixedUniforms(u), u.size)
    assert draws.dtype == np.int64
    assert np.array_equal(draws, np.searchsorted(cuts, u, side="right"))


@pytest.mark.parametrize("law", TABLE_LAWS, ids=repr)
def test_child_counts_at_top_uniform_take_last_table_category(law):
    last = law._table.cuts.size
    assert law.sample_many(TOP, 5).tolist() == [last] * 5
    assert law.pmf(last) > 0.0


def test_angular_atom_draws_stay_in_support():
    d = np.full(2, 2 ** -0.5)
    model = DisplacementModel.discrete_angular(2.0, [d, -d, d], [0.95, 0.313, 0.424])
    w = np.asarray(model.weights)
    assert np.cumsum(w / w.sum())[-1] == TopUniform.u  # the rounding edge itself
    # every step, of a brood or of a limit point, gets the last atom and the
    # magnitude of the residual (1 - u) / (1 - last cut), the smallest there is
    residual = (1.0 - TopUniform.u) / (1.0 - model._table[0][-1])
    magnitude = 1.0 / np.sqrt(residual)
    x, atom = draw_steps(model, 4, TOP)
    assert atom.tolist() == [2] * 4 and np.array_equal(x, np.full(4, magnitude))
    # brood_flat puts coordinates by brood rank on the radial floor's scale
    x = brood_flat(model, np.array([2, 1]), TOP)
    radius = model.radial_floor * magnitude
    assert np.isfinite(radius) and radius >= model.radial_floor
    assert np.array_equal(x, radius * model.atom_matrix()[2, [0, 1, 0]])


@pytest.mark.parametrize("p", [0.3, 0.5, 0.999])
def test_sign_draw_edges(p):
    # one uniform per step: [0, p) is the positive side, [p, 1) the negative
    # one, and the residual (top - u) / width in (0, 1] is the magnitude's
    # uniform; it is 1 at each side's lower end
    u = np.array([0.0, np.nextafter(p, 0.0), p, np.nextafter(p, 1.0), TopUniform.u])
    for model in (DisplacementModel.iid(2.0, p), DisplacementModel.full_dep(1.5, p)):
        residual = u.copy()
        side = _invert(model._table, residual)
        assert side.tolist() == [0, 0, 1, 1, 1]
        assert np.all((residual > 0.0) & (residual <= 1.0))
        assert residual[0] == residual[2] == 1.0
        x = brood_flat(model, np.ones(u.size, dtype=np.int64), FixedUniforms(u))
        assert np.array_equal(x > 0.0, u < p)
        assert np.all(np.isfinite(x)) and np.all(np.abs(x) >= 1.0)
        assert np.abs(x)[[0, 2]].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("n_atoms", [4, 2])
def test_angular_draw_edges(n_atoms):
    # each cut and its neighbours: the cut opens the next atom with residual
    # 1, the radial floor itself; every radius is finite and at least the floor
    d = np.full(2, 2 ** -0.5)
    atoms, weights = [d, -d, [0.6, 0.8], [0.8, 0.6]][:n_atoms], [0.95, 0.313, 0.424, 0.424][:n_atoms]
    model = DisplacementModel.discrete_angular(2.0, atoms, weights)
    cuts = model._table[0]
    assert cuts.size == n_atoms - 1
    u = np.concatenate(([0.0, TopUniform.u], cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)))
    residual = u.copy()
    atom = _invert(model._table, residual)
    assert np.array_equal(atom, np.searchsorted(cuts, u, side="right"))
    lows = np.append(0.0, cuts)[atom]
    tops = np.append(cuts, 1.0)[atom]
    assert np.all((lows <= u) & (u < tops))
    assert np.all((residual > 0.0) & (residual <= 1.0))
    assert np.all(residual[[0, *range(2, 2 + cuts.size)]] == 1.0)
    x = brood_flat(model, np.full(u.size, 2), FixedUniforms(u)).reshape(u.size, 2)
    radii = model.radial_floor * _pareto(residual, 0.5)
    assert np.all(np.isfinite(radii)) and np.all(radii >= model.radial_floor)
    assert np.array_equal(x, radii[:, None] * model.atom_matrix()[atom])


def test_cluster_sampler_draws_stay_in_support():
    # under Deterministic(2) every Z_i is 2^i: the top uniform picks the last
    # generation of positive weight and then the one size it can have
    cfg = LimitConfig()
    stream = EnvStream(EnvironmentModel.single(Deterministic(2)), np.random.default_rng(1))
    sampler = ClusterSampler(stream, cfg)
    assert sampler.sample_size(TOP, [0]).tolist() == [2 ** (sampler.size_norm.terms_used - 1)]
    v, sizes = sampler.sample_brood_vector(TOP, [0])
    last = cluster_norm_series("_inverse_mean_next", stream, cfg).terms_used - 1
    assert v.tolist() == [2] and sizes.tolist() == [2 ** last] * 2
    # the population walk gives Z_i = 2^i
    for i in (1, 3, 6):
        assert stream.simulate_population(np.array([0]), np.array([i]), TOP).tolist() == [2 ** i]
