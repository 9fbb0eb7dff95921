import numpy as np
import pytest

from brwre.measures import PointMeasure, group_by_draw


def test_from_locations_groups_duplicates():
    m = PointMeasure.from_locations(np.array([2.0, 1.0, 2.0, -3.0]))
    assert m.locations.tolist() == [-3.0, 1.0, 2.0]
    assert m.multiplicities.tolist() == [1, 1, 2]
    assert m.total_mass == 4


def test_counts():
    m = PointMeasure(np.array([-2.0, 0.5, 1.5]), np.array([2, 1, 3]))
    assert m.count_above(1.0) == 3
    assert m.count_above(0.0) == 4
    assert m.count_below(0.0) == 2
    assert m.count_above(5.0) == 0


def test_count_monotone():
    rng = np.random.default_rng(3)
    m = PointMeasure.from_locations(rng.standard_cauchy(500))
    grid = np.linspace(-5, 5, 41)
    counts = [m.count_above(x) for x in grid]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_invariants_rejected():
    with pytest.raises(ValueError):
        PointMeasure(np.array([0.0]), np.array([1]))
    with pytest.raises(ValueError):
        PointMeasure(np.array([1.0]), np.array([0]))
    with pytest.raises(ValueError):
        PointMeasure(np.array([2.0, 1.0]), np.array([1, 1]))


def dict_grouping(draws, locations, multiplicities, size):
    """The grouping by draw in plain Python: per draw, location -> summed multiplicity."""
    groups = [{} for _ in range(size)]
    for d, x, k in zip(draws, locations, multiplicities):
        if x != 0.0 and k > 0:
            groups[d][x] = groups[d].get(x, 0) + k
    return [sorted(g.items()) for g in groups]


def test_group_by_draw_merges_and_drops():
    m, = group_by_draw([0, 0, 0, 0], [3.0, -1.0, 3.0, 0.0], [1, 2, 4, 7], 1)
    assert m.locations.tolist() == [-1.0, 3.0]
    assert m.multiplicities.tolist() == [2, 5]
    # several draws, empty ones among them (in front, between and behind),
    # atoms given out of draw order, zero and negative-zero coordinates, zero
    # multiplicities, and a diagonal angular brood whose two members share
    # one location; no atom merges across draws
    d = 2 ** -0.5
    draws = [3, 1, 3, 1, 6, 3, 1, 3, 1, 6, 6, 1]
    locs = [2 * d, 3.0, 2 * d, -0.0, 5.0, -1.5, 3.0, 0.0, -2.0, 5.0, 2 * d, 2 * d]
    mults = [4, 1, 4, 9, 0, 2, 6, 3, 1, 2, 1, 5]
    measures = group_by_draw(draws, locs, mults, 8)
    assert len(measures) == 8
    want = dict_grouping(draws, locs, mults, 8)
    assert [list(zip(m.locations.tolist(), m.multiplicities.tolist())) for m in measures] == want
    assert want[3] == [(-1.5, 2), (2 * d, 8)] and want[1] == [(-2.0, 1), (2 * d, 5), (3.0, 7)]
    assert [m.n_atoms for m in measures] == [0, 3, 0, 2, 0, 0, 2, 0]
    # a block of random draws against the dict grouping
    rng = np.random.default_rng(11)
    draws = rng.integers(0, 40, 3000)
    locs = rng.choice([0.0, -0.0, 1.0, -2.5, 0.5, 7.0], 3000) * rng.integers(1, 4, 3000)
    mults = rng.integers(0, 5, 3000)
    measures = group_by_draw(draws, locs, mults, 43)
    assert [list(zip(m.locations.tolist(), m.multiplicities.tolist())) for m in measures] == dict_grouping(
        draws.tolist(), locs.tolist(), mults.tolist(), 43
    )
    assert all(m.n_atoms == 0 for m in group_by_draw([], [], [], 3))


def test_empty():
    m = PointMeasure.empty()
    assert m.n_atoms == 0 and m.total_mass == 0
