import numpy as np
import pytest

from brwre.measures import MeasureBlock, PointMeasure, group_by_draw


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


def rows_of(block):
    return [list(zip(m.locations.tolist(), m.multiplicities.tolist())) for m in block]


def test_block_rejects_what_a_measure_rejects_row_by_row():
    ok = ([0, 2, 3], [-1.0, 2.0, 1.0], [1, 2, 3])
    MeasureBlock(*ok)
    bad = [
        ([0, 2, 3], [-1.0, 0.0, 1.0], [1, 2, 3]),  # a zero location
        ([0, 2, 3], [-1.0, 2.0, 1.0], [1, 0, 3]),  # a multiplicity below 1
        ([0, 2, 3], [-1.0, 2.0, 1.0], [1, -4, 3]),
        ([0, 3], [-1.0, 2.0, 2.0], [1, 2, 3]),  # a repeated location within a row
        ([0, 3], [-1.0, 2.0, 1.0], [1, 2, 3]),  # a decreasing location within a row
        ([0, 1, 1, 3], [5.0, 2.0, 1.0], [1, 2, 3]),  # decreasing after an empty row
        ([1, 2, 3], [-1.0, 2.0, 1.0], [1, 2, 3]),  # offsets that do not start at 0
        ([0, 2, 1, 3], [-1.0, 2.0, 1.0], [1, 2, 3]),  # offsets that decrease
        ([0, 2, 2], [-1.0, 2.0, 1.0], [1, 2, 3]),  # offsets that miss the atom count
        ([0, 2, 4], [-1.0, 2.0, 1.0], [1, 2, 3]),
        ([], [], []),  # no offsets at all
        ([0, 2, 3], [-1.0, 2.0, 1.0], [1, 2]),  # unequal lengths
    ]
    for case in bad:
        with pytest.raises(ValueError):
            MeasureBlock(*case)
    # rows may start at or below the end of the row before; empty rows sit
    # at the front, in the middle and at the end
    block = MeasureBlock([0, 0, 2, 2, 4, 4], [1.0, 3.0, 3.0, 4.0], [1, 2, 3, 4])
    assert len(block) == 5 and rows_of(block) == [[], [(1.0, 1), (3.0, 2)], [], [(3.0, 3), (4.0, 4)], []]
    with pytest.raises(IndexError):
        block[5]
    assert len(MeasureBlock([0], [], [])) == 0
    for a in (block.offsets, block.locations, block.multiplicities, block[1].locations):
        assert not a.flags.writeable


def test_block_counts_equal_per_row_counts():
    rng = np.random.default_rng(5)
    size = 300
    draws = rng.integers(0, size, 3000)
    draws[draws % 7 == 0] += 1  # rows with no atoms, among them row 0
    locs = rng.choice([-3.0, -1.0, 0.5, 1.0, 2.0, 4.0], 3000) * rng.integers(1, 6, 3000)
    block = group_by_draw(draws, locs, rng.integers(1, 4, 3000), size + 1)
    assert block.locations.size > 1000 and block[0].n_atoms == 0
    assert sum(m.n_atoms == 0 for m in block) > 20
    xs = (-np.inf, -4.0, 0.5, 1.0, 2.0, 2.5, 8.0, 20.0, np.inf)  # several at an atom's exact location
    counts = block.counts_above(xs)
    assert counts.dtype == np.int64 and counts.shape == (size + 1, len(xs))
    assert counts.tolist() == [[m.count_above(x) for x in xs] for m in block]
    assert MeasureBlock([0, 0], [], []).counts_above(xs).tolist() == [[0] * len(xs)]
    assert block.counts_above(()).shape == (size + 1, 0)


def test_concat_equals_one_grouping():
    # blocks with empty rows at their edges, joined, equal one grouping of
    # the same atoms over all their rows
    rng = np.random.default_rng(8)
    sizes = (5, 1, 6, 4)
    draws = rng.integers(1, 15, 200)
    draws = draws[(draws != 5) & (draws != 6) & (draws != 11)]  # empty rows 0, 5, 6, 11, 15
    locs = rng.choice([-2.0, 1.0, 3.0], draws.size) * rng.integers(1, 3, draws.size)
    mults = rng.integers(1, 4, draws.size)
    starts = np.cumsum((0,) + sizes)
    blocks = [
        group_by_draw(draws[sel] - lo, locs[sel], mults[sel], hi - lo)
        for lo, hi in zip(starts, starts[1:])
        for sel in [(draws >= lo) & (draws < hi)]
    ]
    assert [len(b) for b in blocks] == list(sizes)
    assert [[m.n_atoms == 0 for m in b] for b in blocks] == [
        [True, False, False, False, False], [True], [True, False, False, False, False, True], [False] * 3 + [True]
    ]
    joined, whole = MeasureBlock.concat(blocks), group_by_draw(draws, locs, mults, sum(sizes))
    for field in ("offsets", "locations", "multiplicities"):
        assert getattr(joined, field).tolist() == getattr(whole, field).tolist()
