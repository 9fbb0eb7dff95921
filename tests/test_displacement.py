import itertools
import math

import numpy as np
import pytest
from scipy import stats as st

from brwre import limit_laws
from brwre.displacement import (
    DisplacementModel,
    brood_flat,
    exceedance_masses,
    norming_constant,
)
from brwre.environment import EnvironmentModel
from brwre.limit_laws import LimitConfig, sample_limit_point_process
from brwre.measures import group_by_draw
from brwre.offspring import Deterministic
from pattern_oracle import enumerated_masses


def test_norming_constant_examples():
    assert norming_constant(1024.0, 2.0) == 32.0
    assert norming_constant(1.0, 3.7) == 1.0
    assert norming_constant(0.5, 2.0) == 1.0  # floored at the s >= 1 infimum
    assert norming_constant(6.0 ** 10, 3.0) == pytest.approx(6.0 ** (10.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        norming_constant(0.0, 2.0)


def test_full_dep_brood_identical(rng):
    x = brood_flat(DisplacementModel.full_dep(2.0, 0.5), np.array([3]), rng)
    assert x.size == 3
    assert x[0] == x[1] == x[2]


def test_iid_pareto_tail_exact(rng):
    model = DisplacementModel.iid(2.0, 1.0)
    n = 1_000_000
    x = brood_flat(model, np.ones(n, dtype=np.int64), rng)
    assert np.all(x >= 1.0)
    p = 0.01
    se = math.sqrt(p * (1 - p) / n)
    assert abs((x > 10.0).mean() - p) < 3 * se
    # exact Pareto at several thresholds, binomial CI
    for t in (1.5, 2.0, 5.0, 30.0):
        pt = t ** -2.0
        assert abs((x > t).mean() - pt) < 3 * math.sqrt(pt * (1 - pt) / n) + 1e-9


def test_iid_signed_balance(rng):
    model = DisplacementModel.iid(1.5, 0.3)
    x = brood_flat(model, np.ones(200_000, dtype=np.int64), rng)
    assert abs((x > 0).mean() - 0.3) < 3 * math.sqrt(0.3 * 0.7 / x.size)
    # |X| has the standard tail regardless of sign
    assert abs((np.abs(x) > 4.0).mean() - 4.0 ** -1.5) < 3 * math.sqrt(4.0 ** -1.5 / x.size)


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_one_sided_draws_are_the_plain_pareto_stream(alpha):
    # at p = 1 and p = 0 the uniform is the magnitude itself: iid steps are
    # +/- u^(-1/alpha) (1/sqrt(u) at alpha = 2), full_dep ones repeat them
    counts = np.array([1, 2, 0, 3] * 250, dtype=np.int64)
    for mode, units in (("iid", int(counts.sum())), ("full_dep", counts.size)):
        for p, sign in ((1.0, 1.0), (0.0, -1.0)):
            rng, ref = np.random.default_rng(5), np.random.default_rng(5)
            x = brood_flat(DisplacementModel(alpha, p, mode), counts, rng)
            u = ref.random(units)
            want = sign * (1.0 / np.sqrt(u) if alpha == 2.0 else u ** (-1.0 / alpha))
            want = want if mode == "iid" else np.repeat(want, counts)
            assert np.array_equal(x.view(np.int64), want.view(np.int64)), (mode, p)
            assert rng.bit_generator.state == ref.bit_generator.state


def limit_steps(model, n_draws, rng, monkeypatch):
    """The points of ``n_draws`` limit point-process draws as steps: every
    atom handed to the grouping over its draw's scale times u_min, one row
    per point.  Under Deterministic(2) every brood has two members and every
    cluster size is positive, so the rows are whole."""
    handed = {}

    def grouping(owner, locs, mults, size):
        handed.update(owner=owner, locs=locs)
        return group_by_draw(owner, locs, mults, size)

    monkeypatch.setattr(limit_laws, "group_by_draw", grouping)
    cfg = LimitConfig(u_min=0.05)
    _, scales = sample_limit_point_process(model, EnvironmentModel.single(Deterministic(2)), cfg, rng, size=n_draws)
    steps = handed["locs"] / (scales[handed["owner"]] * cfg.u_min)
    return steps if model.mode == "iid" else steps.reshape(-1, 2)


@pytest.mark.parametrize("mode", ["iid", "full_dep"])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_sign_and_magnitude_laws(mode, p, rng, monkeypatch):
    # the side of the step's uniform is the sign, its residual the magnitude:
    # side frequency p, an exact Pareto tail on each side, and sign
    # independent of {|X| > 2}, for the simulator's steps and for the limit
    # point process's points.  The 2x2 table's level, 0.001 per case and
    # input, was fixed before the run
    model = DisplacementModel(1.5, p, mode)
    brood = brood_flat(model, np.ones(400_000, dtype=np.int64), rng)
    limit = limit_steps(model, 2000, rng, monkeypatch)
    if mode == "full_dep":
        assert np.array_equal(limit[:, 0], limit[:, 1])
        limit = limit[:, 0]
    # a limit step is recovered by a division, so its floor holds to rounding
    for x, floor in ((brood, 1.0), (limit, 1.0 - 1e-12)):
        n = x.size
        positive = x > 0.0
        assert abs(positive.mean() - p) < 3 * math.sqrt(p * (1 - p) / n)
        for side in (positive, ~positive):
            mags = np.abs(x[side])
            assert mags.min() >= floor
            for t in (1.5, 4.0, 20.0):
                pt = t ** -1.5
                assert abs((mags > t).mean() - pt) < 3 * math.sqrt(pt * (1 - pt) / mags.size)
        big = np.abs(x) > 2.0
        table = np.array([[np.count_nonzero(s & b) for b in (big, ~big)] for s in (positive, ~positive)])
        expect = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / n
        assert ((table - expect) ** 2 / expect).sum() < st.chi2.ppf(1.0 - 0.001, 1)


def test_angular_atom_frequencies_and_radius_tails(rng, monkeypatch):
    # one uniform per parent or limit point: its category is the atom, with
    # frequency the atom's weight share, and its residual an exact Pareto
    # radius above the floor under every atom: the radial floor for the
    # simulator's steps, u_min (1 in the units of limit_steps) for the limit
    atoms = np.array([[0.6, 0.8], [0.8, 0.6], [-0.6, -0.8], [-0.8, -0.6]])
    model = DisplacementModel.discrete_angular(2.0, atoms, [2.0, 2.0, 1.0, 1.0])
    brood = brood_flat(model, np.full(600_000, 2, dtype=np.int64), rng).reshape(-1, 2)
    for x, floor in ((brood, model.radial_floor), (limit_steps(model, 400, rng, monkeypatch), 1.0)):
        n = x.shape[0]
        radii = np.hypot(x[:, 0], x[:, 1])
        atom = np.argmax(x @ atoms.T / radii[:, None], axis=1)
        assert radii.min() >= floor * (1.0 - 1e-12)
        for k, share in enumerate((1 / 3, 1 / 3, 1 / 6, 1 / 6)):
            mine = atom == k
            assert abs(mine.mean() - share) < 3 * math.sqrt(share * (1 - share) / n)
            r = radii[mine] / floor
            for t in (1.5, 4.0):
                pt = t ** -2.0
                assert abs((r > t).mean() - pt) < 3 * math.sqrt(pt * (1 - pt) / r.size)


def test_axis_atoms_single_nonzero(rng):
    model = DisplacementModel.discrete_angular(
        2.0, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]
    )
    for _ in range(50):
        x = brood_flat(model, np.array([2]), rng)
        assert (x != 0.0).sum() == 1


def test_angular_brood_size_cap(rng):
    model = DisplacementModel.diagonal_angular(2.0, 2)
    with pytest.raises(ValueError):
        brood_flat(model, np.array([3]), rng)


def test_angular_standardisation_and_derived_p():
    # signed axis atoms: both coordinates carry mass 4, positive part 3
    model = DisplacementModel.discrete_angular(
        2.0,
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [3.0, 3.0, 1.0, 1.0],
    )
    a = model.atom_matrix()
    w = np.asarray(model.weights)
    marg = w @ np.abs(a) ** model.alpha
    assert np.allclose(marg, 1.0, atol=1e-12)
    bal = w @ np.clip(a, 0.0, None) ** model.alpha
    assert np.allclose(bal, model.p, atol=1e-12)
    assert model.p == pytest.approx(0.75)


def test_angular_rejects_unequal_marginals():
    # first coordinate carries more mass than the second
    with pytest.raises(ValueError):
        DisplacementModel.discrete_angular(2.0, [[1.0, 0.0], [0.8, 0.6]], [1.0, 1.0])


def test_angular_marginal_tail_exact(rng):
    # swap-symmetric signed atoms keep marginals and balance identical
    model = DisplacementModel.discrete_angular(
        2.0,
        [[0.6, 0.8], [0.8, 0.6], [-0.6, -0.8], [-0.8, -0.6]],
        [2.0, 2.0, 1.0, 1.0],
    )
    n = 400_000
    x = brood_flat(model, np.full(n, 2, dtype=np.int64), rng).reshape(n, 2)
    floor = model.radial_floor  # marginal is exactly Pareto above floor*max|a_j|
    for j in range(2):
        tmin = floor * max(abs(a[j]) for a in model.atoms)
        for t in (max(2.0, tmin * 1.1), 6.0):
            pt = t ** -2.0
            emp = (np.abs(x[:, j]) > t).mean()
            assert abs(emp - pt) < 3 * math.sqrt(pt * (1 - pt) / n) + 1e-9


def test_exceedance_masses_validation():
    with pytest.raises(ValueError):
        exceedance_masses(DisplacementModel.iid(2.0, 1.0), 0)
    with pytest.raises(ValueError, match="exceeds the 2 angular coordinates"):
        exceedance_masses(DisplacementModel.diagonal_angular(2.0, 2), 3)


def test_exceedance_masses_iid():
    model = DisplacementModel.iid(2.0, 0.7)
    assert exceedance_masses(model, 1).tolist() == [0.7]
    assert exceedance_masses(model, 3).tolist() == [3 * 0.7, 0.0, 0.0]


def test_exceedance_masses_full_dep():
    model = DisplacementModel.full_dep(2.0, 0.7)
    assert exceedance_masses(model, 1).tolist() == [0.7]
    assert exceedance_masses(model, 3).tolist() == [0.0, 0.0, 0.7]


def test_exceedance_masses_diagonal_atom():
    model = DisplacementModel.discrete_angular(2.0, [[2 ** -0.5, 2 ** -0.5]], [1.0])
    masses = exceedance_masses(model, 2)
    assert masses[1] == pytest.approx(1.0, rel=1e-12)
    assert masses[0] == 0.0  # tied coordinates exceed together


def test_full_dep_as_angular_special_case():
    for p in (1.0, 0.35, 0.0):
        k = 3
        angular = DisplacementModel.diagonal_angular(2.0, k, p)
        full = DisplacementModel.full_dep(2.0, p)
        for v in range(1, k + 1):
            assert exceedance_masses(angular, v) == pytest.approx(exceedance_masses(full, v), abs=1e-12)


def _random_angular(rng, k: int) -> DisplacementModel:
    """Cyclic shifts of a few random rows, so that every coordinate has the
    same marginal; half the rows draw from a small value set, which gives
    ties, zeros and negative coordinates."""
    rows = rng.choice([-0.8, -0.3, 0.0, 0.3, 0.5, 0.8], size=(int(rng.integers(1, 4)), k))
    if rng.random() < 0.5:
        rows = rng.normal(size=rows.shape)
    rows[np.all(rows == 0.0, axis=1), 0] = 1.0
    atoms = [np.roll(row, s) for row in rows for s in range(k)]
    weights = rng.uniform(0.2, 2.0, size=len(rows)).repeat(k)
    return DisplacementModel.discrete_angular(float(rng.choice([0.5, 1.0, 2.0, 3.3])), atoms, weights)


def test_exceedance_masses_match_pattern_enumeration():
    rng = np.random.default_rng(16)
    cases = 0
    for _ in range(120):
        model = _random_angular(rng, int(rng.integers(1, 9)))
        for v in range(1, model.n_coords + 1):
            want = enumerated_masses(model, v)
            # the enumeration adds the same terms, in pattern order
            assert exceedance_masses(model, v) == pytest.approx(want, rel=1e-14, abs=1e-15 * want.sum())
            cases += 1
    assert cases > 400
    for model in (DisplacementModel.iid(1.5, 0.3), DisplacementModel.full_dep(1.5, 0.3)):
        for v in range(1, 6):
            assert exceedance_masses(model, v) == pytest.approx(enumerated_masses(model, v), rel=1e-15)


def test_exceedance_masses_complete_by_inclusion_exclusion():
    rng = np.random.default_rng(17)
    models = [
        DisplacementModel.discrete_angular(
            2.0,
            [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6], [-(2 ** -0.5), -(2 ** -0.5)]],
            [1.0, 1.0, 0.5, 0.5, 2.0],
        )
    ] + [_random_angular(rng, 4) for _ in range(20)]
    for model in models:
        w = np.asarray(model.weights)
        a = model.atom_matrix()
        for v in range(1, model.n_coords + 1):
            # nu(union of single-coordinate exceedances) via inclusion-exclusion
            union = 0.0
            for size in range(1, v + 1):
                for coords in itertools.combinations(range(v), size):
                    inter = w @ np.clip(a[:, coords].min(axis=1), 0.0, None) ** model.alpha
                    union += (-1.0) ** (size + 1) * inter
            assert exceedance_masses(model, v).sum() == pytest.approx(float(union), rel=1e-12, abs=1e-14)


def test_angular_empirical_exceedance_count_frequency(rng):
    # cyclic shifts of rows with one, two and three positive coordinates
    rows = [(0.6, -0.8, 0.0), (0.6, 0.8, 0.0), (0.48, 0.6, 0.64)]
    model = DisplacementModel.discrete_angular(2.0, [np.roll(r, s) for r in rows for s in range(3)], [1.0] * 9)
    n = 1_000_000
    x = brood_flat(model, np.full(n, 3, dtype=np.int64), rng).reshape(n, 3)
    # exact Pareto exceedances above the radial floor
    for u in (10.0, 30.0):
        assert u >= model.radial_floor
        counts = np.bincount((x > u).sum(axis=1), minlength=4)[1:]
        for target, hits in zip(exceedance_masses(model, 3), counts):
            p_hit = target * u ** -model.alpha
            se = u ** model.alpha * math.sqrt(max(p_hit, 1e-12) / n)
            assert abs(hits / n * u ** model.alpha - target) < 3 * se + 1e-6


def test_brood_flat_respects_counts(rng):
    model = DisplacementModel.iid(2.0, 1.0)
    counts = np.array([2, 0, 3, 1], dtype=np.int64)
    x = brood_flat(model, counts, rng)
    assert x.size == 6
