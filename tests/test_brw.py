import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from brwre import brw
from brwre.brw import (
    SimConfig,
    diagnostics_report,
    draw_generation,
    replication_rng,
    run_replications,
    simulate,
    simulate_naive,
)
from brwre.config import load_config
from brwre.displacement import DisplacementModel, brood_flat
from brwre.environment import EnvironmentModel
from brwre.errors import PopulationCapExceeded
from brwre.measures import PointMeasure
from brwre.offspring import Binomial, Deterministic, Finite, Geometric, Poisson

BINARY = EnvironmentModel.single(Deterministic(2))
MIXTURE = EnvironmentModel((Poisson(2.0), Poisson(3.0)), (0.5, 0.5))
IID21 = DisplacementModel.iid(2.0, 1.0)


def outcomes_equal(a, b) -> bool:
    return (
        np.array_equal(a.env_seq.law_indices, b.env_seq.law_indices)
        and np.array_equal(a.env_seq.pi, b.env_seq.pi)
        and np.array_equal(a.z, b.z)
        and a.b_n == b.b_n
        and np.array_equal(a.top, b.top)
        and np.array_equal(a.bottom, b.bottom)
        and np.array_equal(a.atoms.locations, b.atoms.locations)
        and np.array_equal(a.atoms.multiplicities, b.atoms.multiplicities)
        and a.w_n == b.w_n
        and a.restarts == b.restarts
        and a.diagnostics.paths_with_two_big_jumps == b.diagnostics.paths_with_two_big_jumps
        and np.array_equal(a.diagnostics.big_jump_generations, b.diagnostics.big_jump_generations)
        and a.diagnostics.max_leaf_jump_gen == b.diagnostics.max_leaf_jump_gen
    )


def test_deterministic_fulldep_geometry():
    cfg = SimConfig(n=3, env=BINARY, disp=DisplacementModel.full_dep(2.0, 1.0), seed=11)
    o = simulate(cfg)
    assert o.z.tolist() == [1, 2, 4, 8]
    assert o.w_n == 1.0
    assert o.b_n == pytest.approx(8.0 ** 0.5)
    # siblings share their displacement, so every position appears in pairs
    assert o.top[0] == o.top[1]
    assert o.bottom[0] == o.bottom[1]
    assert np.all(o.atoms.multiplicities >= 2)


def test_unconditioned_extinction_frequency():
    cfg = SimConfig(
        n=1, env=EnvironmentModel.single(Poisson(2.0)), disp=IID21,
        condition_on_survival=False, seed=5,
    )
    reps = 3000
    extinct = sum(simulate(cfg, replication_rng(5, r)).extinct for r in range(reps))
    p = math.exp(-2.0)
    assert abs(extinct / reps - p) < 3 * math.sqrt(p * (1 - p) / reps)


def test_extinct_outcome_is_tagged_empty():
    cfg = SimConfig(
        n=2, env=EnvironmentModel.single(Poisson(0.2)), disp=IID21,
        condition_on_survival=False, seed=1,
    )
    for r in range(50):
        o = simulate(cfg, replication_rng(1, r))
        if o.extinct:
            assert o.atoms.n_atoms == 0 and o.w_n == 0.0 and o.top.size == 0
            assert o.z[-1] == 0
            return
    pytest.fail("no extinction observed at Poisson(0.2)")


def test_survival_conditioning_restarts():
    cfg = SimConfig(
        n=4, env=EnvironmentModel.single(Poisson(1.2)), disp=IID21,
        condition_on_survival=True, seed=3,
    )
    outs = run_replications(cfg, 40)
    assert all(o.z[-1] >= 1 for o in outs)
    assert any(o.restarts > 0 for o in outs)


def test_population_cap():
    cfg = SimConfig(n=3, env=BINARY, disp=IID21, population_cap=4, seed=0)
    with pytest.raises(PopulationCapExceeded):
        simulate(cfg)


def test_seed_determinism():
    cfg = SimConfig(n=7, env=MIXTURE, disp=DisplacementModel.iid(1.5, 0.6), seed=99)
    assert outcomes_equal(simulate(cfg), simulate(cfg))


def test_run_replications_matches_manual_streams():
    cfg = SimConfig(n=5, env=BINARY, disp=IID21, seed=17)
    outs = run_replications(cfg, 4)
    for r, o in enumerate(outs):
        assert outcomes_equal(o, simulate(cfg, replication_rng(17, r)))


def test_count_consistency(rng):
    cfg = SimConfig(n=9, env=BINARY, disp=IID21, retain_delta=0.01, seed=23)
    o = simulate(cfg)
    counts = [o.atoms.count_above(x) for x in np.linspace(0.01, 4, 60)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    n_above = o.atoms.count_above(1.0)
    # exact agreement with a direct leaf count at this threshold
    assert n_above == int((np.repeat(o.atoms.locations, o.atoms.multiplicities) > 1.0).sum())


def test_martingale_mean_on_simulator():
    # annealed E W_n = 1 over surviving + extinct replications
    cfg = SimConfig(
        n=6, env=EnvironmentModel.single(Poisson(2.0)), disp=IID21,
        condition_on_survival=False, seed=31,
    )
    reps = 3000
    w = np.array([simulate(cfg, replication_rng(31, r)).w_n for r in range(reps)])
    assert abs(w.mean() - 1.0) < 3 * w.std() / math.sqrt(reps)


def test_two_jump_zero_for_single_generation():
    cfg = SimConfig(n=1, env=BINARY, disp=IID21, seed=2)
    outs = run_replications(cfg, 20)
    report = diagnostics_report(outs, rho=1)
    assert report["two_jump_fraction"] == 0.0
    assert report["early_jump_fraction"] == 0.0  # rho = n leaves no early window


def test_retention_threshold_empties_measure():
    cfg = SimConfig(n=3, env=BINARY, disp=IID21, retain_delta=1e9, seed=8)
    assert simulate(cfg).atoms.n_atoms == 0


RETAIN_DELTAS = (0.05, 0.2, 1.0)


def _random_config(rng) -> SimConfig:
    envs = [
        BINARY,
        EnvironmentModel.single(Deterministic(3)),
        EnvironmentModel.single(Poisson(2.0)),
        MIXTURE,
        EnvironmentModel((Finite((0.2, 0.3, 0.5)), Geometric(0.6)), (0.6, 0.4)),
        EnvironmentModel.single(Binomial(3, 0.8)),
    ]
    # angular broods need at least as many coordinates as the progeny support
    bounded_envs = [envs[0], envs[1], envs[5]]
    disps = [
        DisplacementModel.iid(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 1))),
        DisplacementModel.full_dep(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 1))),
        DisplacementModel.diagonal_angular(2.0, 4, float(rng.uniform(0, 1))),
    ]
    disp = disps[int(rng.integers(0, len(disps)))]
    pool = bounded_envs if disp.mode == "discrete_angular" else envs
    return SimConfig(
        n=int(rng.integers(1, 9)),
        env=pool[int(rng.integers(0, len(pool)))],
        disp=disp,
        retain_delta=float(rng.choice(RETAIN_DELTAS)),
        top_k=int(rng.integers(2, 5)),
        condition_on_survival=bool(rng.integers(0, 2)),
        # every retain_delta value, so that some configs share the two
        # thresholds as both shipped configs do
        jump_eta=float(rng.choice(RETAIN_DELTAS + (0.01, 0.1))),
        seed=int(rng.integers(0, 2 ** 60)),
        track_argmax_jump=bool(rng.integers(0, 2)),
    )


def test_streaming_equals_naive_oracle(rng):
    configs = [_random_config(rng) for _ in range(40)]
    assert any(cfg.jump_eta == cfg.retain_delta for cfg in configs)
    assert {cfg.track_argmax_jump for cfg in configs} == {True, False}
    for cfg in configs:
        assert outcomes_equal(simulate(cfg), simulate_naive(cfg)), cfg
    # fixed inputs for the restart driver's branches: restart, extinct outcome
    for conditioned in (True, False):
        cfg = SimConfig(
            n=4, env=EnvironmentModel.single(Poisson(1.2)), disp=IID21,
            condition_on_survival=conditioned, seed=3,
        )
        fast = [simulate(cfg, replication_rng(3, r)) for r in range(20)]
        slow = [simulate_naive(cfg, replication_rng(3, r)) for r in range(20)]
        assert all(outcomes_equal(a, b) for a, b in zip(fast, slow))
        if conditioned:
            assert any(o.restarts > 0 for o in fast)
        else:
            assert any(o.extinct for o in fast)
    # argmax-jump tracking off, as in the kernel-mixture-n16 workload
    cfg = SimConfig(n=6, env=MIXTURE, disp=IID21, seed=4, track_argmax_jump=False)
    fast, slow = simulate(cfg), simulate_naive(cfg)
    assert outcomes_equal(fast, slow)
    assert fast.diagnostics.max_leaf_jump_gen is None


@pytest.mark.parametrize(
    "n, env, jump_eta, two_jumps",
    [
        # every step is big: each parent of a leaf has exactly one jump at
        # n = 2, two at n = 3
        (2, MIXTURE, 1e-6, True),
        (3, BINARY, 1e-6, True),
        # P(0) > 0: some parents of the leaves have no children
        (5, EnvironmentModel.single(Geometric(0.4)), 0.05, True),
        (5, EnvironmentModel.single(Poisson(1.5)), 0.1, None),
        # the root is the only parent of the leaves
        (1, MIXTURE, 1e-6, False),
        (1, BINARY, 0.1, False),
    ],
)
def test_streaming_equals_naive_at_leaf_edge_cases(n, env, jump_eta, two_jumps):
    for track in (True, False):
        cfg = SimConfig(n=n, env=env, disp=IID21, jump_eta=jump_eta, seed=21, track_argmax_jump=track)
        fast = [simulate(cfg, replication_rng(21, r)) for r in range(8)]
        slow = [simulate_naive(cfg, replication_rng(21, r)) for r in range(8)]
        assert all(outcomes_equal(a, b) for a, b in zip(fast, slow))
        counts = [o.diagnostics.paths_with_two_big_jumps for o in fast]
        if two_jumps is not None:
            assert all(c > 0 for c in counts) if two_jumps else not any(counts)
        if jump_eta < 1e-3 and n >= 2:
            # every leaf path is past the threshold at every step
            assert counts == [int(o.z[-1]) for o in fast]


def test_displacements_are_fresh_and_writable():
    # the simulator overwrites the displacements with |x|, so draw_generation
    # and brood_flat must hand out arrays nobody else holds
    models = [
        DisplacementModel.iid(2.0, 1.0),
        DisplacementModel.iid(1.5, 0.4),
        DisplacementModel.full_dep(2.0, 0.5),
        DisplacementModel.diagonal_angular(2.0, 3, 0.5),
    ]
    counts = np.array([2, 0, 3, 1, 3], dtype=np.int64)
    law = Binomial(3, 0.8)
    for model in models:
        rng = np.random.default_rng(3)
        x = brood_flat(model, counts, rng)
        assert x.size == counts.sum() and x.base is None and x.flags.writeable, model.mode
        _, x = draw_generation(law, model, 6, rng, 1000)
        assert x.base is None and x.flags.writeable, model.mode
    _, x = draw_generation(law, IID21, 0, rng, 1000)
    assert x.size == 0 and x.base is None and x.flags.writeable


def test_peak_memory_per_leaf():
    # the leaf generation holds its positions and displacements (8 + 8 bytes a
    # leaf) plus a few bytes of flags; leaf-sized jump counters and copies of
    # the positions would read 47-62 bytes a leaf here
    cfg = SimConfig(n=14, env=MIXTURE, disp=IID21, retain_delta=0.1, seed=5)
    for track, bound in ((True, 45.0), (False, 40.0)):
        run = dataclasses.replace(cfg, track_argmax_jump=track)
        rng = replication_rng(5, 0)
        tracemalloc.start()
        try:
            outcome = simulate(run, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.z[-1] > 100_000
        assert peak / outcome.z[-1] < bound, (track, peak / outcome.z[-1])


def test_count_draw_peak_memory_per_parent():
    # a child-count draw holds the uniforms (8 bytes a parent), the bucket
    # indices (8) and the guide's int32 categories (4), and then the int64
    # counts (8) once the buckets are freed: 20 bytes a parent.  Forming the
    # buckets through a float copy of the uniforms peaked at 24.
    n = 1_000_000
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        counts = Poisson(2.5).sample_many(rng, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.size == n and counts.dtype == np.int64
    assert peak / n < 21.0, peak / n


def test_peak_memory_per_leaf_in_small_chunks(monkeypatch):
    # with chunks of 2^12 leaves the peak is set by the leaves' parents (their
    # positions, counts and count draw) and the retained atoms: it read 24.5 /
    # 16.8 bytes a leaf (tracking on / off), and 35.6 / 29.0 with the leaf
    # generation held whole
    monkeypatch.setattr(brw, "LEAF_CHUNK", 1 << 12)
    cfg = SimConfig(n=14, env=MIXTURE, disp=IID21, retain_delta=0.1, seed=5)
    for track, bound in ((True, 28.0), (False, 20.0)):
        run = dataclasses.replace(cfg, track_argmax_jump=track)
        rng = replication_rng(5, 0)
        tracemalloc.start()
        try:
            outcome = simulate(run, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.z[-1] > 50 * brw.LEAF_CHUNK
        assert peak / outcome.z[-1] < bound, (track, peak / outcome.z[-1])


def test_chunk_bounds_keep_broods_whole():
    counts = np.array([3, 0, 0, 4, 0, 9, 0, 0])
    ends = np.cumsum(counts)
    # the second chunk starts with childless parents, the last one ends with
    # them, and its brood of 9 is larger than the chunk
    assert brw._chunk_bounds(ends, 3) == [0, 1, 4, 8]
    assert brw._chunk_bounds(ends, 16) == [0, 8]
    rng = np.random.default_rng(8)
    for chunk in (1, 2, 7, 50):
        counts = rng.poisson(1.5, 300)
        ends = np.cumsum(counts)
        bounds = brw._chunk_bounds(ends, chunk)
        sizes = [int(counts[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]
        assert bounds[0] == 0 and bounds[-1] == counts.size
        assert min(sizes) > 0 and sum(sizes) == counts.sum()
        # each chunk but the last ends with the brood that reaches a multiple of the chunk
        assert all(ends[b - 1] // chunk > (ends[b - 1] - counts[b - 1]) // chunk for b in bounds[1:-1])


def test_replication_imports_no_masked_arrays():
    # np.unique on integers imports numpy.ma; a fresh process (and every
    # forked pool worker) would pay that import in its first replication
    code = (
        "import sys\n"
        "from brwre import brw\n"
        "from brwre.displacement import DisplacementModel\n"
        "from brwre.environment import EnvironmentModel\n"
        "from brwre.offspring import Poisson\n"
        "env = EnvironmentModel((Poisson(2.0), Poisson(3.0)), (0.5, 0.5))\n"
        "cfg = brw.SimConfig(n=8, env=env, disp=DisplacementModel.iid(2.0, 0.5), seed=3)\n"
        "assert brw.simulate(cfg, brw.replication_rng(3, 0)).z[-1] > 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(brw.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_first_argmax_across_chunks(monkeypatch):
    # unit displacements make the leaves of parents 0 and 2 tie for the
    # maximum in different chunks: the first one's path is reported
    monkeypatch.setattr(brw, "LEAF_CHUNK", 2)
    monkeypatch.setattr(brw, "brood_flat", lambda model, counts, rng: np.ones(int(counts.sum())))
    cfg = SimConfig(n=3, env=BINARY, disp=IID21, seed=0)
    best = (np.array([2.0, 0.5, 3.0]), np.array([1, 2, 2], dtype=np.int16))
    atoms, top, bottom, diags = brw._reduce_leaves(
        cfg, 1.0, np.array([2, 2, 2]), np.array([5.0, 1.0, 5.0]), np.zeros(3, dtype=np.int16),
        best, np.zeros(4, dtype=np.int64), np.random.default_rng(0),
    )
    assert diags.max_leaf_jump_gen == 1
    assert top.tolist() == [6.0, 6.0] and bottom.tolist() == [2.0, 2.0]
    assert atoms.locations.tolist() == [2.0, 6.0] and atoms.multiplicities.tolist() == [2, 4]


def dense_reduction(config, b, counts, pos, jumps, best, x):
    """Every leaf placed at once and sorted: the plain reduction that each
    chunk of ``_reduce_leaves``, sparse or dense, must give bit for bit.
    Returns the atoms, top, bottom, ``hist[n]``, the two-jump count and the
    argmax leaf's biggest-jump generation."""
    thr_jump, thr_big = config.jump_eta * b, config.retain_delta * b
    parent = np.repeat(np.arange(counts.size), counts)
    leaf = pos[parent] + x
    absx = np.abs(x)
    arg = int(np.argmax(leaf))
    best_abs, best_gen = best
    gen = config.n if absx[arg] > best_abs[parent[arg]] else int(best_gen[parent[arg]])
    ordered = np.sort(leaf)
    k = min(config.top_k, leaf.size)
    two_jumps = counts[jumps >= 2].sum() + np.count_nonzero(jumps[parent[absx > thr_jump]] == 1)
    return (
        PointMeasure.from_locations(leaf[np.abs(leaf) > thr_big] / b),
        ordered[::-1][:k],
        ordered[:k],
        int(np.count_nonzero(absx > thr_big)),
        int(two_jumps),
        gen if config.track_argmax_jump else None,
    )


def assert_reduction_equal(config, got, want):
    atoms, top, bottom, diags = got
    np.testing.assert_array_equal(atoms.locations, want[0].locations)
    np.testing.assert_array_equal(atoms.multiplicities, want[0].multiplicities)
    np.testing.assert_array_equal(top, want[1])
    np.testing.assert_array_equal(bottom, want[2])
    assert diags.big_jump_generations[config.n] == want[3]
    assert diags.paths_with_two_big_jumps == want[4]
    assert diags.max_leaf_jump_gen == want[5]


@pytest.fixture
def branches(monkeypatch):
    """Records, chunk by chunk, whether ``_reduce_leaves`` took the sparse branch."""
    taken = []
    candidates = brw._candidate_leaves

    def traced(*args):
        out = candidates(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(brw, "_candidate_leaves", traced)
    return taken


def feed_steps(monkeypatch, x):
    """Make each ``brood_flat`` call hand out the next steps of ``x``."""
    at = [0]

    def next_steps(model, brood, rng):
        at[0] += int(brood.sum())
        return x[at[0] - int(brood.sum()) : at[0]].copy()

    monkeypatch.setattr(brw, "brood_flat", next_steps)


ANGULAR_ZEROS = DisplacementModel.discrete_angular(
    2.0, [[0.6, -0.8, 0.0], [0.0, 0.6, -0.8], [-0.8, 0.0, 0.6]], [1.0] * 3
)
REDUCTION_MODELS = [
    DisplacementModel.iid(2.0, 1.0),
    DisplacementModel.iid(1.0, 0.5),
    DisplacementModel.iid(2.0, 0.0),
    DisplacementModel.full_dep(2.0, 0.5),
    ANGULAR_ZEROS,
]


REGIMES = ("sparse", "few", "quiet", "barren", "dense")


def leaf_inputs(rng, regime: str, s: float, thr_big: float, brood_max: int, parents: int = 3000, barren: int = 0):
    """Parents of a leaf generation: brood sizes, positions, jump counters and
    biggest steps.  ``sparse``: every 50th parent lies beyond +-s, up to 4
    retention thresholds out, the rest within it; ``few``: one parent on each
    side is past the retention threshold; ``quiet``: every parent is within
    +-s/2; ``dense``: three in five parents lie beyond +-s; ``barren``: as
    ``sparse``, but the 4 * ``barren`` highest and lowest parents have no
    leaves."""
    counts = rng.integers(0, brood_max + 1, parents)
    pos = rng.uniform(-s, s, parents) * (0.5 if regime == "quiet" else 1.0)
    far = rng.choice([-1.0, 1.0], parents) * rng.uniform(s, 4 * thr_big, parents)
    if regime in ("sparse", "barren"):
        pos[::50] = far[::50]
    if regime == "barren":
        order = np.argsort(pos)
        counts[order[: 4 * barren]] = counts[order[-4 * barren :]] = 0
    elif regime == "few":
        pos[[7, parents // 2]] = 1.5 * thr_big, -1.5 * thr_big
        counts[[7, parents // 2]] = 1
    elif regime == "dense":
        out = rng.random(parents) < 0.6
        pos[out] = far[out]
    jumps = rng.integers(0, 3, parents).astype(np.int16)
    best = (rng.pareto(2.0, parents) + 1.0, rng.integers(1, 6, parents).astype(np.int16))
    return counts, pos, jumps, best


@pytest.mark.parametrize("chunk", [1 << 17, 64])
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("top_k", [2, 3, 5])
@pytest.mark.parametrize("disp", REDUCTION_MODELS, ids=lambda d: f"{d.mode}-{d.p}")
def test_leaf_reduction_equals_dense_reference(disp, top_k, regime, chunk, branches, monkeypatch):
    monkeypatch.setattr(brw, "LEAF_CHUNK", chunk)
    env = EnvironmentModel.single(Binomial(3, 0.8)) if disp.n_coords else MIXTURE
    rng = np.random.default_rng([top_k, chunk, REGIMES.index(regime)])
    for b, jump_eta in ((400.0, 0.1), (400.0, 0.05), (1e12, 0.1)):
        config = SimConfig(n=6, env=env, disp=disp, retain_delta=0.1, jump_eta=jump_eta, top_k=top_k)
        thr_big = config.retain_delta * b
        s = 0.5 * min(config.jump_eta * b, thr_big)
        counts, pos, jumps, best = leaf_inputs(rng, regime, s, thr_big, 3 if disp.n_coords else 4, barren=top_k)
        seed = int(rng.integers(2**32))
        x = brood_flat(disp, counts, np.random.default_rng(seed))
        want = dense_reduction(config, b, counts, pos, jumps, best, x)
        del branches[:]
        got = brw._reduce_leaves(
            config, b, counts, pos, jumps, best, np.zeros(7, dtype=np.int64), np.random.default_rng(seed)
        )
        assert_reduction_equal(config, got, want)
        assert len(branches) > (1 if chunk < 1000 else 0)
        if regime == "dense" or (regime == "barren" and chunk > 1000):
            # in a barren chunk the 4k extreme parents are childless: too few
            # leaves to bound the k largest and smallest from
            assert not any(branches), branches
        elif regime != "barren":
            # these layouts put at most 1 in 32 parents of any chunk beyond +-s
            assert all(branches), branches
        if regime == "few" and b > 1e6:
            # one retained leaf on each side: the rest of the top and bottom k
            # are leaves of the parents within +-s
            assert np.sign(got[0].locations).tolist() == [-1.0, 1.0]


def test_sparse_argmax_ties_keep_the_first_leaf(branches, monkeypatch):
    # thresholds 10 and s = 5, top_k 2, parents near 0 with unit steps but
    # for these: leaf 3 (parent 3 at 0, a big step of 50) ties at 50 with
    # the two leaves of parent 7 (at 45, steps of 5), which alone is wide and
    # so is placed ahead of it, and with those of parent 40 in a later chunk.
    # The first is reported: its own step is its biggest, so generation n.
    monkeypatch.setattr(brw, "LEAF_CHUNK", 32)
    counts = np.ones(100, dtype=np.int64)
    counts[[7, 40]] = 2
    pos = np.linspace(-1.0, 1.0, 100)
    pos[3], pos[7], pos[40] = 0.0, 45.0, 45.0
    x = np.ones(102)
    x[[3, 7, 8, 41, 42]] = 50.0, 5.0, 5.0, 5.0, 5.0
    best = (np.full(100, 9.0), np.full(100, 2, dtype=np.int16))
    jumps = np.zeros(100, dtype=np.int16)
    config = SimConfig(n=4, env=BINARY, disp=IID21, retain_delta=0.1, jump_eta=0.1, top_k=2)
    feed_steps(monkeypatch, x)
    got = brw._reduce_leaves(config, 100.0, counts, pos, jumps, best, np.zeros(5, dtype=np.int64), None)
    assert branches == [True] * 4
    assert_reduction_equal(config, got, dense_reduction(config, 100.0, counts, pos, jumps, best, x))
    assert got[3].max_leaf_jump_gen == 4 and got[1].tolist() == [50.0] * 2


def test_sparse_bounds_hold_leaves_on_them(branches, monkeypatch):
    # thresholds 100 and s = 50: the top two leaves, 80, sit exactly at
    # fl(p + s) of their parent (at 30, both steps exactly s), and the bottom
    # two, -80, exactly at fl(p + a) of theirs (at -30, both steps -s); no leaf
    # is retained and no step is past s, so only the bounds' equality keeps them
    counts = np.ones(60, dtype=np.int64)
    counts[[10, 20]] = 2
    pos = np.linspace(-1.0, 1.0, 60)
    pos[10], pos[20] = 30.0, -30.0
    x = np.full(62, 0.5)
    x[[10, 11, 21, 22]] = 50.0, 50.0, -50.0, -50.0
    best = (np.ones(60), np.ones(60, dtype=np.int16))
    jumps = np.zeros(60, dtype=np.int16)
    config = SimConfig(n=3, env=BINARY, disp=IID21, retain_delta=0.1, jump_eta=0.1, top_k=2)
    feed_steps(monkeypatch, x)
    got = brw._reduce_leaves(config, 1000.0, counts, pos, jumps, best, np.zeros(4, dtype=np.int64), None)
    assert branches == [True]
    assert_reduction_equal(config, got, dense_reduction(config, 1000.0, counts, pos, jumps, best, x))
    assert got[1].tolist() == [80.0, 80.0] and got[2].tolist() == [-80.0, -80.0]


def test_sparse_bounds_hold_leaves_just_past_retention(branches, monkeypatch):
    # thresholds 100 and s = 50, top_k 2: the two largest and smallest leaves,
    # +-300.5, lie far past the retention threshold, so only the threshold's
    # own bound keeps the leaves one ulp past +-100, small steps of parents at
    # +-50.5 whose bounds fl(p + s) = 100.5 and fl(p + a) = -100.5 are within
    # 1% of it
    counts = np.ones(80, dtype=np.int64)
    counts[[10, 20]] = 2
    pos = np.linspace(-1.0, 1.0, 80)
    pos[[10, 20, 30, 40]] = 300.0, -300.0, 50.5, -50.5
    step = np.nextafter(np.nextafter(49.5, np.inf), np.inf)
    assert 50.5 + step > 100.0
    x = np.full(82, 0.5)
    x[[21, 22]] = -0.5
    x[32], x[42] = step, -step
    best = (np.ones(80), np.ones(80, dtype=np.int16))
    jumps = np.zeros(80, dtype=np.int16)
    config = SimConfig(n=3, env=BINARY, disp=IID21, retain_delta=0.1, jump_eta=0.1, top_k=2)
    feed_steps(monkeypatch, x)
    got = brw._reduce_leaves(config, 1000.0, counts, pos, jumps, best, np.zeros(4, dtype=np.int64), None)
    assert branches == [True]
    assert_reduction_equal(config, got, dense_reduction(config, 1000.0, counts, pos, jumps, best, x))
    assert got[0].multiplicities.tolist() == [2, 1, 1, 2]


@pytest.mark.parametrize("bad", ["nan_step", "inf_step", "neg_inf_step", "nan_position", "inf_position"])
def test_non_finite_leaves_equal_dense_reduction(bad, branches, monkeypatch):
    monkeypatch.setattr(brw, "LEAF_CHUNK", 256)
    rng = np.random.default_rng(5)
    config = SimConfig(n=6, env=MIXTURE, disp=DisplacementModel.iid(2.0, 0.5), retain_delta=0.1, top_k=3)
    b = 400.0
    counts, pos, jumps, best = leaf_inputs(rng, "sparse", 20.0, 40.0, 4)
    x = brood_flat(config.disp, counts, rng)
    if bad.endswith("step"):
        x[int(counts[:700].sum())] = {"nan_step": np.nan, "inf_step": np.inf, "neg_inf_step": -np.inf}[bad]
    else:
        pos[700 if counts[700] else 701] = np.nan if bad == "nan_position" else np.inf

    def reduce(share):
        monkeypatch.setattr(brw, "SPARSE_SHARE", share)
        feed_steps(monkeypatch, x)
        return brw._reduce_leaves(config, b, counts, pos, jumps, best, np.zeros(7, dtype=np.int64), None)

    got = reduce(brw.SPARSE_SHARE)
    # a NaN step or a NaN or infinite position sends its chunk to the dense
    # branch; infinite steps are placed like any big step
    assert branches.count(False) == (0 if bad.endswith("inf_step") else 1)
    # every chunk dense: a NaN leaf loses the chunk-by-chunk argmax, which a
    # single argmax over all leaves would report, so NaN cases are checked
    # against the dense branch alone
    dense = reduce(-1.0)
    assert_reduction_equal(config, got, dense[:3] + (
        dense[3].big_jump_generations[config.n], dense[3].paths_with_two_big_jumps, dense[3].max_leaf_jump_gen,
    ))
    if not bad.startswith("nan"):
        assert_reduction_equal(config, got, dense_reduction(config, b, counts, pos, jumps, best, x))


def test_leaf_chunks_take_the_branch_their_density_gives(branches):
    # the golden listing's n = 18 binary scenarios (p = 1/2, two chunks) and
    # a mixture n = 16 replication place only candidate leaves; every n = 12
    # chunk of both shipped configs places every leaf, so the golden listing
    # and the simulate_naive parity tests hold both branches to their outputs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = load_config(os.path.join(root, "configs", "binary_iid.yaml"))
    mixture = load_config(os.path.join(root, "configs", "mixture_poisson.yaml"))
    for disp in (
        DisplacementModel.iid(2.0, 0.5),
        DisplacementModel.full_dep(2.0, 0.5),
        DisplacementModel.diagonal_angular(2.0, 2, 0.5),
    ):
        del branches[:]
        simulate(dataclasses.replace(binary.sim_config(18), disp=disp), replication_rng(binary.seed, 0))
        assert branches == [True, True], disp.mode
    del branches[:]
    simulate(mixture.sim_config(16), replication_rng(mixture.seed, 0))
    assert len(branches) > 1 and all(branches)
    for cfg in (binary, mixture):
        del branches[:]
        for r in range(5):
            simulate(cfg.sim_config(12), replication_rng(cfg.seed, r))
        assert branches and not any(branches)


CHUNKED_MODELS = [
    (DisplacementModel.iid(2.0, 1.0), MIXTURE),
    (DisplacementModel.iid(1.5, 0.4), MIXTURE),
    (DisplacementModel.iid(2.0, 0.0), EnvironmentModel.single(Geometric(0.6))),
    (DisplacementModel.full_dep(2.0, 0.5), MIXTURE),
    (DisplacementModel.diagonal_angular(2.0, 3, 0.5), EnvironmentModel.single(Binomial(3, 0.8))),
    (
        DisplacementModel.discrete_angular(2.0, [[0.6, -0.8, 0.0], [0.0, 0.6, -0.8], [-0.8, 0.0, 0.6]], [1.0] * 3),
        EnvironmentModel((Binomial(3, 0.8), Finite((0.2, 0.3, 0.5))), (0.5, 0.5)),
    ),
]


# bit generators without a skip-ahead (``advance``), beside PCG64
UNSKIPPABLE = (np.random.MT19937, np.random.SFC64, np.random.Philox)


@pytest.mark.parametrize("disp, env", CHUNKED_MODELS, ids=lambda v: getattr(v, "mode", ""))
@pytest.mark.parametrize("chunk", [7, 1, 1 << 17])
def test_chunked_leaves_equal_naive(disp, env, chunk, monkeypatch):
    # every replication crosses many chunk edges at chunk 7, chunk 1 cuts
    # after every brood, and broods of two or more are larger than it; at
    # 2^17 every leaf generation is one chunk
    monkeypatch.setattr(brw, "LEAF_CHUNK", chunk)
    calls = []

    def traced_brood_flat(model, counts, rng):
        calls.append(counts.size)
        return brood_flat(model, counts, rng)

    monkeypatch.setattr(brw, "brood_flat", traced_brood_flat)
    for n, track in ((6, True), (5, False), (1, True)):
        cfg = SimConfig(n=n, env=env, disp=disp, jump_eta=0.2, seed=13, track_argmax_jump=track)
        for r in range(4):
            fast_rng, slow_rng = replication_rng(13, r), replication_rng(13, r)
            fast, slow = simulate(cfg, fast_rng), simulate_naive(cfg, slow_rng)
            assert outcomes_equal(fast, slow), (n, track, r)
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        bits = UNSKIPPABLE[n % len(UNSKIPPABLE)]
        fast_rng, slow_rng = (np.random.Generator(bits(13)) for _ in range(2))
        assert outcomes_equal(simulate(cfg, fast_rng), simulate_naive(cfg, slow_rng)), bits
        np.testing.assert_equal(fast_rng.bit_generator.state, slow_rng.bit_generator.state)
    # a few dozen calls draw inner generations, the rest leaf chunks
    assert len(calls) > (100 if chunk < 100 else 20)


def test_chunked_stream_ends_where_the_batched_draws_leave_it(monkeypatch):
    # survival restarts draw new environments and trees from the same stream,
    # and chunks take the batched values with any bit generator
    monkeypatch.setattr(brw, "LEAF_CHUNK", 7)
    models = (IID21, DisplacementModel.iid(2.0, 0.4), DisplacementModel.full_dep(2.0, 0.5),
              DisplacementModel.diagonal_angular(2.0, 3, 0.5))
    for disp in models:
        env = EnvironmentModel.single(Binomial(3, 0.4) if disp.n_coords else Poisson(1.2))
        cfg = SimConfig(n=4, env=env, disp=disp, seed=3)
        for bits in (np.random.PCG64, *UNSKIPPABLE):
            restarts = 0
            for r in range(20):
                fast_rng, slow_rng = (np.random.Generator(bits(np.random.SeedSequence((3, r)))) for _ in range(2))
                fast, slow = simulate(cfg, fast_rng), simulate_naive(cfg, slow_rng)
                assert outcomes_equal(fast, slow), (disp.mode, bits, r)
                np.testing.assert_equal(fast_rng.bit_generator.state, slow_rng.bit_generator.state)
                restarts += fast.restarts
            assert restarts > 0, (disp.mode, bits)
    # the leaf generation of a mixture tree spans many chunks
    cfg = SimConfig(n=5, env=MIXTURE, disp=DisplacementModel.iid(2.0, 0.4), seed=3)
    fast_rng, slow_rng = (np.random.Generator(np.random.MT19937(3)) for _ in range(2))
    fast = simulate(cfg, fast_rng)
    assert fast.z[-1] > 10 * brw.LEAF_CHUNK
    assert outcomes_equal(fast, simulate_naive(cfg, slow_rng))
    np.testing.assert_equal(fast_rng.bit_generator.state, slow_rng.bit_generator.state)


def test_threaded_replications_match_serial():
    cfg = SimConfig(n=6, env=MIXTURE, disp=IID21, seed=7)
    serial = run_replications(cfg, 6, threads=1)
    parallel = run_replications(cfg, 6, threads=3)
    for a, b in zip(serial, parallel):
        assert outcomes_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0, env=BINARY, disp=IID21)
    with pytest.raises(ValueError):
        SimConfig(n=1, env=BINARY, disp=IID21, retain_delta=0.0)
