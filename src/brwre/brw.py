"""Generation-by-generation simulation of the branching random walk.

The streaming simulator keeps one flat array per particle attribute and never
revisits the genealogy; a deliberately naive twin materialises the full
labelled tree and recomputes everything from scratch.  Both run under one
survival-restart driver and consume random draws in the identical order (per
generation: child counts, then one uniform per displacement step), so equal
seeds must give bit-identical outcomes.  The streaming simulator draws its
leaf generation in brood-aligned chunks, which take the same uniforms with
any bit generator (see _reduce_leaves).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .displacement import DisplacementModel, brood_flat, norming_constant
from .environment import EnvironmentModel, EnvSequence, sample_env
from .errors import PopulationCapExceeded, first_accepted
from .measures import PointMeasure

DEFAULT_POPULATION_CAP = 1 << 24


@dataclass(frozen=True)
class SimConfig:
    n: int
    env: EnvironmentModel
    disp: DisplacementModel
    retain_delta: float = 0.05
    top_k: int = 2
    population_cap: int = DEFAULT_POPULATION_CAP
    condition_on_survival: bool = True
    jump_eta: float = 0.1
    seed: int = 0
    # locating the argmax leaf's biggest path jump costs two more arrays over
    # the inner generations (the leaves read it off their parents); switch it
    # off for very large populations
    track_argmax_jump: bool = True

    def __post_init__(self):
        if self.n < 1 or self.population_cap < 1 or self.top_k < 2:
            raise ValueError("need n >= 1, population_cap >= 1, top_k >= 2")
        if not (self.retain_delta > 0.0 and self.jump_eta > 0.0):
            raise ValueError("retain_delta and jump_eta must be positive")
        self.disp.check_broods(self.env.support)


@dataclass
class Diagnostics:
    paths_with_two_big_jumps: int
    big_jump_generations: np.ndarray  # index = generation of the child, 1..n
    max_leaf_jump_gen: Optional[int]  # generation of the largest |X| on the max leaf's path


@dataclass
class BrwOutcome:
    env_seq: EnvSequence
    z: np.ndarray  # generation sizes Z_0..Z_n
    b_n: float
    atoms: PointMeasure
    top: np.ndarray  # largest positions, descending
    bottom: np.ndarray  # smallest positions, ascending
    w_n: float
    diagnostics: Diagnostics
    restarts: int

    @property
    def extinct(self) -> bool:
        return int(self.z[-1]) == 0


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The per-replication stream: a keyed hash of (seed, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))


def _draw_counts(law, n_parents: int, rng, cap: int):
    """Child counts for one generation and their total, refused above ``cap``."""
    counts = law.sample_many(rng, n_parents)
    total = int(counts.sum())
    if total > cap:
        raise PopulationCapExceeded(f"generation size {total} exceeds cap {cap}")
    return counts, total


def draw_generation(law, disp: DisplacementModel, n_parents: int, rng, cap: int):
    """Child counts and flat brood displacements for one generation.

    Shared by the streaming simulator and the naive oracle so that both see
    the same random stream; the streaming simulator draws its leaf
    generation chunk by chunk instead, one :func:`brood_flat` call per
    chunk, which takes the uniforms of this one call.  The displacement
    array is fresh, as :func:`brood_flat` returns it: the caller owns it and
    may overwrite it.
    """
    counts, total = _draw_counts(law, n_parents, rng, cap)
    if total == 0:
        return counts, np.empty(0)
    return counts, brood_flat(disp, counts, rng)


def _replicate(config: SimConfig, rng, grow) -> BrwOutcome:
    """The survival-restart driver shared by both simulators.

    ``grow(config, env_seq, b, rng)`` returns the generation sizes and
    ``(atoms, top, bottom, diagnostics)``, or None if the population died out.
    """
    if rng is None:
        rng = replication_rng(config.seed, 0)
    n = config.n

    def attempt(restarts: int) -> Optional[BrwOutcome]:
        env_seq = sample_env(config.env, n, rng)
        b = norming_constant(env_seq.pi[n], config.disp.alpha)
        z, final = grow(config, env_seq, b, rng)
        if final is None:
            if config.condition_on_survival:
                return None
            empty_diags = Diagnostics(0, np.zeros(n + 1, dtype=np.int64), None)
            final = (PointMeasure.empty(), np.empty(0), np.empty(0), empty_diags)
        atoms, top, bottom, diags = final
        return BrwOutcome(
            env_seq=env_seq,
            z=z,
            b_n=b,
            atoms=atoms,
            top=top,
            bottom=bottom,
            w_n=float(z[n] / env_seq.pi[n]),
            diagnostics=diags,
            restarts=restarts,
        )

    return first_accepted(attempt, "survival restart of the simulated tree")


def _grow_streaming(config: SimConfig, env_seq: EnvSequence, b: float, rng):
    """Flat per-particle arrays, updated generation by generation.

    Only the inner generations carry jump counters (and, when tracking, each
    particle's biggest step and its generation).  The leaf generation is
    never held whole: :func:`_reduce_leaves` draws, places and reduces it in
    chunks.
    """
    n = config.n
    thr_jump = config.jump_eta * b
    thr_big = config.retain_delta * b
    track = config.track_argmax_jump
    pos = np.zeros(1)
    jumps = np.zeros(1, dtype=np.int16)
    best_abs = np.zeros(1)
    best_gen = np.zeros(1, dtype=np.int16)
    z = np.zeros(n + 1, dtype=np.int64)
    z[0] = 1
    hist = np.zeros(n + 1, dtype=np.int64)
    for g in range(1, n):
        counts, x = draw_generation(
            env_seq.laws[g - 1], config.disp, pos.size, rng, config.population_cap
        )
        if x.size == 0:
            return z, None
        z[g] = x.size
        pos = np.repeat(pos, counts)
        pos += x
        # the displacements are ours (see draw_generation): |x| overwrites them
        absx = np.abs(x, out=x)
        big = absx > thr_jump
        hist[g] = np.count_nonzero(big if thr_big == thr_jump else absx > thr_big)
        jumps = np.repeat(jumps, counts)
        jumps += big
        if track:
            best_abs = np.repeat(best_abs, counts)
            bigger = absx > best_abs
            np.maximum(best_abs, absx, out=best_abs)
            best_gen = np.repeat(best_gen, counts)
            best_gen[bigger] = g

    counts, total = _draw_counts(env_seq.laws[n - 1], pos.size, rng, config.population_cap)
    if total == 0:
        return z, None
    z[n] = total
    return z, _reduce_leaves(config, b, counts, pos, jumps, (best_abs, best_gen), hist, rng)


# Leaves per chunk of the leaf generation, about: a chunk ends with the brood
# that reaches a multiple of it.  Each chunk array takes 1 MiB or less.
LEAF_CHUNK = 1 << 17


def _chunk_bounds(ends: np.ndarray, chunk: int) -> list:
    """Parent indices that cut a generation with child-count cumulative sums
    ``ends`` into nonempty brood-aligned chunks: 0, the parent after each
    brood that reaches a multiple of ``chunk`` children, and the parent count."""
    total = int(ends[-1])
    cuts = np.searchsorted(ends, np.arange(chunk, total, chunk)) + 1
    # the brood that reaches the last child leaves only childless parents
    cuts = cuts[ends[cuts - 1] < total]
    # cuts are sorted: drop repeats by a mask (np.unique imports numpy.ma)
    new = np.ones(cuts.size, dtype=bool)
    new[1:] = cuts[1:] != cuts[:-1]
    return [0, *cuts[new].tolist(), ends.size]


def _reduce_leaves(config: SimConfig, b: float, counts, pos, jumps, best, hist, rng):
    """Draw, place and reduce the leaf generation in brood-aligned chunks.

    ``counts`` are the leaves of each parent, whose position, big-jump count
    and (when tracking) ``best = (biggest |step|, its generation)`` are given.
    A chunk's leaves are its parents' positions repeated plus the chunk's
    displacements, and each chunk is reduced at once: the big-step histogram
    entry ``hist[n]``, the two-jump count, the retained positions, the
    chunk's k largest and k smallest, and the first argmax.  Leaf i's parent
    is the first index whose cumulative child count exceeds i: a leaf path
    has two big jumps if its parent's has, or if its parent's has one and its
    own step is big, and the argmax leaf's biggest step is its own if its |X|
    is strictly above its parent's, else its parent's.

    The draws equal those of one :func:`draw_generation` call, with any bit
    generator: :func:`brood_flat` draws one uniform per step, so the chunks'
    consecutive draws take the values of one batched draw and leave ``rng``
    where it would.
    """
    n = config.n
    thr_jump = config.jump_eta * b
    thr_big = config.retain_delta * b
    ends = np.cumsum(counts)
    total = int(ends[-1])
    bounds = _chunk_bounds(ends, LEAF_CHUNK)
    big_leaves = two_jump_leaves = 0
    arg_value = max_leaf_jump_gen = None
    retained, tops, bottoms = [], [], []
    for lo_parent, hi_parent in zip(bounds[:-1], bounds[1:]):
        brood = counts[lo_parent:hi_parent]
        first_leaf = int(ends[lo_parent - 1]) if lo_parent else 0
        x = brood_flat(config.disp, brood, rng)
        leaf = np.repeat(pos[lo_parent:hi_parent], brood)
        leaf += x
        # the displacements are ours (see brood_flat): |x| overwrites them
        absx = np.abs(x, out=x)
        big = absx > thr_jump
        big_leaves += np.count_nonzero(big if thr_big == thr_jump else absx > thr_big)
        big_parents = np.searchsorted(ends, np.flatnonzero(big) + first_leaf, side="right")
        two_jump_leaves += np.count_nonzero(jumps[big_parents] == 1)
        arg = int(np.argmax(leaf))
        if arg_value is None or leaf[arg] > arg_value:
            arg_value = leaf[arg]
            if config.track_argmax_jump:
                parent = int(np.searchsorted(ends, first_leaf + arg, side="right"))
                best_abs, best_gen = best
                max_leaf_jump_gen = n if absx[arg] > best_abs[parent] else int(best_gen[parent])
        kept = leaf[np.abs(leaf, out=absx) > thr_big]
        kept /= b
        retained.append(kept)
        # in place: the k largest to the right, then the k smallest to the left
        # of them (a chunk under 2k leaves is sorted outright).  Two one-kth
        # calls: numpy's SIMD partition takes a single kth only, and one call
        # with both took 1.9 against 0.28 ms on 2^17 leaves (AVX-512 host)
        k = min(config.top_k, leaf.size)
        if leaf.size >= 2 * k:
            leaf.partition(leaf.size - k)
            leaf[: leaf.size - k].partition(k - 1)
        else:
            leaf.sort()
        # copies, so that no chunk outlives its reduction
        tops.append(leaf[leaf.size - k :].copy())
        bottoms.append(leaf[:k].copy())

    hist[n] = big_leaves
    diags = Diagnostics(
        paths_with_two_big_jumps=int(counts[jumps >= 2].sum()) + int(two_jump_leaves),
        big_jump_generations=hist,
        max_leaf_jump_gen=max_leaf_jump_gen,
    )
    locations = retained[0] if len(retained) == 1 else np.concatenate(retained)
    del retained  # the pieces go before from_locations sorts a copy
    atoms = PointMeasure.from_locations(locations)
    top, bottom = (np.sort(np.concatenate(c)) for c in (tops, bottoms))
    k = min(config.top_k, total)
    return atoms, top[top.size - k :][::-1].copy(), bottom[:k], diags


def simulate(config: SimConfig, rng=None) -> BrwOutcome:
    """One replication; restarts with a fresh environment until survival
    when ``condition_on_survival`` is set."""
    return _replicate(config, rng, _grow_streaming)


def _grow_full_tree(config: SimConfig, env_seq: EnvSequence, b: float, rng):
    """Materialise every labelled vertex, then walk each leaf's ancestry."""
    n = config.n
    # generations[g] = (parent index array, displacement array)
    generations = [(np.array([-1]), np.array([0.0]))]
    for g in range(n):
        n_parents = generations[g][0].size
        counts, x = draw_generation(
            env_seq.laws[g], config.disp, n_parents, rng, config.population_cap
        )
        if x.size == 0:
            break
        parent = np.repeat(np.arange(n_parents), counts)
        generations.append((parent, x))

    z = np.zeros(n + 1, dtype=np.int64)
    for g, (parent, _) in enumerate(generations):
        z[g] = parent.size
    if len(generations) <= n:
        return z, None

    leaves = generations[n][0].size
    positions = np.zeros(leaves)
    two_jump_paths = 0
    best_abs = np.zeros(leaves)
    best_gen = np.zeros(leaves, dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)
    thr_jump = config.jump_eta * b
    thr_big = config.retain_delta * b
    for g in range(1, n + 1):
        hist[g] = int((np.abs(generations[g][1]) > thr_big).sum())
    for leaf in range(leaves):
        node = leaf
        path = []
        for g in range(n, 0, -1):
            parent, x = generations[g]
            path.append(float(x[node]))
            node = int(parent[node])
        path.reverse()
        # accumulate root-to-leaf so the float additions associate the
        # same way as in the streaming simulator
        total = 0.0
        n_big = 0
        for g, step in enumerate(path, start=1):
            total += step
            if abs(step) > thr_jump:
                n_big += 1
            if abs(step) > best_abs[leaf]:
                best_abs[leaf] = abs(step)
                best_gen[leaf] = g
        positions[leaf] = total
        if n_big >= 2:
            two_jump_paths += 1

    order = np.argsort(positions)
    k = min(config.top_k, leaves)
    top = positions[order][-k:][::-1].copy()
    bottom = positions[order][:k].copy()
    grouped = {}
    for value in positions:
        if abs(value) > config.retain_delta * b:
            key = value / b
            grouped[key] = grouped.get(key, 0) + 1
    locs = sorted(grouped)
    atoms = PointMeasure(np.array(locs), np.array([grouped[v] for v in locs], dtype=np.int64))
    arg = int(np.argmax(positions))
    diags = Diagnostics(
        paths_with_two_big_jumps=two_jump_paths,
        big_jump_generations=hist,
        max_leaf_jump_gen=int(best_gen[arg]) if config.track_argmax_jump else None,
    )
    return z, (atoms, top, bottom, diags)


def simulate_naive(config: SimConfig, rng=None) -> BrwOutcome:
    """Full-tree oracle: materialise every labelled vertex, recompute
    positions by walking each leaf's ancestry, aggregate from scratch.

    It shares the restart driver and ``draw_generation`` with
    :func:`simulate`, but none of its aggregation."""
    return _replicate(config, rng, _grow_full_tree)


def _simulate_rep(config: SimConfig, rep: int) -> BrwOutcome:
    return simulate(config, replication_rng(config.seed, rep))


def run_replications(config: SimConfig, reps: int, threads: int = 1) -> List[BrwOutcome]:
    """Independent replications with per-index derived streams.

    Results are ordered by replication index regardless of worker count.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    run = partial(_simulate_rep, config)
    if threads <= 1 or reps == 1:
        return list(map(run, range(reps)))
    workers = min(threads, reps)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(reps), chunksize=-(-reps // workers)))


def diagnostics_report(outcomes: List[BrwOutcome], rho: int) -> dict:
    """Big-jump summaries across replications.

    ``two_jump_fraction``: replications where some leaf path carries two or
    more displacements past the jump threshold.  ``early_jump_fraction``: the
    share of retained-scale jumps that happened before the last ``rho``
    generations.
    """
    if not outcomes:
        raise ValueError("need at least one outcome")
    n = outcomes[0].z.size - 1
    two = np.mean([o.diagnostics.paths_with_two_big_jumps > 0 for o in outcomes])
    early = 0
    total = 0
    for o in outcomes:
        hist = o.diagnostics.big_jump_generations
        total += int(hist.sum())
        early += int(hist[: max(0, n - rho)].sum())
    return {
        "two_jump_fraction": float(two),
        "early_jump_fraction": float(early / total) if total else 0.0,
    }
