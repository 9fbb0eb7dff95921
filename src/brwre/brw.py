"""Generation-by-generation simulation of the branching random walk.

The streaming simulator keeps one flat array per particle attribute and never
revisits the genealogy; a deliberately naive twin materialises the full
labelled tree and recomputes everything from scratch.  Both run under one
survival-restart driver and consume random draws in the identical order (per
generation: child counts, then one uniform per displacement step), so equal
seeds must give bit-identical outcomes.  Big jumps are rare by design, and
the streaming simulator pays for them by the jump where it can: a large inner
generation whose particles seldom carry one holds only the indices of those
that do (see _grow_jumps), and a sparse iid leaf chunk transforms only the
residuals of its candidate steps.  It draws its leaf generation in
brood-aligned chunks, which take the same uniforms with any bit generator
(see _reduce_leaves).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .displacement import DisplacementModel, Residuals, brood_flat, norming_constant
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


# An inner generation of at least SPARSE_JUMPS_MIN children whose parents
# carry a big jump at most JUMP_SHARE of the time holds its jump counters
# sparse (see _grow_jumps).  Sparse and dense cost the same at a parent share
# of about 0.1: on Poisson(2.5) broods with 1% fresh big steps and 2^14 to 2^20
# parents, sparse took 0.19-0.45 of the dense time at shares up to 0.02,
# 0.87-1.08 at 0.1 and 1.16-1.65 at 0.15; at the lowest share it took 0.71 on
# 20 000 children, but 2.0 on 10 000 (2-vCPU x86-64 VM with AVX-512, numpy
# 2.4.6).  Binary n = 12 never reaches the size (2048 leaf parents), and
# mixture n = 16 parents carry a jump well under 1% of the time.
SPARSE_JUMPS_MIN = 1 << 14
JUMP_SHARE = 0.0625


def _grow_jumps(jumps, counts, total: int, big):
    """The big-jump counters of the children of one generation.

    ``jumps`` are the parents' counters: dense, one int16 count per particle,
    or sparse, a pair of the sorted indices of the particles with a big jump
    on their path (the carriers) and their counts.  ``big`` flags the
    children's big steps, and is overwritten.  A generation of at least
    ``SPARSE_JUMPS_MIN`` children whose parents carry a jump at most
    ``JUMP_SHARE`` of the time comes out sparse, any other dense.

    A carrier's brood starts where the broods of it and of every later
    parent end: one ``add.reduceat`` over the counts gives those sums, so no
    offset of a non-carrier is formed.
    """
    sparse = isinstance(jumps, tuple)
    carried = jumps[0].size if sparse else np.count_nonzero(jumps)
    if total >= SPARSE_JUMPS_MIN and carried <= JUMP_SHARE * counts.size:
        carriers = jumps[0] if sparse else np.flatnonzero(jumps)
        held = jumps[1] if sparse else jumps[carriers]
        brood = counts[carriers]
        first = total - np.cumsum(np.add.reduceat(counts, carriers)[::-1])[::-1]
        child = np.repeat(first - np.cumsum(brood) + brood, brood) + np.arange(int(brood.sum()))
        held = np.repeat(held, brood) + big[child]
        # the children with a big step of their own and no carrier parent
        big[child] = False
        fresh = np.flatnonzero(big)
        at = np.searchsorted(child, fresh)
        return np.insert(child, at, fresh), np.insert(held, at, 1)
    if sparse:
        carriers, held = jumps
        jumps = np.zeros(counts.size, dtype=np.int16)
        jumps[carriers] = held
    jumps = np.repeat(jumps, counts)
    jumps += big
    return jumps


def _jumps_of(jumps, parent):
    """The big-jump counts of the particles ``parent``, dense or sparse
    counters alike (see :func:`_grow_jumps`)."""
    if not isinstance(jumps, tuple):
        return jumps[parent]
    carriers, held = jumps
    if not carriers.size:
        return np.zeros(np.shape(parent), dtype=np.int16)
    at = np.minimum(np.searchsorted(carriers, parent), carriers.size - 1)
    return np.where(carriers[at] == parent, held[at], 0)


def _grow_streaming(config: SimConfig, env_seq: EnvSequence, b: float, rng):
    """Flat per-particle arrays, updated generation by generation.

    Only the inner generations carry big-jump counters, dense or sparse
    (:func:`_grow_jumps`), and, when tracking, each particle's biggest step
    and its generation.  The leaf generation is never held whole:
    :func:`_reduce_leaves` draws, places and reduces it in chunks.
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
        jumps = _grow_jumps(jumps, counts, x.size, big)
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


# A chunk with at most this share of its parents beyond +-s (see
# _candidate_leaves) places only its candidate leaves.  Sparse and dense cost
# the same at a share of about 0.14: on one-chunk binary and mixture leaf
# generations (n = 13..17) the sparse branch took 0.85-0.96 of the dense time
# at shares up to 0.134, and 1.00-1.18 between 0.142 and 0.21 (2-vCPU x86-64
# VM with AVX-512, numpy 2.4.6).  Mixture n = 16 chunks lie below 0.11, binary
# n = 18 below 0.05, and every n = 12 chunk of both shipped configs above 0.6.
SPARSE_SHARE = 0.125


def _kth_extreme_leaf(p, brood, ends, first_leaf: int, x, k: int, top: bool, j: int):
    """The k-th largest (``top``) or smallest leaf of the parents with the
    highest or lowest positions ``p``, taken in turn from the extreme one, j,
    until they have k leaves; None if the first 4k of them have fewer."""
    values, rest = [], p
    for _ in range(4 * k):
        stop = int(ends[j]) - first_leaf
        values.append(p[j] + x[stop - brood[j] : stop])
        if sum(v.size for v in values) >= k:
            v = np.concatenate(values)
            return -np.partition(-v, k - 1)[k - 1] if top else np.partition(v, k - 1)[k - 1]
        if rest is p:
            rest = p.copy()
        rest[j] = -np.inf if top else np.inf
        j = int(rest.argmax() if top else rest.argmin())
    return None


def _steps_beyond(x, s: float):
    """A lower bound on the chunk's steps ``x`` within [-s, s] and the sorted
    indices of its steps beyond +-s, or None if a step is NaN."""
    if isinstance(x, Residuals):
        return x.beyond(s)
    xmin = float(x.min())
    # the min is NaN if any value is
    if np.isnan(xmin):
        return None
    steps = x > s
    if xmin < -s:
        steps |= x < -s
    return max(xmin, -s), np.flatnonzero(steps)


def _candidate_leaves(p, brood, ends, first_leaf: int, x, s: float, thr_big: float, k: int):
    """The chunk's leaves that can matter, or None when every leaf is to be
    placed: when more than ``SPARSE_SHARE`` of the parents lie beyond +-s, or
    a position is not finite, or a step is NaN.

    ``p``, ``brood`` and ``ends`` are the chunk's parents' positions, brood
    sizes and cumulative leaf counts (from ``first_leaf``), ``x`` its steps
    (an array, or :class:`Residuals` of which only the candidates' steps are
    transformed).  Returns the candidates' chunk leaf indices, their parents'
    chunk indices, their positions and their |steps|, not in leaf order.

    With a a lower bound on the chunk's steps within [-s, s] (of which every
    one is >= -s), a leaf of parent j whose step is small (|x| <= s) lies in
    [fl(p_j + a), fl(p_j + s)], since rounding is monotone.  So the
    candidates are every leaf whose step is not small, and every leaf of each
    parent j with fl(p_j + s) >= U or > ``thr_big``, or fl(p_j + a) <= L or
    < -``thr_big``, where U and L are the k-th largest and smallest leaves of
    the parents with the highest and lowest positions.  They hold every
    retained leaf, the k largest and the k smallest (k leaves are >= U, k are
    <= L), and every leaf equal to the maximum; big steps (|x| above the jump
    or the retention threshold, both >= 2s) are theirs too.  A NaN step or
    position would break the order that this rests on (argmax and partition
    put NaN first and last).
    """
    if np.count_nonzero(p > s) + np.count_nonzero(p < -s) > SPARSE_SHARE * p.size:
        return None
    high, low = int(p.argmax()), int(p.argmin())
    # argmax and argmin find a NaN if there is one
    if not (np.isfinite(p[high]) and np.isfinite(p[low])):
        return None
    beyond = _steps_beyond(x, s)
    if beyond is None:
        return None
    a, step_leaf = beyond
    upper = _kth_extreme_leaf(p, brood, ends, first_leaf, x, k, True, high)
    lower = _kth_extreme_leaf(p, brood, ends, first_leaf, x, k, False, low)
    if upper is None or lower is None:
        return None
    upper = min(upper, np.nextafter(thr_big, np.inf))
    lower = max(lower, np.nextafter(-thr_big, -np.inf))
    wide = (p + s >= upper) | (p + a <= lower)
    step_parent = np.searchsorted(ends, step_leaf + first_leaf, side="right")
    # every leaf of a wide parent is a candidate already
    lone = ~wide[step_parent]
    wide = np.flatnonzero(wide)
    size = brood[wide]
    idx = np.concatenate([
        np.arange(size.sum()) + np.repeat(ends[wide] - first_leaf - np.cumsum(size), size),
        step_leaf[lone],
    ])
    parent = np.concatenate([np.repeat(wide, size), step_parent[lone]])
    step = x[idx]
    leaf = p[parent] + step
    return idx, parent, leaf, np.abs(step, out=step)


def _reduce_leaves(config: SimConfig, b: float, counts, pos, jumps, best, hist, rng):
    """Draw, place and reduce the leaf generation in brood-aligned chunks.

    ``counts`` are the leaves of each parent, whose position, big-jump counts
    (dense or sparse, see :func:`_grow_jumps`) and (when tracking) ``best =
    (biggest |step|, its generation)`` are given.
    A chunk's leaves are its parents' positions repeated plus the chunk's
    displacements, and each chunk is reduced at once: the big-step histogram
    entry ``hist[n]``, the two-jump count, the retained positions, the
    chunk's k largest and k smallest, and the first argmax.  Leaf i's parent
    is the first index whose cumulative child count exceeds i: a leaf path
    has two big jumps if its parent's has, or if its parent's has one and its
    own step is big, and the argmax leaf's biggest step is its own if its |X|
    is strictly above its parent's, else its parent's.

    A chunk whose parents mostly lie within s = min(jump, retention
    threshold)/2 of 0 places only its candidate leaves
    (:func:`_candidate_leaves`), which give the same reduction, and an iid
    chunk then transforms only its candidates' residuals; any other chunk
    places every leaf.

    The draws equal those of one :func:`draw_generation` call, with any bit
    generator: :func:`brood_flat` draws one uniform per step, as steps or as
    their residuals, so the chunks' consecutive draws take the values of one
    batched draw and leave ``rng`` where it would.
    """
    n = config.n
    thr_jump = config.jump_eta * b
    thr_big = config.retain_delta * b
    s = 0.5 * min(thr_jump, thr_big)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    bounds = _chunk_bounds(ends, LEAF_CHUNK)
    big_leaves = two_jump_leaves = 0
    arg_value = max_leaf_jump_gen = None
    retained, tops, bottoms = [], [], []
    for lo_parent, hi_parent in zip(bounds[:-1], bounds[1:]):
        brood = counts[lo_parent:hi_parent]
        first_leaf = int(ends[lo_parent - 1]) if lo_parent else 0
        x = brood_flat(config.disp, brood, rng, residuals=True)
        k = min(config.top_k, int(ends[hi_parent - 1]) - first_leaf)
        p = pos[lo_parent:hi_parent]
        sparse = _candidate_leaves(p, brood, ends[lo_parent:hi_parent], first_leaf, x, s, thr_big, k)
        if sparse is None:
            if isinstance(x, Residuals):
                x = x.steps()
            leaf = np.repeat(p, brood)
            leaf += x
            # the displacements are ours (see brood_flat): |x| overwrites them
            absx = np.abs(x, out=x)
            arg = int(np.argmax(leaf))

            def parent_of(i):
                return np.searchsorted(ends, i + first_leaf, side="right")
        else:
            idx, parent, leaf, absx = sparse
            # the candidates are out of leaf order: the first argmax is the
            # lowest leaf index among the maxima
            tied = np.flatnonzero(leaf == leaf.max())
            arg = int(tied[np.argmin(idx[tied])])

            def parent_of(i):
                return parent[i] + lo_parent
        big = absx > thr_jump
        big_leaves += np.count_nonzero(big if thr_big == thr_jump else absx > thr_big)
        two_jump_leaves += np.count_nonzero(_jumps_of(jumps, parent_of(np.flatnonzero(big))) == 1)
        if arg_value is None or leaf[arg] > arg_value:
            arg_value = leaf[arg]
            if config.track_argmax_jump:
                at = int(parent_of(arg))
                best_abs, best_gen = best
                max_leaf_jump_gen = n if absx[arg] > best_abs[at] else int(best_gen[at])
        kept = leaf[np.abs(leaf, out=absx) > thr_big]
        kept /= b
        retained.append(kept)
        # in place: the k largest to the right, then the k smallest to the left
        # of them (fewer than 2k leaves are sorted outright).  Two one-kth
        # calls: numpy's SIMD partition takes a single kth only, and one call
        # with both took 0.89 against 0.31 ms on 2^17 leaves (2-vCPU x86-64 VM
        # with AVX-512, numpy 2.4.6)
        if leaf.size >= 2 * k:
            leaf.partition(leaf.size - k)
            leaf[: leaf.size - k].partition(k - 1)
        else:
            leaf.sort()
        # copies, so that no chunk outlives its reduction
        tops.append(leaf[leaf.size - k :].copy())
        bottoms.append(leaf[:k].copy())

    hist[n] = big_leaves
    # every leaf of a parent with two big jumps has them too
    carriers, held = jumps if isinstance(jumps, tuple) else (slice(None), jumps)
    diags = Diagnostics(
        paths_with_two_big_jumps=int(counts[carriers][held >= 2].sum()) + int(two_jump_leaves),
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
