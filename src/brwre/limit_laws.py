"""Samplers and evaluators for the limit objects of the extremal picture.

Every sampler draws a block of independent draws at once, one row per
draw; only :func:`sample_q` and :func:`sample_limit_point_process` also
take ``size=None``, which returns row 0 of a block of one.  The evaluators
of the limit laws read the columns of a :class:`QSample` block, and a block
of point-process draws is one :class:`brwre.measures.MeasureBlock`, a row of
atoms per draw.  Everything quenched lives on an :class:`EnvStream`: a block
of i.i.d. environments, one per row, whose law indices fill one matrix row
by row.  The mean products come from a
``cumprod`` over the law means and the extinction probabilities from one
array pgf step per generation and law, indexed so that entry i of a row
describes the population grown for i generations with the newest drawn law
at the root.  :meth:`ClusterSampler.single_descendant_prob` takes
P(Z_i = 1) along the same order by the chain rule
(:func:`brwre.offspring.compose_generation`).

Stream contract: a block grows some of its rows to a common width in one
step, with one uniform per missing generation drawn in row-major order, so a
fresh block grown to width T reads ``model.draw_indices(rng, (B, T))``.  The
normalizing series are summed by one loop over (rows, terms) arrays with one
tail rule read from the model (:func:`brwre.environment.series_tail`:
certified for every stream, or in expectation); it grows the rows whose
tail is not yet met by ``_GROW`` generations at a time, and stops each row
at its own first certified term.  The cluster samplers draw a generation
index from each row's series terms by one search of that row's cut points.
One count-level population walk over the rows of a law-index matrix serves
the martingale limit W (frozen once Z reaches 10^12, on one fresh
``(rows, w_horizon)`` matrix per round), every cluster size and every
brood-vector member (stopped past 10^14).  Survival restarts and rejections
redo only the rows they did not accept, round after round through
:func:`brwre.errors.first_accepted`.  The point process then draws its point
counts, one step per point (:func:`brwre.displacement.draw_steps`) and the
clusters, and groups the block's atoms into one CSR block of measures, one
row per draw (:func:`brwre.measures.group_by_draw`).

The general route of the mixing scale Q reads the tail measure only through
the exceedance-count masses of :func:`brwre.displacement.exceedance_masses`:
a brood of v children with k coordinates above 1 adds to Q when one of those
k lines survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .displacement import DisplacementModel, draw_steps, exceedance_masses, spread_broods
from .environment import EnvironmentModel, series_tail
from .errors import ArgumentOrder, NonGeometricGrowth, UnboundedProgenyInGeneralMode, first_accepted
from .measures import group_by_draw
from .offspring import compose_generation

# Population walks for W stop once Z reaches this: the martingale value is
# frozen to ~1e-6 relative accuracy and its conditional mean kept exactly.
_FREEZE_POPULATION = 1_000_000_000_000
# Cluster-size walks stop past 10^14, before the count samplers overflow.
_SIZE_STOP = 10 ** 14 + 1
# Generations a series realizes at a time on each row whose tail is not yet
# met: one step covers both shipped configs (at most 30 terms).
_GROW = 32


@dataclass(frozen=True)
class LimitConfig:
    series_tol: float = 1e-9
    max_terms: int = 400
    w_horizon: int = 30
    u_min: float = 0.05
    n_limit_samples: int = 10000

    def __post_init__(self):
        if not 0.0 < self.series_tol < 1.0:
            raise ValueError("series_tol must lie in (0, 1)")
        if min(self.w_horizon, self.max_terms, self.n_limit_samples) < 1:
            raise ValueError("w_horizon, max_terms and n_limit_samples must be >= 1")
        if not self.u_min > 0.0:
            raise ValueError("u_min must be positive")


@dataclass
class SeriesValue:
    """A quenched series on every row of a block: per row its value, the
    bound on its tail and the number of terms it summed."""

    value: np.ndarray
    tail_bound: np.ndarray
    row_terms: np.ndarray
    certified: str  # "deterministic" (every stream) or "annealed" (in expectation)

    @property
    def terms_used(self) -> int:
        """The terms summed over all rows."""
        return int(self.row_terms.sum())


@dataclass
class QSample:
    """A block of draws of the mixing scale of the limit maximum law, one
    entry of each column per draw (floats for the one draw of ``size=None``).

    ``q`` multiplies x^(-alpha) in the limit CDF exponent; ``w`` is the
    martingale-limit draw and ``c_value`` the realized normalizing series, so
    w * c_value recovers the environment part needed by the joint laws.
    """

    q: np.ndarray
    w: np.ndarray
    c_value: np.ndarray


def _in_rounds(attempt, n: int, what: str) -> None:
    """Call ``attempt(rows)`` on the rows 0..n-1, then again on the rows it
    did not accept (it returns the accepted mask), one round per attempt of
    :func:`first_accepted`, which gives up naming ``what``.  After a round
    that accepted none, only the first rejected row is redone until one is
    accepted: a block whose draws are never accepted gives up at the cost of
    one draw, not of every row."""
    todo, wide = np.arange(n), True

    def one_round(_) -> Optional[bool]:
        nonlocal todo, wide
        rows = todo if wide else todo[:1]
        accepted = attempt(rows)
        wide = np.count_nonzero(accepted) > 0
        if wide:
            todo = np.concatenate((rows[~accepted], todo[rows.size :]))
        return None if todo.size else True

    if n:
        first_accepted(one_round, what)


def _totals(law, rng, z: np.ndarray) -> np.ndarray:
    """One generation's total progeny of the populations ``z`` under ``law``;
    a lone population takes the scalar draw, which reads the same uniforms
    without the parameter checks of numpy's array draws (about 10 µs)."""
    return np.array([law.sample_total(rng, int(z[0]))]) if z.size == 1 else law.sample_total(rng, z)


def _population_walk(support, laws: np.ndarray, stop: int, rng, lengths) -> Tuple[np.ndarray, np.ndarray]:
    """Count-level Z of each row of the law-index matrix ``laws``, one
    generation per column, root first, over ``lengths[r]`` columns of row r;
    a row stops early once Z is 0 or reaches ``stop``.  Returns Z and the
    generations each row walked."""
    n, width = laws.shape
    z = np.ones(n, dtype=np.int64)
    walked = np.array(lengths, dtype=np.intp)
    live = np.flatnonzero(walked)
    for g in range(width):
        if not live.size:
            break
        zl = z[live]
        if len(support) == 1:
            zl = _totals(support[0], rng, zl)
        else:
            col = laws[live, g]
            for k, law in enumerate(support):
                sel = col == k
                zl[sel] = _totals(law, rng, zl[sel])
        z[live] = zl
        keep = (zl > 0) & (zl < stop) & (walked[live] > g + 1)
        if np.count_nonzero(keep) < live.size:
            walked[live[~keep]] = g + 1
            live = live[keep]
    return z, walked


def _widen(a: np.ndarray, cols: int, fill) -> np.ndarray:
    """``a`` with columns of ``fill`` appended up to ``cols``."""
    out = np.full((a.shape[0], cols), fill, dtype=a.dtype)
    out[:, : a.shape[1]] = a
    return out


class EnvStream:
    """A block of independent environments, one per row, realized lazily.

    For row b, ``indices[b, j]`` is the law index of generation j for
    j < ``length[b]``, and ``pi[b, i]`` (the product of the first i means)
    and ``extinct[b, i]`` (P(Z_i = 0), newest law at the root) hold for
    i <= ``length[b]``.
    """

    def __init__(self, model: EnvironmentModel, rng, size: int = 1):
        self.model = model
        self._rng = rng
        rows = int(size)
        self.length = np.zeros(rows, dtype=np.intp)
        self.indices = np.zeros((rows, 0), dtype=np.intp)
        self.pi = np.ones((rows, 1))
        self.extinct = np.zeros((rows, 1))

    @property
    def rows(self) -> int:
        return self.length.size

    def grow(self, rows: np.ndarray, width: int) -> None:
        """Realize generations up to ``width`` on each of ``rows`` (increasing):
        one uniform per missing generation, drawn in row-major order."""
        rows = rows[self.length[rows] < width]
        if not rows.size:
            return
        if width > self.indices.shape[1]:
            self.indices = _widen(self.indices, width, 0)
            self.pi = _widen(self.pi, width + 1, 1.0)
            self.extinct = _widen(self.extinct, width + 1, 0.0)
        start = int(self.length[rows].min())
        idx = self.indices[rows, :width]
        missing = np.arange(start, width) >= self.length[rows, None]
        idx[:, start:][missing] = self.model.draw_indices(self._rng, int(missing.sum()))
        self.indices[rows, :width] = idx
        self.length[rows] = width
        self.pi[rows, 1 : width + 1] = np.cumprod(self.model._means[idx], axis=1)
        support, each = self.model.support, np.arange(rows.size)
        extinct = np.empty((rows.size, width - start))
        e = self.extinct[rows, start]
        for j in range(start, width):
            if len(support) == 1:
                e = support[0].pgf(e)
            else:
                e = np.stack([law.pgf(e) for law in support])[idx[:, j], each]
            extinct[:, j - start] = e
        self.extinct[rows, start + 1 : width + 1] = extinct

    def simulate_population(self, rows: np.ndarray, gens: np.ndarray, rng) -> np.ndarray:
        """Count-level draws of Z_{gens[k]} under the environment of row
        ``rows[k]``, newest law at the root."""
        cols = gens[:, None] - 1 - np.arange(int(gens.max(initial=0)))
        laws = self.indices[rows[:, None], np.maximum(cols, 0)]
        return _population_walk(self.model.support, laws, _SIZE_STOP, rng, gens)[0]


# Series kind -> (terms 0..t-1 on rows r of a stream, index shift of the 1/pi
# in its tail bound).
_SERIES = {
    # sum of 1/pi_i
    "inverse_mean": (lambda s, r, t: 1.0 / s.pi[r, :t], 0),
    # sum of P(Z_i >= 1)/pi_i
    "cluster_size": (lambda s, r, t: (1.0 - s.extinct[r, :t]) / s.pi[r, :t], 0),
    # normalizer of the nonzero brood-vector law:
    # sum_v P(Z_1 = v)(1 - e_i^v) collapses to 1 - f_i(e_i) = 1 - e_{i+1}
    "cluster_vector": (lambda s, r, t: (1.0 - s.extinct[r, 1 : t + 1]) / s.pi[r, 1 : t + 1], 1),
    # same without the extinct-vector exclusion
    "cluster_vector_leafless": (
        lambda s, r, t: (1.0 - np.array([law.pmf(0) for law in s.model.support])[s.indices[r, :t]])
        / s.pi[r, 1 : t + 1],
        1,
    ),
    # sum of 1/pi_{i+1}: the generation-index weights of brood-vector draws
    "_inverse_mean_next": (lambda s, r, t: 1.0 / s.pi[r, 1 : t + 1], 1),
}
SERIES_KINDS = tuple(kind for kind in _SERIES if not kind.startswith("_"))


def _certified_sum(
    term, stream: EnvStream, cfg: LimitConfig, shift: int, name: str
) -> Tuple[SeriesValue, np.ndarray]:
    """Sum ``term(0) + term(1) + ...`` (term i realizes generation i) on every
    row of ``stream`` until the row's tail bound (1/pi_{i+shift}) / excess
    falls below ``series_tol`` * value; also the summed terms, one row each,
    zero past the row's last term.

    ``term(stream, rows, t)`` gives terms 0..t-1 of ``rows``.  Each term j is
    at most 1/pi_{j+shift}; ``excess`` and the certification status come
    from :func:`brwre.environment.series_tail`, and a ``refused`` tail raises
    before the first term.  Rows grow by ``_GROW`` generations until every
    row has met its tail, and each row is summed from term 0 at every width,
    so its value is the plain running sum.
    """
    excess, certified, a = series_tail(stream.model)
    if certified == "refused":
        raise NonGeometricGrowth(f"{name} has no geometric tail: E[1/m(Y)] = {a:.6g} >= 1")
    n = stream.rows
    value, tail = np.zeros(n), np.zeros(n)
    used = np.zeros(n, dtype=np.intp)
    summed = np.zeros((n, 0))
    active, width = np.arange(n), 0
    while active.size:
        if width == cfg.max_terms:
            raise NonGeometricGrowth(f"{name} did not certify its tail within {cfg.max_terms} terms")
        width = min(width + _GROW, cfg.max_terms)
        stream.grow(active, width)
        terms = term(stream, active, width)
        total = np.cumsum(terms, axis=1)
        bound = (1.0 / stream.pi[active, shift : width + shift]) / excess
        met = (total > 0.0) & (bound < cfg.series_tol * total)
        stop = met.argmax(axis=1)
        done = met[np.arange(active.size), stop]
        rows, k = active[done], stop[done]
        value[rows], tail[rows], used[rows] = total[done, k], bound[done, k], k + 1
        summed = _widen(summed, width, 0.0)
        summed[rows] = np.where(np.arange(width) <= k[:, None], terms[done], 0.0)
        active = active[~done]
    return SeriesValue(value, tail, used, certified), summed


def _series_terms(kind: str, stream: EnvStream, cfg: LimitConfig) -> Tuple[SeriesValue, np.ndarray]:
    """Sum one quenched series kind; returns the values and the summed terms."""
    if kind not in _SERIES:
        raise ValueError(f"unknown series kind {kind!r}")
    term, shift = _SERIES[kind]
    return _certified_sum(term, stream, cfg, shift, f"series {kind!r}")


def cluster_norm_series(kind: str, stream: EnvStream, cfg: LimitConfig) -> SeriesValue:
    """Quenched normalizing series on every row of a block of environments.

    Kinds: ``inverse_mean`` (reciprocal expected generation sizes),
    ``cluster_size`` (survival-weighted reciprocals, the cluster-size law
    normalizer), ``cluster_vector`` (brood-vector law excluding the all-dead
    vector) and ``cluster_vector_leafless`` (no exclusion).
    """
    return _series_terms(kind, stream, cfg)[0]


def sample_martingale_limit(
    model: EnvironmentModel, m: int, condition_on_survival: bool, rng, size: int
) -> np.ndarray:
    """Z_m / pi_m for ``size`` fresh environment draws, by count-level simulation.

    Each round draws a ``(rows, m)`` law-index matrix and walks its rows;
    when conditioning, the rows that died out restart with a fresh
    environment and population.  Once a population passes the freeze
    threshold its current ratio is kept: the martingale property keeps its
    conditional mean exact and the remaining fluctuation is
    O(population^-1/2).
    """
    w = np.zeros(size)

    def attempt(rows: np.ndarray) -> np.ndarray:
        laws = model.draw_indices(rng, (rows.size, m))
        z, g = _population_walk(model.support, laws, _FREEZE_POPULATION, rng, np.full(rows.size, m))
        alive = z > 0
        if np.count_nonzero(alive):
            pi = np.cumprod(model._means[laws[alive]], axis=1)
            w[rows[alive]] = z[alive] / pi[np.arange(pi.shape[0]), g[alive] - 1]
        return alive if condition_on_survival else np.ones(rows.size, dtype=bool)

    _in_rounds(attempt, w.size, "survival restart of the martingale limit W")
    return w


def _row_cuts(terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row cut-point tables of nonnegative weight rows, and the row totals.

    Row b holds its cumulative weights up to its last positive weight and
    +inf from there on, so counting its entries <= u * total[b] is the
    right-sided search of :func:`brwre.offspring.cut_points` for a uniform
    u, and a rounding gap at the top falls to the last positive weight.
    """
    cum = np.cumsum(terms, axis=1)
    total = cum[:, -1].copy()
    last = terms.shape[1] - 1 - np.argmax(terms[:, ::-1] > 0.0, axis=1)
    cum[np.arange(terms.shape[1]) >= last[:, None]] = np.inf
    return cum, total


def _draw_categories(table: Tuple[np.ndarray, np.ndarray], rows: np.ndarray, rng) -> np.ndarray:
    """One category per entry of ``rows``, from that row of a :func:`_row_cuts` table."""
    cuts, total = table
    u = rng.random(rows.size) * total[rows]
    return (cuts[rows] <= u[:, None]).sum(axis=1)


class ClusterSampler:
    """Two-stage samplers for the cluster laws of each row of a block of
    environments.  The draws take the row of each big jump."""

    def __init__(self, stream: EnvStream, cfg: LimitConfig):
        self.stream = stream
        self.size_norm, terms = _series_terms("cluster_size", stream, cfg)
        self._size_table = _row_cuts(terms)
        self._vec_table = _row_cuts(_series_terms("_inverse_mean_next", stream, cfg)[1])

    def sample_size(self, rng, rows) -> np.ndarray:
        """The number of final-generation descendants of one big jump per row
        of ``rows``: a generation i from the row's size table, then Z_i by
        the count-level population walk, conditioned on >= 1 (the dead walks
        are redone)."""
        r = np.asarray(rows, dtype=np.intp)
        gens = _draw_categories(self._size_table, r, rng)
        sizes = np.zeros(r.size, dtype=np.int64)

        def attempt(todo: np.ndarray) -> np.ndarray:
            sizes[todo] = self.stream.simulate_population(r[todo], gens[todo], rng)
            return sizes[todo] > 0

        _in_rounds(attempt, r.size, "cluster size draw")
        return sizes

    def sample_brood_vector(self, rng, rows) -> Tuple[np.ndarray, np.ndarray]:
        """Brood sizes V, one per row of ``rows``, and the V descendant counts
        of each brood, not all zero, flat in the order of ``rows``."""
        r = np.asarray(rows, dtype=np.intp)
        support = self.stream.model.support
        v = np.zeros(r.size, dtype=np.int64)
        # (draw, count) of every member of the broods each round accepted
        members = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64))]

        def attempt(todo: np.ndarray) -> np.ndarray:
            gens = _draw_categories(self._vec_table, r[todo], rng)
            laws = self.stream.indices[r[todo], gens]
            vt = np.zeros(todo.size, dtype=np.int64)
            for k, law in enumerate(support):
                sel = np.flatnonzero(laws == k)
                vt[sel] = law.sample_many(rng, sel.size)
            owner = np.repeat(np.arange(todo.size), vt)
            sizes = self.stream.simulate_population(r[todo][owner], gens[owner], rng)
            # an empty brood (v = 0) has no nonzero count and is rejected too
            ok = np.bincount(owner[sizes > 0], minlength=todo.size) > 0
            v[todo[ok]] = vt[ok]
            members.append((todo[owner][ok[owner]], sizes[ok[owner]]))
            return ok

        _in_rounds(attempt, r.size, "brood-vector rejection")
        draws, counts = (np.concatenate(m) for m in zip(*members))
        return v, counts[np.argsort(draws, kind="stable")]

    def single_descendant_prob(self) -> np.ndarray:
        """P(cluster size = 1) on each row: the chance one big jump shows up alone."""
        s, used = self.stream, self.size_norm.row_terms
        total = np.zeros(s.rows)
        p0, p1 = np.zeros(s.rows), np.ones(s.rows)  # P(Z_i = 0), P(Z_i = 1) from Z_0 = 1
        for i in range(int(used.max())):
            total += np.where(i < used, p1 / s.pi[:, i], 0.0)
            for k, law in enumerate(s.model.support):
                sel = s.indices[:, i] == k
                if sel.any():
                    p0[sel], p1[sel] = compose_generation(law, (p0[sel], p1[sel]))
        return total / self.size_norm.value


def _general_q_series(
    disp: DisplacementModel, stream: EnvStream, cfg: LimitConfig
) -> SeriesValue:
    """The environment part of the mixing scale from the exceedance-count masses."""
    support = stream.model.support
    vmaxes = [law.support_max for law in support]
    if any(v is None for v in vmaxes):
        raise UnboundedProgenyInGeneralMode(
            "the exceedance-count series needs bounded progeny support"
        )
    disp.check_broods(support)
    masses = {v: exceedance_masses(disp, v) for v in range(1, max(vmaxes) + 1)}

    def term(s: EnvStream, rows: np.ndarray, t: int) -> np.ndarray:
        extinct, laws = s.extinct[rows, :t], s.indices[rows, :t]
        inner = np.zeros(extinct.shape)
        for k, law in enumerate(support):
            sel = laws == k
            e = extinct[sel][:, None]
            acc = np.zeros(e.shape[0])
            for v in range(1, law.support_max + 1):
                pv = law.pmf(v)
                if pv == 0.0:
                    continue
                acc += pv * ((1.0 - e ** np.arange(1, v + 1)) @ masses[v])
            inner[sel] = acc
        return inner / s.pi[rows, 1 : t + 1]

    # each term is at most p * 1/pi_i (single-coordinate union bound)
    return _certified_sum(term, stream, cfg, 0, "exceedance-count series")[0]


def sample_q(
    disp: DisplacementModel,
    env_model: EnvironmentModel,
    cfg: LimitConfig,
    rng,
    method: str = "auto",
    size: Optional[int] = None,
):
    """Draws of the mixing scale Q of the limit maximum: one :class:`QSample`
    block of ``size`` rows, or for ``None`` row 0 of a block of one, as floats.

    ``method="auto"`` uses the closed shortcuts for the iid and fully
    dependent modes and the exceedance-count series otherwise; ``"general"``
    forces the exceedance-count route (bounded progeny only), ``"shortcut"``
    forces the closed forms.
    """
    if method not in ("auto", "shortcut", "general"):
        raise ValueError(f"unknown method {method!r}")
    # refused before the first draw, so that a refusal leaves rng as it was
    if method == "shortcut" and disp.mode == "discrete_angular":
        raise ValueError("discrete_angular mode has no shortcut; use the general method")
    w = sample_martingale_limit(env_model, cfg.w_horizon, True, rng, 1 if size is None else size)
    stream = EnvStream(env_model, rng, w.size)
    if method == "general" or disp.mode == "discrete_angular":
        sv = _general_q_series(disp, stream, cfg)
        q = w * sv.value
    else:
        sv = cluster_norm_series("cluster_size" if disp.mode == "iid" else "cluster_vector", stream, cfg)
        q = w * disp.p * sv.value
    if size is None:
        return QSample(float(q[0]), float(w[0]), float(sv.value[0]))
    return QSample(q, w, sv.value)


def limit_max_cdf(q_samples: QSample, x: float, alpha: float) -> float:
    """Monte Carlo limit CDF of the normalised maximum at x."""
    if not q_samples.q.size:
        raise ValueError("need at least one sample")
    if not x > 0.0:
        raise ValueError("x must be positive")
    return float(np.mean(np.exp(-(x ** -alpha) * q_samples.q)))


def joint_min_max_cdf(q_samples: QSample, x: float, y: float, alpha: float, p: float) -> float:
    """P(limit min > -y, limit max <= x) for tail-independent displacements."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    t = q_samples.w * q_samples.c_value
    return float(np.mean(np.exp(-t * (p * x ** -alpha + (1.0 - p) * y ** -alpha))))


def top_two_cdf_multiplicity_adjusted(
    q_samples: QSample,
    x: float,
    y: float,
    alpha: float,
    p: float,
    single_probs,
) -> float:
    """P(largest <= y, second largest <= x) for 0 < x <= y, tail-independent
    mode: the top-two law of the limit extremal process (the SScDPPP itself).

    A lone point in (x, y] only leaves the second maximum below x when its
    cluster multiplicity is exactly 1, so the interval term carries the
    quenched single-descendant probability (one value per sample).  This is
    the exact law of the cluster-decorated limit, not a finite-scale
    correction; probabilities of 1 give the law of the undecorated Poisson
    process, whose clusters are singletons.
    """
    if not 0.0 < x <= y:
        raise ArgumentOrder("top-two law needs 0 < x <= y")
    t = q_samples.w * q_samples.c_value
    r1 = np.asarray(single_probs, dtype=float)
    if r1.shape != t.shape:
        raise ValueError("need one single-descendant probability per sample")
    xa = x ** -alpha
    return float(np.mean(np.exp(-p * t * xa) * (1.0 + p * t * (xa - y ** -alpha) * r1)))


def sample_limit_point_process(
    disp: DisplacementModel,
    env_model: EnvironmentModel,
    cfg: LimitConfig,
    rng,
    size: Optional[int] = None,
):
    """Draws of the limit extremal process, each with its realized scale: a
    :class:`brwre.measures.MeasureBlock` of ``size`` rows, one per draw, and
    an array of their scales, or for ``None`` row 0 (a
    :class:`brwre.measures.PointMeasure`) and scale 0 of a block of one.

    Radial points fall on (u_min, inf) with the alpha-homogeneous intensity;
    every point carries a cluster drawn from the quenched laws of its draw's
    environment (one row of a block), and each picture is scaled by
    (series * martingale_limit)^(1/alpha).  Atoms below scale * u_min are not
    represented, so test functionals must stay above that floor.  An angular
    model needs every brood within its coordinates (ValueError otherwise).
    """
    disp.check_broods(env_model.support)
    w = sample_martingale_limit(env_model, cfg.w_horizon, True, rng, 1 if size is None else size)
    stream = EnvStream(env_model, rng, w.size)
    sampler = ClusterSampler(stream, cfg)
    if disp.mode == "iid":
        c = sampler.size_norm.value
    else:
        c = cluster_norm_series("cluster_vector", stream, cfg).value
    scale = (c * w) ** (1.0 / disp.alpha)

    rate = cfg.u_min ** -disp.alpha
    if disp.mode == "discrete_angular":
        rate *= disp.angular_total_mass
    n_pts = rng.poisson(rate, w.size)
    draw = np.repeat(np.arange(w.size), n_pts)  # the draw of every point
    steps, atom = draw_steps(disp, draw.size, rng)
    steps *= cfg.u_min

    # one atom per brood member, placed as the simulator places a brood; an
    # iid point is a brood of one that carries its cluster size
    if disp.mode == "iid":
        v, mults = np.ones(draw.size, dtype=np.int64), sampler.sample_size(rng, draw)
    else:
        v, mults = sampler.sample_brood_vector(rng, draw)
    owner = np.repeat(draw, v)
    measures = group_by_draw(owner, scale[owner] * spread_broods(disp, steps, atom, v), mults, w.size)
    return (measures[0], float(scale[0])) if size is None else (measures, scale)
