"""Samplers and evaluators for the limit objects of the extremal picture.

Everything quenched lives on an :class:`EnvStream`: a lazily realized i.i.d.
environment with cached mean products and extinction probabilities, both
indexed so that entry i describes the population grown for i generations with
the newest drawn law at the root.  :meth:`ClusterSampler.single_descendant_prob`
takes P(Z_i = 1) along the same order by the chain rule
(:func:`brwre.offspring.compose_generation`).

The normalizing series are summed by one loop with one tail rule read from
the model (:func:`brwre.environment.series_tail`: certified for every stream,
or in expectation); the cluster samplers draw a generation index from the
series terms by one search of a cut-point table
(:func:`brwre.offspring.cut_points`).  One count-level population walk serves
both the martingale limit W (frozen once Z reaches 10^12) and every cluster
size (stopped past 10^14).

The general route of the mixing scale Q reads the tail measure only through
the exceedance-count masses of :func:`brwre.displacement.exceedance_masses`:
a brood of v children with k coordinates above 1 adds to Q when one of those
k lines survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .displacement import DisplacementModel, exceedance_masses
from .environment import EnvironmentModel, sample_env, series_tail
from .errors import ArgumentOrder, NonGeometricGrowth, UnboundedProgenyInGeneralMode, first_accepted
from .measures import PointMeasure
from .offspring import compose_generation, cut_points

# Population walks for W stop once Z reaches this: the martingale value is
# frozen to ~1e-6 relative accuracy and its conditional mean kept exactly.
_FREEZE_POPULATION = 1_000_000_000_000
# Cluster-size walks stop past 10^14, before the count samplers overflow.
_SIZE_STOP = 10 ** 14 + 1


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
    value: float
    tail_bound: float
    terms_used: int
    certified: str  # "deterministic" (every stream) or "annealed" (in expectation)


@dataclass
class QSample:
    """One draw of the mixing scale of the limit maximum law.

    ``q`` multiplies x^(-alpha) in the limit CDF exponent; ``w`` is the
    martingale-limit draw and ``c_value`` the realized normalizing series, so
    w * c_value recovers the environment part needed by the joint laws.
    """

    q: float
    w: float
    c_value: float


class EnvStream:
    """A lazily drawn independent environment with cached quenched data."""

    def __init__(self, model: EnvironmentModel, rng):
        self.model = model
        self._rng = rng
        self._indices: List[int] = []
        self._pi: List[float] = [1.0]
        self._extinct: List[float] = [0.0]

    def _extend(self, i: int) -> None:
        while len(self._indices) <= i:
            k = int(self.model.draw_indices(self._rng))
            law = self.model.support[k]
            self._indices.append(k)
            self._pi.append(self._pi[-1] * law.mean())
            self._extinct.append(law.pgf(self._extinct[-1]))

    def law(self, i: int):
        self._extend(i)
        return self.model.support[self._indices[i]]

    def pi(self, i: int) -> float:
        """Expected size after i generations (product of the first i means)."""
        self._extend(i - 1)
        return self._pi[i]

    def extinct_prob(self, i: int) -> float:
        """P(Z_i = 0) for the i-generation population, newest law at the root."""
        self._extend(i - 1)
        return self._extinct[i]

    def simulate_population(self, i: int, rng) -> int:
        """Count-level draw of Z_i under this environment, newest law at the root."""
        return _population_walk([self.law(j) for j in range(i - 1, -1, -1)], _SIZE_STOP, rng)[0]


def _population_walk(laws, stop: int, rng) -> Tuple[int, int]:
    """Count-level Z after one generation per law of ``laws``, root first,
    stopped early once Z is 0 or reaches ``stop``; also the generations walked."""
    z = 1
    for g, law in enumerate(laws, start=1):
        z = law.sample_total(rng, z)
        if z == 0 or z >= stop:
            return z, g
    return z, len(laws)


# Series kind -> (term i on a stream, index shift of the 1/pi in its tail bound).
_SERIES = {
    # sum of 1/pi_i
    "inverse_mean": (lambda s, i: 1.0 / s.pi(i), 0),
    # sum of P(Z_i >= 1)/pi_i
    "cluster_size": (lambda s, i: (1.0 - s.extinct_prob(i)) / s.pi(i), 0),
    # normalizer of the nonzero brood-vector law:
    # sum_v P(Z_1 = v)(1 - e_i^v) collapses to 1 - f_i(e_i) = 1 - e_{i+1}
    "cluster_vector": (lambda s, i: (1.0 - s.law(i).pgf(s.extinct_prob(i))) / s.pi(i + 1), 1),
    # same without the extinct-vector exclusion
    "cluster_vector_leafless": (lambda s, i: (1.0 - s.law(i).pmf(0)) / s.pi(i + 1), 1),
    # sum of 1/pi_{i+1}: the generation-index weights of brood-vector draws
    "_inverse_mean_next": (lambda s, i: 1.0 / s.pi(i + 1), 1),
}
SERIES_KINDS = tuple(kind for kind in _SERIES if not kind.startswith("_"))


def _certified_sum(
    term, stream: EnvStream, cfg: LimitConfig, shift: int, name: str
) -> Tuple[SeriesValue, np.ndarray]:
    """Sum ``term(0) + term(1) + ...`` (term i realizes generation i) until the
    tail bound (1/pi_{i+shift}) / excess falls below ``series_tol`` * value.

    Each term j is at most 1/pi_{j+shift}; ``excess`` and the certification
    status come from :func:`brwre.environment.series_tail`, and a ``refused``
    tail raises before the first term.
    """
    excess, certified, a = series_tail(stream.model)
    if certified == "refused":
        raise NonGeometricGrowth(f"{name} has no geometric tail: E[1/m(Y)] = {a:.6g} >= 1")
    terms: List[float] = []
    value = 0.0
    for i in range(cfg.max_terms):
        t = term(i)
        stream.law(i)  # realize generation i: every series draws terms_used laws
        terms.append(t)
        value += t
        if value > 0.0:
            tail = (1.0 / stream.pi(i + shift)) / excess
            if tail < cfg.series_tol * value:
                return SeriesValue(value, tail, i + 1, certified), np.asarray(terms)
    raise NonGeometricGrowth(f"{name} did not certify its tail within {cfg.max_terms} terms")


def _series_terms(kind: str, stream: EnvStream, cfg: LimitConfig) -> Tuple[SeriesValue, np.ndarray]:
    """Sum one quenched series kind; returns the value and the summed terms."""
    if kind not in _SERIES:
        raise ValueError(f"unknown series kind {kind!r}")
    term, shift = _SERIES[kind]
    return _certified_sum(lambda i: term(stream, i), stream, cfg, shift, f"series {kind!r}")


def cluster_norm_series(kind: str, stream: EnvStream, cfg: LimitConfig) -> SeriesValue:
    """Quenched normalizing series for a realized environment.

    Kinds: ``inverse_mean`` (reciprocal expected generation sizes),
    ``cluster_size`` (survival-weighted reciprocals, the cluster-size law
    normalizer), ``cluster_vector`` (brood-vector law excluding the all-dead
    vector) and ``cluster_vector_leafless`` (no exclusion).
    """
    return _series_terms(kind, stream, cfg)[0]


def sample_martingale_limit(
    model: EnvironmentModel, m: int, condition_on_survival: bool, rng
) -> float:
    """Z_m / pi_m for a fresh environment draw, by count-level simulation.

    Rejection-restarts (fresh environment and population) on extinction when
    conditioning.  Once the population passes the freeze threshold the
    current ratio is returned: the martingale property keeps its conditional
    mean exact and the remaining fluctuation is O(population^-1/2).
    """

    def attempt(_) -> Optional[float]:
        env = sample_env(model, m, rng)
        z, g = _population_walk(env.laws, _FREEZE_POPULATION, rng)
        if z > 0:
            return float(z / env.pi[g])
        return None if condition_on_survival else 0.0

    return first_accepted(attempt, "survival restart of the martingale limit W")


def _draw_category(table: Tuple[np.ndarray, float], rng) -> int:
    """One category of a ``(cut points, total)`` table, see :func:`cut_points`."""
    return int(np.searchsorted(table[0], rng.random() * table[1], side="right"))


class ClusterSampler:
    """Two-stage samplers for the cluster laws of one realized environment."""

    def __init__(self, stream: EnvStream, cfg: LimitConfig):
        self.stream = stream
        self.size_norm, terms = _series_terms("cluster_size", stream, cfg)
        self._size_table = cut_points(terms)
        self._vec_table = cut_points(_series_terms("_inverse_mean_next", stream, cfg)[1])

    def _draw_size(self, i: int, rng, conditioned: bool) -> int:
        """Z_i by the count-level population walk, conditioned on >= 1 if asked."""
        if not conditioned:
            return self.stream.simulate_population(i, rng)
        return first_accepted(lambda _: self.stream.simulate_population(i, rng) or None, "cluster size draw")

    def sample_size(self, rng) -> int:
        """The number of final-generation descendants of one big jump."""
        i = _draw_category(self._size_table, rng)
        return self._draw_size(i, rng, conditioned=True)

    def sample_brood_vector(self, rng) -> Tuple[int, np.ndarray]:
        """A brood size V and the V descendant counts, not all zero."""

        def attempt(_) -> Optional[Tuple[int, np.ndarray]]:
            i = _draw_category(self._vec_table, rng)
            v = self.stream.law(i).sample_many(rng, 1)[0]
            # an empty brood (v = 0) has no nonzero count and is rejected too
            sizes = np.array([self._draw_size(i, rng, conditioned=False) for k in range(v)])
            return (int(v), sizes) if sizes.any() else None

        return first_accepted(attempt, "brood-vector rejection")

    def single_descendant_prob(self) -> float:
        """P(cluster size = 1): the chance one big jump shows up alone."""
        total, base = 0.0, (0.0, 1.0)  # (P(Z_i = 0), P(Z_i = 1)) from Z_0 = 1
        for i in range(self.size_norm.terms_used):
            total += base[1] / self.stream.pi(i)
            base = compose_generation(self.stream.law(i), base)
        return total / self.size_norm.value


def _general_q_series(
    disp: DisplacementModel, stream: EnvStream, cfg: LimitConfig
) -> SeriesValue:
    """The environment part of the mixing scale from the exceedance-count masses."""
    vmaxes = [law.support_max for law in stream.model.support]
    if any(v is None for v in vmaxes):
        raise UnboundedProgenyInGeneralMode(
            "the exceedance-count series needs bounded progeny support"
        )
    disp.check_broods(stream.model.support)
    masses = {v: exceedance_masses(disp, v) for v in range(1, max(vmaxes) + 1)}

    def term(i: int) -> float:
        law = stream.law(i)
        e_i = stream.extinct_prob(i)
        inner = 0.0
        for v in range(1, law.support_max + 1):
            pv = law.pmf(v)
            if pv == 0.0:
                continue
            ks = np.arange(1, v + 1)
            inner += pv * float((1.0 - e_i ** ks) @ masses[v])
        return inner / stream.pi(i + 1)

    # each term is at most p * 1/pi_i (single-coordinate union bound)
    return _certified_sum(term, stream, cfg, 0, "exceedance-count series")[0]


def sample_q(
    disp: DisplacementModel,
    env_model: EnvironmentModel,
    cfg: LimitConfig,
    rng,
    method: str = "auto",
) -> QSample:
    """One draw of the mixing scale Q of the limit maximum.

    ``method="auto"`` uses the closed shortcuts for the iid and fully
    dependent modes and the exceedance-count series otherwise; ``"general"``
    forces the exceedance-count route (bounded progeny only), ``"shortcut"``
    forces the closed forms.
    """
    if method not in ("auto", "shortcut", "general"):
        raise ValueError(f"unknown method {method!r}")
    w = sample_martingale_limit(env_model, cfg.w_horizon, True, rng)
    stream = EnvStream(env_model, rng)
    use_general = method == "general" or (
        method == "auto" and disp.mode == "discrete_angular"
    )
    if use_general:
        sv = _general_q_series(disp, stream, cfg)
        q = w * sv.value
    elif disp.mode == "iid":
        sv = cluster_norm_series("cluster_size", stream, cfg)
        q = w * disp.p * sv.value
    elif disp.mode == "full_dep":
        sv = cluster_norm_series("cluster_vector", stream, cfg)
        q = w * disp.p * sv.value
    else:
        raise ValueError("discrete_angular mode has no shortcut; use the general method")
    return QSample(q=q, w=w, c_value=sv.value)


def limit_max_cdf(q_samples: List[QSample], x: float, alpha: float) -> float:
    """Monte Carlo limit CDF of the normalised maximum at x."""
    if not q_samples:
        raise ValueError("need at least one sample")
    if not x > 0.0:
        raise ValueError("x must be positive")
    qs = np.array([s.q for s in q_samples])
    return float(np.mean(np.exp(-(x ** -alpha) * qs)))


def joint_min_max_cdf(
    q_samples: List[QSample], x: float, y: float, alpha: float, p: float
) -> float:
    """P(limit min > -y, limit max <= x) for tail-independent displacements."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    t = np.array([s.w * s.c_value for s in q_samples])
    return float(np.mean(np.exp(-t * (p * x ** -alpha + (1.0 - p) * y ** -alpha))))


def top_two_cdf(
    q_samples: List[QSample], x: float, y: float, alpha: float, p: float
) -> float:
    """P(largest <= y, second largest <= x) for 0 < x < y, tail-independent
    mode, treating every cluster as a singleton.

    This is the top-two law of the undecorated Poisson process: a lone point
    in (x, y] always counts, whatever its multiplicity.  The limit extremal
    process is cluster-decorated, and its own top-two law is
    :func:`top_two_cdf_multiplicity_adjusted`.
    """
    return top_two_cdf_multiplicity_adjusted(q_samples, x, y, alpha, p, np.ones(len(q_samples)))


def top_two_cdf_multiplicity_adjusted(
    q_samples: List[QSample],
    x: float,
    y: float,
    alpha: float,
    p: float,
    single_probs,
) -> float:
    """Top-two law of the limit extremal process (the SScDPPP itself).

    A lone point in (x, y] only leaves the second maximum below x when its
    cluster multiplicity is exactly 1, so the interval term carries the
    quenched single-descendant probability (one value per sample).  This is
    the exact law of the cluster-decorated limit, not a finite-scale
    correction of :func:`top_two_cdf`.
    """
    if not 0.0 < x <= y:
        raise ArgumentOrder("top-two law needs 0 < x <= y")
    t = np.array([s.w * s.c_value for s in q_samples])
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
) -> Tuple[PointMeasure, float]:
    """One draw of the limit extremal process, plus its realized scale.

    Radial points fall on (u_min, inf) with the alpha-homogeneous intensity;
    every point carries a cluster drawn from the quenched laws of a fresh
    environment, and the whole picture is scaled by
    (series * martingale_limit)^(1/alpha).  Atoms below scale * u_min are not
    represented, so test functionals must stay above that floor.  An angular
    model needs every brood within its coordinates (ValueError otherwise).
    """
    disp.check_broods(env_model.support)
    w = sample_martingale_limit(env_model, cfg.w_horizon, True, rng)
    stream = EnvStream(env_model, rng)
    sampler = ClusterSampler(stream, cfg)
    inv_alpha = 1.0 / disp.alpha
    if disp.mode == "iid":
        c = sampler.size_norm.value
    else:
        c = cluster_norm_series("cluster_vector", stream, cfg).value
    scale = (c * w) ** inv_alpha

    rate = cfg.u_min ** -disp.alpha
    if disp.mode == "discrete_angular":
        rate *= disp.angular_total_mass
    n_pts = int(rng.poisson(rate))
    if n_pts == 0:
        return PointMeasure.empty(), scale
    radii = cfg.u_min * rng.random(n_pts) ** -inv_alpha

    if disp.mode != "discrete_angular":
        signs = np.where(rng.random(n_pts) < disp.p, 1.0, -1.0)
        if disp.mode == "iid":
            mults = [sampler.sample_size(rng) for _ in range(n_pts)]
        else:
            mults = [int(sampler.sample_brood_vector(rng)[1].sum()) for _ in range(n_pts)]
        return PointMeasure.from_atoms(scale * signs * radii, np.array(mults)), scale
    locs, mults = [], []
    atom_idx = disp.draw_atoms(rng, n_pts)
    atoms = disp.atom_matrix()
    for l in range(n_pts):
        v, sizes = sampler.sample_brood_vector(rng)
        coords = atoms[atom_idx[l], :v]
        for k in range(v):
            if sizes[k] >= 1 and coords[k] != 0.0:
                locs.append(scale * radii[l] * coords[k])
                mults.append(int(sizes[k]))
    return PointMeasure.from_atoms(np.array(locs), np.array(mults)), scale
