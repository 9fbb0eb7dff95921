"""Progeny distribution families and probability generating function arithmetic.

Every family exposes the same small surface: ``mean``, ``pmf``, ``pgf`` and
its derivative ``pgf_prime``, vectorised child-count sampling, and a
closed-form draw for the total progeny of a whole generation.  ``pgf`` and
``pgf_prime`` take a scalar or an array.  ``sample_total`` takes an array of
population sizes, one per population of a block, or one population as an
int, for which it returns numpy's scalar draw, an integer.  Every
categorical draw of the package is one right-sided search of a cut-point
table (:func:`cut_points`) that the owner of the law builds once.  Child
counts of every random family (Poisson, Geometric, Binomial, Finite) take
one uniform each through a :class:`CountTable`: the law's cut points plus a
guide over the top 16 bits of the uniform (Chen & Asau 1974; Devroye 1986,
III.2), so only the uniforms of a bucket that straddles a cut are searched.
An infinite support is tabulated until the float cumulative sum stops
growing, and the rounding gap at the top falls to the last category; a table
past ``_TABLE_MAX`` entries is refused when the law is built.  Quenched
quantities of the generation size Z_i under a reversed environment segment
come from composing the per-generation pgfs: scalar composition yields
extinction probabilities, and the chain rule through the same composition
yields P(Z_i = 1) (:func:`compose_generation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

# Guide buckets of a child-count table: one per value of the uniform's top 16 bits.
_GUIDE_SIZE = 2 ** 16
# Most entries a child-count table may have; a law that needs more is refused.
# Every law of mean <= 4096 fits (Geometric at mean 4096 needs about 150 000).
_TABLE_MAX = 2 ** 18


def _check_prob(s):
    """``s`` as a float, or a float array, once every entry lies in [0, 1]."""
    if isinstance(s, np.ndarray):
        if s.size and not (np.minimum.reduce(s, None) >= 0.0 and np.maximum.reduce(s, None) <= 1.0):
            raise ValueError(f"pgf arguments must lie in [0, 1], got {s.min()} to {s.max()}")
        return s
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"pgf argument must lie in [0, 1], got {s}")
    return float(s)


def cut_points(weights) -> Tuple[np.ndarray, float]:
    """The read-only cut-point table of a discrete law, and its total weight.

    The cumulative weights up to the last positive one, without the total:
    ``searchsorted(table, u * total, side="right")`` for a uniform ``u`` (or
    ``u`` alone when the weights sum to 1) is the inverse-CDF draw (Devroye
    1986, III.2), and a rounding gap at the top falls to the last positive
    weight.  Owners keep it as an attribute, not a field: out of the config.
    """
    cum = np.cumsum(weights, dtype=float)
    table = cum[: np.flatnonzero(np.asarray(weights) > 0.0)[-1]]
    table.flags.writeable = False
    return table, float(cum[-1])


class CountTable:
    """The one-uniform child-count draw of a law on {0, 1, ..., K}.

    ``cuts`` is the law's :func:`cut_points` table, and the draw is
    ``searchsorted(cuts, u, side="right")`` for one uniform ``u`` per
    parent.  ``guide[b]`` is that category for every uniform of bucket
    ``b = floor(u * 2^16)`` when no cut lies strictly inside the bucket, and
    -1 when one does; only the uniforms of such straddling buckets are
    searched.  Both arrays are read-only.
    """

    def __init__(self, weights):
        if len(weights) > _TABLE_MAX:
            raise ValueError(f"child-count table needs {len(weights)} > {_TABLE_MAX} entries")
        self.cuts = cut_points(weights)[0]
        # a cut c counts from bucket ceil(c 2^16) on, and lies strictly
        # inside bucket floor(c 2^16) unless c 2^16 is an integer
        scaled = self.cuts * _GUIDE_SIZE  # exact: a power of two
        counted_from = np.bincount(np.ceil(scaled).astype(np.intp), minlength=_GUIDE_SIZE)
        self.guide = np.cumsum(counted_from[:_GUIDE_SIZE], dtype=np.int32)
        inside = scaled[(scaled < _GUIDE_SIZE) & (scaled != np.floor(scaled))]
        self.guide[inside.astype(np.intp)] = -1
        self.guide.flags.writeable = False

    def draw(self, rng, size: int) -> np.ndarray:
        u = rng.random(size)
        # the bucket of each uniform is cast straight into an integer array,
        # with no float copy of u, and freed once the guide is read
        bucket = np.multiply(u, _GUIDE_SIZE, out=np.empty(size, dtype=np.intp), casting="unsafe")
        counts = self.guide[bucket]
        del bucket
        counts = counts.astype(np.int64)
        straddled = np.flatnonzero(counts < 0)
        counts[straddled] = np.searchsorted(self.cuts, u[straddled], side="right")
        return counts


def _pmf_weights(law) -> list:
    """``law.pmf(0), law.pmf(1), ...`` for a :class:`CountTable`.

    The list ends where the support ends, or once the float cumulative sum
    reaches 1 or stops growing.  It cannot stall before the mode: there term
    j exceeds every earlier term, so it is at least 1/j of the sum before it.
    Raises ValueError when it would pass ``_TABLE_MAX`` entries.
    """
    weights, cum = [], 0.0
    for j in range(_TABLE_MAX):
        p = law.pmf(j)
        if cum > 0.0 and cum + p == cum:
            return weights
        weights.append(p)
        cum += p
        if cum >= 1.0 or j == law.support_max:
            return weights
    raise ValueError(f"{law} needs a child-count table of more than {_TABLE_MAX} entries")


@dataclass(frozen=True)
class Deterministic:
    """Point mass: every particle has exactly ``k`` children."""

    k: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("deterministic progeny requires an integer k >= 1")

    def mean(self) -> float:
        return float(self.k)

    def pmf(self, j: int) -> float:
        return 1.0 if j == self.k else 0.0

    def pgf(self, s):
        return _check_prob(s) ** self.k

    def pgf_prime(self, s):
        return self.k * _check_prob(s) ** (self.k - 1)

    @property
    def support_max(self):
        return self.k

    def sample_many(self, rng, size: int) -> np.ndarray:
        return np.full(size, self.k, dtype=np.int64)

    def sample_total(self, rng, count):
        return self.k * count


@dataclass(frozen=True)
class Poisson:
    """Poisson(lam) progeny."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("poisson progeny requires lam > 0")
        object.__setattr__(self, "_table", CountTable(_pmf_weights(self)))

    def mean(self) -> float:
        return self.lam

    def pmf(self, j: int) -> float:
        if j < 0:
            return 0.0
        return math.exp(j * math.log(self.lam) - self.lam - math.lgamma(j + 1))

    def pgf(self, s):
        return np.exp(self.lam * (_check_prob(s) - 1.0))

    def pgf_prime(self, s):
        return self.lam * self.pgf(s)

    @property
    def support_max(self):
        return None

    def sample_many(self, rng, size: int) -> np.ndarray:
        return self._table.draw(rng, size)

    def sample_total(self, rng, count):
        return rng.poisson(self.lam * count)


@dataclass(frozen=True)
class Geometric:
    """Geometric progeny on {0, 1, 2, ...}: P(xi = k) = (1 - q) q^k."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("geometric progeny requires 0 < q < 1")
        object.__setattr__(self, "_table", CountTable(_pmf_weights(self)))

    def mean(self) -> float:
        return self.q / (1.0 - self.q)

    def pmf(self, j: int) -> float:
        if j < 0:
            return 0.0
        return (1.0 - self.q) * self.q ** j

    def pgf(self, s):
        return (1.0 - self.q) / (1.0 - self.q * _check_prob(s))

    def pgf_prime(self, s):
        return (1.0 - self.q) * self.q / (1.0 - self.q * _check_prob(s)) ** 2

    @property
    def support_max(self):
        return None

    def sample_many(self, rng, size: int) -> np.ndarray:
        return self._table.draw(rng, size)

    def sample_total(self, rng, count):
        # Sum of `count` geometrics = negative binomial (failures before
        # the count-th success at success probability 1 - q).
        return rng.negative_binomial(count, 1.0 - self.q)


@dataclass(frozen=True)
class Binomial:
    """Binomial(m, q) progeny."""

    m: int
    q: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("binomial progeny requires an integer m >= 1")
        if not 0.0 < self.q < 1.0:
            raise ValueError("binomial progeny requires 0 < q < 1")
        object.__setattr__(self, "_table", CountTable(_pmf_weights(self)))

    def mean(self) -> float:
        return self.m * self.q

    def pmf(self, j: int) -> float:
        if j < 0 or j > self.m:
            return 0.0
        logc = math.lgamma(self.m + 1) - math.lgamma(j + 1) - math.lgamma(self.m - j + 1)
        return math.exp(logc + j * math.log(self.q) + (self.m - j) * math.log(1.0 - self.q))

    def pgf(self, s):
        return (1.0 - self.q + self.q * _check_prob(s)) ** self.m

    def pgf_prime(self, s):
        return self.m * self.q * (1.0 - self.q + self.q * _check_prob(s)) ** (self.m - 1)

    @property
    def support_max(self):
        return self.m

    def sample_many(self, rng, size: int) -> np.ndarray:
        return self._table.draw(rng, size)

    def sample_total(self, rng, count):
        return rng.binomial(self.m * count, self.q)


@dataclass(frozen=True)
class Finite:
    """Arbitrary progeny pmf on {0, ..., K}."""

    probs: tuple

    def __post_init__(self):
        vec = np.asarray(self.probs, dtype=float)
        if vec.ndim != 1 or vec.size < 2:
            raise ValueError("finite progeny needs a pmf vector over 0..K, K >= 1")
        if np.any(vec < 0.0) or abs(vec.sum() - 1.0) > 1e-12:
            raise ValueError("finite progeny pmf must be nonnegative and sum to 1")
        if not float(np.arange(vec.size) @ vec) > 0.0:
            raise ValueError("finite progeny pmf must have positive mean")
        object.__setattr__(self, "probs", tuple(float(p) for p in vec))
        object.__setattr__(self, "_table", CountTable(vec))

    def _vec(self) -> np.ndarray:
        return np.asarray(self.probs)

    def mean(self) -> float:
        vec = self._vec()
        return float(np.arange(vec.size) @ vec)

    def pmf(self, j: int) -> float:
        if 0 <= j < len(self.probs):
            return self.probs[j]
        return 0.0

    def pgf(self, s):
        return np.polynomial.polynomial.polyval(_check_prob(s), self._vec())

    def pgf_prime(self, s):
        return np.polynomial.polynomial.polyval(_check_prob(s), np.polynomial.polynomial.polyder(self._vec()))

    @property
    def support_max(self):
        return len(self.probs) - 1

    def sample_many(self, rng, size: int) -> np.ndarray:
        return self._table.draw(rng, size)

    def sample_total(self, rng, count):
        hits = rng.multinomial(count, self._vec())
        return hits @ np.arange(hits.shape[-1])


OffspringLaw = Union[Deterministic, Poisson, Geometric, Binomial, Finite]

# Config family name -> law class; the dataclass fields are the config keys.
FAMILIES = {
    "deterministic": Deterministic,
    "poisson": Poisson,
    "geometric": Geometric,
    "binomial": Binomial,
    "finite": Finite,
}


def compose_generation(law: OffspringLaw, base: Tuple[float, float]) -> Tuple[float, float]:
    """(P(Z' = 0), P(Z' = 1)) of a sum Z' of ``law``-many i.i.d. copies of Z,
    from ``base`` = (P(Z = 0), P(Z = 1)).

    This is the one-step outer composition f_law(G(s)), prepending a fresh
    root generation to an existing quenched generation-size law, kept to
    degree 1, where it is exact: G'(0) of the composition is
    f_law'(G(0)) G'(0) by the chain rule (Athreya & Ney, *Branching
    Processes*, 1972, ch. I).
    """
    p0, p1 = base
    return law.pgf(p0), law.pgf_prime(p0) * p1


def extinct_prob_by_gen(env_rev: Sequence[OffspringLaw]) -> float:
    """P(Z_i = 0) for a reversed environment segment of length i.

    ``env_rev[0]`` governs generation 0, so the pgfs compose outside-in:
    f_{env_rev[0]}(f_{env_rev[1]}(... f_{env_rev[i-1]}(0))).  An empty segment
    means Z_0 = 1, extinction probability 0.
    """
    e = 0.0
    for law in reversed(list(env_rev)):
        e = law.pgf(e)
    return e
