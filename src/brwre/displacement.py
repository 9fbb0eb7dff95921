"""Heavy-tailed brood displacements and the limit tail measure.

Three dependence regimes share one marginal: P(|X| > t) = t^(-alpha) exactly
(Pareto, no slowly varying correction), positive-tail balance p.

* iid: children of one parent displace independently.
* full_dep: the whole brood shares one signed draw.
* discrete_angular: a discrete spectral measure on the unit sphere; radius
  Pareto, brood coordinate j moves by radius * atom_j.  Signs live in the
  atoms, so the balance p is derived, not free.

The limit tail measure is standardised so the single-coordinate exceedance
mass nu({|x_1| > 1}) equals 1; the masses of "exactly k of the first v
coordinates exceed 1", the exceedance-count law that decorates each point of
the limit process, then have the closed forms of :func:`exceedance_masses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .offspring import cut_points

MODES = ("iid", "full_dep", "discrete_angular")

_MARGINAL_TOL = 1e-9

# the sign of each sign category: [0, p) positive, [p, 1) negative
_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class DisplacementModel:
    alpha: float
    p: float
    mode: str
    atoms: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("tail index alpha must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("tail balance p must lie in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "discrete_angular":
            self._validate_angular()
            weights = np.asarray(self.weights, dtype=float)
            weights = weights / weights.sum()
        elif self.atoms or self.weights:
            raise ValueError("atoms/weights only apply to discrete_angular mode")
        else:
            # the two sign categories, see _SIGNS
            weights = (self.p, 1.0 - self.p)
        # the inversion table of :func:`_invert`: the cut points, and the upper
        # end and width of each category's interval of [0, 1)
        cuts = cut_points(weights)[0]
        tops = np.append(cuts, 1.0)
        object.__setattr__(self, "_table", (cuts, tops, np.diff(tops, prepend=0.0)))

    def _validate_angular(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] != weights.size or atoms.shape[0] == 0:
            raise ValueError("angular mode needs matching atom and weight vectors")
        if np.any(weights <= 0.0):
            raise ValueError("angular weights must be positive")
        norms = np.sqrt((atoms ** 2).sum(axis=1))
        if np.any(np.abs(norms - 1.0) > _MARGINAL_TOL):
            raise ValueError("angular atoms must have unit Euclidean norm")
        # Identical marginals and consistent tail balance across coordinates.
        a = self.alpha
        marg = weights @ np.abs(atoms) ** a
        if np.any(np.abs(marg - 1.0) > _MARGINAL_TOL):
            raise ValueError(
                "angular weights are not standardised: per-coordinate exceedance "
                f"masses {marg} must all equal 1"
            )
        bal = weights @ np.clip(atoms, 0.0, None) ** a
        if np.any(np.abs(bal - self.p) > _MARGINAL_TOL):
            raise ValueError(f"per-coordinate balance {bal} differs from p={self.p}")

    @classmethod
    def iid(cls, alpha: float, p: float) -> "DisplacementModel":
        return cls(alpha=alpha, p=p, mode="iid")

    @classmethod
    def full_dep(cls, alpha: float, p: float) -> "DisplacementModel":
        return cls(alpha=alpha, p=p, mode="full_dep")

    @classmethod
    def discrete_angular(cls, alpha: float, atoms, weights) -> "DisplacementModel":
        """Build an angular model, rescaling weights to the standard marginal.

        Input weights are positive but otherwise free; they are rescaled so
        that the first-coordinate exceedance mass equals 1.  The balance p is
        derived from the atoms and validated to be identical across
        coordinates.
        """
        atoms = np.asarray(atoms, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if atoms.ndim != 2:
            raise ValueError("atoms must be a matrix, one unit vector per row")
        norms = np.sqrt((atoms ** 2).sum(axis=1))
        if np.any(norms <= 0.0):
            raise ValueError("angular atoms must be nonzero")
        atoms = atoms / norms[:, None]
        scale = weights @ np.abs(atoms[:, 0]) ** alpha
        if scale <= 0.0:
            raise ValueError("first coordinate carries no tail mass")
        weights = weights / scale
        p = float(weights @ np.clip(atoms[:, 0], 0.0, None) ** alpha)
        return cls(
            alpha=alpha,
            p=p,
            mode="discrete_angular",
            # plain floats, so that the config dumps to YAML
            atoms=tuple(map(tuple, atoms.tolist())),
            weights=tuple(weights.tolist()),
        )

    @classmethod
    def diagonal_angular(cls, alpha: float, k: int, p: float = 1.0) -> "DisplacementModel":
        """Fully dependent tails as an angular model: +/- diagonal atoms."""
        diag = np.full(k, k ** -0.5)
        if p >= 1.0:
            return cls.discrete_angular(alpha, [diag], [1.0])
        if p <= 0.0:
            return cls.discrete_angular(alpha, [-diag], [1.0])
        return cls.discrete_angular(alpha, [diag, -diag], [p, 1.0 - p])

    @property
    def n_coords(self) -> int:
        return len(self.atoms[0]) if self.mode == "discrete_angular" else 0

    def check_broods(self, laws) -> None:
        """Raise ValueError unless every brood of ``laws`` fits the angular coordinates."""
        k = self.n_coords
        if self.mode == "discrete_angular" and any(law.support_max is None or law.support_max > k for law in laws):
            raise ValueError(f"every progeny law must have support within the {k} angular coordinates")

    @property
    def angular_total_mass(self) -> float:
        """Total spectral mass; scales the radial point-process intensity."""
        return float(sum(self.weights))

    @property
    def radial_floor(self) -> float:
        """Smallest radius the angular sampler can emit."""
        return self.angular_total_mass ** (1.0 / self.alpha)

    def atom_matrix(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=float)


def _invert(table: tuple, u: np.ndarray) -> np.ndarray:
    """Inversion within a ``(cuts, tops, widths)`` table (Devroye 1986,
    III.2): the category of each uniform in ``u``, and in place in ``u`` the
    uniform rescaled within its category, ``(top - u) / width``, which lies
    in (0, 1] and is independent of the category."""
    cuts, tops, widths = table
    # one cut (the two signs) takes one comparison, several times cheaper
    # than the search
    cat = (u >= cuts[0]).astype(np.intp) if cuts.size == 1 else np.searchsorted(cuts, u, side="right")
    np.subtract(tops[cat], u, out=u)
    u /= widths[cat]
    return cat


def norming_constant(pi_n: float, alpha: float) -> float:
    """Spatial normalisation for generation n: the (1/pi_n)-tail quantile.

    With the exact Pareto marginal this is pi_n**(1/alpha), floored at 1
    because the quantile is taken over s >= 1.
    """
    if not pi_n > 0.0:
        raise ValueError("pi_n must be positive")
    return max(1.0, pi_n ** (1.0 / alpha))


def _pareto(u: np.ndarray, inv_alpha: float) -> np.ndarray:
    """``u ** -inv_alpha``, in place."""
    if inv_alpha == 0.5:
        # reciprocal square root is far cheaper than a general power
        np.sqrt(u, out=u)
        np.reciprocal(u, out=u)
    else:
        np.power(u, -inv_alpha, out=u)
    return u


def draw_steps(model: DisplacementModel, size: int, rng) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``size`` steps, one uniform each: a fresh array of Pareto magnitudes
    u^(-1/alpha) >= 1, signed outside angular mode, and the atom of each step
    in angular mode (else None).  Each uniform's :func:`_invert` category is
    the sign or the atom, and its residual gives the magnitude; at p = 1 or
    p = 0 the uniform itself is the magnitude."""
    u = rng.random(size)
    angular = model.mode == "discrete_angular"
    cat = _invert(model._table, u) if angular or 0.0 < model.p < 1.0 else None
    x = _pareto(u, 1.0 / model.alpha)
    if angular:
        return x, cat
    if cat is not None:
        x *= _SIGNS[cat]
    return (np.negative(x, out=x) if model.p <= 0.0 else x), None


def spread_broods(model: DisplacementModel, x: np.ndarray, atom: Optional[np.ndarray], counts) -> np.ndarray:
    """The broods of the shared steps ``x`` of :func:`draw_steps`, flat: step i
    for each of the ``counts[i]`` members (full_dep), or times each member's
    coordinate of ``atom[i]``, by brood rank (angular)."""
    if atom is None:
        return np.repeat(x, counts)
    if counts.size and counts.max() > model.n_coords:
        raise ValueError(f"brood of size {int(counts.max())} exceeds the {model.n_coords} angular coordinates")
    parent = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return x[parent] * model.atom_matrix()[atom[parent], rank]


def brood_flat(model: DisplacementModel, counts: np.ndarray, rng) -> np.ndarray:
    """Displacements for all children of one generation, parent by parent.

    ``counts[i]`` children for parent i; the result is flat, ordered by parent
    then within-brood rank.  The rng consumption order is part of the
    replay/oracle contract: counts first (by the caller), then one batched
    :func:`draw_steps`, per child for iid and per parent otherwise (angular
    radius: ``radial_floor`` times the magnitude).  So a generation drawn
    brood-aligned chunk by chunk takes the values of one call, with any bit
    generator.

    The result is a fresh array that no one else references, so the caller
    may overwrite it (the simulator writes |x| into it).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if model.mode == "iid":
        return draw_steps(model, int(counts.sum()), rng)[0]
    x, atom = draw_steps(model, counts.size, rng)
    if atom is not None:
        x *= model.radial_floor
    return spread_broods(model, x, atom, counts)


def exceedance_masses(model: DisplacementModel, v: int) -> np.ndarray:
    """Limit-measure masses of exceedance counts: entry k - 1 is
    nu(exactly k of the first v coordinates exceed 1), for k = 1..v.

    Under an angular atom a of weight w, let c_(1) >= ... >= c_(m) be the
    positive values among a_1..a_v: exactly k coordinates exceed 1 on the
    radii (1/c_(k), 1/c_(k+1)], of mass w (c_(k)^alpha - c_(k+1)^alpha) with
    c_(m+1) = 0.  Tied values give empty intervals and need no special case.
    """
    if v < 1:
        raise ValueError("brood size must be >= 1")
    masses = np.zeros(v)
    if model.mode == "iid":
        masses[0] = v * model.p
        return masses
    if model.mode == "full_dep":
        masses[v - 1] = model.p
        return masses
    if v > model.n_coords:
        raise ValueError(f"brood size {v} exceeds the {model.n_coords} angular coordinates")
    for atom, w in zip(model.atoms, model.weights):
        # radial tail mass above each threshold 1/c_(k), then none past c_(m)
        positive = sorted((c for c in atom[:v] if c > 0.0), reverse=True)
        tails = [(1.0 / c) ** -model.alpha for c in positive] + [0.0]
        for k in range(len(positive)):
            masses[k] += w * (tails[k] - tails[k + 1])
    return masses
