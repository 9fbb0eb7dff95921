"""Finite point measures: atoms with integer multiplicities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class PointMeasure:
    """Atoms (location, multiplicity), sorted by location, no atom at 0."""

    locations: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=np.int64)
        if locs.shape != mult.shape or locs.ndim != 1:
            raise ValueError("locations and multiplicities must be equal-length vectors")
        if locs.size and (np.any(mult < 1) or np.any(locs == 0.0)):
            raise ValueError("multiplicities must be >= 1 and locations nonzero")
        if locs.size > 1 and np.any(np.diff(locs) <= 0):
            raise ValueError("locations must be strictly increasing")
        locs.flags.writeable = False
        mult.flags.writeable = False
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "multiplicities", mult)

    @classmethod
    def empty(cls) -> "PointMeasure":
        return cls(np.empty(0), np.empty(0, dtype=np.int64))

    @classmethod
    def from_locations(cls, values: np.ndarray) -> "PointMeasure":
        """Group coinciding values into multiplicities."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return cls.empty()
        locs, mult = np.unique(values, return_counts=True)
        return cls(locs, mult)

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    @property
    def total_mass(self) -> int:
        return int(self.multiplicities.sum())

    def count_above(self, x: float) -> int:
        """Total multiplicity strictly above x."""
        return int(self.multiplicities[self.locations > x].sum())

    def count_below(self, x: float) -> int:
        """Total multiplicity strictly below x."""
        return int(self.multiplicities[self.locations < x].sum())

    def integrate(self, values: np.ndarray) -> float:
        """Sum of multiplicity-weighted function values, one per atom."""
        return float(np.asarray(values) @ self.multiplicities)


def group_by_draw(draws, locations, multiplicities, size: int) -> List[PointMeasure]:
    """One measure per draw 0..size-1 of the atoms ``(draws[i], locations[i],
    multiplicities[i])``, by one sort on (draw, location): atoms of one draw at
    one location merge, and atoms at 0 or of multiplicity 0 drop out."""
    draws = np.asarray(draws, dtype=np.intp)
    locs = np.asarray(locations, dtype=float)
    mult = np.asarray(multiplicities, dtype=np.int64)
    keep = (mult > 0) & (locs != 0.0)
    order = np.lexsort((locs[keep], draws[keep]))
    draws, locs, mult = draws[keep][order], locs[keep][order], mult[keep][order]
    first = np.ones(draws.size, dtype=bool)
    first[1:] = (draws[1:] != draws[:-1]) | (locs[1:] != locs[:-1])
    start = np.flatnonzero(first)
    locs, mult = locs[start], np.add.reduceat(mult, start)
    bounds = np.searchsorted(draws[start], np.arange(1, size))
    return [PointMeasure(*atoms) for atoms in zip(np.split(locs, bounds), np.split(mult, bounds))]
