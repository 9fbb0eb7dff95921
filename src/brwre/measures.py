"""Finite point measures: atoms with integer multiplicities.

A :class:`PointMeasure` is one measure.  A :class:`MeasureBlock` is a block of
them in CSR form, one row per measure: row i holds the atoms
``offsets[i]:offsets[i + 1]`` of the flat ``locations`` and
``multiplicities``, validated once for the whole block and counted by a few
array operations per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


def _checked_atoms(locations, multiplicities, row_starts=()):
    """``locations`` and ``multiplicities`` as read-only float and int64
    vectors, once they have equal lengths, every multiplicity is >= 1, no
    location is 0 and the locations strictly increase, except into each atom
    of ``row_starts`` (indices > 0), which starts a row of its own."""
    locs = np.asarray(locations, dtype=float)
    mult = np.asarray(multiplicities, dtype=np.int64)
    if locs.shape != mult.shape or locs.ndim != 1:
        raise ValueError("locations and multiplicities must be equal-length vectors")
    if locs.size and (np.any(mult < 1) or np.any(locs == 0.0)):
        raise ValueError("multiplicities must be >= 1 and locations nonzero")
    if locs.size > 1:
        falls = np.diff(locs) <= 0
        falls[np.asarray(row_starts, dtype=np.intp) - 1] = False
        if np.any(falls):
            raise ValueError("locations must be strictly increasing")
    locs.flags.writeable = False
    mult.flags.writeable = False
    return locs, mult


@dataclass(frozen=True)
class PointMeasure:
    """Atoms (location, multiplicity), sorted by location, no atom at 0."""

    locations: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        locs, mult = _checked_atoms(self.locations, self.multiplicities)
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


@dataclass(frozen=True)
class MeasureBlock:
    """Point measures in CSR form: row i has the atoms ``offsets[i]:offsets[i + 1]``
    of ``locations`` and ``multiplicities``, each row under the rules of
    :class:`PointMeasure`.  ``block[i]`` is row i as a measure of views."""

    offsets: np.ndarray
    locations: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.int64)
        starts = offsets[(offsets > 0) & (offsets < np.size(self.locations))]
        locs, mult = _checked_atoms(self.locations, self.multiplicities, starts)
        if offsets.ndim != 1 or not offsets.size or offsets[0] != 0 or offsets[-1] != locs.size:
            raise ValueError("offsets must start at 0 and end at the atom count")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must never decrease")
        offsets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "multiplicities", mult)

    @classmethod
    def concat(cls, blocks: Sequence["MeasureBlock"]) -> "MeasureBlock":
        """The rows of ``blocks``, in order, as one block."""
        shifts = np.cumsum([0] + [b.locations.size for b in blocks])
        return cls(
            np.concatenate([[0], *(b.offsets[1:] + shift for b, shift in zip(blocks, shifts))]),
            np.concatenate([b.locations for b in blocks]),
            np.concatenate([b.multiplicities for b in blocks]),
        )

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> PointMeasure:
        if not 0 <= i < len(self):
            raise IndexError(f"row {i} of a block of {len(self)}")
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return PointMeasure(self.locations[lo:hi], self.multiplicities[lo:hi])

    def __iter__(self) -> Iterator[PointMeasure]:
        return (self[i] for i in range(len(self)))

    def counts_above(self, xs) -> np.ndarray:
        """``N[i, j] = self[i].count_above(xs[j])``, an int64 (rows, len(xs))
        matrix: the cumulative multiplicity above each x, differenced at the
        offsets, so that an empty row counts 0."""
        xs = np.asarray(xs, dtype=float)
        above = np.where(self.locations[:, None] > xs, self.multiplicities[:, None], 0)
        cum = np.zeros((self.locations.size + 1, above.shape[1]), dtype=np.int64)
        np.cumsum(above, axis=0, out=cum[1:])
        return np.diff(cum[self.offsets], axis=0)


def group_by_draw(draws, locations, multiplicities, size: int) -> MeasureBlock:
    """The block of draws 0..size-1 of the atoms ``(draws[i], locations[i],
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
    offsets = np.searchsorted(draws[start], np.arange(size + 1))
    return MeasureBlock(offsets, locs[start], np.add.reduceat(mult, start))
