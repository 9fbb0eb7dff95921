"""Empirical-vs-limit comparison utilities: ECDFs, distances, Laplace functionals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import SupportBelowRetention
from .measures import MeasureBlock, PointMeasure

TV_COUNT_CAP = 64

TEST_FUNCTION_KINDS = ("indicator_above", "indicator_below", "bump")


@dataclass(frozen=True)
class Ecdf:
    sorted_values: np.ndarray
    n: int

    def __post_init__(self):
        vals = np.asarray(self.sorted_values, dtype=float)
        if vals.ndim != 1 or vals.size != self.n or self.n < 1:
            raise ValueError("need a nonempty value vector with matching count")
        if vals.size > 1 and np.any(np.diff(vals) < 0):
            raise ValueError("values must be sorted ascending")
        object.__setattr__(self, "sorted_values", vals)

    @classmethod
    def from_samples(cls, samples) -> "Ecdf":
        vals = np.sort(np.asarray(samples, dtype=float))
        return cls(vals, vals.size)

    def eval(self, x) -> np.ndarray:
        return np.searchsorted(self.sorted_values, np.asarray(x, dtype=float), side="right") / self.n


def ks_distance(ecdf: Ecdf, cdf_oracle: Callable[[float], float], x_grid) -> float:
    """Sup over the grid of |ECDF - oracle|."""
    grid = np.asarray(x_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    emp = ecdf.eval(grid)
    oracle = np.array([cdf_oracle(float(x)) for x in grid])
    return float(np.abs(emp - oracle).max())


def count_distribution_tv(counts_a, counts_b, cap: int = TV_COUNT_CAP) -> float:
    """Total variation between empirical count pmfs, overflow bucketed at cap."""
    a = np.minimum(np.asarray(counts_a, dtype=np.int64), cap)
    b = np.minimum(np.asarray(counts_b, dtype=np.int64), cap)
    if a.size == 0 or b.size == 0:
        raise ValueError("both count samples must be nonempty")
    pa = np.bincount(a, minlength=cap + 1) / a.size
    pb = np.bincount(b, minlength=cap + 1) / b.size
    return float(0.5 * np.abs(pa - pb).sum())


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative functionals supported away from 0.

    ``indicator_above``: theta * 1(loc > a); ``indicator_below``:
    theta * 1(loc < -a); ``bump``: theta * clip((|loc| - a)/(b - a), 0, 1).
    """

    kind: str
    a: float
    b: float = 0.0
    theta: float = 1.0

    def __post_init__(self):
        if self.kind not in TEST_FUNCTION_KINDS:
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if not self.a > 0.0:
            raise ValueError("support threshold must be positive")
        if self.kind == "bump" and not self.b > self.a:
            raise ValueError("bump needs b > a")
        if self.theta < 0.0:
            raise ValueError("theta must be nonnegative")

    @property
    def support_floor(self) -> float:
        """Distance from 0 below which the function vanishes."""
        return self.a

    def eval(self, locations: np.ndarray) -> np.ndarray:
        loc = np.asarray(locations, dtype=float)
        if self.kind == "indicator_above":
            return self.theta * (loc > self.a)
        if self.kind == "indicator_below":
            return self.theta * (loc < -self.a)
        return self.theta * np.clip((np.abs(loc) - self.a) / (self.b - self.a), 0.0, 1.0)


def laplace_estimate(
    measures: Union[MeasureBlock, Sequence[PointMeasure]],
    f: TestFunction,
    retention_floor: Optional[float] = None,
) -> float:
    """Mean over measures of exp(-sum multiplicity * f(location)).

    ``measures`` is a block, one measure per row, or a sequence of measures,
    which is read as the block of its rows: f is evaluated once over every
    atom, and each row's sum is one segment of one ``add.reduceat``.

    When a retention floor is supplied, the function's support must start
    strictly above it so that dropped atoms cannot bias the estimate.
    """
    if retention_floor is not None and f.support_floor <= retention_floor:
        raise SupportBelowRetention(
            f"support starts at {f.support_floor} but atoms below "
            f"{retention_floor} were never retained"
        )
    if not len(measures):
        return 1.0
    if not isinstance(measures, MeasureBlock):
        measures = MeasureBlock(
            np.concatenate([[0], np.cumsum([m.n_atoms for m in measures])]),
            np.concatenate([m.locations for m in measures]),
            np.concatenate([m.multiplicities for m in measures]),
        )
    weights = f.eval(measures.locations) * measures.multiplicities
    sums = np.zeros(len(measures))
    # reduceat would sum an empty row as the next row's first atom
    rows = np.flatnonzero(np.diff(measures.offsets))
    if rows.size:
        sums[rows] = np.add.reduceat(weights, measures.offsets[rows])
    return float(np.exp(-sums).mean())
