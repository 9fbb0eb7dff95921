"""Exceedance-count masses by enumerating every exceedance pattern, for the tests.

Independent of :func:`brwre.displacement.exceedance_masses`: each of the
2^v - 1 patterns (which of the first v coordinates exceed 1) gets its own
limit-measure mass, atom by atom, and the masses are summed by count.
"""

import itertools
import math

import numpy as np


def pattern_mass(model, bits) -> float:
    """nu(coordinate j exceeds 1 exactly where bits[j] = 1), for j < len(bits);
    at least one bit must be 1 (the all-zero region has infinite mass)."""
    ones, v = sum(bits), len(bits)
    if model.mode == "iid":
        return model.p if ones == 1 else 0.0
    if model.mode == "full_dep":
        return model.p if ones == v else 0.0
    total = 0.0
    for atom, w in zip(model.atom_matrix(), model.weights):
        # the radii r with r a_j > 1 where bit j is set, and r a_j <= 1 elsewhere
        lo, hi = 0.0, math.inf
        for bit, aj in zip(bits, atom[:v]):
            if bit:
                if aj <= 0.0:
                    break
                lo = max(lo, 1.0 / aj)
            elif aj > 0.0:
                hi = min(hi, 1.0 / aj)
        else:
            if lo < hi:
                total += w * (lo ** -model.alpha - (0.0 if math.isinf(hi) else hi ** -model.alpha))
    return total


def enumerated_masses(model, v: int) -> np.ndarray:
    """Entry k - 1: the summed masses of the length-v patterns with k ones."""
    masses = np.zeros(v)
    for k in range(1, v + 1):
        for ones in itertools.combinations(range(v), k):
            masses[k - 1] += pattern_mass(model, tuple(int(j in ones) for j in range(v)))
    return masses
