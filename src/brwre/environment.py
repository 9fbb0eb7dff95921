"""The i.i.d. random environment: sampling (one search of the weights' cut-point
table per law index), expected-size products, the tail rule of the quenched
series, diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .offspring import OffspringLaw, cut_points

# Truncation threshold for infinite-support moment sums.
_MOMENT_TOL = 1e-14


@dataclass(frozen=True)
class EnvironmentModel:
    """Finite mixture over progeny laws; one draw per generation."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) == 0 or len(self.support) != len(self.weights):
            raise ValueError("support and weights must be nonempty and equal length")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "_cuts", cut_points(w)[0])
        object.__setattr__(self, "_means", np.array([law.mean() for law in self.support]))
        self._means.flags.writeable = False

    @classmethod
    def single(cls, law: OffspringLaw) -> "EnvironmentModel":
        return cls((law,), (1.0,))

    def draw_indices(self, rng, n) -> np.ndarray:
        """An array of law indices of shape ``n``."""
        return np.searchsorted(self._cuts, rng.random(n), side="right")


@dataclass
class EnvSequence:
    """A realized environment of length n with the running mean products."""

    laws: list
    law_indices: np.ndarray
    pi: np.ndarray  # pi[0] = 1, pi[i] = prod of means of laws[:i]


def sample_env(model: EnvironmentModel, n: int, rng) -> EnvSequence:
    """Draw n i.i.d. laws from the model and compute the mean products."""
    if n < 1:
        raise ValueError("environment length must be >= 1")
    idx = model.draw_indices(rng, n)
    laws = [model.support[i] for i in idx.tolist()]
    pi = np.concatenate(([1.0], np.cumprod(model._means[idx])))
    return EnvSequence(laws=laws, law_indices=idx, pi=pi)


def series_tail(model: EnvironmentModel) -> Tuple[float, str, float]:
    """The tail rule of every quenched series: ``(excess, status, a)``, a = E[1/m(Y)].

    Term j of a series is at most 1/pi_{j+shift}, and (1/pi_{i+shift}) / excess
    bounds its tail past term i.  If every support mean exceeds 1, the
    smallest being g, excess = g - 1 bounds every stream's tail
    (``deterministic``).  Otherwise excess = (1 - a)/a makes the bound the
    expected tail given the realized prefix, which holds in expectation, not
    stream by stream (``annealed``), as long as a < 1; a >= 1 leaves no
    geometric tail (``refused``).
    """
    g = min(law.mean() for law in model.support)
    a = sum(w / law.mean() for law, w in zip(model.support, model.weights))
    if g > 1.0:
        return g - 1.0, "deterministic", a
    return (1.0 - a) / a, "annealed" if a < 1.0 else "refused", a


@dataclass
class AssumptionReport:
    """Numeric check of supercriticality and moment conditions, and the
    series tail rule (reported; it does not enter the verdict)."""

    e_log_mean: float
    e_abs_log_p_gt1: float
    kesten_stigum_term: float
    e_inverse_mean: float
    series_tail: str  # "deterministic" | "annealed" | "refused"
    verdict: str  # "SupercriticalOK" | "Violated"
    reason: Optional[str] = None


def _xlogx_tail_sum(law: OffspringLaw) -> float:
    """E(xi log xi; xi >= 2), truncated for infinite-support families."""
    cap = law.support_max
    if cap is not None:
        return sum(k * math.log(k) * law.pmf(k) for k in range(2, cap + 1))
    total = 0.0
    k = 2
    mean = law.mean()
    while True:
        term = k * math.log(k) * law.pmf(k)
        total += term
        # Geometric/Poisson tails decay fast; stop once terms are negligible
        # past the bulk of the distribution.
        if k > 10 * mean + 20 and term < _MOMENT_TOL:
            break
        k += 1
    return total


def check_assumptions(model: EnvironmentModel) -> AssumptionReport:
    """Evaluate the supercriticality and moment conditions for a model.

    All implemented families admit closed-form or truncated-closed-form
    moments, so the evaluation is deterministic.
    """
    weights = np.asarray(model.weights)
    e_log_mean = 0.0
    e_abs_log = 0.0
    ks_term = 0.0
    reason = None
    for law, w in zip(model.support, weights):
        m = law.mean()
        e_log_mean += w * math.log(m)
        p_gt1 = 1.0 - law.pmf(0) - law.pmf(1)
        if p_gt1 <= 0.0:
            reason = f"P(xi > 1) = 0 for {law!r}"
            e_abs_log = math.inf
        elif math.isfinite(e_abs_log):
            e_abs_log += w * abs(math.log(p_gt1))
        ks_term += w * _xlogx_tail_sum(law) / m
    if reason is None and e_log_mean <= 0.0:
        reason = f"E log E(xi|Y) = {e_log_mean:.6g} <= 0"
    verdict = "SupercriticalOK" if reason is None else "Violated"
    _, tail, a = series_tail(model)
    return AssumptionReport(
        e_log_mean=e_log_mean,
        e_abs_log_p_gt1=e_abs_log,
        kesten_stigum_term=ks_term,
        e_inverse_mean=a,
        series_tail=tail,
        verdict=verdict,
        reason=reason,
    )
