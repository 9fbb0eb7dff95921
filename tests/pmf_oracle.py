"""Exact generation-size pmfs by direct convolution powers, for the tests.

Independent of the package's chain rule and population walk: each step is
the truncated sum_k P(law = k) base^{*k} over ``law.pmf`` alone.  Truncating
at degree ``cap`` leaves every entry up to ``cap`` exact.
"""

import numpy as np


def exact_compose(law, base: np.ndarray, cap: int) -> np.ndarray:
    """Truncated sum_k P(law = k) base^{*k} by direct convolution powers.

    The law's coefficients run past the cap (a zero-heavy base puts mass of
    many copies below it) until they fall under 1e-20 beyond the mean.
    """
    coeffs = [law.pmf(0)]
    k = 0
    while law.support_max is None or k < law.support_max:
        k += 1
        coeffs.append(law.pmf(k))
        if law.support_max is None and k > law.mean() and coeffs[-1] < 1e-20:
            break
    out = np.zeros(cap + 1)
    out[0] = coeffs[0]
    power = np.ones(1)
    for c in coeffs[1:]:
        power = np.convolve(power, base)[: cap + 1]
        out[: power.size] += c * power
        if power.sum() < 1e-18:
            break
    return out


def segment_pmf(env_rev, cap: int) -> np.ndarray:
    """P(Z = 0..cap) after one generation per law of ``env_rev``, whose first
    law governs generation 0 (as in ``offspring.extinct_prob_by_gen``); cap >= 1."""
    pmf = np.zeros(cap + 1)
    pmf[1] = 1.0
    for law in reversed(list(env_rev)):
        pmf = exact_compose(law, pmf, cap)
    return pmf


def stream_pmf(stream, i: int, cap: int, row: int = 0) -> np.ndarray:
    """P(Z_i = 0..cap) on row ``row`` of an ``EnvStream``, with its newest law
    at the root; the row must hold at least i realized generations."""
    assert stream.length[row] >= i
    laws = [stream.model.support[k] for k in stream.indices[row, :i].tolist()]
    return segment_pmf(laws[::-1], cap)
