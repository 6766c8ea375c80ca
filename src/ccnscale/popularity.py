"""Content popularity models.

Requests are drawn from a fixed catalog of ``M`` contents.  The canonical
model is the Zipf law ``p_m = m^{-alpha} / H_alpha(M)``, whose normalizer
``H_alpha(M) = sum_m m^{-alpha}`` changes character at ``alpha = 1``:
it stays bounded for ``alpha > 1``, grows like ``log M`` at ``alpha = 1``
and like ``M^{1-alpha}`` below.  The paper states every scaling result per
band of ``alpha``, with breakpoints at 1 and 3/2; :func:`zipf_regime` is the
one classifier of those bands, and :mod:`ccnscale.scaling` branches on it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PopularityModel",
    "zipf",
    "from_weights",
    "harmonic",
    "zipf_regime",
    "ZipfRegime",
]

# alpha within this distance of a breakpoint (1 or 3/2) counts as on it.
_ALPHA_TOL = 1e-12

# Chunk size for the generalized-harmonic accumulation.  Each chunk is
# pairwise-summed by numpy and the chunk totals are combined exactly with
# math.fsum, keeping the relative error at or below 1e-12 up to M = 1e8
# without materializing the full term array.  With one chunk the sum is
# numpy's pairwise sum of the term array alone: the normalizer zipf()
# takes from the array it has built, bit for bit, for M up to this size.
_HARMONIC_CHUNK = 1 << 22


def harmonic(m_count: int, alpha: float) -> float:
    """Generalized harmonic number ``H_alpha(M) = sum_{m=1..M} m^{-alpha}``.

    Parameters
    ----------
    m_count:
        Number of terms ``M >= 1``.
    alpha:
        Exponent, ``alpha >= 0``.

    Returns
    -------
    float
        The sum, accurate to a relative error of at most ``1e-12`` for
        ``M <= 10**8``.
    """
    if m_count < 1:
        raise ValueError(f"harmonic() needs M >= 1, got {m_count}")
    if alpha < 0:
        raise ValueError(f"harmonic() needs alpha >= 0, got {alpha}")
    if alpha == 0:
        return float(m_count)
    partials = []
    for start in range(1, m_count + 1, _HARMONIC_CHUNK):
        stop = min(m_count, start + _HARMONIC_CHUNK - 1)
        terms = np.arange(start, stop + 1, dtype=np.float64) ** (-alpha)
        partials.append(float(terms.sum()))
    return math.fsum(partials)


class ZipfRegime(enum.IntEnum):
    """Band of the Zipf exponent, ordered by ``alpha``.

    ``H_alpha(M)`` grows like ``M^{1-alpha}`` in the first band, like
    ``log M`` in the second, and stays bounded in the others.
    """

    BELOW_ONE = 0           # alpha < 1
    ONE = 1                 # alpha = 1
    BETWEEN = 2             # 1 < alpha < 3/2
    THREE_HALVES = 3        # alpha = 3/2
    ABOVE_THREE_HALVES = 4  # alpha > 3/2

    @property
    def label(self) -> str:
        return ("alpha<1", "alpha=1", "1<alpha<3/2", "alpha=3/2", "alpha>3/2")[self]


def zipf_regime(alpha: float) -> ZipfRegime:
    """The band of ``alpha``; within 1e-12 of 1 or 3/2 counts as on it."""
    if alpha < 0:
        raise ValueError(f"zipf_regime() needs alpha >= 0, got {alpha}")
    if alpha > 1.5 + _ALPHA_TOL:
        return ZipfRegime.ABOVE_THREE_HALVES
    if alpha >= 1.5 - _ALPHA_TOL:
        return ZipfRegime.THREE_HALVES
    if alpha > 1.0 + _ALPHA_TOL:
        return ZipfRegime.BETWEEN
    if alpha >= 1.0 - _ALPHA_TOL:
        return ZipfRegime.ONE
    return ZipfRegime.BELOW_ONE


@dataclass(frozen=True, eq=False)
class PopularityModel:
    """A normalized, non-increasing probability vector over ``M`` contents.

    Attributes
    ----------
    p:
        Probabilities sorted non-increasingly; sums to 1 within 1e-12.
    alpha:
        Zipf exponent when the model is a Zipf law, else ``None``.
    order:
        ``order[i]`` is the original index of the content ranked ``i``,
        so custom weight vectors can be reported in caller order;
        ``None`` means the identity (rank ``i`` is content ``i``).
    """

    p: np.ndarray
    alpha: float | None = None
    order: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("popularity vector must be non-empty and 1-D")
        if not p.min() > 0:
            raise ValueError("popularity weights must be strictly positive")
        if np.any(p[1:] > p[:-1]):
            raise ValueError("popularity vector must be non-increasing")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"popularity vector sums to {total}, not 1")
        object.__setattr__(self, "p", p)

    @property
    def m_count(self) -> int:
        return int(self.p.size)


def zipf(m_count: int, alpha: float) -> PopularityModel:
    """Zipf popularity: ``p_m proportional to m^{-alpha}``, m = 1..M.

    Examples
    --------
    >>> zipf(3, 1.0).p.tolist()  # H_1(3) = 11/6
    [0.5454545454545455, 0.27272727272727276, 0.18181818181818185]
    """
    if m_count < 1:
        raise ValueError(f"zipf() needs M >= 1, got {m_count}")
    if alpha < 0:
        raise ValueError(f"zipf() needs alpha >= 0, got {alpha}")
    # One array, transformed in place: the ranks, their powers, p.
    p = np.arange(1, m_count + 1, dtype=np.float64)
    p **= -alpha
    p /= p.sum()  # H_alpha(M), from the terms at hand
    # One exact renormalization pass so the sum lands within 1e-12 of 1.
    p /= p.sum()
    return PopularityModel(p=p, alpha=float(alpha))


def from_weights(weights) -> PopularityModel:
    """Build a model from arbitrary positive weights (any order).

    Weights are normalized and sorted non-increasingly; the permutation
    from rank to the caller's original index is kept in ``order``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be non-empty and 1-D")
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    # stable sort keeps ties in caller order, making `order` deterministic
    order = np.argsort(-w, kind="stable")
    p = w[order] / w.sum()
    p = p / p.sum()
    return PopularityModel(p=p, alpha=None, order=order)
