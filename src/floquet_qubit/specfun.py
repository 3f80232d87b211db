"""Validated special-function kernel.

Bessel functions of the first kind in plain double precision.  Scalar calls
go to ``scipy.special.jv``; arrays are evaluated by a vectorised kernel with
explicitly stitched accuracy regimes,
which is faster per element than ``jv`` on the package's envelope arguments.
The module has no dependency on the rest of the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["bessel_j"]

MAX_ORDER = 200
MAX_ARGUMENT = 1.0e3

# regime boundaries for the array kernel: ascending series below, Miller
# recurrence above, Hankel asymptotics once the argument is large *and*
# dominates the order.
# The series boundary sits where alternating-sum cancellation still leaves
# ~1e-13 relative accuracy.
_SERIES_CUTOFF = 9.0
_ASYMPTOTIC_CUTOFF = 50.0


# ---------------------------------------------------------------------------
# Bessel J_n
# ---------------------------------------------------------------------------

def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x).

    Parameters
    ----------
    order:
        Integer order, |order| <= 200.  Negative orders use
        J_{-n}(x) = (-1)^n J_n(x).
    x:
        Real argument (scalar or array), |x| <= 1e3.

    Returns
    -------
    float or ndarray matching the shape of ``x``.
    """
    if order != int(order):
        raise ValueError(f"bessel_j order must be an integer, got {order!r}")
    n = int(order)
    if abs(n) > MAX_ORDER:
        raise ValueError(f"bessel_j order {n} outside |order| <= {MAX_ORDER}")

    parity = -1.0 if n < 0 and n % 2 else 1.0
    n = abs(n)

    if np.isscalar(x) and not isinstance(x, np.ndarray):
        xf = float(x)
        if not math.isfinite(xf) or abs(xf) > MAX_ARGUMENT:
            raise ValueError(f"bessel_j argument {x!r} outside |x| <= {MAX_ARGUMENT}")
        return parity * float(special.jv(n, xf))

    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(np.abs(xa) > MAX_ARGUMENT):
        raise ValueError(f"bessel_j argument outside |x| <= {MAX_ARGUMENT}")
    sign = np.where((xa < 0) & bool(n % 2), -parity, parity)
    ax = np.abs(xa)

    out = np.empty_like(ax)
    small = ax < _SERIES_CUTOFF
    if small.any():
        out[small] = _jn_series_vec(n, ax[small])
    large = ~small
    if large.any():
        asym = large & (ax > _ASYMPTOTIC_CUTOFF) & (n * n <= ax)
        miller = large & ~asym
        if miller.any():
            out[miller] = _jn_miller_vec(n, ax[miller])
        if asym.any():
            out[asym] = _jn_asymptotic_vec(n, ax[asym])
    return sign * out


def _jn_series_vec(n: int, ax: np.ndarray) -> np.ndarray:
    half = 0.5 * ax
    positive = half > 0.0
    with np.errstate(divide="ignore"):
        logt = np.where(positive, n * np.log(np.where(positive, half, 1.0)), 0.0)
    term = np.where(positive, np.exp(logt - math.lgamma(n + 1)),
                    1.0 if n == 0 else 0.0)
    total = term.copy()
    q = half * half
    for k in range(1, 80):
        term = term * (-q) / (k * (n + k))
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.maximum(np.abs(total), 1e-290)):
            break
    return total


def _jn_miller_vec(n: int, ax: np.ndarray) -> np.ndarray:
    # backward (Miller) recurrence seeded high above both order and argument,
    # normalised with J_0 + 2 sum_k J_{2k} = 1; the start margin grows with
    # sqrt(x) so the seed contamination decays below double precision even
    # at the top of the supported argument range
    top = max(n, float(ax.max()))
    start = int(top + 2.4 * math.sqrt(top) + 36.0)
    if start % 2:
        start += 1
    inv_x = 1.0 / ax
    jp = np.zeros_like(ax)
    jc = np.full_like(ax, 1e-30)
    norm = np.zeros_like(ax)
    out = np.zeros_like(ax)
    for k in range(start, 0, -1):
        jm = (2.0 * k) * inv_x * jc - jp
        jp = jc
        jc = jm
        idx = k - 1
        if idx % 2 == 0:
            norm += jc if idx == 0 else 2.0 * jc
        if idx == n:
            out = jc.copy()
        overflow = np.abs(jc) > 1e250
        if overflow.any():
            for arr in (jc, jp, norm, out):
                arr[overflow] *= 1e-250
    return out / norm


def _jn_asymptotic_vec(n: int, ax: np.ndarray) -> np.ndarray:
    # Hankel large-argument expansion; only entered for n^2 <= x where the
    # asymptotic terms decay to below double precision before turning
    mu = 4.0 * n * n
    inv8x = 1.0 / (8.0 * ax)
    p = np.ones_like(ax)
    q = np.zeros_like(ax)
    term = np.ones_like(ax)
    prev = np.inf
    for j in range(1, 32):
        term = term * (mu - (2 * j - 1) ** 2) * inv8x / j
        size = float(np.max(np.abs(term)))
        if size >= prev or size < 1e-18:
            if size < 1e-18:
                _accumulate_hankel(p, q, term, j)
            break
        _accumulate_hankel(p, q, term, j)
        prev = size
    chi = ax - (0.5 * n + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * ax)) * (p * np.cos(chi) - q * np.sin(chi))


def _accumulate_hankel(p: np.ndarray, q: np.ndarray, term: np.ndarray, j: int) -> None:
    if j % 2 == 0:
        p += term if j % 4 == 0 else -term
    else:
        q += term if j % 4 == 1 else -term

