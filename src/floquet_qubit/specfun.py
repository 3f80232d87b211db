"""Validated special-function kernel.

Bessel functions of the first kind in plain double precision, and the
Jacobi-Anger products that expand them (DLMF 10.12):

    J_N(2 R cos u) = sum_k J_k(R) J_{N-k}(R) cos((2k - N) u),

so J_N(2 R t) = sum_k J_k(R) J_{N-k}(R) T_{|2k-N|}(t) for |t| <= 1, a
Chebyshev series whose coefficients come from one integer-order
``scipy.special.jv`` call (``bessel_series``).  Scalar calls go to ``jv``;
an array is summed as that series, with R half its largest |x|.  The same
series, trimmed once below rounding, gives ``floquet`` its Fourier table and
accumulated phase, and ``dynamics`` the envelope J_N(2 r cos(delta t)) of
its reduced equations and its rate.  The module has no dependency on the
rest of the package.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev
from scipy import special

__all__ = ["bessel_j", "bessel_products", "bessel_series", "bessel_span", "check_domain"]

MAX_ORDER = 200
MAX_ARGUMENT = 1.0e3


def check_domain(order: int, ratio: float) -> None:
    """Raise ``ValueError`` unless N = ``order`` <= ``MAX_ORDER`` and
    2 r = 2 ``ratio`` <= ``MAX_ARGUMENT`` (so r is not NaN), the domain of
    ``bessel_products``; the one place the package compares against both."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} outside <= {MAX_ORDER}")
    if not 2.0 * ratio <= MAX_ARGUMENT:
        raise ValueError(f"Bessel argument 2 r = {2.0 * ratio!r} outside <= {MAX_ARGUMENT}")


def bessel_span(ratio: float) -> int:
    """The span past which |J_k(r)| < 1e-18, for r = ``ratio`` <= MAX_ARGUMENT / 2;
    the sums over k of ``bessel_products`` and ``analysis.spectral_lines``
    stop at |k| = span."""
    return int(ratio + 15.0 * np.cbrt(ratio) + 20.0)


def bessel_products(order: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies j = 2k - N and products J_k(r) J_{N-k}(r) of the expansion
    J_N(2 r cos u) = sum_k J_k(r) J_{N-k}(r) cos(j u) (Jacobi-Anger, DLMF 10.12).

    ``order`` is N >= 0, and the sum stops where ``bessel_span`` cuts the
    Bessel tail; every factor has magnitude <= 1 and no term can overflow.
    Raises ``ValueError`` outside ``check_domain``.
    """
    check_domain(order, ratio)
    span = bessel_span(ratio)
    k = np.arange(-span, order + span + 1)
    bessel = special.jv(k, ratio)
    return 2 * k - order, bessel * bessel[::-1]


def bessel_series(order: int, ratio: float) -> np.ndarray:
    """Chebyshev coefficients c_m of J_N(2 R t) = sum_m c_m T_m(t), |t| <= 1,
    for N = ``order`` >= 0 and R = ``ratio``: c_m = J_k(R) J_{N-k}(R) summed
    over |2k - N| = m (``bessel_products``), with the trailing ones below
    rounding of the largest trimmed.  Sum it with
    ``numpy.polynomial.chebyshev.chebval``; every T_m has the parity of N.
    """
    j, products = bessel_products(order, ratio)
    # chebtrim leaves one zero coefficient when every product underflows
    # (high order, small R)
    tol = np.finfo(float).eps * float(np.max(np.abs(products)))
    return chebyshev.chebtrim(np.bincount(np.abs(j), weights=products), tol)


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x).

    A scalar goes to ``scipy.special.jv``.  An array takes R as half its
    largest |x| and sums the Chebyshev series
    J_N(2 R t) = sum_m c_m T_m(t), t = x / (2 R), by Clenshaw's recurrence
    (``numpy.polynomial.chebyshev.chebval``) on the ``bessel_series`` at R.
    Every T_m has the parity of N, so J_N(-x) = (-1)^N J_N(x)
    comes out of the series, bit for bit; x = 0 gives J_N(0) = 1 if N = 0
    else 0 exactly.  Array values are accurate in absolute terms, within
    about 4e-14 of mpmath over the whole domain, not relatively: a tiny
    value in an array that also holds a large |x| carries the rounding of
    the large one's series.

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
    if not float(order).is_integer():  # NaN and infinity are not
        raise ValueError(f"bessel_j order must be an integer, got {order!r}")
    n = int(order)
    parity = -1.0 if n < 0 and n % 2 else 1.0
    n = abs(n)

    if np.isscalar(x) and not isinstance(x, np.ndarray):
        xf = float(x)
        check_domain(n, 0.5 * abs(xf))
        return parity * float(special.jv(n, xf))

    xa = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(xa), initial=0.0))  # NaN if any x is NaN
    coefficients = bessel_series(n, 0.5 * top)
    # top = 0 only when every x is 0; the series leaves rounding at t = 0,
    # where J_N(0) is exactly 1 for N = 0 and 0 otherwise
    out = chebyshev.chebval(xa / (top or 1.0), coefficients)
    return parity * np.where(xa == 0.0, 1.0 if n == 0 else 0.0, out)
