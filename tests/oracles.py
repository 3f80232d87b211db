"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written against mpmath (or plain floats) and
never calls into the package under test, so each comparison is a genuine
dual-route check.
"""

from functools import lru_cache

import mpmath as mp


def bessel_series(order: int, x: float, dps: int = 40) -> float:
    """High-precision ascending-series Bessel J_n, summed in mpmath."""
    n = abs(int(order))
    sign = -1.0 if (int(order) < 0 and n % 2) else 1.0
    with mp.workdps(dps):
        xm = mp.mpf(repr(float(x)))
        if xm < 0:
            xm = -xm
            if n % 2:
                sign = -sign
        half = xm / 2
        term = half ** n / mp.factorial(n)
        total = term
        q = half * half
        for k in range(1, 2000):
            term *= -q / (k * (n + k))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return sign * float(total)


def mp_besselj(order, x) -> float:
    """mpmath Bessel J (library route, independent of the package)."""
    return float(mp.besselj(order, x))


def mean_coupling_quad(order: int, ratio: float, dps: int = 30) -> float:
    """(1/pi) int_0^pi J_N(2 r |cos u|) du by mpmath adaptive quadrature."""
    with mp.workdps(dps):
        value = mp.quad(lambda u: mp.besselj(order, 2 * ratio * mp.cos(u)),
                        [0, mp.pi / 2])
        return float(2 / mp.pi * value)


def abs_cos_power_integral(order: int, u: float, dps: int = 30) -> float:
    """int_0^u |cos v|^N dv by mpmath quadrature, split at the node v = pi/2."""
    with mp.workdps(dps):
        um = mp.mpf(repr(float(u)))
        nodes = [0, mp.pi / 2, um] if um > mp.pi / 2 else [0, um]
        return float(mp.quad(lambda v: abs(mp.cos(v)) ** order, nodes))


def weak_drive_means(order: int, ratio: float, dps: int = 40) -> tuple[float, float]:
    """The weak-drive ``(mean_moment, mean_bracket)`` in mpmath:
    (r/2)^N / Gamma(N/2 + 1)^2 and the printed bracket form
    (2 Gamma((3+N)/2) + (1+N) Gamma((1+N)/2)) / (2 sqrt(pi) N! (1+N) Gamma((3+N)/2)) r^N."""
    with mp.workdps(dps):
        r = mp.mpf(repr(float(ratio)))
        n = mp.mpf(order)
        moment = (r / 2) ** n / mp.gamma(n / 2 + 1) ** 2
        bracket = ((2 * mp.gamma((3 + n) / 2) + (1 + n) * mp.gamma((1 + n) / 2))
                   / (2 * mp.sqrt(mp.pi) * mp.factorial(n) * (1 + n) * mp.gamma((3 + n) / 2))
                   * r ** n)
        return float(moment), float(bracket)


def fourier_coefficient(order: int, n: int, ratio: float, dps: int = 30) -> float:
    """G(n) = J_{N/2+n}(r) J_{N/2-n}(r) in mpmath; its r -> 0 limit is 0 (it goes as r^N)."""
    if ratio == 0.0:
        return 0.0
    with mp.workdps(dps):
        r = mp.mpf(repr(float(ratio)))
        half = mp.mpf(order) / 2
        return float(mp.besselj(half + n, r) * mp.besselj(half - n, r))


def half_order_bessel_zeros(order: int, upper: float) -> list[float]:
    """Positive zeros of J_{N/2} up to ``upper`` (mpmath.besseljzero)."""
    zeros = []
    k = 1
    while True:
        z = float(mp.besseljzero(mp.mpf(order) / 2, k))
        if z > upper:
            return zeros
        zeros.append(z)
        k += 1


def central_difference(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def accumulated_phase_quad(order: int, ratio: float, u: float, dps: int = 20) -> float:
    """F(u) = int_0^u J_N(2 r |cos v|) dv by mpmath quadrature.

    Each interval is split at the envelope node v = pi/2; whole periods of
    |cos v| (length pi) enter as multiples of one quadrature over [0, pi].
    """
    with mp.workdps(dps):
        r = mp.mpf(repr(float(ratio)))

        def envelope(v):
            return mp.besselj(order, 2 * r * abs(mp.cos(v)))

        um = mp.mpf(repr(float(u)))
        whole = mp.floor(um / mp.pi)
        rem = um - whole * mp.pi
        total = whole * mp.quad(envelope, [0, mp.pi / 2, mp.pi]) if whole else mp.mpf(0)
        nodes = [0, mp.pi / 2, rem] if rem > mp.pi / 2 else [0, rem]
        return float(total + mp.quad(envelope, nodes))


@lru_cache(maxsize=None)
def _besselj(order: int, ratio: float, dps: int):
    with mp.workdps(dps):
        return mp.besselj(order, mp.mpf(repr(ratio)))


def jacobi_anger_periodic_phase(order: int, ratio: float, us, dps: int = 30) -> list[float]:
    """F(u) - M u at each u of ``us``, for F(u) = int_0^u J_N(2 r |cos v|) dv
    and its period average M = J_{N/2}(r)^2, all in mpmath.

    The Jacobi-Anger expansion (DLMF 10.12)
    J_N(2 r cos v) = sum_k J_k(r) J_{N-k}(r) cos((2k - N) v), from
    ``mp.besselj`` products summed over every k with |J_k(r)| above
    10^-dps, integrates term by term to F_s(u) = int_0^u J_N(2 r cos v) dv.
    The |cos| envelope is the signed one on [0, pi/2] and even about pi/2,
    so with u = n pi + v, v in [0, pi), F(u) = n pi M + F_s(v) up to
    v = pi/2 and n pi M + pi M - F_s(pi - v) past it.
    """
    with mp.workdps(dps):
        def bessel(k):  # J_{-k} = (-1)^k J_k
            return _besselj(abs(k), float(ratio), dps) * (-1 if k < 0 and k % 2 else 1)

        span = 0
        while span < ratio or abs(bessel(span)) > mp.mpf(10) ** -dps:
            span += 1
        terms = [(2 * k - order, bessel(k) * bessel(order - k))
                 for k in range(-span, order + span + 1)]
        mean = mp.besselj(mp.mpf(order) / 2, mp.mpf(repr(float(ratio)))) ** 2

        def signed(v):
            return sum(p * (v if j == 0 else mp.sin(j * v) / j) for j, p in terms)

        out = []
        for u in us:
            um = mp.mpf(repr(float(u)))
            n = mp.floor(um / mp.pi)
            v = um - n * mp.pi
            head = signed(v) if v <= mp.pi / 2 else mp.pi * mean - signed(mp.pi - v)
            out.append(float(n * mp.pi * mean + head - mean * um))
        return out
