"""Resonance-approximation core.

The resonance quantities: the effective Bessel argument w(t) of the
coupling envelope (``effective_bessel_argument``; the envelope
(delta_gap/2) J_N(w(t)) of ``dynamics.rabi_frequency`` and the reduced
field each sum their Chebyshev series at |cos(delta t)| themselves), its
period average ``mean_bessel``, the quasienergy E_N of the pair
(+E_N, -E_N) (``quasienergy``), the accumulated phase gamma_N(t)
(``PhaseDecomposition.gamma_at``) with its "linear + periodic"
decomposition, its Fourier representation, quasienergetic states, and
weak-drive closed forms.  A small set of Bessel-summation helpers used only
to validate the reduction lives at the bottom.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special

from .model import SystemParams, check_count, check_real, check_times
from .specfun import bessel_j, bessel_series, bessel_span, check_domain

__all__ = [
    "PhaseDecomposition",
    "FourierPhase",
    "QesState",
    "WeakDriveForms",
    "effective_bessel_argument",
    "mean_bessel",
    "quasienergy",
    "build_phase_decomposition",
    "fourier_phase",
    "reconstruct_periodic_phase",
    "qes_state",
    "weak_forms",
    "exact_effective_argument",
    "graf_bessel_sum",
    "graf_closed_form",
    "alpha_phase",
]

# ---------------------------------------------------------------------------
# effective coupling envelope and its period average
# ---------------------------------------------------------------------------

def effective_bessel_argument(params: SystemParams, t):
    """Effective Bessel argument w(t) = 2 (A/omega_0) |cos(delta t)|, for a
    time or an array of them, each finite (``model.check_times``)."""
    return 2.0 * params.drive_ratio * np.abs(np.cos(params.modulation * check_times("t", t)))


def _half_period_mean(order: int, j: np.ndarray) -> np.ndarray:
    """s(j) = (2/pi) int_0^{pi/2} cos(j u) du for integers j of the parity of N:
    1 at j = 0, 0 at every other even j and 2 (-1)^{(j-1)/2} / (pi j) at odd j."""
    if order % 2 == 0:
        return (j == 0).astype(float)
    return np.where((j - 1) // 2 % 2, -2.0, 2.0) / (math.pi * j)


def _coupling_harmonics(order: int, series: np.ndarray, n_max: int) -> np.ndarray:
    """G(0), ..., G(n_max) of J_N(2 r |cos u|) from its Chebyshev series c_m
    (``specfun.bessel_series``): G(n) = (1/2) sum_m c_m (s(m - 2n) + s(m + 2n))
    over the m of N's parity (see ``fourier_phase``)."""
    m = np.arange(order % 2, len(series), 2)
    n2 = 2 * np.arange(n_max + 1)[:, None]
    return 0.5 * (_half_period_mean(order, m - n2) + _half_period_mean(order, m + n2)) @ series[m]


def _sine_series(weight: Sequence[float], odd: int, u):
    """sum_m weight[m] sin((2m + 2 - odd) u) for a float u or an array of them.

    Horner's rule on z = e^{2iu}: the sum is the imaginary part of
    e^{i (2 - odd) u} sum_m weight[m] z^m, so each time costs one complex
    exponential however many terms there are.  A float runs through
    ``cmath`` and gives a float.
    """
    e = (cmath.exp if isinstance(u, float) else np.exp)(1j * u)
    z = e * e
    total = 0.0
    for w in reversed(weight):
        total = total * z + w
    return (total * (e if odd else z)).imag


def mean_bessel(params: SystemParams) -> float:
    """Period average of J_N(w(t)), in closed form J_{N/2}(A/omega_0)^2.

    The average is (2/pi) int_0^{pi/2} J_N(2 r cos u) du, which Neumann's
    product integral J_mu(z) J_nu(z) = (2/pi) int_0^{pi/2} J_{mu+nu}(2 z cos u)
    cos((mu - nu) u) du (DLMF 10.22) evaluates at mu = nu = N/2.  The average
    is therefore non-negative, and its zeros are those of J_{N/2}.  Raises
    ``ValueError`` outside ``specfun.check_domain``, as ``fourier_phase`` does.
    """
    check_domain(params.order, params.drive_ratio)
    return float(special.jv(0.5 * params.order, params.drive_ratio) ** 2)


def quasienergy(params: SystemParams) -> float:
    """Quasienergy E_N = (-1)^N (delta_gap/2) * mean_bessel; the pair is
    (+E_N, -E_N)."""
    sign = 1.0 if params.order % 2 == 0 else -1.0
    return sign * 0.5 * params.delta_gap * mean_bessel(params)


# ---------------------------------------------------------------------------
# accumulated phase and its linear + periodic decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDecomposition:
    """Split of the accumulated phase into slope * t plus a periodic remainder.

    ``slope`` is (delta_gap/2) J_{N/2}(r)^2 (the period average, as in
    ``mean_bessel``; the quasienergy is (-1)^N slope) and ``periodic_part``
    evaluates the periodic remainder in closed form (see
    ``build_phase_decomposition``): zero at t = 0, at every half period and
    at every full period pi/delta, and odd about each of them.  Every time
    goes through one Horner sum (``_sine_series``): a float time runs it in
    ``cmath`` and gives a float; any other time (an int, an array) goes
    through NumPy and gives a NumPy float or array.
    """

    slope: float
    periodic_part: Callable[[np.ndarray], np.ndarray]

    def gamma_at(self, t):
        """Accumulated phase gamma_N(t) = (delta_gap/2) int_0^t J_N(w(tau)) dtau
        as slope * t + periodic_part(t), for a time t >= 0 or an array of
        them, each finite (``model.check_times``); no quadrature."""
        t = check_times("t", t, ">=", 0.0)
        return self.slope * t + self.periodic_part(t)


@lru_cache(maxsize=64)
def build_phase_decomposition(params: SystemParams) -> PhaseDecomposition:
    """Phase decomposition with a closed-form periodic part.

    With u = delta t, gamma_N(t) = (delta_gap / (2 delta)) F(u) and
    F(u) = int_0^u J_N(2 r |cos v|) dv.  The Chebyshev series
    J_N(2 r cos v) = sum_m c_m cos(m v) of ``specfun.bessel_series``, the
    expansion behind ``fourier_phase``, integrated term by term gives the
    signed integral F_s(u) = int_0^u J_N(2 r cos v) dv = c_0 u + S(u) with
    the sine series S(u) = sum_{m>0} c_m sin(m u) / m over the m of N's
    parity; c_0 = J_{N/2}(r)^2 for even N and 0 for odd N.  The |cos|
    envelope is the signed one up to u = pi/2 and even about pi/2, so past
    it F(u) = pi M - F_s(pi - u), where M = J_{N/2}(r)^2 is the period
    average; every whole half-period of u adds pi M.  The periodic part, the
    scale times F(u) - M u, is therefore the scale times
    h(u) = S(u) - (M - c_0) u on [0, pi/2], odd about pi/2 and repeated
    with period pi in u.  h is odd, so that is h(w) with w = u reduced
    modulo pi into [-pi/2, pi/2).

    M is G(0) summed from the same series: for r <= 11 it is within
    2.8e-16 of mpmath, where the half-order ``jv`` of ``mean_bessel`` is off
    by up to 3.2e-15, an error that t multiplies.  ``slope`` here is
    therefore the more accurate of the two; (-1)^N slope differs from
    ``quasienergy(params)`` by up to about 4e-14 relative.  The only trim
    is ``bessel_series``'s, of the trailing c_m below rounding.  The result
    is cached per parameter set, so a scalar ``periodic_part`` call
    (``qes_state``) costs one complex exponential and a Horner pass over a
    few dozen terms rather than a ``jv`` call over every order.  Raises
    ``ValueError`` outside ``specfun.check_domain``, as the envelope
    functions do.
    """
    odd = params.order % 2
    series = bessel_series(params.order, params.drive_ratio)
    m = np.arange(2 - odd, len(series), 2)
    weight = tuple((series[m] / m).tolist())
    mean = float(_coupling_harmonics(params.order, series, 0)[0])  # G(0) = J_{N/2}(r)^2
    drift = mean if odd else 0.0
    scale = 0.5 * params.delta_gap / params.modulation

    def periodic_part(t):
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        u = (params.modulation * t + 0.5 * math.pi) % math.pi - 0.5 * math.pi
        return scale * (_sine_series(weight, odd, u) - drift * u)

    return PhaseDecomposition(slope=0.5 * params.delta_gap * mean, periodic_part=periodic_part)


# ---------------------------------------------------------------------------
# Fourier representation of the periodic part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierPhase:
    """Fourier table G(n), |n| <= n_max, of the periodic coupling J_N(w(t)).

    ``coefficients[k]`` holds G(k - n_max).  The coupling is real and even
    about t = 0, so every G(n) is real and G(-n) = G(n).
    """

    coefficients: np.ndarray
    period: float

    @property
    def n_max(self) -> int:
        return (len(self.coefficients) - 1) // 2

    def coefficient(self, n: int) -> complex:
        n = check_count("n", n, -self.n_max)
        if n > self.n_max:
            raise ValueError(f"harmonic {n} outside |n| <= {self.n_max}")
        return complex(self.coefficients[n + self.n_max])


def fourier_phase(params: SystemParams, n_max: int) -> FourierPhase:
    """Fourier coefficients G(n) = (1/T) int_0^T J_N(w) e^{-i 2 pi n t / T} dt.

    With u = delta t the envelope J_N(2 r |cos u|) is even about u = 0 and
    about u = pi/2, so G(n) = (2/pi) int_0^{pi/2} J_N(2 r cos u) cos(2 n u) du.
    Writing 2 r cos u sin(theta) = r sin(theta + u) + r sin(theta - u) in the
    Jacobi-Anger expansion (DLMF 10.12) gives
    J_N(2 r cos u) = sum_k J_k(r) J_{N-k}(r) cos((2k - N) u), the Chebyshev
    series sum_m c_m cos(m u) of ``specfun.bessel_series``.  Integrated term
    by term, G(n) = (1/2) sum_m c_m (s(m - 2n) + s(m + 2n)) over the m of N's
    parity, with s(j) = (2/pi) int_0^{pi/2} cos(j u) du: 1 at j = 0, 0 at
    every other even j and 2 (-1)^{(j-1)/2} / (pi j) at odd j.  For odd N
    every m +- 2n is odd, never 0.  For even N only m = 2n survives:
    G(n) = J_{N/2+n}(r) J_{N/2-n}(r), Neumann's product integral (DLMF 10.22)
    at integer orders.  Every c_m is one or two integer-order Bessel
    products with factors of magnitude <= 1, so no coefficient overflows, at
    any r >= 0 or harmonic.  Like the envelope functions it
    raises ``ValueError`` outside ``specfun.check_domain``.
    """
    n_max = check_count("n_max", n_max, 1)
    order = params.order
    positive = _coupling_harmonics(order, bessel_series(order, params.drive_ratio), n_max)
    coefficients = np.concatenate((positive[:0:-1], positive))
    return FourierPhase(coefficients=coefficients, period=params.period)


def reconstruct_periodic_phase(phase: FourierPhase, delta_gap: float, t):
    """Periodic phase remainder rebuilt from the Fourier table.

    Phi(t) = (delta_gap/2) sum_{|n|>=1} G(n) (T / (i 2 pi n)) (e^{i 2 pi n t / T} - 1);
    with G(-n) = G(n) real the +-n terms pair into the sine series
    Phi(t) = (delta_gap/2) (T / pi) sum_{n>=1} (G(n) / n) sin(2 n u), u = pi t / T,
    summed by ``_sine_series``.
    """
    check_real("delta_gap", delta_gap, ">", -math.inf)
    # an array even for one time: a float would take _sine_series' scalar branch
    u = math.pi / phase.period * np.asarray(check_times("t", t))
    weight = phase.coefficients[phase.n_max + 1:] / np.arange(1, phase.n_max + 1)
    return 0.5 * delta_gap * phase.period / math.pi * _sine_series(weight, False, u)


# ---------------------------------------------------------------------------
# quasienergetic states
# ---------------------------------------------------------------------------

class QesState(NamedTuple):
    """One quasienergetic-state branch at a fixed time.

    Amplitudes are on the diabatic basis with the quasienergy phase factored
    out: (c_down, c_up) = e^{+-i (-1)^N Phi_N(t)} (1, +-1)/sqrt(2).  A named
    tuple, immutable and hashable, which builds faster than a frozen
    dataclass.
    """

    branch: str
    quasienergy: float
    c_down: complex
    c_up: complex

    @property
    def norm(self) -> float:
        return abs(self.c_down) ** 2 + abs(self.c_up) ** 2


_BRANCH_SIGNS = {"plus": 1.0, "minus": -1.0}


def qes_state(params: SystemParams, branch: str, t: float) -> QesState:
    """Quasienergetic state of the requested branch at time t (exact resonance)."""
    s = _BRANCH_SIGNS.get(branch) if isinstance(branch, str) else None
    if s is None:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    tf = float(check_real("t", t, ">", -math.inf))
    decomposition = build_phase_decomposition(params)
    phi = decomposition.periodic_part(tf)
    parity = 1.0 if params.order % 2 == 0 else -1.0
    amplitude = cmath.exp(1j * s * parity * phi) / math.sqrt(2.0)
    return QesState(branch, s * parity * decomposition.slope, amplitude, s * amplitude)


# ---------------------------------------------------------------------------
# weak-drive closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakDriveForms:
    """Weak-drive closed forms for the period average and periodic phase.

    ``mean_moment`` is (1/N!) (A/omega0)^N times the exact |cos|^N moment,
    which equals (r/2)^N / Gamma(N/2 + 1)^2, the leading term of the exact
    average J_{N/2}(r)^2 as A -> 0.  ``mean_bracket``
    is an alternative closed form retained verbatim for regression purposes;
    it is *not* equal to ``mean_moment`` (for N = 1 the two differ by the
    constant factor sqrt(pi)/2) and the test suite pins that gap so it cannot
    be patched over silently.  ``phi_periodic`` is the weak-drive periodic
    phase remainder at the requested time.
    """

    mean_moment: float
    mean_bracket: float
    phi_periodic: float


def _abs_cos_antiderivative(order: int, u: float) -> float:
    """int_0^u |cos v|^N dv on 0 <= u <= pi as an incomplete beta function.

    Substituting s = sin^2 v gives (1/2) B(1/2, (N+1)/2) I_{sin^2 u}(1/2, (N+1)/2)
    up to u = pi/2; the second half mirrors the first about pi/2.
    """
    b = 0.5 * (order + 1)
    full = float(special.beta(0.5, b))
    head = 0.5 * full * float(special.betainc(0.5, b, math.sin(u) ** 2))
    return head if u <= 0.5 * math.pi else full - head


def weak_forms(params: SystemParams, t: float) -> WeakDriveForms:
    """Weak-drive (A/omega0 <~ 0.3) closed forms at time t."""
    tf = float(check_real("t", t, ">", -math.inf))
    n = params.order
    r = params.drive_ratio
    # powers over factorials and Gamma functions go through logarithms, so
    # neither overflows at high order; the quotients underflow to 0.0
    log_r = math.log(r) if r > 0.0 else -math.inf
    scale = math.exp(n * log_r - math.lgamma(n + 1.0))  # r^N / N!

    mean_moment = math.exp(n * (log_r - math.log(2.0)) - 2.0 * math.lgamma(0.5 * n + 1.0))

    # the printed bracket (2 Gamma((3+N)/2) + (1+N) Gamma((1+N)/2)) r^N /
    # (2 sqrt(pi) N! (1+N) Gamma((3+N)/2)) is 2 r^N / (sqrt(pi) (N+1)!), since
    # Gamma((3+N)/2) = ((1+N)/2) Gamma((1+N)/2)
    mean_bracket = 2.0 * scale / (math.sqrt(math.pi) * (1 + n))

    # phi_periodic is odd in t: it is taken at |t| and given the sign of t
    u = math.fmod(params.modulation * abs(tf), math.pi)
    f_u = _abs_cos_antiderivative(n, u)
    f_pi = float(special.beta(0.5, 0.5 * (n + 1)))
    phi_periodic = (math.copysign(0.5, tf) * params.delta_gap / params.modulation) * scale * (
        f_u - f_pi * u / math.pi)
    return WeakDriveForms(mean_moment=mean_moment, mean_bracket=mean_bracket,
                          phi_periodic=phi_periodic)


# ---------------------------------------------------------------------------
# Bessel-summation (Graf) validation path
# ---------------------------------------------------------------------------
# These helpers exist to validate the reduction of the double drive-harmonic
# sum to a single Bessel function of an effective argument; the rest of the
# package never calls them.

def exact_effective_argument(params: SystemParams, t):
    """Effective argument without the slow-modulation simplification.

    w_exact(t) = sqrt(z1^2 + z2^2 - 2 z1 z2 cos(gamma)) with gamma = 2 delta t + pi.
    """
    gamma = 2.0 * params.modulation * check_times("t", t) + math.pi
    z1, z2 = params.z1, params.z2
    return np.sqrt(z1 * z1 + z2 * z2 - 2.0 * z1 * z2 * np.cos(gamma))


def graf_bessel_sum(z1: float, z2: float, gamma: float, order: int) -> complex:
    """Double-sided sum sum_k J_k(z1) J_{order+k}(z2) e^{i k gamma}, over the
    |k| <= ``specfun.bessel_span`` of the larger |z|, past which every term
    is below 1e-18.  Raises ``ValueError`` when an order the sum needs lies
    outside ``specfun.check_domain``."""
    top = float(np.max(np.abs([z1, z2])))  # NaN if either is
    check_domain(abs(order), 0.5 * top)
    k = np.arange(-bessel_span(top), bessel_span(top) + 1)
    check_domain(abs(order) + k[-1], 0.5 * top)
    return complex(np.sum(special.jv(k, z1) * special.jv(order + k, z2) * np.exp(1j * k * gamma)))


def graf_closed_form(z1: float, z2: float, gamma: float, order: int) -> complex:
    """Closed product form J_order(w) ((z2 - z1 e^{-i gamma}) / (z2 - z1 e^{i gamma}))^{order/2}.

    Requires 0 <= z1 < z2.  Both half-plane factors have positive real part,
    so the principal logarithm is continuous in gamma over a full period and
    no branch correction is needed.
    """
    if not 0.0 <= z1 < z2:
        raise ValueError(f"graf_closed_form requires 0 <= z1 < z2, got {z1}, {z2}")
    w = math.sqrt(z1 * z1 + z2 * z2 - 2.0 * z1 * z2 * math.cos(gamma))
    ratio = (z2 - z1 * cmath.exp(-1j * gamma)) / (z2 - z1 * cmath.exp(1j * gamma))
    return bessel_j(order, w) * cmath.exp(0.5 * order * cmath.log(ratio))


def alpha_phase(params: SystemParams, t: float, full: bool = False) -> float:
    """Relative phase alpha(t) between the two amplitude equations.

    The default is the lowest-order form alpha = detuning * t - N pi used by
    the resonant solution.  With ``full=True`` the logarithmic correction is
    kept: alpha = (detuning + N delta) t - N pi + N chi(t) with
    chi = atan2(z1 sin(gamma), z2 - z1 cos(gamma)).  Note chi is the principal
    (periodic) branch; for odd N it sweeps by ~pi across each envelope node,
    which the lowest-order form replaces by a smooth linear drift.
    """
    tf = float(check_real("t", t, ">", -math.inf))
    n = params.order
    base = params.detuning * tf - n * math.pi
    if not full:
        return base
    gamma = 2.0 * params.modulation * tf + math.pi
    chi = math.atan2(params.z1 * math.sin(gamma),
                     params.z2 - params.z1 * math.cos(gamma))
    return base + n * params.modulation * tf + n * chi
