"""Resonance-approximation core.

Effective Bessel coupling envelope, its period average, quasienergies, the
"linear + periodic" decomposition of the accumulated phase, its Fourier
representation, quasienergetic states, and weak-drive closed forms.  A small
set of Bessel-summation helpers used only to validate the reduction lives at
the bottom.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

from .model import SystemParams, check_count, check_real
from .specfun import bessel_j, bessel_products, check_domain

__all__ = [
    "PhaseDecomposition",
    "FourierPhase",
    "QesState",
    "WeakDriveForms",
    "effective_bessel_argument",
    "tunneling_amplitude",
    "mean_bessel",
    "quasienergy",
    "quasienergy_pair",
    "build_phase_decomposition",
    "phase_gamma",
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
    """Effective Bessel argument w(t) = 2 (A/omega_0) |cos(delta t)|."""
    return 2.0 * params.drive_ratio * np.abs(np.cos(params.modulation * np.asarray(t, dtype=float)))


def tunneling_amplitude(params: SystemParams, t):
    """Resonant tunneling amplitude (-1)^(N+1) (delta_gap/2) J_N(w(t))."""
    n = params.order
    sign = -1.0 if n % 2 == 0 else 1.0
    w = effective_bessel_argument(params, t)
    return sign * 0.5 * params.delta_gap * bessel_j(n, w)


def _half_period_mean(order: int, j: np.ndarray) -> np.ndarray:
    """s(j) = (2/pi) int_0^{pi/2} cos(j u) du for integers j of the parity of N:
    1 at j = 0, 0 at every other even j and 2 (-1)^{(j-1)/2} / (pi j) at odd j."""
    if order % 2 == 0:
        return (j == 0).astype(float)
    return np.where((j - 1) // 2 % 2, -2.0, 2.0) / (math.pi * j)


def _coupling_harmonics(order: int, j: np.ndarray, products: np.ndarray,
                        n_max: int) -> np.ndarray:
    """G(0), ..., G(n_max) of J_N(2 r |cos u|) from ``specfun.bessel_products``.

    G(n) = sum_k J_k(r) J_{N-k}(r) s(2k - N - 2n) (see ``fourier_phase``).
    """
    return _half_period_mean(order, j[None, :] - 2 * np.arange(n_max + 1)[:, None]) @ products


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
    """Quasienergy E_N = (-1)^N (delta_gap/2) * mean_bessel."""
    sign = 1.0 if params.order % 2 == 0 else -1.0
    return sign * 0.5 * params.delta_gap * mean_bessel(params)


def quasienergy_pair(params: SystemParams) -> tuple[float, float]:
    """The quasienergy pair (E+, E-) = (+E_N, -E_N); the sum is zero by construction."""
    e = quasienergy(params)
    return e, -e


# ---------------------------------------------------------------------------
# accumulated phase and its linear + periodic decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDecomposition:
    """Split of the accumulated phase into slope * t plus a periodic remainder.

    ``slope`` is (delta_gap/2) J_{N/2}(r)^2 (the period average, as in
    ``mean_bessel``), ``quasienergy`` is (-1)^N * slope and ``periodic_part``
    evaluates the periodic remainder in closed form (see
    ``build_phase_decomposition``): zero at t = 0, at every half period and
    at every full period pi/delta, and odd about each of them.  A float
    time gives a float, summed term by term in plain Python; any other time
    (an int, an array) goes through NumPy and gives a NumPy float or array.
    """

    slope: float
    quasienergy: float
    periodic_part: Callable[[np.ndarray], np.ndarray]

    def gamma_at(self, t):
        """Accumulated phase slope * t + periodic_part(t) (vectorised)."""
        return self.slope * np.asarray(t, dtype=float) + self.periodic_part(t)


@lru_cache(maxsize=64)
def build_phase_decomposition(params: SystemParams) -> PhaseDecomposition:
    """Phase decomposition with a closed-form periodic part.

    With u = delta t, gamma_N(t) = (delta_gap / (2 delta)) F(u) and
    F(u) = int_0^u J_N(2 r |cos v|) dv.  The Jacobi-Anger expansion behind
    ``fourier_phase``, integrated term by term, gives the signed integral
    F_s(u) = int_0^u J_N(2 r cos v) dv = c u + S(u) with the sine series
    S(u) = sum_{j>0} 2 J_k(r) J_{N-k}(r) sin(j u) / j, j = 2k - N, and
    c = J_{N/2}(r)^2 for even N, 0 for odd N.  The |cos| envelope is the
    signed one up to u = pi/2 and even about pi/2, so past it
    F(u) = pi M - F_s(pi - u), where M = J_{N/2}(r)^2 is the period average;
    every whole half-period of u adds pi M.  The periodic part, the scale
    times F(u) - M u, is therefore the scale times h(u) = S(u) - (M - c) u
    on [0, pi/2], odd about pi/2 and repeated with period pi in u.  h is
    odd, so that is h(w) with w = u reduced modulo pi into [-pi/2, pi/2).

    M is G(0) summed from the same integer-order products: for r <= 11 it
    is within 2.5e-16 of mpmath, where the half-order ``jv`` of
    ``mean_bessel`` is off by up to 3.2e-15, an error that t multiplies.
    ``slope`` and ``quasienergy`` here are therefore the more accurate of
    the two; they differ from ``quasienergy(params)`` by up to about 4e-14
    relative.
    Terms with |J_k J_{N-k}| below rounding of the largest product are
    dropped.  The result is cached per parameter set, so a scalar
    ``periodic_part`` call (``qes_state``) costs one short sine series
    rather than a ``jv`` call over every order.  Raises ``ValueError``
    outside ``specfun.check_domain``, as the envelope functions do.
    """
    order = params.order
    j, products = bessel_products(order, params.drive_ratio)
    keep = (j > 0) & (np.abs(products) > np.finfo(float).eps * np.max(np.abs(products)))
    freq = j[keep].astype(float)
    weight = 2.0 * products[keep] / freq
    mean = float(_coupling_harmonics(order, j, products, 0)[0])  # G(0) = J_{N/2}(r)^2
    drift = mean if order % 2 else 0.0
    delta = params.modulation
    scale = 0.5 * params.delta_gap / delta

    terms = tuple(zip(freq.tolist(), weight.tolist()))

    def periodic_part(t):
        if isinstance(t, float):
            # one time (``qes_state``): a plain loop costs a fraction of
            # NumPy's per-call overhead on a few dozen terms
            u = (delta * t + 0.5 * math.pi) % math.pi - 0.5 * math.pi
            total = 0.0
            for f, w in terms:
                total += w * math.sin(f * u)
            return scale * (total - drift * u)
        u = np.mod(delta * np.asarray(t, dtype=float) + 0.5 * math.pi, math.pi) - 0.5 * math.pi
        return scale * (np.sin(np.multiply.outer(u, freq)) @ weight - drift * u)

    slope = 0.5 * params.delta_gap * mean
    sign = 1.0 if order % 2 == 0 else -1.0
    return PhaseDecomposition(slope=slope, quasienergy=sign * slope, periodic_part=periodic_part)


def phase_gamma(params: SystemParams, t: float) -> tuple[float, PhaseDecomposition]:
    """Accumulated phase gamma_N(t) = (delta_gap/2) int_0^t J_N(w(tau)) dtau,
    plus its decomposition.

    The value is the closed form of ``build_phase_decomposition``,
    slope * t + periodic_part(t), for t >= 0.
    """
    tf = check_real("t", float(t), ">=", 0.0)
    decomposition = build_phase_decomposition(params)
    return float(decomposition.gamma_at(tf)), decomposition


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
        if abs(n) > self.n_max:
            raise ValueError(f"harmonic {n} outside |n| <= {self.n_max}")
        return complex(self.coefficients[n + self.n_max])


def fourier_phase(params: SystemParams, n_max: int) -> FourierPhase:
    """Fourier coefficients G(n) = (1/T) int_0^T J_N(w) e^{-i 2 pi n t / T} dt.

    With u = delta t the envelope J_N(2 r |cos u|) is even about u = 0 and
    about u = pi/2, so G(n) = (2/pi) int_0^{pi/2} J_N(2 r cos u) cos(2 n u) du.
    Writing 2 r cos u sin(theta) = r sin(theta + u) + r sin(theta - u) in the
    Jacobi-Anger expansion (DLMF 10.12) gives
    J_N(2 r cos u) = sum_k J_k(r) J_{N-k}(r) cos((2k - N) u).  Integrated
    term by term, G(n) = sum_k J_k(r) J_{N-k}(r) (s(2k-N-2n) + s(2k-N+2n)) / 2
    with s(j) = (2/pi) int_0^{pi/2} cos(j u) du: 1 at j = 0, 0 at every other
    even j and 2 (-1)^{(j-1)/2} / (pi j) at odd j.  s is even and the
    products are symmetric under k -> N - k, so both halves are equal and
    G(n) = sum_k J_k(r) J_{N-k}(r) s(2k - N - 2n).  For even N only
    k = N/2 + n survives: G(n) = J_{N/2+n}(r) J_{N/2-n}(r), Neumann's product
    integral (DLMF 10.22) at integer orders.  Every factor is an
    integer-order Bessel value of magnitude <= 1, so no coefficient
    overflows, at any r >= 0 or harmonic.  Like the envelope functions it
    raises ``ValueError`` outside ``specfun.check_domain``.
    """
    n_max = check_count("n_max", n_max, 1)
    order = params.order
    positive = _coupling_harmonics(order, *bessel_products(order, params.drive_ratio), n_max)
    coefficients = np.concatenate((positive[:0:-1], positive))
    return FourierPhase(coefficients=coefficients, period=params.period)


def reconstruct_periodic_phase(phase: FourierPhase, delta_gap: float, t):
    """Periodic phase remainder rebuilt from the Fourier table.

    Phi(t) = (delta_gap/2) sum_{|n|>=1} G(n) (T / (i 2 pi n)) (e^{i 2 pi n t / T} - 1);
    with G(-n) = G(n) real the +-n terms pair into the sine series
    Phi(t) = (delta_gap/2) sum_{n>=1} G(n) (T / (pi n)) sin(2 pi n t / T),
    evaluated as one matrix-vector product.
    """
    n = np.arange(1, phase.n_max + 1)
    weight = phase.coefficients[phase.n_max + 1:] * phase.period / (math.pi * n)
    angle = np.multiply.outer(np.asarray(t, dtype=float), 2.0 * math.pi * n / phase.period)
    return 0.5 * delta_gap * (np.sin(angle) @ weight)


# ---------------------------------------------------------------------------
# quasienergetic states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QesState:
    """One quasienergetic-state branch at a fixed time.

    Amplitudes are on the diabatic basis with the quasienergy phase factored
    out: (c_down, c_up) = e^{+-i (-1)^N Phi_N(t)} (1, +-1)/sqrt(2).
    """

    branch: str
    quasienergy: float
    c_down: complex
    c_up: complex

    @property
    def norm(self) -> float:
        return abs(self.c_down) ** 2 + abs(self.c_up) ** 2


def qes_state(params: SystemParams, branch: str, t: float) -> QesState:
    """Quasienergetic state of the requested branch at time t (exact resonance)."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    s = 1.0 if branch == "plus" else -1.0
    decomposition = build_phase_decomposition(params)
    phi = decomposition.periodic_part(float(t))
    parity = 1.0 if params.order % 2 == 0 else -1.0
    phase = cmath.exp(1j * s * parity * phi)
    amplitude = phase / math.sqrt(2.0)
    return QesState(branch=branch, quasienergy=s * decomposition.quasienergy,
                    c_down=amplitude, c_up=s * amplitude)


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

    u = math.fmod(params.modulation * float(t), math.pi)
    if u < 0.0:
        u += math.pi
    f_u = _abs_cos_antiderivative(n, u)
    f_pi = float(special.beta(0.5, 0.5 * (n + 1)))
    phi_periodic = (0.5 * params.delta_gap / params.modulation) * scale * (
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
    gamma = 2.0 * params.modulation * np.asarray(t, dtype=float) + math.pi
    z1, z2 = params.z1, params.z2
    return np.sqrt(z1 * z1 + z2 * z2 - 2.0 * z1 * z2 * np.cos(gamma))


def graf_bessel_sum(z1: float, z2: float, gamma: float, order: int,
                    cutoff: int = 60) -> complex:
    """Truncated double-sided sum sum_k J_k(z1) J_{order+k}(z2) e^{i k gamma}."""
    total = 0.0 + 0.0j
    for k in range(-cutoff, cutoff + 1):
        total += bessel_j(k, z1) * bessel_j(order + k, z2) * cmath.exp(1j * k * gamma)
    return total


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
    n = params.order
    base = params.detuning * float(t) - n * math.pi
    if not full:
        return base
    gamma = 2.0 * params.modulation * float(t) + math.pi
    chi = math.atan2(params.z1 * math.sin(gamma),
                     params.z2 - params.z1 * math.cos(gamma))
    return base + n * params.modulation * float(t) + n * chi
