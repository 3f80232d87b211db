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
from scipy import integrate, special
from scipy.interpolate import CubicHermiteSpline

from .model import SystemParams
from .specfun import MAX_ARGUMENT, bessel_j

__all__ = [
    "QuadratureError",
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

PHASE_TABLE_SIZE = 4096  # 2**12 nodes per period for the sampled periodic part


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


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


def _half_order_bessel(order: int, ratio):
    """J_{N/2}(r): its square is the period-averaged coupling (``mean_bessel``)."""
    return special.jv(0.5 * order, ratio)


def _coupling_harmonics(order: int, ratio: float, n_max: int) -> np.ndarray:
    """G(0), ..., G(n_max) of J_N(2 r |cos u|) from integer-order Bessel products.

    G(n) = sum_k J_k(r) J_{N-k}(r) s(2k - N - 2n) (see ``fourier_phase``).
    |J_k(r)| < 1e-18 past |k| = span for every r <= MAX_ARGUMENT / 2, so the
    sum stops there; every factor has magnitude <= 1 and no term can overflow.
    """
    span = int(ratio + 15.0 * np.cbrt(ratio) + 20.0)
    k = np.arange(-span, order + span + 1)
    bessel = special.jv(k, ratio)
    products = bessel * bessel[::-1]  # J_k(r) J_{N-k}(r)
    j = (2 * k - order)[None, :] - 2 * np.arange(n_max + 1)[:, None]
    if order % 2 == 0:
        s = (j == 0).astype(float)
    else:
        s = np.where((j - 1) // 2 % 2, -2.0, 2.0) / (math.pi * j)
    return s @ products


def mean_bessel(params: SystemParams) -> float:
    """Period average of J_N(w(t)), in closed form J_{N/2}(A/omega_0)^2.

    The average is (2/pi) int_0^{pi/2} J_N(2 r cos u) du, which Neumann's
    product integral J_mu(z) J_nu(z) = (2/pi) int_0^{pi/2} J_{mu+nu}(2 z cos u)
    cos((mu - nu) u) du (DLMF 10.22) evaluates at mu = nu = N/2.  The average
    is therefore non-negative, and its zeros are those of J_{N/2}.
    """
    return float(_half_order_bessel(params.order, params.drive_ratio) ** 2)


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

    ``slope`` is (delta_gap/2) * mean_bessel, ``quasienergy`` is
    (-1)^N * slope, ``period`` is pi/delta and ``periodic_part`` evaluates the
    periodic remainder (zero at t = 0 and at every full period).
    """

    slope: float
    quasienergy: float
    period: float
    periodic_part: Callable[[np.ndarray], np.ndarray]

    def gamma_at(self, t):
        """Accumulated phase slope * t + periodic_part(t) (vectorised)."""
        return self.slope * np.asarray(t, dtype=float) + self.periodic_part(t)


@lru_cache(maxsize=64)
def _phase_decomposition_cached(params: SystemParams, size: int) -> PhaseDecomposition:
    period = params.period
    n = params.order
    edges = np.linspace(0.0, period, size + 1)
    # per-panel 10-point Gauss-Legendre cumulative integral of J_N(w(t));
    # the envelope kink at T/2 falls on a panel edge for even ``size``
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = mid + half * gl_x[None, :]
    values = bessel_j(n, effective_bessel_argument(params, nodes.ravel()))
    panel = (values.reshape(nodes.shape) * gl_w[None, :] * half).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(panel)))

    half_gap = 0.5 * params.delta_gap
    coupling_mean = cum[-1] / period
    slope = half_gap * coupling_mean
    phi = half_gap * cum - slope * edges
    phi[-1] = 0.0  # exact by construction; clear the last rounding residue
    dphi = half_gap * (bessel_j(n, effective_bessel_argument(params, edges)) - coupling_mean)
    spline = CubicHermiteSpline(edges, phi, dphi)

    def periodic_part(t):
        return spline(np.mod(np.asarray(t, dtype=float), period))

    sign = 1.0 if n % 2 == 0 else -1.0
    return PhaseDecomposition(slope=slope, quasienergy=sign * slope,
                              period=period, periodic_part=periodic_part)


def build_phase_decomposition(params: SystemParams,
                              table_size: int = PHASE_TABLE_SIZE) -> PhaseDecomposition:
    """Phase decomposition with a dense sampled periodic part.

    The periodic remainder is tabulated on ``table_size`` panels per period
    with exact nodal derivatives and evaluated through a cubic Hermite
    interpolant, so sweeps can query the phase cheaply; ``phase_gamma`` keeps
    an on-demand exact quadrature path beside it.
    """
    if table_size < 16:
        raise ValueError(f"table_size must be >= 16, got {table_size}")
    return _phase_decomposition_cached(params, int(table_size))


def phase_gamma(params: SystemParams, t: float) -> tuple[float, PhaseDecomposition]:
    """Accumulated phase gamma_N(t) by quadrature, plus its decomposition.

    gamma_N(t) = (delta_gap/2) int_0^t J_N(w(tau)) dtau evaluated panel-wise
    (full periods via the period average, the remainder by adaptive
    quadrature split at the envelope kink).
    """
    tf = float(t)
    if tf < 0.0:
        raise ValueError(f"phase_gamma requires t >= 0, got {t!r}")
    decomposition = build_phase_decomposition(params)
    period = params.period
    whole, rem = divmod(tf, period)
    n = params.order
    r = params.drive_ratio
    delta = params.modulation

    def integrand(tau: float) -> float:
        return bessel_j(n, 2.0 * r * abs(math.cos(delta * tau)))

    points = [0.5 * period] if rem > 0.5 * period else None
    tail, estimate = integrate.quad(integrand, 0.0, rem, points=points,
                                    epsabs=1e-13, epsrel=1e-13, limit=300)
    if estimate > 1e-9:
        raise QuadratureError("phase_gamma quadrature did not converge", estimate)
    gamma = 0.5 * params.delta_gap * (whole * period * mean_bessel(params) + tail)
    return gamma, decomposition


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
    raises ``ValueError`` past the Bessel domain, 2 r > ``specfun.MAX_ARGUMENT``.
    """
    if n_max != int(n_max) or int(n_max) < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    if 2.0 * params.drive_ratio > MAX_ARGUMENT:
        raise ValueError(f"envelope argument 2 A/omega_0 = {2.0 * params.drive_ratio!r} "
                         f"outside <= {MAX_ARGUMENT}")
    positive = _coupling_harmonics(params.order, params.drive_ratio, int(n_max))
    coefficients = np.concatenate((positive[:0:-1], positive))
    return FourierPhase(coefficients=coefficients, period=params.period)


def reconstruct_periodic_phase(phase: FourierPhase, delta_gap: float, t):
    """Periodic phase remainder rebuilt from the Fourier table.

    Phi(t) = (delta_gap/2) sum_{|n|>=1} G(n) (T / (i 2 pi n)) (e^{i 2 pi n t / T} - 1);
    conjugate symmetry collapses the sum to twice the real part over n >= 1.
    """
    tf = np.asarray(t, dtype=float)
    total = np.zeros_like(tf)
    period = phase.period
    for n in range(1, phase.n_max + 1):
        coeff = phase.coefficient(n) * period / (2j * math.pi * n)
        total = total + 2.0 * np.real(coeff * (np.exp(2j * math.pi * n * tf / period) - 1.0))
    return 0.5 * delta_gap * total


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
    phi = float(decomposition.periodic_part(float(t)))
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
