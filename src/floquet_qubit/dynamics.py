"""Time evolution: resonant closed forms, the reduced amplitude ODE in the
paper's form and in a corrected form, and the full Schrodinger oracle for
both coupling configurations.

Every evolution here is a 2x2 equation i y' = (b(t).sigma) y with a real
field b = (b_x, 0, b_z), given as the pair (b_x, b_z), and one kernel
propagates them all: the sixth-order Magnus method of Blanes, Casas, Oteo &
Ros (Phys. Rep. 470, 151 (2009)).  A step of length h is exp(-i c.sigma),
with b1, b2, b3 the field at the step's three Gauss-Legendre nodes
(1/2 - sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10 of the step).  Their
alpha1 = h A2, alpha2 = (sqrt(15)/3) h (A3 - A1), alpha3 = (10/3) h (A3 -
2 A2 + A1) with A = -i b.sigma, C1 = [alpha1, alpha2], C2 = -[alpha1,
2 alpha3 + C1]/60 and Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 +
C1, alpha2 + C2]/240 = -i c.sigma turn into vectors, because
[-i u.sigma, -i v.sigma] = -i (2 u x v).sigma: with p = b2,
q = (sqrt(15)/3)(b3 - b1), r = (10/3)(b3 - 2 b2 + b1) and k = 2 h p x q,
c = h (p + r/12 + (h/120) (k - r - 20 p) x (q - (h/30) p x (2 r + k))).
p, q and r lie in the xz plane, so k = 2 h (p_z q_x - p_x q_z) lies along
y, and c is real arithmetic on three components.  A field component that
does not change in time is passed as a constant.  Every SU(2) matrix
[[alpha, -conj(beta)], [beta, conj(alpha)]] is carried as its Cayley-Klein
pair (alpha, beta), its first column; a step is
(cos|c| - i sinc c_z, sinc c_y - i sinc c_x) with sinc = sin|c| / |c|, so
the propagation is unitary by construction.  The chain starts at the
identity (1, 0), so its products are the pairs of the propagator U(t) at
the samples; their first column is the state from |down>, and an
``initial`` state psi is applied once, as U psi.

A field that repeats after a period T is propagated over half a period
only, once the window reaches T/2.  By Floquet's theorem U(nT + tau) =
U(tau) U(T)^n (Shirley, Phys. Rev. 138, B979 (1965)), and every field
given a period here is even about T/2, b(T - t) = b(t), so, the field
being real, time reversal gives U(T) = U(T/2)^T U(T/2) and, for
tau > T/2, U(tau) = conj(U(T - tau)) U(T).  The Gauss-Legendre Magnus step
is symmetric in time, so this is the same discretisation as a chain over
the whole period.  Each sample t is folded into tau = t - nT in (0, T]; a
tau past T/2 is mirrored to T - tau and takes conj(U(T - tau)) U(T)^(n+1).
In pair form the transpose of (alpha, beta) is (alpha, -conj beta) and the
conjugate is (conj alpha, conj beta).  U(T)^n is closed-form,
(cos n theta + i s Im alpha, s beta) with cos theta = Re alpha,
sin theta = |(Im alpha, beta)| and s = sin(n theta) / sin(theta), the
Chebyshev U_{n-1}(cos theta).  The reduced equations repeat after
pi/delta, the corrected ones after pi/delta for even N and 2 pi/delta for
odd N (the signed envelope flips sign), and the full Hamiltonian, when
omega_0 = q delta, after pi/delta for odd q and 2 pi/delta for even q.
For a window in [T/2, T) every n is 0.  A full field with omega_0/delta no
integer (such as criterion 8's random delta), or a window shorter than
T/2, folds nothing: the chain covers [0, t_end] and every n is 0.  Folded
times within 4 eps t_end of each other (the rounding of the samples, of
t - nT and of T - tau) share one grid point, and those that close to
either end of the chain are that end, so a sample at a whole or half
period adds no segment.  A window whose rounding 4 eps t_end reaches the
folded period or the edge spacing, whichever is shorter, raises
``IntegrationError`` before any edge is built: the folded samples, or the
edges, would merge.

The chain, [0, T/2] or [0, t_end], is cut into segments at every folded
sample and at every multiple of an edge spacing: the carrier period
2 pi/omega_0 for the full Hamiltonian, none for the reduced and corrected
equations.  Each field is smooth between those edges: the kink of the
paper's |cos(delta t)| envelope sits at T/2 + nT, which is the folded
chain's end or, for a window shorter than T/2, past it.  Each segment
takes the same number of equal steps, multiplied pairwise; the segments
are then chained in time order, and each sample takes its power of U(T).
The steps per segment double, from 1, until two successive runs differ
by at most 63 tol at every sample, a sample's difference being the
2-norm of the change of the composed U|down>, which a change of basis
keeps (the Hadamard between the z and x axes, so both runs stop at the
same doubling).  The runs of 1 and 2 steps are built together, in one
field call, and chained side by side.  The difference of two SU(2)
matrices is a multiple of a unitary, so that 2-norm is the change of
U psi for every unit psi, and the operator norm of the change of U.
Halving the step of a sixth-order method cuts its error 64-fold, so the
change is 63 times the error of the finer run, and ``tol`` bounds the
Richardson estimate of the global error of U at every sample, in the
operator norm: the same bound holds for the amplitudes from every initial
state.  Every equation starts at 1 step: when one step per segment does
not resolve the field, that level costs one step per segment against
2S - 1 for the run that ends at S steps.  The steps are built in blocks,
so memory does not grow with the window.

Rounding sets the smallest reachable ``tol``, and it grows with the steps
behind a sample: over 10^4 carrier periods the change between doublings
stalls at about 1e-11 on a chain over the whole window and 3e-13 on the
folded half-period chain of a criterion-3 window (2.5 periods).
``IntegrationError`` is raised once the change falls less than 8-fold in
a doubling while below the rounding bound, eps times the steps behind the
last sample (its n + 1 periods of the chain, two chains each when
folded): the 64-fold rate leaves at most 1/8 truncation in such a change,
and the rounding in the rest does not shrink with finer steps.  It is
also raised once the 64-fold rate would need more than 2^14 steps per
segment to reach ``tol`` (steps * (change / (63 tol))^(1/6)); a change
that is not finite (an overflowed field) fails that test at the first
doubling.  ``initial`` states must have unit norm within 1e-12, checked
before anything is propagated.

The population traces are |c1|^2 and |c2|^2 of the propagated amplitudes;
``PopulationTrace`` checks that they sum to 1.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .floquet import build_phase_decomposition
from .model import DETUNING_RATIO_WARN, SystemParams, check_real, check_times, drive_field
from .specfun import bessel_series

__all__ = [
    "IntegrationError",
    "AmplitudePair",
    "PopulationTrace",
    "XConfigPoint",
    "analytic_populations",
    "rabi_frequency",
    "evolve_reduced",
    "evolve_corrected",
    "evolve_full",
    "xconfig_dynamics",
]

DEFAULT_TOL = 1.0e-9
_EPS = sys.float_info.epsilon
_STEP_BUDGET = 2 ** 14  # steps per segment past which tol counts as unreachable
_BLOCK_STEPS = 2 ** 14  # steps held in memory at once
# Gauss-Legendre nodes about a step's midpoint, in steps
_NODES = np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


class IntegrationError(RuntimeError):
    """The propagation cannot reach ``tol``: rounding or the step budget
    stops it."""


@dataclass(frozen=True)
class AmplitudePair:
    """Complex amplitudes on the diabatic basis: c1 on |down>, c2 on |up>."""

    c1: complex
    c2: complex

    @property
    def norm(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


@dataclass
class PopulationTrace:
    """Sampled occupation probabilities: p1 for |down>, p2 for |up>."""

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        self.times = _validate_times(self.times)
        self.p1 = np.asarray(self.p1, dtype=float)
        self.p2 = np.asarray(self.p2, dtype=float)
        if not self.times.shape == self.p1.shape == self.p2.shape:
            raise ValueError("times, p1, p2 must be 1-d arrays of equal length")
        if not (np.all(self.p1 >= -1e-9) and np.all(self.p1 <= 1 + 1e-9)):
            raise ValueError("p1 outside [0, 1]")
        if not np.all(np.abs(self.p1 + self.p2 - 1.0) <= 1e-8):
            raise ValueError("p1 + p2 must sum to 1 within 1e-8")


@dataclass(frozen=True)
class XConfigPoint:
    """Transition-coupled configuration at one time: excited population and
    the two periodic branch phases (their quasienergies vanish identically)."""

    p_up: float
    qes_plus: complex
    qes_minus: complex


def _validate_times(times) -> np.ndarray:
    arr = check_times("times", times, ">=", 0.0)
    if np.ndim(arr) != 1 or arr.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("times must be strictly increasing")
    return arr


def analytic_populations(params: SystemParams, times) -> PopulationTrace:
    """Closed-form resonant populations P1 = cos^2(gamma_N), P2 = sin^2(gamma_N).

    Valid at exact resonance with the system starting in |down>; raises if
    the detuning exceeds the validator threshold.
    """
    if abs(params.detuning) > DETUNING_RATIO_WARN * abs(params.epsilon0):
        raise ValueError(
            f"analytic_populations requires near-exact resonance; detuning "
            f"{params.detuning:.3g} exceeds {DETUNING_RATIO_WARN:.0%} of epsilon0"
        )
    arr = _validate_times(times)
    gamma = build_phase_decomposition(params).gamma_at(arr)
    return PopulationTrace(times=arr, p1=np.cos(gamma) ** 2, p2=np.sin(gamma) ** 2)


def rabi_frequency(params: SystemParams, t):
    """Instantaneous population-oscillation rate (delta_gap/2) J_N(w(t)),
    the time derivative of ``PhaseDecomposition.gamma_at``, for a time or an
    array of them, each finite (``model.check_times``): the series
    ``specfun.bessel_series`` at R = A/omega_0, scaled by delta_gap/2 and
    summed at |cos(delta t)|, so each time's rate is the same bits alone or
    in any array.  The signed tunnelling amplitude of the reduced equations
    is (-1)^(N+1) times it, to the bit (``_evolve_two_amplitude``)."""
    series = 0.5 * params.delta_gap * bessel_series(params.order, params.drive_ratio)
    return chebyshev.chebval(np.abs(np.cos(params.modulation * check_times("t", t))), series)


# ---------------------------------------------------------------------------
# reduced two-amplitude system
# ---------------------------------------------------------------------------

def evolve_reduced(params: SystemParams, times, tol: float = DEFAULT_TOL,
                   initial: AmplitudePair | None = None) -> np.ndarray:
    """Propagate the reduced amplitude equations; returns rows (c1, c2).

    i c1' = -(delta_gap/2) J_N(w) e^{-i alpha} c2 and its mirror, with
    w(t) = 2 (A/omega_0) |cos(delta t)| and alpha(t) = detuning * t - N pi.
    Supports nonzero detuning.  This is the paper's reduction, the one
    ``analytic_populations`` solves in closed form; ``evolve_corrected``
    keeps what it drops.
    """
    return _evolve_two_amplitude(params, times, tol, initial,
                                 signed=False, detuning=params.detuning)


def evolve_corrected(params: SystemParams, times, tol: float = DEFAULT_TOL,
                     initial: AmplitudePair | None = None) -> np.ndarray:
    """Reduced amplitude equations with the signed envelope and the level shift.

    Same equations as ``evolve_reduced`` with two changes; returns rows
    (c1, c2).

    Signed envelope.  In the frame that removes the diagonal part of the
    z-configuration Hamiltonian the tunnelling term carries
    exp(i int f) = sum_{k,m} J_k(z2) J_m(z1) e^{i(k omega_- + m omega_+) t}
    (Jacobi-Anger, with z1 = A/omega_+, z2 = A/omega_-).  The N-photon
    terms sum to sum_k J_k(r) J_{N-k}(r) e^{i(2k-N) delta t} = J_N(2 r cos
    delta t) for z1 = z2 = r = A/omega_0 (product of the two generating
    functions; ``graf_closed_form`` keeps z1 != z2).  The envelope is
    therefore J_N(2 r cos(delta t)), which for odd N changes sign at every
    node of cos(delta t); the |cos| form of ``evolve_reduced`` drops that
    sign.  For even N the two envelopes are equal.

    Level shift.  The reduction keeps only the N-photon harmonic of the
    tunnelling term; the dominant term it drops is the zero-photon one, the
    static tunnelling -(delta_gap/2) sigma_x off-resonant by epsilon0.  To
    second order it repels the two levels, which turns the splitting
    epsilon0 into sqrt(epsilon0^2 + delta_gap^2) = epsilon0 +
    delta_gap^2 / (2 epsilon0) + O(delta_gap^4 / epsilon0^3) (the static
    Bloch-Siegert shift).  The splitting enters the reduced equations only
    through the detuning epsilon0 - N omega_0, so the detuning becomes
    ``params.detuning + delta_gap**2 / (2 epsilon0)``; the shift has the
    sign of epsilon0 because the repulsion widens |epsilon0|.  The
    n-photon sidebands add shifts of relative order r^2, which are dropped.
    When (delta_gap/2) J_N is comparable to this shift (even N, weak drive)
    the paper's reduction is detuned off resonance and this one is not.

    Raises ``ValueError`` for epsilon0 == 0, where the shift is undefined.
    """
    if params.epsilon0 == 0.0:
        raise ValueError("evolve_corrected requires epsilon0 != 0")
    shift = params.delta_gap ** 2 / (2.0 * params.epsilon0)
    return _evolve_two_amplitude(params, times, tol, initial,
                                 signed=True, detuning=params.detuning + shift)


def _evolve_two_amplitude(params: SystemParams, times, tol: float,
                          initial: AmplitudePair | None, signed: bool,
                          detuning: float) -> np.ndarray:
    """i c1' = -(delta_gap/2) J_N(w) e^{-i alpha} c2 and its mirror, with
    w = 2 r cos(delta t) (``signed``) or 2 r |cos(delta t)| and
    alpha = detuning * t - N pi; as a generator b.sigma on (c1, c2), the
    field is g (cos(detuning t), sin(detuning t), 0) with
    g = (-1)^(N+1) (delta_gap/2) J_N(w), the signed tunnelling amplitude.
    It is propagated in the frame rotating with R = exp(-i detuning t
    sigma_z / 2), where the field is the real (b_x, b_z) = (g,
    -detuning/2), and the amplitudes are turned back by R at the
    samples."""
    # g as a Chebyshev series in t = cos(delta t) or |cos(delta t)|, built once
    series = -0.5 * params.delta_gap * (-1.0) ** params.order * bessel_series(
        params.order, params.drive_ratio)

    def field(t):
        c = np.cos(params.modulation * t)
        return chebyshev.chebval(c if signed else np.abs(c), series), -0.5 * detuning

    # the |cos| envelope repeats after pi/delta, the signed one after
    # 2 pi/delta for odd N, where it flips sign; both are even about half
    # their period
    period = params.period * (2.0 if signed and params.order % 2 else 1.0)
    amps = _propagate(field, times, tol, period, None, initial)
    turn = np.exp(-0.5j * detuning * np.asarray(times, dtype=float))
    return amps * np.array([turn, np.conj(turn)])


# ---------------------------------------------------------------------------
# full Schrodinger oracle
# ---------------------------------------------------------------------------

def evolve_full(params: SystemParams, axis: str, times, tol: float = DEFAULT_TOL,
                initial: AmplitudePair | None = None) -> np.ndarray:
    """Integrate i d|psi>/dt = H(t)|psi> exactly; returns rows (c1, c2).

    H(t) is ``model.hamiltonian(params, axis, t)`` on the (c1, c2) = (down,
    up) ordering, i.e. b(t).sigma with the real field (b_x, b_z) equal to
    (-delta_gap/2, e(t)) on the z axis and (-e(t), delta_gap/2) on the x
    axis, e(t) = (epsilon0 + f(t))/2.
    It is propagated by the Magnus kernel of the module docstring, with step
    edges at every sample time and every carrier period 2 pi/omega_0, so
    each segment spans at most one carrier period whatever the sampling.
    When omega_0 = q delta (within 4 eps) the field repeats after pi/delta
    for odd q and 2 pi/delta for even q, and is even about the middle of
    that period, so a window that reaches half of it propagates only that
    half, the samples folded into it and composed with powers of the
    period's propagator; any other ratio, or a shorter window, is
    propagated over the whole window.  ``IntegrationError`` is raised when
    4 eps t_end reaches the folded period or the carrier period.
    ``tol`` bounds the estimated global error of the amplitudes
    at every sample, as a 2-norm, from every initial state;
    ``IntegrationError`` is raised when rounding or the budget of 2^14 steps
    per segment keeps it out of reach, which happens at larger ``tol`` the
    longer the window.
    """
    if axis not in ("z", "x"):
        raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")

    def field(t):
        e = 0.5 * (params.epsilon0 + drive_field(params, t))
        return (-0.5 * params.delta_gap, e) if axis == "z" else (-e, 0.5 * params.delta_gap)

    # for omega_0 = q delta, f(t + pi/delta) = (-1)^(q+1) f(t): the field
    # repeats after that T, pi/delta for odd q and 2 pi/delta for even q,
    # with f(T - t) = f(t).  The remainders omega_0 - q delta and
    # omega_0 - 2 m delta are exact
    period = None
    if abs(math.remainder(params.carrier, params.modulation)) <= 4.0 * _EPS * params.carrier:
        even = abs(math.remainder(params.carrier, 2.0 * params.modulation)) < params.modulation / 2
        period = params.period * (2.0 if even else 1.0)
    return _propagate(field, times, tol, period, 2.0 * math.pi / params.carrier, initial)


# ---------------------------------------------------------------------------
# Magnus propagator
# ---------------------------------------------------------------------------
# An SU(2) matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] is stored as its
# first column (alpha, beta), its Cayley-Klein pair; arrays of them are complex
# with the pair on axis 0.  A field b enters as the real pair (b_x, b_z), b_y = 0.

def _propagate(field, times, tol: float, period: float | None, spacing: float | None,
               initial: AmplitudePair | None) -> np.ndarray:
    """Amplitude rows (c1, c2) at ``times`` of i y' = (b(t).sigma) y: U(t) psi
    for psi = ``initial``, which must have unit norm within 1e-12, or for
    None the pairs of the propagator U(t) itself, U(0) = 1, whose first
    column is the state from |down>.  ``times``, ``tol`` and ``initial``
    are checked before anything is propagated.  ``field(t)`` returns the
    real pair (b_x, b_z) for an array of times, each an array or a
    constant.  It must be smooth between the samples and the multiples of
    ``spacing`` (None for no such edges), and, if it repeats after
    ``period`` (None if it does not), even about half of it,
    field(T - t) = field(t), and smooth on (0, T/2).  See the module
    docstring for the fold, the segments and the step doubling.
    """
    arr = _validate_times(times)
    check_real("tol", tol, ">", 0.0)
    if initial is not None and not abs(initial.norm - 1.0) <= 1e-12:
        raise ValueError(f"initial must have unit norm within 1e-12, got {initial.norm!r}")
    t_end = arr[-1]
    # a field folds from half its period on: the chain stops at T/2 and a
    # sample past it takes U(tau) = conj(U(T - tau)) U(T)
    folded = period is not None and t_end >= 0.5 * period
    span = period if folded else t_end
    end = 0.5 * span if folded else span
    # points within a few ulps of t_end (the rounding of the samples and of
    # t - n T) share one grid point, and those next to 0 or the end of the
    # chain are 0 or that end
    merge = 4.0 * _EPS * t_end
    scale = min(span if folded else math.inf, spacing or math.inf)
    if scale <= merge:
        raise IntegrationError(f"window t_end = {t_end:g} is too long: the rounding of its "
                               f"times, {merge:.1e}, reaches its period or edge spacing "
                               f"{scale:.6g}")
    # t = n T + tau with tau in (0, T]; a window that does not fold has n = 0
    n = np.maximum(np.ceil(arr / span) - 1.0, 0.0) if folded else np.zeros(arr.size)
    tau = arr - n * span
    back = tau > end
    tau[back] = span - tau[back]
    edges = [[0.0, end], tau]
    if spacing is not None:
        edges.append(np.arange(1.0, end / spacing) * spacing)
    points = np.clip(np.concatenate(edges), 0.0, end)
    points[points <= merge] = 0.0
    points[points >= end - merge] = end
    ordered = np.sort(points)
    grid = ordered[np.diff(ordered, prepend=-math.inf) > merge]
    # the folded samples follow 0 and the end; each takes the grid point that heads its run
    samples = np.searchsorted(grid, points[2:2 + arr.size] + merge, side="right") - 1
    # the distinct powers of U(T), and which of them each sample takes
    periods, which = np.unique(n + back, return_inverse=True)
    # eps times the steps behind the last sample bounds its rounding: a
    # folded U(T) is two chains, and its power multiplies their rounding by n
    rounding = _EPS * grid.size * (2.0 if folded else 1.0) * (periods[-1] + 1)
    # the first pass runs 1 and 2 steps per segment through one field call
    levels, previous, change = (1, 2), None, math.inf
    while True:
        q = np.empty((2, len(levels), grid.size), dtype=complex)
        q[:, :, 0] = [[1.0], [0.0]]  # the identity heads each chain
        per_block = max(1, _BLOCK_STEPS // sum(levels))
        for lo in range(0, grid.size - 1, per_block):
            q[:, :, lo + 1:lo + 1 + per_block] = _segment_propagators(
                field, grid[lo:lo + per_block + 1], levels)
        u = _running_products(q)
        ends = u[:, :, -1]
        if folded:  # U(T) = U(T/2)^T U(T/2); the transpose of (a, b) is (a, -conj b)
            ends = _mul(np.array([ends[0], -np.conj(ends[1])]), ends, np.empty_like(ends))
        # np.take gathers several times faster than fancy indexing
        at = np.take(u, samples, axis=2)
        np.conjugate(at, out=at, where=back)
        for level, steps in enumerate(levels):
            powers = np.take(_power(ends[:, level], periods), which, axis=1)
            pairs = _mul(at[:, level], powers, np.empty_like(powers))
            if previous is not None:
                # the largest 2-norm of a sample's change of U|down>, which is
                # the operator norm of the change of U, so the change of U psi
                # for every unit psi, and which a rotation of the basis (the
                # Hadamard between the z and x runs) keeps
                last, change = change, float(np.max(np.linalg.norm(pairs - previous, axis=0)))
                if change <= 63.0 * tol:
                    return pairs if initial is None else _mul(
                        pairs, np.array([initial.c1, initial.c2], dtype=complex),
                        np.empty_like(pairs))
                # a doubling cuts a sixth-order change 64-fold once the steps
                # resolve the field, so a change that falls less than 8-fold
                # holds at most 1/8 truncation (last/64 < change/8): the rest is
                # rounding, which finer steps do not remove.  Stop there if the
                # change is below the rounding bound (coarse steps that do not
                # resolve the field can stall too, at changes of order one), or
                # when the 64-fold rate cannot reach tol within the budget, which
                # a change that is not finite (an overflowed field) fails at once
                if last / 8 < change < rounding * steps:
                    raise IntegrationError(f"tol {tol:g} is below the rounding of this window: "
                                           f"step doublings stall at a change of {change:.1e}")
                if not steps * (change / (63.0 * tol)) ** (1.0 / 6.0) <= _STEP_BUDGET:
                    raise IntegrationError(f"tol {tol:g} is not reached within {_STEP_BUDGET} "
                                           f"steps per segment")
            previous = pairs
        levels = (2 * levels[-1],)


def _power(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Pairs of U^n for one pair u = (alpha, beta) and integers n >= 0:
    (cos n theta + i s Im alpha, s beta) with cos theta = Re alpha,
    sin theta = |(Im alpha, beta)| and s = sin(n theta) / sin(theta), the
    Chebyshev U_{n-1}(cos theta).  theta is taken by atan2, so the powers
    are unitary even when u is off the unit sphere by rounding; at
    sin theta = 0, u = +-1 and s multiplies zeros, so s = 0 there."""
    alpha, beta = u
    sin = math.hypot(alpha.imag, abs(beta))
    angle = n * math.atan2(sin, alpha.real)
    s = np.sin(angle) / sin if sin > 0.0 else np.zeros(angle.shape)
    return np.array([np.cos(angle) + 1j * alpha.imag * s, beta * s])


def _segment_propagators(field, edges: np.ndarray, levels: tuple) -> np.ndarray:
    """Pairs, shape (2, len(levels), segments): for each step count in
    ``levels``, one pair per segment between successive ``edges``, the
    product of that many equal sixth-order Magnus steps.  The steps of every
    level go through one field call."""
    length = np.diff(edges)
    h = np.concatenate([np.repeat(length / steps, steps) for steps in levels])
    mid = np.concatenate([
        (edges[:-1, None] + length[:, None] * ((np.arange(steps) + 0.5) / steps)).ravel()
        for steps in levels])
    # the three Gauss-Legendre nodes of every step, one row each, in one call
    q = _magnus_step(*_magnus_exponent(h, *field(mid + _NODES[:, None] * h)))
    products, start = np.empty((2, len(levels), length.size), dtype=complex), 0
    for level, steps in enumerate(levels):
        p = q[:, start:start + steps * length.size].reshape(2, -1, steps)
        start += steps * length.size
        while p.shape[2] > 1:
            p = _mul(p[:, :, 1::2], p[:, :, 0::2], np.empty_like(p[:, :, 1::2]))
        products[:, level] = p[:, :, 0]
    # the rounding of cos|c| repeats with one sign over equal steps; left in,
    # it adds up to a norm drift of 1e-11 over a 10^4-period window.  The
    # real and imaginary parts are divided as reals: a complex division by a
    # real rounds twice and biases the norm, which doubles the drift.
    # |alpha|^2 + |beta|^2 by explicit adds: a two-axis np.sum gives the
    # same bits at ten times the cost
    v = products.view(float).reshape(2, len(levels), -1, 2)
    s = v * v
    norm = np.sqrt((s[0, ..., 0] + s[0, ..., 1]) + (s[1, ..., 0] + s[1, ..., 1]))
    return (v / norm[..., None]).reshape(2, len(levels), -1).view(complex)


def _magnus_exponent(h, x, z):
    """(c_x, c_y, c_z) of the sixth-order exponent
    c = h (p + r/12 + (h/120) (k - r - 20 p) x (q - (h/30) p x (2 r + k)))
    for the real field (x, z) = (b_x, b_z) at a step's three nodes b1, b2,
    b3, each component an array with one row per node or a constant, with
    p = b2, q = (sqrt(15)/3)(b3 - b1), r = (10/3)(b3 - 2 b2 + b1) and
    k = 2 h p x q (module docstring).  p, q and r lie in the xz plane, where
    u x v = (0, u_z v_x - u_x v_z, 0), so k lies along y."""
    (x1, x2, x3), (z1, z2, z3) = (b if np.ndim(b) else (b, b, b) for b in (x, z))
    s, t = math.sqrt(15.0) / 3.0, 10.0 / 3.0
    qx, qz = s * (x3 - x1), s * (z3 - z1)
    rx, rz = t * (x3 + x1) - 2.0 * t * x2, t * (z3 + z1) - 2.0 * t * z2
    k = 2.0 * h * (z2 * qx - qz * x2)
    # m = q - (h/30) p x (2 r + k), p x (2 r + k) = (-z2 k, 2 (z2 rx - rz x2), x2 k)
    g = h / 30.0
    mx, my, mz = qx + g * (z2 * k), -(g * (z2 * (2.0 * rx) - (2.0 * rz) * x2)), qz - g * (x2 * k)
    # c = h (p + r/12 + (h/120) l x m) with l = k - r - 20 p = (lx, k, lz)
    lx, lz = -rx - 20.0 * x2, -rz - 20.0 * z2
    g = h / 120.0
    return (h * (x2 + rx / 12.0 + g * (mz * k - lz * my)), h * (g * (lz * mx - mz * lx)),
            h * (z2 + rz / 12.0 + g * (lx * my - k * mx)))


def _magnus_step(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pairs of exp(-i c.sigma) for c = (x, y, z):
    (cos|c| - i sinc z, sinc y - i sinc x) with sinc = sin|c| / |c|, exactly
    1 at |c| = 0, so exactly (1, 0) at c = 0.  The parts are written as
    reals into one pair array."""
    angle = np.sqrt(x * x + y * y + z * z)
    sinc = np.ones_like(angle)
    np.divide(np.sin(angle), angle, out=sinc, where=angle != 0.0)
    q = np.empty((2,) + angle.shape, dtype=complex)
    np.cos(angle, out=q[0].real)
    np.multiply(sinc, y, out=q[1].real)
    np.negative(sinc, out=sinc)
    np.multiply(sinc, z, out=q[0].imag)
    np.multiply(sinc, x, out=q[1].imag)
    return q


def _running_products(q: np.ndarray) -> np.ndarray:
    """Products q[..., k] ... q[..., 0] for every k along the last axis, in
    place, by recursive doubling."""
    buf, shift, n = np.empty_like(q), 1, q.shape[-1]
    while shift < n:
        q[..., shift:] = _mul(q[..., shift:], q[..., :-shift], buf[..., :n - shift])
        shift *= 2
    return q


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pair products a b (the matrix of b acts first), written into ``out``:
    (a0 b0 - conj(a1) b1, a1 b0 + conj(a0) b1)."""
    np.multiply(a[0], b[0], out=out[0])
    out[0] -= np.conj(a[1]) * b[1]
    np.multiply(a[1], b[0], out=out[1])
    out[1] += np.conj(a[0]) * b[1]
    return out


# ---------------------------------------------------------------------------
# transition-coupled (x axis) closed forms
# ---------------------------------------------------------------------------

def xconfig_dynamics(v: float, delta_mod: float, t: float) -> XConfigPoint:
    """Rotating-frame closed forms for the transition-coupled configuration.

    At one-quantum resonance the propagator is
    exp(-i (v/delta) sin(delta t) sigma_x); from |down> the excited population
    is sin^2((v/delta) sin(delta t)) and the adiabatic branches carry the pure
    periodic phases e^{+-i (v/delta) sin(delta t)}.  ``v`` is the amplitude of
    the resonant rotating-frame coupling (half the per-component drive
    amplitude of the lab-frame field).
    """
    check_real("delta_mod", abs(delta_mod), ">", 0.0)
    check_real("v", v, ">", -math.inf)
    tf = float(check_real("t", t, ">", -math.inf))
    theta = (v / delta_mod) * math.sin(delta_mod * tf)
    return XConfigPoint(p_up=math.sin(theta) ** 2,
                        qes_plus=cmath.exp(1j * theta),
                        qes_minus=cmath.exp(-1j * theta))
