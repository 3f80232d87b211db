"""Time evolution: resonant closed forms, the reduced amplitude ODE in the
paper's form and in a corrected form, and the full Schrodinger oracle for
both coupling configurations.

Every evolution here is a 2x2 equation i y' = (b(t).sigma) y with a real
field b, given as the pair (w, z) = (b_x + i b_y, b_z), and one kernel
propagates them all: the fourth-order Magnus method (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)).  A step of length h is exp(-i c.sigma)
with c = (h/2)(b1 + b2) - (sqrt(3)/6) h^2 (b1 x b2), b1 and b2 taken at the
step's two Gauss-Legendre nodes; in the same form c is
w_c = (h/2)(w1 + w2) - (sqrt(3)/6) h^2 i (z1 w2 - z2 w1) and
z_c = (h/2)(z1 + z2) - (sqrt(3)/6) h^2 Im(conj(w1) w2).  Every SU(2) matrix
[[alpha, -conj(beta)], [beta, conj(alpha)]] is carried as its Cayley-Klein
pair (alpha, beta), its first column; a step is
(cos|c| - i sinc z_c, -i sinc w_c) with sinc = sin|c| / |c|, so the
propagation is unitary by construction, and the state (c1, c2) is itself
the pair at the head of the chain.

The window is cut into segments at every sample time, every node of
cos(delta t) (the kink of the paper's |cos| envelope) and, for the full
Hamiltonian, every carrier period.  Each segment takes the same number of
equal steps, multiplied pairwise; the segments are then chained in time
order.  The steps per segment double until two successive runs differ by
at most 15 tol at every sample, a sample's difference being the 2-norm of
its amplitude change, which a change of basis keeps (the Hadamard between
the z and x axes, so both runs stop at the same doubling).  Halving the
step of a fourth-order method cuts its error 16-fold, so ``tol`` bounds the
Richardson estimate of the global error of the returned amplitudes, as a
2-norm per sample.  The doubling starts at 1 step for the reduced and
corrected equations, whose field varies on the modulation scale: on a
densely sampled window their change from 1 to 2 steps is usually far below
15 tol already.  It starts at 2 for the full Hamiltonian: its segments span
up to a carrier period, which one step does not resolve, and its change
from 1 to 2 steps is far above 15 tol, so starting at 1 would only add a
doubling.  The steps are built in blocks, so memory does not grow with the
window.

Rounding sets the smallest reachable ``tol``, and it grows with the window
(about 1e-13 over 10^4 carrier periods).  ``IntegrationError`` is raised
once the change between doublings stops halving below the rounding bound
(eps times the steps taken), once the 16-fold rate would need more than 2^14
steps per segment to reach ``tol``, or past that budget.  ``initial`` states
must have unit norm within 1e-12.

The population traces are |c1|^2 and |c2|^2 of the propagated amplitudes;
``PopulationTrace`` checks that they sum to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .floquet import build_phase_decomposition, effective_bessel_argument
from .model import DETUNING_RATIO_WARN, SystemParams, check_real, drive_field
from .specfun import bessel_j

__all__ = [
    "IntegrationError",
    "AmplitudePair",
    "PopulationTrace",
    "XConfigPoint",
    "analytic_populations",
    "rabi_frequency",
    "evolve_reduced",
    "integrate_reduced",
    "evolve_corrected",
    "integrate_corrected",
    "evolve_full",
    "integrate_full",
    "xconfig_dynamics",
]

DEFAULT_TOL = 1.0e-9
_STEP_BUDGET = 2 ** 14  # steps per segment past which tol counts as unreachable
_BLOCK_STEPS = 2 ** 16  # steps held in memory at once
_GAUSS = math.sqrt(3.0) / 6.0  # Gauss-Legendre node offset, in steps


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
        self.times = np.asarray(self.times, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        self.p2 = np.asarray(self.p2, dtype=float)
        if not (self.times.shape == self.p1.shape == self.p2.shape) or self.times.ndim != 1:
            raise ValueError("times, p1, p2 must be 1-d arrays of equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
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
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if not (arr[0] >= 0 and math.isfinite(arr[-1])):
        raise ValueError("times must be finite and >= 0")
    # a NaN between finite ends fails the increase
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("times must be strictly increasing")
    return arr


def _trace(times, amplitudes: np.ndarray) -> PopulationTrace:
    """Populations |c1|^2, |c2|^2 of the amplitude rows (c1, c2) at ``times``."""
    c1, c2 = amplitudes
    return PopulationTrace(times=times, p1=np.abs(c1) ** 2, p2=np.abs(c2) ** 2)


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
    """Instantaneous population-oscillation rate (delta_gap/2) J_N(w(t))."""
    return 0.5 * params.delta_gap * bessel_j(params.order,
                                             effective_bessel_argument(params, t))


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


def integrate_reduced(params: SystemParams, times, tol: float = DEFAULT_TOL,
                      initial: AmplitudePair | None = None) -> PopulationTrace:
    """Populations |c1|^2, |c2|^2 of ``evolve_reduced`` at ``times``, from
    |down> (or ``initial``)."""
    return _trace(times, evolve_reduced(params, times, tol, initial))


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


def integrate_corrected(params: SystemParams, times, tol: float = DEFAULT_TOL,
                        initial: AmplitudePair | None = None) -> PopulationTrace:
    """Populations |c1|^2, |c2|^2 of ``evolve_corrected`` at ``times``, from
    |down> (or ``initial``)."""
    return _trace(times, evolve_corrected(params, times, tol, initial))


def _evolve_two_amplitude(params: SystemParams, times, tol: float,
                          initial: AmplitudePair | None, signed: bool,
                          detuning: float) -> np.ndarray:
    """i c1' = -(delta_gap/2) J_N(w) e^{-i alpha} c2 and its mirror, with
    w = 2 r cos(delta t) (``signed``) or 2 r |cos(delta t)| and
    alpha = detuning * t - N pi; as a generator b.sigma on (c1, c2), the
    field (w, z) = (b_x + i b_y, b_z) is
    (-(delta_gap/2) J_N(w) (-1)^N exp(i detuning t), 0)."""
    scale = -0.5 * params.delta_gap * (-1.0) ** params.order

    def field(t):
        c = np.cos(params.modulation * t)
        g = scale * bessel_j(params.order, 2.0 * params.drive_ratio * (c if signed else np.abs(c)))
        return g * np.exp(1j * detuning * t), 0.0

    return _propagate(field, params, times, tol, initial, carrier_edges=False)


# ---------------------------------------------------------------------------
# full Schrodinger oracle
# ---------------------------------------------------------------------------

def evolve_full(params: SystemParams, axis: str, times, tol: float = DEFAULT_TOL,
                initial: AmplitudePair | None = None) -> np.ndarray:
    """Integrate i d|psi>/dt = H(t)|psi> exactly; returns rows (c1, c2).

    H(t) is ``model.hamiltonian(params, axis, t)`` on the (c1, c2) = (down,
    up) ordering, i.e. b(t).sigma with the field (w, z) = (b_x + i b_y, b_z)
    equal to (-delta_gap/2, e(t)) on the z axis and (-e(t), delta_gap/2) on
    the x axis, e(t) = (epsilon0 + f(t))/2.
    It is propagated by the Magnus kernel of the module docstring, with step
    edges at every sample time, every node of cos(delta t) and every carrier
    period, so each segment spans at most one carrier period whatever the
    sampling.  ``tol`` bounds the estimated global error of the amplitudes
    at every sample, as a 2-norm; ``IntegrationError`` is raised when
    rounding or the budget of 2^14 steps per segment keeps it out of reach,
    which happens at larger ``tol`` the longer the window.
    """
    if axis not in ("z", "x"):
        raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")

    def field(t):
        e = 0.5 * (params.epsilon0 + drive_field(params, t))
        return (-0.5 * params.delta_gap, e) if axis == "z" else (-e, 0.5 * params.delta_gap)

    return _propagate(field, params, times, tol, initial, carrier_edges=True)


def integrate_full(params: SystemParams, axis: str, times, tol: float = DEFAULT_TOL,
                   initial: AmplitudePair | None = None) -> PopulationTrace:
    """Populations |c1|^2, |c2|^2 of ``evolve_full`` at ``times`` in the
    diabatic basis, from |down> (or ``initial``)."""
    return _trace(times, evolve_full(params, axis, times, tol, initial))


# ---------------------------------------------------------------------------
# Magnus propagator
# ---------------------------------------------------------------------------
# An SU(2) matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] is stored as its
# first column (alpha, beta), its Cayley-Klein pair; arrays of them are complex
# with the pair on axis 0.  A field b enters as (w, z) = (b_x + i b_y, b_z).

def _propagate(field, params: SystemParams, times, tol: float,
               initial: AmplitudePair | None, carrier_edges: bool) -> np.ndarray:
    """Amplitudes (c1, c2) at ``times`` of i y' = (b(t).sigma) y from
    y(0) = ``initial`` (default |down>); ``field(t)`` returns (w, z) for an
    array of times, each an array or a constant.  See the module docstring
    for the segments and the step doubling.
    """
    arr = _validate_times(times)
    check_real("tol", tol, ">", 0.0)
    if initial is not None and not abs(initial.norm - 1.0) <= 1e-12:
        raise ValueError(f"initial must have unit norm within 1e-12, got {initial.norm!r}")
    t_end = arr[-1]
    # rounding may put the last node a hair past t_end: a segment no sample reads
    edges = [[0.0], arr, np.arange(0.5, params.modulation * t_end / math.pi) * math.pi
             / params.modulation]
    if carrier_edges:
        edges.append(np.arange(1.0, params.carrier * t_end / (2.0 * math.pi)) * 2.0 * math.pi
                     / params.carrier)
    grid = np.unique(np.concatenate(edges))
    q = np.empty((2, grid.size), dtype=complex)
    # the state rides at the head of the chain as the pair (c1, c2)
    q[:, 0] = (1.0, 0.0) if initial is None else (initial.c1, initial.c2)
    # one step per segment resolves the slow reduced fields, not the full
    # one over a carrier period (module docstring)
    previous, change, steps = None, math.inf, 2 if carrier_edges else 1
    while steps <= _STEP_BUDGET:
        per_block = max(1, _BLOCK_STEPS // steps)
        for lo in range(0, grid.size - 1, per_block):
            q[:, lo + 1:lo + 1 + per_block] = _segment_propagators(
                field, grid[lo:lo + per_block + 1], steps)
        states = _running_products(q)[:, np.searchsorted(grid, arr)]
        if previous is not None:
            # the largest 2-norm of a sample's change, which a rotation of
            # the basis (the Hadamard between the z and x runs) keeps
            last, change = change, float(np.max(np.linalg.norm(states - previous, axis=0)))
            if change <= 15.0 * tol:
                return states
            # a doubling cuts a fourth-order change 16-fold once the steps
            # resolve the field.  Stop when the change no longer halves
            # although it is below eps times the steps taken, a bound on the
            # rounding (coarse steps that do not resolve the field can stall
            # too, at changes of order one), or when the 16-fold rate cannot
            # reach tol within the budget
            if last / 2 < change < np.finfo(float).eps * steps * grid.size:
                raise IntegrationError(f"tol {tol:g} is below the rounding of this window: "
                                       f"step doublings stall at a change of {change:.1e}")
            if steps * (change / (15.0 * tol)) ** 0.25 > _STEP_BUDGET:
                break
        previous, steps = states, 2 * steps
    raise IntegrationError(f"tol {tol:g} is not reached within {_STEP_BUDGET} steps per segment")


def _segment_propagators(field, edges: np.ndarray, steps: int) -> np.ndarray:
    """One pair per segment between successive ``edges``: the product of its
    ``steps`` equal fourth-order Magnus steps."""
    length = np.diff(edges)
    h = np.repeat(length / steps, steps)
    mid = (edges[:-1, None] + length[:, None] * ((np.arange(steps) + 0.5) / steps)).ravel()
    q = _magnus_step(*_magnus_exponent(h, *field(mid - _GAUSS * h), *field(mid + _GAUSS * h)))
    q = q.reshape(2, -1, steps)
    while q.shape[2] > 1:
        q = _mul(q[:, :, 1::2], q[:, :, 0::2], np.empty_like(q[:, :, 1::2]))
    # the rounding of cos|c| repeats with one sign over equal steps; left in,
    # it adds up to a norm drift of 1e-11 over a 10^4-period window.  The
    # real and imaginary parts are divided as reals: a complex division by a
    # real rounds twice and biases the norm, which doubles the drift
    v = q[:, :, 0].view(float).reshape(2, -1, 2)
    return (v / np.sqrt(np.sum(v * v, axis=(0, 2)))[:, None]).reshape(2, -1).view(complex)


def _magnus_exponent(h, w1, z1, w2, z2):
    """(w, z) of c = (h/2)(b1 + b2) - (sqrt(3)/6) h^2 (b1 x b2) for the
    fields (w1, z1) and (w2, z2) at a step's two nodes."""
    g = _GAUSS * h * h
    return (0.5 * h * (w1 + w2) - 1j * g * (z1 * w2 - z2 * w1),
            0.5 * h * (z1 + z2) - g * (np.conj(w1) * w2).imag)


def _magnus_step(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pairs of exp(-i c.sigma) for c = (Re w, Im w, z):
    (cos|c| - i sinc z, -i sinc w) with sinc = sin|c| / |c|, exactly 1 at
    |c| = 0, so exactly (1, 0) at c = 0.  The parts are written as reals
    into one pair array: -i sinc w = sinc Im w - i sinc Re w."""
    angle = np.sqrt(w.real ** 2 + w.imag ** 2 + z * z)
    sinc = np.ones_like(angle)
    np.divide(np.sin(angle), angle, out=sinc, where=angle != 0.0)
    q = np.empty((2,) + angle.shape, dtype=complex)
    np.cos(angle, out=q[0].real)
    np.multiply(sinc, w.imag, out=q[1].real)
    np.negative(sinc, out=sinc)
    np.multiply(sinc, z, out=q[0].imag)
    np.multiply(sinc, w.real, out=q[1].imag)
    return q


def _running_products(q: np.ndarray) -> np.ndarray:
    """Products q[:, k] ... q[:, 0] for every k, in place, by recursive
    doubling."""
    buf, shift, n = np.empty_like(q), 1, q.shape[1]
    while shift < n:
        q[:, shift:] = _mul(q[:, shift:], q[:, :-shift], buf[:, :n - shift])
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
    if not 0 < abs(delta_mod) < math.inf:
        raise ValueError(f"delta_mod must be finite and nonzero, got {delta_mod!r}")
    theta = (v / delta_mod) * math.sin(delta_mod * float(t))
    return XConfigPoint(p_up=math.sin(theta) ** 2,
                        qes_plus=cmath.exp(1j * theta),
                        qes_minus=cmath.exp(-1j * theta))
