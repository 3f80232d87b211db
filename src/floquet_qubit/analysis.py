"""Derived physics: quasienergy zeros, periodic-oscillation conditions,
trace-level periodicity verification, and probe spectral-line catalogs."""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .dynamics import PopulationTrace
from .floquet import mean_bessel, quasienergy
from .model import SystemParams, check_count, check_real
from .specfun import MAX_ARGUMENT, bessel_span, check_domain

__all__ = [
    "PeriodicityResult",
    "quasienergy_zeros",
    "periodicity_residual",
    "solve_periodic_ratio",
    "trace_periodicity_check",
    "spectral_lines",
    "xconfig_spectral_lines",
]

ZERO_SCAN_STEP = 0.02
ZERO_REFINE_TOL = 1.0e-4
PERIODICITY_RESIDUAL_TOL = 1.0e-3
DEFAULT_WEIGHT_THRESHOLD = 1.0e-8


@dataclass(frozen=True)
class PeriodicityResult:
    """Deviation of m |E_N| from n delta, in units of delta."""

    m: int
    n: int
    residual: float
    is_periodic: bool


def quasienergy_zeros(params_base: SystemParams, ratio_min: float, ratio_max: float,
                      tol: float = ZERO_REFINE_TOL) -> list[float]:
    """All zeros of A/omega_0 -> E_N inside [ratio_min, ratio_max].

    E_N is proportional to J_{N/2}(A/omega_0)^2 (``floquet.mean_bessel``), so
    it touches zero without changing sign exactly where J_{N/2} changes sign.
    A fixed-step scan of J_{N/2} brackets those sign changes and ``brentq``
    refines each to ``tol``.  The scan reaches ``tol`` past either edge and
    reports a zero found there on the edge, so a zero on an edge is found
    whichever side its rounded value falls.  The undriven point A = 0 is
    never reported, and a zero tunneling gap (E_N identically zero) gives no
    zeros.  The window must lie in the Bessel domain of ``fourier_phase``,
    2 ratio_max <= ``specfun.MAX_ARGUMENT``, which caps the scan at about
    25 000 points, and the order must too: ``ValueError`` outside
    ``specfun.check_domain``, as ``quasienergy`` raises.
    """
    check_real("ratio_min", ratio_min, ">=", 0.0)
    check_real("ratio_max", ratio_max, ">", ratio_min)
    if 2.0 * ratio_max > MAX_ARGUMENT:
        raise ValueError(f"ratio_max must satisfy 2 ratio_max <= {MAX_ARGUMENT:g}, "
                         f"got {ratio_max!r}")
    check_domain(params_base.order, ratio_max)
    check_real("tol", tol, ">", 0.0)
    if params_base.delta_gap == 0.0:
        return []

    order = params_base.order
    lo, hi = max(ratio_min - tol, 0.0), ratio_max + tol
    grid = np.linspace(lo, hi, int(math.ceil((hi - lo) / ZERO_SCAN_STEP)) + 1)
    values = special.jv(0.5 * order, grid)
    # J_{N/2} vanishes at A = 0 and underflows to zero just above it at high
    # order; dropping exact zeros leaves only genuine sign changes
    nonzero = np.flatnonzero(values)
    signs = np.sign(values[nonzero])
    roots = [optimize.brentq(lambda r: special.jv(0.5 * order, r),
                             grid[nonzero[k]], grid[nonzero[k + 1]], xtol=tol)
             for k in np.flatnonzero(signs[:-1] != signs[1:])]
    return [min(max(root, ratio_min), ratio_max) for root in roots]


def periodicity_residual(params: SystemParams, m: int, n: int) -> PeriodicityResult:
    """How far m |E_N| is from n delta, normalised by delta.

    When the residual vanishes the accumulated phase grows by exactly n pi
    over m modulation periods, so the populations repeat with period
    m pi / delta.  A zero quasienergy is flagged periodic outright (constant
    phase slope; the formula would report residual = n).
    """
    m, n = check_count("m", m, 1), check_count("n", n, 1)
    energy = quasienergy(params)
    if energy == 0.0:
        return PeriodicityResult(m=m, n=n, residual=float(n), is_periodic=True)
    residual = abs(m * abs(energy) - n * params.modulation) / params.modulation
    return PeriodicityResult(m=m, n=n, residual=residual,
                             is_periodic=residual < PERIODICITY_RESIDUAL_TOL)


def solve_periodic_ratio(params_base: SystemParams, m: int, n: int) -> float:
    """Modulation-to-tunneling ratio delta/delta_gap giving periodic dynamics.

    Returns (n/m) (1/(2 pi)) int_0^pi J_N(2 (A/omega_0) |cos u|) du, i.e. half
    the period-averaged coupling scaled by n/m.  Note the index convention:
    the value satisfies m delta = n |E_N|, so feeding it back into
    ``periodicity_residual`` closes with the roles of (m, n) swapped.
    """
    m, n = check_count("m", m, 1), check_count("n", n, 1)
    if params_base.amplitude == 0.0:
        _warnings.warn("zero drive amplitude: periodicity condition is degenerate",
                       stacklevel=2)
        return 0.0
    return (n / m) * 0.5 * mean_bessel(params_base)


def trace_periodicity_check(trace: PopulationTrace, period: float, reps: int = 1) -> float:
    """Largest repetition defect max_t |P1(t + k period) - P1(t)|, k = 1..reps.

    Shifted samples are linearly interpolated on the trace.  Raises if the
    trace spans less than (reps + 1) periods.
    """
    check_real("period", period, ">", 0.0)
    reps = check_count("reps", reps, 1)
    t = trace.times
    span = float(t[-1] - t[0])
    # reps stays an integer, compared exactly with a float: (reps + 1) * period
    # overflows past the float range
    if reps + 1 > span / (period * (1.0 - 1e-12)):
        raise ValueError(f"trace spans {span:.6g}, less than reps + 1 periods of {period:.6g}")
    deviation = 0.0
    base = t <= t[-1] - reps * period + 1e-12 * span
    for k in range(1, reps + 1):
        shifted = np.interp(t[base] + k * period, t, trace.p1)
        deviation = max(deviation, float(np.max(np.abs(shifted - trace.p1[base]))))
    return deviation


def spectral_lines(params: SystemParams,
                   weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD) -> np.recarray:
    """Probe-transition catalog between the two quasienergy branches.

    Frequencies are eps0 + m omega_0 + 2 E_N + (2n - m) delta with weights
    2 |J_n(A/omega_0) J_{m-n}(A/omega_0)|; lines below ``weight_threshold``
    are dropped.  n and k = m - n run over the orders whose |J_k| is above
    rounding of the largest, cut from the ``specfun.bessel_span`` tail, and
    m = n + k as far as that takes it.  Over every order the signed
    half-weights J_n J_{m-n} sum to 1 (DLMF 10.12.1 at t = 1), and so do
    their squares (DLMF 10.23.3): only the dropped lines keep the sums of a
    catalogue from 1.  Returns a record array with integer fields ``m``, ``n`` and float fields
    ``frequency``, ``weight``, one row per line ordered by m, then n.  A
    positive frequency is an absorption line, a negative one amplification,
    and zero a static line.
    """
    check_real("weight_threshold", weight_threshold, ">=", 0.0)
    ratio = params.drive_ratio
    stark = 2.0 * quasienergy(params)  # raises outside specfun.check_domain
    span = bessel_span(ratio)
    bessel = special.jv(np.arange(-span, span + 1), ratio)  # J_k at k + span
    tail = np.abs(bessel[span:])
    top = int(np.flatnonzero(tail > np.finfo(float).eps * np.max(tail))[-1])
    bessel = bessel[span - top:span + top + 1]
    weight = 2.0 * np.abs(np.multiply.outer(bessel, bessel))  # at (n + top, k + top)
    n, k = np.nonzero(weight >= weight_threshold)  # ordered by n, then k
    weight = weight[n, k]
    n, m = n - top, n + k - 2 * top
    order = np.argsort(m, kind="stable")  # by m, then n
    m, n, weight = m[order], n[order], weight[order]
    freq = params.epsilon0 + m * params.carrier + stark + (2 * n - m) * params.modulation
    return np.rec.fromarrays((m, n, freq, weight), names=("m", "n", "frequency", "weight"))


def xconfig_spectral_lines(omega0: float, delta_mod: float, n_range: int) -> list[float]:
    """Probe lines of the transition-coupled configuration: omega_0 + n delta.

    No drive-dependent shift appears; the catalog depends only on the carrier
    and the modulation frequency.
    """
    n_range = check_count("n_range", n_range, 0)
    check_real("omega0", omega0, ">", 0.0)
    check_real("delta_mod", delta_mod, ">", 0.0)
    return [omega0 + n * delta_mod for n in range(-n_range, n_range + 1)]
