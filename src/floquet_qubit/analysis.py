"""Derived physics: quasienergy zeros, periodic-oscillation conditions,
trace-level periodicity verification, and probe spectral-line catalogs."""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize, special

from .dynamics import PopulationTrace
from .floquet import mean_bessel, quasienergy
from .model import SystemParams, check_count, check_real
from .specfun import MAX_ARGUMENT, MAX_ORDER

__all__ = [
    "SpectralLine",
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


class SpectralLine(NamedTuple):
    """One probe transition line between the two quasienergy branches."""

    m: int
    n: int
    frequency: float
    weight: float

    @property
    def kind(self) -> str:
        if self.frequency > 0:
            return "absorption"
        if self.frequency < 0:
            return "amplification"
        return "static"


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
    25 000 points.
    """
    check_real("ratio_min", ratio_min, ">=", 0.0)
    check_real("ratio_max", ratio_max, ">", ratio_min)
    if 2.0 * ratio_max > MAX_ARGUMENT:
        raise ValueError(f"ratio_max must satisfy 2 ratio_max <= {MAX_ARGUMENT:g}, "
                         f"got {ratio_max!r}")
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
    span = t[-1] - t[0]
    if span < (reps + 1) * period * (1.0 - 1e-12):
        raise ValueError(
            f"trace spans {span:.6g} but needs at least {(reps + 1) * period:.6g}")
    deviation = 0.0
    base = t <= t[-1] - reps * period + 1e-12 * span
    for k in range(1, reps + 1):
        shifted = np.interp(t[base] + k * period, t, trace.p1)
        deviation = max(deviation, float(np.max(np.abs(shifted - trace.p1[base]))))
    return deviation


def spectral_lines(params: SystemParams,
                   weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
                   index_cutoff: int | None = None) -> list[SpectralLine]:
    """Probe-transition catalog between the two quasienergy branches.

    Frequencies are eps0 + m omega_0 + 2 E_N + (2n - m) delta with weights
    2 |J_n(A/omega_0) J_{m-n}(A/omega_0)|; lines below ``weight_threshold``
    are dropped.  Positive frequencies are absorption lines, negative ones
    amplification.
    """
    check_real("weight_threshold", weight_threshold, ">=", 0.0)
    if index_cutoff is None:
        index_cutoff = int(math.ceil(params.drive_ratio)) + 20
    cutoff = check_count("index_cutoff", index_cutoff, 0)
    if 2 * cutoff > MAX_ORDER:
        raise ValueError(f"index_cutoff must be <= {MAX_ORDER // 2} (Bessel orders up to "
                         f"2 index_cutoff; the default is ceil(A/omega_0) + 20), got {cutoff}")
    ratio = params.drive_ratio
    stark = 2.0 * quasienergy(params)
    bessel = special.jv(np.arange(-2 * cutoff, 2 * cutoff + 1), ratio)  # J_k at k + 2 cutoff
    index = np.arange(-cutoff, cutoff + 1)
    m, n = np.meshgrid(index, index, indexing="ij")  # lines ordered by m, then n
    weight = 2.0 * np.abs(bessel[n + 2 * cutoff] * bessel[m - n + 2 * cutoff])
    keep = weight >= weight_threshold
    m, n, weight = m[keep], n[keep], weight[keep]
    freq = params.epsilon0 + m * params.carrier + stark + (2 * n - m) * params.modulation
    return list(map(SpectralLine._make, zip(m.tolist(), n.tolist(), freq.tolist(),
                                            weight.tolist())))


def xconfig_spectral_lines(omega0: float, delta_mod: float, n_range: int) -> list[float]:
    """Probe lines of the transition-coupled configuration: omega_0 + n delta.

    No drive-dependent shift appears; the catalog depends only on the carrier
    and the modulation frequency.
    """
    n_range = check_count("n_range", n_range, 0)
    check_real("omega0", omega0, ">", 0.0)
    check_real("delta_mod", delta_mod, ">", 0.0)
    return [omega0 + n * delta_mod for n in range(-n_range, n_range + 1)]
