"""Parameter record, drive field, raw Hamiltonians and the dynamic frame phase.

Units are hbar = 1 throughout: every energy and frequency is an angular
frequency in whatever unit the caller picks (the CLI canonicalises the
carrier to 1).

Basis conventions
-----------------
Matrices and state vectors use the (|up>, |down>) ordering, i.e.
``sigma_z = diag(+1, -1)`` and ``|up> = (1, 0)``, ``|down> = (0, 1)``.
Population and amplitude *labels* follow the opposite, historical order:
state 1 is |down> (the initial state, amplitude C1) and state 2 is |up>
(amplitude C2).  Public APIs always name amplitudes explicitly (c1/c2 or
down/up) so the two conventions never mix silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemParams",
    "RegimeReport",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "HADAMARD",
    "drive_field",
    "phase_phi",
    "hamiltonian",
    "validate_regime",
    "circuit_controls",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Hadamard swaps sigma_z <-> sigma_x; it is the pi/2 rotation about y up to a
# sigma_z gauge and is what relates the two coupling configurations exactly.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

# validity heuristics for the resonance approximation (fractions, not checked
# against anything sharper than figure-level agreement)
MODULATION_RATIO_WARN = 0.05
DETUNING_RATIO_WARN = 0.01
TUNNELING_RATIO_WARN = 0.10


def check_real(name: str, value, op: str, bound: float):
    """``value`` if it is finite and ``value op bound`` holds (``op`` is
    ``">"`` or ``">="``); otherwise ``ValueError`` naming ``name``.  A bound
    of -inf asks for finiteness alone."""
    if not (math.isfinite(value) and (value > bound if op == ">" else value >= bound)):
        rule = f" and {op} {bound:g}" if bound > -math.inf else ""
        raise ValueError(f"{name} must be finite{rule}, got {value!r}")
    return value


def check_count(name: str, value, least: int) -> int:
    """``int(value)`` if ``value`` is a finite integral number >= ``least``;
    otherwise ``ValueError`` naming ``name``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, infinity
        count = None
    if count is None or count != value or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


@dataclass(frozen=True)
class SystemParams:
    """Immutable system record: qubit bias, tunneling and drive parameters.

    Attributes
    ----------
    epsilon0:
        Static energy bias between the two diabatic states.
    delta_gap:
        Tunneling matrix element (the sigma_x coefficient is -delta_gap/2).
    amplitude:
        Drive amplitude A >= 0 of each spectral component.
    carrier:
        Central drive frequency omega_0 > 0.
    modulation:
        Amplitude-modulation frequency delta, 0 < delta < carrier.
    order:
        Resonance order N >= 1 (multiphoton condition epsilon0 = N * carrier).
    """

    epsilon0: float
    delta_gap: float
    amplitude: float
    carrier: float
    modulation: float
    order: int = 1

    def __post_init__(self):
        object.__setattr__(self, "order", check_count("order", self.order, 1))
        for name, op, bound in (("epsilon0", ">", -math.inf), ("delta_gap", ">", -math.inf),
                                ("amplitude", ">=", 0.0), ("carrier", ">", 0.0),
                                ("modulation", ">", 0.0)):
            object.__setattr__(self, name, check_real(name, float(getattr(self, name)), op, bound))
        if self.modulation >= self.carrier:
            raise ValueError(f"modulation must be < carrier, got {self.modulation}")

    @property
    def detuning(self) -> float:
        """Offset epsilon0 - N * carrier from exact N-th order resonance."""
        return self.epsilon0 - self.order * self.carrier

    @property
    def drive_ratio(self) -> float:
        return self.amplitude / self.carrier

    @property
    def period(self) -> float:
        """Modulation period T = pi / delta of the effective coupling."""
        return math.pi / self.modulation

    @property
    def omega_minus(self) -> float:
        return self.carrier - self.modulation

    @property
    def omega_plus(self) -> float:
        return self.carrier + self.modulation

    @property
    def z1(self) -> float:
        """A / (omega_0 + delta), the smaller Bessel argument."""
        return self.amplitude / self.omega_plus

    @property
    def z2(self) -> float:
        """A / (omega_0 - delta), the larger Bessel argument."""
        return self.amplitude / self.omega_minus


@dataclass(frozen=True)
class RegimeReport:
    """Detuning plus human-readable validity warnings (possibly empty)."""

    detuning: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return not self.warnings


def drive_field(params: SystemParams, t):
    """Amplitude-modulated drive f(t) = 2 A cos(omega_0 t) cos(delta t).

    Bit-for-bit this equals the two-component (bichromatic) sum
    A [cos((omega_0 - delta) t) + cos((omega_0 + delta) t)] up to rounding.
    """
    t = np.asarray(t, dtype=float) if not np.isscalar(t) else t
    return 2.0 * params.amplitude * np.cos(params.carrier * t) * np.cos(params.modulation * t)


def phase_phi(params: SystemParams, t):
    """Accumulated frame phase phi(t) generated by the drive part alone.

    phi(t) = (1/2) [eps0 t + (A/w1) sin(w1 t) + (A/w2) sin(w2 t)] with
    w1 = omega_0 - delta and w2 = omega_0 + delta; the frame transformation
    itself is exp(i phi(t) sigma_z).
    """
    w1 = params.omega_minus
    w2 = params.omega_plus
    a = params.amplitude
    return 0.5 * (params.epsilon0 * np.asarray(t, dtype=float)
                  + (a / w1) * np.sin(w1 * np.asarray(t, dtype=float))
                  + (a / w2) * np.sin(w2 * np.asarray(t, dtype=float)))


def hamiltonian(params: SystemParams, axis: str, t: float) -> np.ndarray:
    """2x2 Hamiltonian at time t for the chosen coupling configuration.

    axis='z': the drive modulates the level splitting,
        H = -(1/2)(eps0 + f(t)) sigma_z - (delta_gap/2) sigma_x.
    axis='x': the drive couples through the transition matrix element,
        H = -(delta_gap/2) sigma_z - (1/2)(eps0 + f(t)) sigma_x.
    """
    e = params.epsilon0 + drive_field(params, float(t))
    if axis == "z":
        return -0.5 * e * SIGMA_Z - 0.5 * params.delta_gap * SIGMA_X
    if axis == "x":
        return -0.5 * params.delta_gap * SIGMA_Z - 0.5 * e * SIGMA_X
    raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")


def validate_regime(params: SystemParams) -> RegimeReport:
    """Detuning and heuristic warnings for the resonance approximation."""
    warnings: list[str] = []
    if params.modulation / params.carrier > MODULATION_RATIO_WARN:
        warnings.append(
            f"modulation/carrier = {params.modulation / params.carrier:.3g} "
            f"exceeds {MODULATION_RATIO_WARN}; slow-modulation assumption is strained"
        )
    detuning = params.detuning
    scale = abs(params.epsilon0)
    if scale > 0.0:
        if abs(detuning) / scale > DETUNING_RATIO_WARN:
            warnings.append(
                f"|detuning|/epsilon0 = {abs(detuning) / scale:.3g} exceeds "
                f"{DETUNING_RATIO_WARN}; resonance condition is not met"
            )
        if abs(params.delta_gap) / scale > TUNNELING_RATIO_WARN:
            warnings.append(
                f"delta_gap/epsilon0 = {abs(params.delta_gap) / scale:.3g} exceeds "
                f"{TUNNELING_RATIO_WARN}; perturbative tunneling assumption is strained"
            )
    elif detuning != 0.0 or params.delta_gap != 0.0:
        warnings.append("epsilon0 is zero; resonance-order ratios are undefined")
    return RegimeReport(detuning=detuning, warnings=tuple(warnings))


def circuit_controls(ej0: float, ec: float,
                     flux_ratio: float, gate_charge: float) -> tuple[float, float]:
    """Effective control fields of a charge qubit with a tunable junction.

    Returns (bx, bz) with bx = 2 ej0 cos(pi flux_ratio) set by the external
    flux (in units of the flux quantum) and bz = 4 ec (1 - gate_charge) set
    by the reduced gate charge (the gate capacitance enters only through it).
    """
    bx = 2.0 * ej0 * math.cos(math.pi * flux_ratio)
    bz = 4.0 * ec * (1.0 - gate_charge)
    return bx, bz
