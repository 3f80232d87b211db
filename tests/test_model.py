import math

import numpy as np
import pytest

from floquet_qubit.analysis import (
    periodicity_residual,
    quasienergy_zeros,
    solve_periodic_ratio,
    spectral_lines,
    trace_periodicity_check,
    xconfig_spectral_lines,
)
from floquet_qubit.dynamics import (
    AmplitudePair,
    PopulationTrace,
    analytic_populations,
    evolve_full,
    evolve_reduced,
    xconfig_dynamics,
)
from floquet_qubit.floquet import fourier_phase, phase_gamma
from floquet_qubit.model import (
    HADAMARD,
    SystemParams,
    check_count,
    check_real,
    circuit_controls,
    drive_field,
    hamiltonian,
    phase_phi,
    validate_regime,
)

from floquet_qubit.specfun import bessel_j
from oracles import central_difference


def make_params(**kw):
    base = dict(epsilon0=1.0, delta_gap=1e-2, amplitude=0.1, carrier=1.0,
                modulation=2.5e-4, order=1)
    base.update(kw)
    return SystemParams(**base)


# ---------------------------------------------------------------------------
# SystemParams
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        make_params(amplitude=-0.1)
    with pytest.raises(ValueError):
        make_params(carrier=0.0)
    with pytest.raises(ValueError):
        make_params(modulation=0.0)
    with pytest.raises(ValueError):
        make_params(modulation=2.0)  # >= carrier
    with pytest.raises(ValueError):
        make_params(order=0)
    with pytest.raises(ValueError):
        make_params(epsilon0=float("inf"))


def test_params_derived_quantities():
    p = make_params(epsilon0=2.0, order=2, carrier=1.0, modulation=1e-3)
    assert p.detuning == 0.0
    assert p.period == pytest.approx(math.pi / 1e-3)
    assert p.z1 == pytest.approx(0.1 / 1.001)
    assert p.z2 == pytest.approx(0.1 / 0.999)
    assert p.drive_ratio == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# drive field
# ---------------------------------------------------------------------------

def test_drive_trivials():
    p = make_params(amplitude=0.0)
    assert drive_field(p, 0.37) == 0.0
    p = make_params(amplitude=0.25)
    assert drive_field(p, 0.0) == pytest.approx(2 * 0.25)
    t_node = math.pi / (2 * p.modulation)  # modulation node
    assert abs(drive_field(p, t_node)) < 1e-12


def test_drive_product_equals_bichromatic_sum():
    rng = np.random.RandomState(42)
    for _ in range(10_000):
        p = make_params(amplitude=float(rng.uniform(0, 1)),
                        carrier=float(rng.uniform(0.5, 3.0)),
                        modulation=float(rng.uniform(1e-4, 0.05)))
        t = float(rng.uniform(0, 100.0))
        two_component = p.amplitude * (math.cos(p.omega_minus * t)
                                       + math.cos(p.omega_plus * t))
        assert abs(drive_field(p, t) - two_component) < 1e-13


# ---------------------------------------------------------------------------
# frame phase
# ---------------------------------------------------------------------------

def test_phase_phi_trivials():
    p = make_params()
    assert phase_phi(p, 0.0) == 0.0
    p0 = make_params(epsilon0=2.0, amplitude=0.0)
    assert phase_phi(p0, 1.0) == pytest.approx(1.0)


def test_phase_phi_frozen_value():
    # eps0=1, A=0.1, omega0=1, delta=0.01, t=pi; frozen from a 40-digit
    # evaluation of the closed form
    p = make_params(modulation=0.01)
    assert phase_phi(p, math.pi) == pytest.approx(1.57082774069536479, abs=1e-13)


def test_phase_phi_derivative():
    # d(phi)/dt = (eps0 + f(t)) / 2
    p = make_params(amplitude=0.1, modulation=0.01)
    h = 1e-6 / p.carrier
    for t in (0.3, 2.0, 17.5, 300.0):
        fd = central_difference(lambda s: phase_phi(p, s), t, h)
        expected = 0.5 * (p.epsilon0 + drive_field(p, t))
        assert fd == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_hamiltonian_bare_qubit():
    p = make_params(amplitude=0.0, delta_gap=0.0)
    h = hamiltonian(p, "z", 0.123)
    assert np.allclose(h, np.diag([-0.5, 0.5]), atol=1e-15)


def test_hamiltonian_z_at_drive_node():
    p = make_params(delta_gap=0.3)
    t_node = math.pi / (2 * p.modulation)
    h = hamiltonian(p, "z", t_node)
    expected = np.array([[-0.5, -0.15], [-0.15, 0.5]])
    assert np.allclose(h, expected, atol=1e-12)


def test_hamiltonian_x_at_origin():
    p = make_params(epsilon0=1.0, amplitude=0.1, delta_gap=0.3)
    h = hamiltonian(p, "x", 0.0)
    # off-diagonal -(1 + 0.2)/2, diagonal (-delta_gap/2, +delta_gap/2)
    expected = np.array([[-0.15, -0.6], [-0.6, 0.15]])
    assert np.allclose(h, expected, atol=1e-14)


def test_hamiltonian_hermitian():
    rng = np.random.RandomState(1)
    for _ in range(50):
        p = make_params(epsilon0=float(rng.uniform(-2, 2)),
                        delta_gap=float(rng.uniform(-1, 1)),
                        amplitude=float(rng.uniform(0, 2)))
        t = float(rng.uniform(0, 50))
        for axis in ("z", "x"):
            h = hamiltonian(p, axis, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_rotation_relates_the_two_configurations():
    # the Hadamard exchanges sigma_z and sigma_x, mapping one coupling
    # configuration onto the other exactly
    rng = np.random.RandomState(9)
    for _ in range(40):
        p = make_params(epsilon0=float(rng.uniform(-2, 2)),
                        delta_gap=float(rng.uniform(-1, 1)),
                        amplitude=float(rng.uniform(0, 2)))
        t = float(rng.uniform(0, 50))
        rotated = HADAMARD.conj().T @ hamiltonian(p, "z", t) @ HADAMARD
        assert np.max(np.abs(rotated - hamiltonian(p, "x", t))) < 1e-13


def test_hamiltonian_invalid_axis():
    with pytest.raises(ValueError):
        hamiltonian(make_params(), "y", 0.0)


# ---------------------------------------------------------------------------
# regime validation and circuit controls
# ---------------------------------------------------------------------------

def test_validate_regime_on_resonance():
    report = validate_regime(make_params(epsilon0=1.0, order=1))
    assert report.detuning == 0.0
    report2 = validate_regime(make_params(epsilon0=2.0, order=2))
    assert report2.detuning == 0.0
    assert report2.clean


def test_validate_regime_detuned_warns():
    report = validate_regime(make_params(epsilon0=1.05, order=1))
    assert report.detuning == pytest.approx(0.05)
    assert any("detuning" in w for w in report.warnings)


def test_validate_regime_fast_modulation_warns():
    report = validate_regime(make_params(modulation=0.1))
    assert any("modulation" in w for w in report.warnings)


def test_circuit_controls():
    bx, _ = circuit_controls(1.0, 1.0, flux_ratio=0.5, gate_charge=0.0)
    assert abs(bx) < 1e-15
    _, bz = circuit_controls(1.0, 1.0, flux_ratio=0.0, gate_charge=1.0)
    assert bz == 0.0
    bx, _ = circuit_controls(1.0, 1.0, flux_ratio=0.0, gate_charge=0.0)
    assert bx == 2.0


# ---------------------------------------------------------------------------
# argument rules: every entry point refuses NaN, infinity and out-of-range
# values with a ValueError that names the argument
# ---------------------------------------------------------------------------

_TRACE = PopulationTrace(times=np.linspace(0.0, 10.0, 11), p1=np.ones(11), p2=np.zeros(11))

# (entry point, argument, call of the value, one out-of-range value or None
# where the rule is finiteness alone)
_ARGUMENTS = [
    ("SystemParams", "order", lambda v: make_params(order=v), 0),
    ("SystemParams", "epsilon0", lambda v: make_params(epsilon0=v), None),
    ("SystemParams", "delta_gap", lambda v: make_params(delta_gap=v), None),
    ("SystemParams", "amplitude", lambda v: make_params(amplitude=v), -0.1),
    ("SystemParams", "carrier", lambda v: make_params(carrier=v), 0.0),
    ("SystemParams", "modulation", lambda v: make_params(modulation=v), 2.0),
    ("fourier_phase", "n_max", lambda v: fourier_phase(make_params(), v), 0),
    ("phase_gamma", "t", lambda v: phase_gamma(make_params(), v), -1.0),
    ("periodicity_residual", "m", lambda v: periodicity_residual(make_params(), v, 1), 0),
    ("periodicity_residual", "n", lambda v: periodicity_residual(make_params(), 1, v), 0),
    ("solve_periodic_ratio", "m", lambda v: solve_periodic_ratio(make_params(), v, 1), 0),
    ("solve_periodic_ratio", "n", lambda v: solve_periodic_ratio(make_params(), 1, v), 0),
    ("trace_periodicity_check", "period", lambda v: trace_periodicity_check(_TRACE, v), 0.0),
    ("trace_periodicity_check", "reps", lambda v: trace_periodicity_check(_TRACE, 1.0, v), 0),
    ("spectral_lines", "index_cutoff",
     lambda v: spectral_lines(make_params(), index_cutoff=v), -1),
    ("spectral_lines", "weight_threshold",
     lambda v: spectral_lines(make_params(), weight_threshold=v), -1.0),
    ("xconfig_spectral_lines", "omega0", lambda v: xconfig_spectral_lines(v, 0.01, 2), 0.0),
    ("xconfig_spectral_lines", "delta_mod", lambda v: xconfig_spectral_lines(1.0, v, 2), 0.0),
    ("xconfig_spectral_lines", "n_range", lambda v: xconfig_spectral_lines(1.0, 0.01, v), -1),
    ("quasienergy_zeros", "ratio_min", lambda v: quasienergy_zeros(make_params(), v, 1.0), -0.5),
    ("quasienergy_zeros", "ratio_max", lambda v: quasienergy_zeros(make_params(), 0.5, v), 0.5),
    ("quasienergy_zeros", "tol", lambda v: quasienergy_zeros(make_params(), 0.0, 1.0, tol=v), 0.0),
    ("evolve_reduced", "tol", lambda v: evolve_reduced(make_params(), [0.0, 5.0], tol=v), 0.0),
    ("evolve_full", "initial",
     lambda v: evolve_full(make_params(), "z", [0.0, 5.0], initial=AmplitudePair(v, 0.0)), 1.1),
    ("analytic_populations", "times", lambda v: analytic_populations(make_params(), [v]), -1.0),
    ("evolve_full", "times", lambda v: evolve_full(make_params(), "z", [0.0, v]), -1.0),
    ("xconfig_dynamics", "delta_mod", lambda v: xconfig_dynamics(0.1, v, 1.0), 0.0),
    ("bessel_j", "order", lambda v: bessel_j(v, 1.0), 1.5),
    ("PopulationTrace", "p1", lambda v: PopulationTrace(times=[0.0], p1=[v], p2=[v]), 1.5),
    ("PopulationTrace", "p2", lambda v: PopulationTrace(times=[0.0], p1=[1.0], p2=[v]), 0.5),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}={value}")
    for entry, name, call, bad in _ARGUMENTS
    for value in (math.nan, math.inf, -math.inf, bad) if value is not None
])
def test_entry_points_refuse_bad_arguments_by_name(call, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


def test_checks_return_the_checked_value():
    assert check_real("x", 0.0, ">=", 0.0) == 0.0
    count = check_count("n", 3.0, 1)
    assert count == 3 and type(count) is int
    assert check_count("n", 10 ** 400, 0) == 10 ** 400
    with pytest.raises(ValueError, match="x must be finite and > 0, got nan"):
        check_real("x", math.nan, ">", 0.0)
    with pytest.raises(ValueError, match="x must be finite, got inf"):
        check_real("x", math.inf, ">", -math.inf)
    with pytest.raises(ValueError, match="n must be an integer >= 1, got inf"):
        check_count("n", math.inf, 1)
