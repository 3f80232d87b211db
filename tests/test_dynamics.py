import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import expm

from floquet_qubit import dynamics
from floquet_qubit.dynamics import (
    AmplitudePair,
    IntegrationError,
    PopulationTrace,
    analytic_populations,
    evolve_corrected,
    evolve_full,
    evolve_reduced,
    rabi_frequency,
    xconfig_dynamics,
)
from floquet_qubit.floquet import build_phase_decomposition, quasienergy
from floquet_qubit.dynamics import (_magnus_exponent, _magnus_step, _mul, _power,
                                    _segment_propagators)
from floquet_qubit.model import HADAMARD, SIGMA_X, SIGMA_Y, SIGMA_Z, SystemParams, hamiltonian
from floquet_qubit.specfun import bessel_products

from oracles import central_difference, half_order_bessel_zeros

EPS = np.finfo(float).eps


def make_params(order=1, ratio=0.1, gap_over_mod=40.0, modulation=1e-3, carrier=1.0,
                epsilon0=None):
    eps0 = order * carrier if epsilon0 is None else epsilon0
    return SystemParams(epsilon0=eps0, delta_gap=gap_over_mod * modulation,
                        amplitude=ratio * carrier, carrier=carrier,
                        modulation=modulation, order=order)


def expm_oracle(params, axis, t_end, steps):
    """Piecewise-constant midpoint propagator built from model.hamiltonian.

    Independent of the adaptive integrators: each step applies the exact
    exponential of the (traceless, real-symmetric) Hamiltonian frozen at the
    step midpoint.
    """
    h_step = t_end / steps
    up, down = 0.0 + 0.0j, 1.0 + 0.0j
    for k in range(steps):
        h = hamiltonian(params, axis, (k + 0.5) * h_step)
        a = h[0, 0].real
        b = h[0, 1].real
        w = math.hypot(a, b)
        if w == 0.0:
            continue
        cos_wh = math.cos(w * h_step)
        msin = -1j * math.sin(w * h_step) / w
        up, down = (cos_wh * up + msin * (a * up + b * down),
                    cos_wh * down + msin * (b * up - a * down))
    return down, up  # (c1, c2)


# ---------------------------------------------------------------------------
# analytic populations
# ---------------------------------------------------------------------------

def test_analytic_initial_condition():
    trace = analytic_populations(make_params(), [0.0, 1.0, 2.0])
    assert trace.p1[0] == 1.0
    assert trace.p2[0] == 0.0


def test_analytic_full_inversion_at_quarter_phase():
    # find the time where the accumulated phase reaches pi/2: populations
    # must be fully inverted there
    p = make_params(order=1, ratio=0.1, gap_over_mod=40.0)
    dec = build_phase_decomposition(p)
    lo, hi = 0.0, 20 * p.period
    assert dec.gamma_at(hi) > math.pi / 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dec.gamma_at(mid) < math.pi / 2:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    trace = analytic_populations(p, [t_star])
    assert trace.p1[0] < 1e-12
    assert trace.p2[0] > 1.0 - 1e-12


def test_analytic_rejects_detuned_params():
    p = make_params(epsilon0=1.05)
    with pytest.raises(ValueError):
        analytic_populations(p, [0.0, 1.0])


def test_first_order_oscillates_faster_than_second():
    # same drive, same window: the slope of the accumulated phase drops by
    # more than an order of magnitude from N=1 to N=2
    p1 = make_params(order=1, ratio=0.1, gap_over_mod=40.0)
    p2 = make_params(order=2, ratio=0.1, gap_over_mod=40.0)
    slope1 = build_phase_decomposition(p1).slope
    slope2 = build_phase_decomposition(p2).slope
    assert slope1 / slope2 > 10.0
    times = np.linspace(0.0, 5 * p1.period, 4001)
    inversions1 = np.sum(np.diff(analytic_populations(p1, times).p1 < 0.5) != 0)
    inversions2 = np.sum(np.diff(analytic_populations(p2, times).p1 < 0.5) != 0)
    assert inversions1 > 3 * max(inversions2, 1)


# ---------------------------------------------------------------------------
# Rabi frequency
# ---------------------------------------------------------------------------

def test_rabi_frequency_trivials():
    p = make_params(order=1)
    assert abs(rabi_frequency(p, p.period / 2)) < 1e-12
    zero = make_params(ratio=0.0)
    assert rabi_frequency(zero, 3.21) == 0.0
    assert np.array_equal(rabi_frequency(zero, np.array([0.0, 1.0, 500.0])), np.zeros(3))


def test_rabi_frequency_of_a_time_is_the_same_in_any_array():
    # one series at R = A/omega_0 serves every time, so no sample's rate
    # depends on the others in its array
    p = make_params(order=1, ratio=1.3)
    t = np.linspace(0.0, 3.0 * p.period, 301)
    rates = rabi_frequency(p, t)
    alone = np.array([rabi_frequency(p, t[i:i + 1])[0] for i in range(len(t))])
    scalar = np.array([rabi_frequency(p, float(x)) for x in t])
    assert np.array_equal(rates, alone) and np.array_equal(rates, scalar)


def test_rabi_frequency_weak_drive_envelope():
    # the squared rate at weak drive follows the cos^2 envelope of the
    # modulation to better than a percent
    p = make_params(order=1, ratio=0.1)
    t = np.linspace(0.0, p.period, 401)
    squared = rabi_frequency(p, t) ** 2
    envelope = np.cos(p.modulation * t) ** 2
    assert np.max(np.abs(squared / squared.max() - envelope)) < 0.01


def test_rabi_frequency_is_phase_derivative():
    p = make_params(order=1, ratio=0.8, gap_over_mod=20.0)
    gamma_at = build_phase_decomposition(p).gamma_at
    h = 1e-4 * p.period
    for t in (0.1 * p.period, 0.27 * p.period, 1.4 * p.period):
        fd = central_difference(gamma_at, t, h)
        assert fd == pytest.approx(rabi_frequency(p, t), rel=1e-6)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_resonance_vanishes_at_half_order_bessel_zeros(order):
    # r on the first zero z of J_{N/2}: the double z is within eps z of the
    # zero and |J'_{N/2}| <= 1 there, so |J_{N/2}(r)| <= z eps, and the
    # half-order jv adds at most 3.2e-15 (r <= 11): E_N = +-(Delta/2) J^2
    z = half_order_bessel_zeros(order, 11.0)[0]
    p = make_params(order=order, ratio=z)
    assert p.drive_ratio == z
    half = 0.5 * p.delta_gap
    assert abs(quasienergy(p)) <= half * (z * EPS + 3.2e-15) ** 2
    # slope = (Delta/2) G(0), G(0) = sum_k s(2k - N) J_k J_{N-k} over m
    # products: the terms sum to at most 2/pi in magnitude (|s| <= 2/pi and,
    # by Cauchy-Schwarz with sum J_k^2 = 1, sum |J_k J_{N-k}| <= 1), so the
    # dot product rounds by at most (2/pi) m eps, and the factors' own
    # rounding takes less than the rest of m eps
    dec = build_phase_decomposition(p)
    m = bessel_products(order, z)[0].size
    assert abs(dec.slope) <= half * (m * EPS + (z * EPS) ** 2)
    # at t = k T the periodic part is (Delta / (2 delta)) h(w), w = delta t
    # reduced modulo pi, which rounding leaves within 2 (k + 1) pi eps of 0;
    # |h'| = |J_N - J_{N/2}(r)^2| <= 2, so |gamma(k T)| <= slope k T +
    # (Delta / (2 delta)) 4 (k + 1) pi eps, and P1 = cos^2(gamma) closes to 1
    k = np.arange(11.0)
    times = k * p.period
    bound = abs(dec.slope) * times + half / p.modulation * 4.0 * (k + 1.0) * math.pi * EPS
    assert np.all(np.abs(dec.gamma_at(times)) <= bound)
    trace = analytic_populations(p, times)
    assert np.all(1.0 - trace.p1 <= bound ** 2 + EPS)


# ---------------------------------------------------------------------------
# reduced integration
# ---------------------------------------------------------------------------

def test_reduced_no_coupling_is_constant():
    p = make_params(gap_over_mod=0.0)
    c1 = evolve_reduced(p, np.linspace(0.0, 5 * p.period, 2001))[0]
    assert np.all(np.abs(c1) ** 2 == 1.0)


def test_reduced_matches_closed_form_at_resonance():
    p = make_params(order=1, ratio=0.1, gap_over_mod=40.0)
    times = np.linspace(0.0, 5 * p.period, 801)
    p1 = np.abs(evolve_reduced(p, times, tol=1e-10)[0]) ** 2
    reference = analytic_populations(p, times)
    assert np.max(np.abs(p1 - reference.p1)) < 1e-6


def test_reduced_norm_conservation():
    p = make_params(order=2, ratio=1.0, gap_over_mod=31.0)
    times = np.linspace(0.0, 10 * p.period, 41)
    for evolve in (evolve_reduced, evolve_corrected):
        amps = evolve(p, times, tol=1e-11)
        norm = np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2
        assert np.max(np.abs(norm - 1.0)) < 1e-8, evolve.__name__


@pytest.mark.parametrize("order, ratio, gap_over_mod", [(1, 1.0, 40.0), (2, 1.3, 31.0),
                                                       (1, 0.1, 2.0)])
@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_reduced_runs_meet_tol_at_sparse_samples(order, ratio, gap_over_mod, samples, tol):
    # one or two samples over 10 modulation periods leave segments of half a
    # period, on which the doubling starts at one step: it must not stop
    # before tol is met.  The reference is a densely sampled run, whose short
    # segments the same tol resolves, at tol / 100
    p = make_params(order=order, ratio=ratio, gap_over_mod=gap_over_mod)
    t_end = 10 * p.period
    times = np.linspace(0.0, t_end, samples + 1)[1:]
    dense_times = np.union1d(np.linspace(0.0, t_end, 2001), times)
    picks = np.searchsorted(dense_times, times)
    for evolve in (evolve_reduced, evolve_corrected):
        amps = evolve(p, times, tol=tol)
        dense = evolve(p, dense_times, tol=tol / 100)[:, picks]
        assert np.max(np.linalg.norm(amps - dense, axis=0)) <= 10 * tol, evolve.__name__
    closed = analytic_populations(p, times).p1
    assert np.max(np.abs(np.abs(evolve_reduced(p, times, tol=tol)[0]) ** 2 - closed)) <= 10 * tol


def test_reduced_time_reversal():
    # evolving with the coupling sign flipped for the same duration undoes
    # the evolution at exact resonance
    p = make_params(order=1, ratio=0.5, gap_over_mod=25.0)
    t_end = 3.3 * p.period
    forward = evolve_reduced(p, [0.0, t_end], tol=1e-11)
    state = AmplitudePair(c1=complex(forward[0, -1]), c2=complex(forward[1, -1]))
    p_rev = SystemParams(epsilon0=p.epsilon0, delta_gap=-p.delta_gap,
                         amplitude=p.amplitude, carrier=p.carrier,
                         modulation=p.modulation, order=p.order)
    back = evolve_reduced(p_rev, [0.0, t_end], tol=1e-11, initial=state)
    assert abs(back[0, -1] - 1.0) < 1e-6
    assert abs(back[1, -1]) < 1e-6


def test_reduced_supports_detuning():
    # small detuning suppresses the inversion depth below the resonant value
    p_res = make_params(order=1, ratio=0.1, gap_over_mod=10.0, modulation=1e-2)
    p_det = SystemParams(epsilon0=p_res.epsilon0 + 0.3 * p_res.delta_gap,
                         delta_gap=p_res.delta_gap, amplitude=p_res.amplitude,
                         carrier=p_res.carrier, modulation=p_res.modulation, order=1)
    times = np.linspace(0.0, 40 * p_res.period, 2001)
    deep = np.max(np.abs(evolve_reduced(p_res, times)[1]) ** 2)
    shallow = np.max(np.abs(evolve_reduced(p_det, times)[1]) ** 2)
    assert deep > 0.99
    assert shallow < deep - 0.05


# ---------------------------------------------------------------------------
# corrected reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order, ratio, delta_gap, modulation, detuning", [
    (1, 0.3, 1e-2, 2e-3, 0.0),   # envelope sign: the |cos| form is off by ~0.99
    (2, 0.3, 2e-2, 1e-3, 0.0),   # level shift: the uncorrected form is off by ~0.08
    # bias lowered by the shift, so only the shift's stated sign puts the
    # system back on resonance (the opposite sign is off by ~0.29)
    (2, 0.3, 2e-2, 1e-3, -1e-4),
])
def test_corrected_matches_full_oracle(order, ratio, delta_gap, modulation, detuning):
    p = make_params(order=order, ratio=ratio, gap_over_mod=delta_gap / modulation,
                    modulation=modulation, epsilon0=order + detuning)
    times = np.linspace(0.0, 3 * p.period, 301)
    full = evolve_full(p, "z", times, tol=1e-8)
    corrected = evolve_corrected(p, times, tol=1e-10)
    assert np.max(np.abs(np.abs(full[0]) ** 2 - np.abs(corrected[0]) ** 2)) < 0.05


def test_corrected_rejects_zero_bias():
    with pytest.raises(ValueError):
        evolve_corrected(make_params(epsilon0=0.0), [0.0, 1.0])


# ---------------------------------------------------------------------------
# full integration
# ---------------------------------------------------------------------------

def test_full_trivial_constant():
    p = make_params(ratio=0.0, gap_over_mod=0.0)
    c1 = evolve_full(p, "z", np.linspace(0.0, 200.0, 2001))[0]
    assert np.max(np.abs(np.abs(c1) ** 2 - 1.0)) < 1e-12


def test_full_matches_expm_oracle_z():
    p = SystemParams(epsilon0=1.0, delta_gap=0.3, amplitude=0.5, carrier=1.0,
                     modulation=0.02, order=1)
    t_end = 50.0
    amps = evolve_full(p, "z", np.array([0.0, t_end]), tol=1e-10)
    c1, c2 = expm_oracle(p, "z", t_end, steps=250_000)
    assert abs(amps[0, -1]) ** 2 == pytest.approx(abs(c1) ** 2, abs=1e-6)
    assert abs(amps[1, -1]) ** 2 == pytest.approx(abs(c2) ** 2, abs=1e-6)


def test_full_matches_expm_oracle_x():
    p = SystemParams(epsilon0=0.0, delta_gap=1.0, amplitude=0.2, carrier=1.0,
                     modulation=0.02, order=1)
    t_end = 40.0
    amps = evolve_full(p, "x", np.array([0.0, t_end]), tol=1e-10)
    c1, c2 = expm_oracle(p, "x", t_end, steps=200_000)
    assert abs(amps[0, -1]) ** 2 == pytest.approx(abs(c1) ** 2, abs=1e-6)


def test_full_norm_conservation():
    p = make_params(order=1, ratio=0.6, gap_over_mod=2.0, modulation=0.045)
    times = np.linspace(0.0, 10 * p.period, 21)
    amps = evolve_full(p, "z", times, tol=1e-11)
    norm = np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2
    assert np.max(np.abs(norm - 1.0)) < 1e-8


def test_full_agrees_with_reduced_even_order():
    # second-order resonance in the slow-modulation regime: the reduced
    # model tracks the exact dynamics to well inside the 0.05 budget
    p = make_params(order=2, ratio=1.0, gap_over_mod=1.0, modulation=1e-3)
    times = np.linspace(0.0, 10 * p.period, 401)
    full = evolve_full(p, "z", times, tol=1e-8)
    reduced = evolve_reduced(p, times, tol=1e-10)
    assert np.max(np.abs(np.abs(full[0]) ** 2 - np.abs(reduced[0]) ** 2)) < 0.05


def test_full_x_config_matches_rotating_frame_form():
    # one-quantum resonance of the transition-coupled configuration; the
    # rotating-frame coupling amplitude is half the per-component drive
    amplitude = 0.1
    v = amplitude / 2
    delta = 1e-3
    p = SystemParams(epsilon0=0.0, delta_gap=1.0, amplitude=amplitude, carrier=1.0,
                     modulation=delta, order=1)
    times = np.linspace(0.0, math.pi / delta, 401)
    c2 = evolve_full(p, "x", times, tol=1e-8)[1]
    expected = np.sin((v / delta) * np.sin(delta * times)) ** 2
    assert np.max(np.abs(np.abs(c2) ** 2 - expected)) < 0.05


def test_full_invalid_axis():
    with pytest.raises(ValueError):
        evolve_full(make_params(), "y", [0.0, 1.0])


def test_full_refuses_no_sample_times():
    with pytest.raises(ValueError, match="non-empty"):
        evolve_full(make_params(), "z", [])


def _criterion_3_window():
    """About 10^4 carrier periods with 2001 samples, as in criterion 3."""
    p = make_params(order=1, ratio=0.1, gap_over_mod=40.0, modulation=2.5e-4)
    return p, np.linspace(0.0, 5.0 * math.pi / p.modulation, 2001)


@pytest.mark.parametrize("window, evolve, reason", [
    ("short", lambda p, times: evolve_full(p, "z", times, tol=1e-17), "below the rounding"),
    ("long", lambda p, times: evolve_full(p, "z", times, tol=1e-17), "below the rounding"),
    ("long", lambda p, times: evolve_reduced(p, times, tol=1e-17), "below the rounding"),
    ("short", lambda p, times: evolve_full(p, "z", times, tol=1e-40), "not reached within"),
], ids=["short full", "long full", "long reduced", "short full past the budget"])
def test_unreachable_tol_raises_quickly_and_small(window, evolve, reason):
    # 63 * 1e-17 is below the rounding of the propagation.  The step doubling
    # must give up long before its budget of 2^14 steps per segment, which on
    # the long window would take minutes: the sixth-order rate brings every
    # run to the rounding within the budget, where the change between
    # doublings stalls.  For 1e-40 the rate predicts the budget's overrun at
    # the first doubling
    if window == "short":
        p = make_params(order=1, ratio=0.5, gap_over_mod=2.0, modulation=0.045)
        times = np.linspace(0.0, 600.0, 5)  # ~100 carrier periods
    else:
        p, times = _criterion_3_window()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(IntegrationError, match=reason):
            evolve(p, times)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 10.0
    assert peak < 64 * 2 ** 20


def test_a_long_window_meets_tol_at_the_rounding_floor():
    # the folded half-period chain of a criterion-3 window stalls at about
    # 3e-13 between doublings, so tol 1e-14 is met on both axes (and 1e-15
    # is refused, above): each within 1e-14 of its true value, so within
    # 1e-12 + 1e-14 of the run at tol 1e-12, and the two axes agree under
    # the Hadamard to rounding
    p, times = _criterion_3_window()
    coarse = evolve_full(p, "z", times, tol=1e-12)
    x_initial = AmplitudePair(c1=complex(HADAMARD[1, 1]), c2=complex(HADAMARD[0, 1]))
    runs = []
    for axis, initial in (("z", None), ("x", x_initial)):
        start = time.perf_counter()
        runs.append(evolve_full(p, axis, times, tol=1e-14, initial=initial))
        assert time.perf_counter() - start < 10.0
    z, x = runs
    assert np.max(np.linalg.norm(z - coarse, axis=0)) <= 1e-12 + 1e-14
    up, down = HADAMARD @ np.vstack((z[1], z[0]))
    assert max(np.max(np.abs(x[1] - up)), np.max(np.abs(x[0] - down))) <= 1e-13


@pytest.mark.parametrize("evolve", [
    lambda p, times, initial: evolve_reduced(p, times, initial=initial),
    lambda p, times, initial: evolve_corrected(p, times, initial=initial),
    lambda p, times, initial: evolve_full(p, "x", times, initial=initial),
    lambda p, times, initial: evolve_full(p, "z", times, initial=initial),
], ids=["reduced", "corrected", "full x", "full z trace"])
def test_non_unit_initial_state_is_rejected(evolve, monkeypatch):
    # the check runs before anything is propagated
    monkeypatch.setattr(dynamics, "_segment_propagators",
                        lambda *args, **kwargs: pytest.fail("propagated"))
    p = make_params(order=1, ratio=0.3, gap_over_mod=2.0, modulation=0.05)
    with pytest.raises(ValueError, match="initial"):
        evolve(p, [0.0, 10.0], AmplitudePair(c1=1.0, c2=1e-3))


# ---------------------------------------------------------------------------
# invariants of the propagator, over random parameters
# ---------------------------------------------------------------------------

@st.composite
def _short_runs(draw):
    """Params at N = 1..6 with A/omega_0 in [0, 3] and delta_gap (both
    including 0) and small detuning, and 1..12 sample times within a few
    carrier periods, starting at 0 or later."""
    order = draw(st.integers(1, 6))
    ratio = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    delta_gap = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    modulation = draw(st.floats(0.01, 0.2))
    detuning = draw(st.floats(-0.05, 0.05))
    params = SystemParams(epsilon0=order + detuning, delta_gap=delta_gap, amplitude=ratio,
                          carrier=1.0, modulation=modulation, order=order)
    t_end = draw(st.floats(0.5, 30.0))
    t_start = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9 * t_end)))
    times = np.linspace(t_start, t_end, draw(st.integers(1, 12)))
    return params, np.unique(times)


def _evolvers(params):
    return {"reduced": lambda t, **kw: evolve_reduced(params, t, **kw),
            "corrected": lambda t, **kw: evolve_corrected(params, t, **kw),
            "full-z": lambda t, **kw: evolve_full(params, "z", t, **kw),
            "full-x": lambda t, **kw: evolve_full(params, "x", t, **kw)}


@settings(max_examples=40, deadline=None)
@given(run=_short_runs())
def test_propagator_conserves_norm(run):
    params, times = run
    for name, evolve in _evolvers(params).items():
        amps = evolve(times, tol=1e-10)
        drift = np.max(np.abs(np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2 - 1.0))
        assert drift <= 1e-12, name


@settings(max_examples=40, deadline=None)
@given(run=_short_runs())
def test_full_z_and_x_are_hadamard_related(run):
    # H_x(t) = Had H_z(t) Had, so evolving Had|down> on x gives Had psi_z
    params, times = run
    z = evolve_full(params, "z", times, tol=1e-10)
    x_initial = AmplitudePair(c1=complex(HADAMARD[1, 1]), c2=complex(HADAMARD[0, 1]))
    x = evolve_full(params, "x", times, tol=1e-10, initial=x_initial)
    up, down = HADAMARD @ np.vstack((z[1], z[0]))
    # both runs stop at the same doubling: the stopping change is a 2-norm per
    # sample, which the Hadamard keeps, so they differ only by rounding
    assert np.max(np.abs(x[1] - up)) <= 1e-12
    assert np.max(np.abs(x[0] - down)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(run=_short_runs(), t1=st.floats(0.1, 15.0), t2=st.floats(15.5, 30.0))
def test_propagator_samples_are_independent_of_a_leading_zero(run, t1, t2):
    params = run[0]
    for name, evolve in _evolvers(params).items():
        tail = evolve(np.array([0.0, t1, t2]), tol=1e-9)[:, 1:]
        assert np.max(np.abs(evolve(np.array([t1, t2]), tol=1e-9) - tail)) <= 1e-12, name
        start = evolve(np.array([0.0]), initial=AmplitudePair(c1=0.36 + 0.48j, c2=-0.8j))
        assert np.array_equal(start, [[0.36 + 0.48j], [-0.8j]]), name


@settings(max_examples=30, deadline=None)
@given(run=_short_runs(), theta=st.floats(0.0, math.pi / 2),
       phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)))
def test_initial_state_is_applied_to_the_propagator(run, theta, phases):
    # the run from |down> is the first column (alpha, beta) of U, so from
    # psi = c1|down> + c2|up> the amplitudes are c1 U|down> + c2 U|up>, with
    # U|up> = (-conj(beta), conj(alpha)), its second column
    params, times = run
    c1 = math.cos(theta) * cmath.exp(1j * phases[0])
    c2 = math.sin(theta) * cmath.exp(1j * phases[1])
    for name, evolve in _evolvers(params).items():
        alpha, beta = evolve(times, tol=1e-9)
        amps = evolve(times, tol=1e-9, initial=AmplitudePair(c1=c1, c2=c2))
        expected = c1 * np.array([alpha, beta]) + c2 * np.array([-np.conj(beta), np.conj(alpha)])
        assert np.max(np.abs(amps - expected)) <= 1e-15, name


# ---------------------------------------------------------------------------
# Cayley-Klein kernel
# ---------------------------------------------------------------------------

def _ck_matrix(pair):
    """The SU(2) matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] of a pair."""
    alpha, beta = pair
    return np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])


def _unit_pairs(rng, n):
    q = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    return q / np.sqrt(np.sum(np.abs(q) ** 2, axis=0))


def test_pair_product_is_the_matrix_product():
    rng = np.random.default_rng(11)
    a, b = _unit_pairs(rng, 64), _unit_pairs(rng, 64)
    out = _mul(a, b, np.empty_like(a))
    for k in range(a.shape[1]):
        expected = _ck_matrix(a[:, k]) @ _ck_matrix(b[:, k])
        assert np.max(np.abs(_ck_matrix(out[:, k]) - expected)) <= 1e-15


def test_magnus_step_is_the_exponential():
    rng = np.random.default_rng(12)
    c = np.concatenate((np.zeros((3, 1)), rng.normal(size=(3, 40)),
                        rng.normal(size=(3, 8)) * 5.0, [[4.0], [-2.0], [1.0]]), axis=1)
    assert np.any(np.sqrt(np.sum(c * c, axis=0)) > math.pi)
    q = _magnus_step(*c)
    for k in range(c.shape[1]):
        expected = expm(-1j * (c[0, k] * SIGMA_X + c[1, k] * SIGMA_Y + c[2, k] * SIGMA_Z))
        assert np.max(np.abs(_ck_matrix(q[:, k]) - expected)) <= 1e-14
    assert q[0, 0] == 1.0 and q[1, 0] == 0.0


@pytest.mark.parametrize("size", [1e-160, 1e-300])
def test_magnus_step_is_finite_and_unitary_at_tiny_fields(size):
    # |c|^2 is subnormal at 1e-160 and underflows to 0 at 1e-300; sinc is
    # then 1, its limit, so the step is (1 - i z, y - i x) to rounding
    rng = np.random.default_rng(14)
    c = rng.normal(size=(3, 16))
    c *= size / np.sqrt(np.sum(c * c, axis=0))
    x, y, z = c
    q = _magnus_step(x, y, z)
    assert np.all(np.isfinite(q.view(float)))
    assert np.max(np.abs(np.abs(q[0]) ** 2 + np.abs(q[1]) ** 2 - 1.0)) <= 1e-15
    assert np.all(q[0].real == 1.0)
    assert np.max(np.abs(q[1] - (y - 1j * x))) <= 1e-15 * size
    assert np.max(np.abs(q[0].imag + z)) <= 1e-15 * size


def _commutator(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("shape", ["x and z varying", "constant x", "constant z", "z = 0"])
def test_magnus_exponent_is_the_sixth_order_commutator_formula(shape):
    # Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), evaluated on
    # 2x2 matrices: with A_k = -i b_k.sigma at the nodes 1/2 - sqrt(15)/10,
    # 1/2 and 1/2 + sqrt(15)/10 of a step h, alpha1 = h A_2,
    # alpha2 = (sqrt(15)/3) h (A_3 - A_1), alpha3 = (10/3) h (A_3 - 2 A_2 + A_1),
    # C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1] / 60 and
    # Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,
    # which must be -i c.sigma.  The fields are real (b_y = 0), in the shapes
    # the evolutions pass: the full z axis keeps x constant, the full x axis
    # z, the reduced z constant (the detuning), and on resonance z = 0
    rng = np.random.default_rng(13)
    size = 50
    h = rng.uniform(0.01, 2.0, size=size)
    b = rng.normal(size=(3, 3, size))  # node, component, step
    b[:, 1] = 0.0
    if shape == "constant x":
        b[:, 0] = b[0, 0, 0]
        field = (b[0, 0, 0], b[:, 2])
    elif shape == "constant z":
        b[:, 2] = b[0, 2, 0]
        field = (b[:, 0], b[0, 2, 0])
    elif shape == "z = 0":
        b[:, 2] = 0.0
        field = (b[:, 0], 0.0)
    else:
        field = (b[:, 0], b[:, 2])
    x, y, z = _magnus_exponent(h, *field)
    for k in range(size):
        a1, a2, a3 = (-1j * (bk[0, k] * SIGMA_X + bk[1, k] * SIGMA_Y + bk[2, k] * SIGMA_Z)
                      for bk in b)
        alpha1 = h[k] * a2
        alpha2 = math.sqrt(15.0) / 3.0 * h[k] * (a3 - a1)
        alpha3 = 10.0 / 3.0 * h[k] * (a3 - 2.0 * a2 + a1)
        c1 = _commutator(alpha1, alpha2)
        c2 = -_commutator(alpha1, 2.0 * alpha3 + c1) / 60.0
        omega = alpha1 + alpha3 / 12.0 + _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
        c = -1j * (x[k] * SIGMA_X + y[k] * SIGMA_Y + z[k] * SIGMA_Z)
        assert np.max(np.abs(c - omega)) <= 1e-13 * max(1.0, np.max(np.abs(omega)))


def test_magnus_kernel_is_sixth_order():
    # on the real field b = (cos 2t, 0, 0.5), halving the step must cut the
    # global error of one segment 64-fold; the reference takes 4096 steps,
    # whose error is 64^5 below the finest run's
    edges = np.array([0.0, 5.0])

    def run(steps):
        return _segment_propagators(lambda t: (np.cos(2.0 * t), 0.5), edges, (steps,))[:, 0, 0]

    exact = run(4096)
    errors = [np.linalg.norm(run(steps) - exact) for steps in (16, 32, 64, 128)]
    assert errors[-1] > 1e-11  # above the rounding
    for coarse, fine in zip(errors, errors[1:]):
        assert 60.0 < coarse / fine < 68.0


def test_zero_field_keeps_the_initial_amplitudes():
    initial = AmplitudePair(c1=0.36 + 0.48j, c2=-0.8j)
    times = np.linspace(0.0, 3000.0, 101)
    quiet = make_params(gap_over_mod=0.0)
    undriven = make_params(ratio=0.0, gap_over_mod=0.0, epsilon0=0.0)
    for amps in (evolve_reduced(quiet, times, initial=initial),
                 evolve_corrected(quiet, times, initial=initial),
                 evolve_full(undriven, "z", times, initial=initial),
                 evolve_full(undriven, "x", times, initial=initial)):
        assert np.max(np.abs(amps[0] - initial.c1)) <= 1e-15
        assert np.max(np.abs(amps[1] - initial.c2)) <= 1e-15


# ---------------------------------------------------------------------------
# stroboscopic fold: U(n T + tau) = U(tau) U(T)^n
# ---------------------------------------------------------------------------

def _su2(theta, direction):
    """The pair of cos(theta) - i sin(theta) (u.sigma) for a unit u given by
    its (Im alpha, beta) components."""
    return np.array([math.cos(theta) + 1j * math.sin(theta) * direction[0],
                     math.sin(theta) * direction[1]])


@pytest.mark.parametrize("theta", [0.7, 1e-8, 3e-9, math.pi - 1e-8, math.pi - 3e-9])
def test_power_is_the_repeated_product(theta):
    direction = np.array([0.3, -0.5 + 0.2j]) / math.sqrt(0.38)
    u = _su2(theta, direction).reshape(2, 1)
    n = np.arange(10_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        power = _power(u[:, 0], n)
    product = np.array([[1.0], [0.0]], dtype=complex)
    for k in n:
        assert np.max(np.abs(power[:, k] - product[:, 0])) <= 4 * EPS * (k + 1), k
        product = _mul(product, u, np.empty_like(product))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_power_of_plus_minus_one_is_exact(sign):
    n = np.arange(10_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        power = _power(np.array([sign, 0.0], dtype=complex), n)
    assert np.array_equal(power, [sign ** n, np.zeros(n.size)])


def _expm_chain(hamiltonian_at, times, steps):
    """Amplitudes from the first basis state at ``times``: products of
    scipy's expm of the fourth-order Magnus exponent (two Gauss-Legendre
    nodes), ``steps`` equal steps between samples.  ``hamiltonian_at`` maps
    an array of times to their 2x2 Hamiltonians on the (c1, c2) basis."""
    edges = np.linspace(times[:-1], times[1:], steps + 1, axis=1)
    h = (edges[:, 1:] - edges[:, :-1]).ravel()[:, None, None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1]).ravel()
    a1 = -1j * hamiltonian_at(mid - h[:, 0, 0] * math.sqrt(3.0) / 6.0)
    a2 = -1j * hamiltonian_at(mid + h[:, 0, 0] * math.sqrt(3.0) / 6.0)
    exps = expm(0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h ** 2 * (a2 @ a1 - a1 @ a2))
    psi = np.array([1.0, 0.0], dtype=complex)
    out = [psi]
    for k, e in enumerate(exps, start=1):
        psi = e @ psi
        if k % steps == 0:
            out.append(psi)
    return np.array(out).T


@pytest.mark.parametrize("modulation, periods", [(0.2, 5.4), (0.25, 3.3)],
                         ids=["q odd", "q even"])
def test_folded_full_matches_expm(modulation, periods):
    p = SystemParams(epsilon0=1.0, delta_gap=0.3, amplitude=0.5, carrier=1.0,
                     modulation=modulation, order=1)
    period = p.period * (1.0 if round(p.carrier / p.modulation) % 2 else 2.0)
    times = np.linspace(0.0, periods * period, 37)

    def hamiltonian_at(t):  # model.hamiltonian is on (up, down); flip to (c1, c2)
        return np.array([hamiltonian(p, "z", x)[::-1, ::-1] for x in t])

    amps = evolve_full(p, "z", times, tol=1e-11)
    assert np.max(np.abs(amps - _expm_chain(hamiltonian_at, times, 200))) <= 1e-9


@pytest.mark.parametrize("order, periods", [(1, 3.4), (2, 5.7)])
def test_folded_corrected_matches_expm(order, periods):
    # i c' = k [[0, e^{-i alpha}], [e^{i alpha}, 0]] c with the signed
    # envelope k = -(delta_gap/2) J_N(2 r cos(delta t)) and alpha = (detuning
    # + delta_gap^2 / (2 epsilon0)) t - N pi; it repeats after 2 pi/delta
    # for odd N and pi/delta for even N
    p = SystemParams(epsilon0=float(order), delta_gap=0.1, amplitude=1.0, carrier=1.0,
                     modulation=0.05, order=order)
    detuning = p.detuning + p.delta_gap ** 2 / (2.0 * p.epsilon0)
    times = np.linspace(0.0, periods * p.period * (2.0 if order % 2 else 1.0), 37)

    def hamiltonian_at(t):
        k = -0.5 * p.delta_gap * special.jv(order, 2.0 * p.drive_ratio * np.cos(p.modulation * t))
        turn = np.exp(1j * (detuning * t - order * math.pi))
        return np.moveaxis(np.array([[0.0 * k, k / turn], [k * turn, 0.0 * k]]), 2, 0)

    amps = evolve_corrected(p, times, tol=1e-11)
    assert np.max(np.abs(amps[1])) > 0.5  # the populations move
    assert np.max(np.abs(amps - _expm_chain(hamiltonian_at, times, 40))) <= 1e-9


def _recorded_grids(monkeypatch):
    """Edges of every ``_segment_propagators`` call, by steps per segment."""
    grids = {}

    def record(field, edges, levels):
        for steps in levels:
            grids.setdefault(steps, []).append(edges)
        return _segment_propagators(field, edges, levels)

    monkeypatch.setattr(dynamics, "_segment_propagators", record)
    return grids


@pytest.mark.parametrize("evolve", [
    lambda p, times: evolve_reduced(p, times, tol=1e-10),
    lambda p, times: evolve_full(p, "z", times, tol=1e-8),
], ids=["reduced", "full q odd"])
def test_a_long_window_propagates_one_period(evolve, monkeypatch):
    # both fields repeat after T = pi/delta (q = omega_0/delta = 5 is odd)
    # and are even about T/2, so only [0, T/2] is chained
    p = make_params(order=1, ratio=0.5, gap_over_mod=2.0, modulation=0.2)
    times = np.linspace(0.0, 40 * p.period, 2001)
    grids = _recorded_grids(monkeypatch)
    evolve(p, times)
    for edges in grids.values():
        edges = np.concatenate(edges)
        assert edges.max() <= 0.5 * p.period
        # 0, 25 folded samples (the last one on T/2, where the |cos| envelope
        # has its kink; those past T/2 mirrored onto them) and 1 carrier
        # edge, where the whole period took 54
        assert np.unique(edges).size <= 27


@pytest.mark.parametrize("evolve", [
    lambda p, times: evolve_reduced(p, times, tol=1e-10),
    lambda p, times: evolve_full(p, "z", times, tol=1e-8),
], ids=["reduced", "full"])
def test_samples_at_whole_periods_add_no_segment(evolve, monkeypatch):
    p = make_params(order=1, ratio=0.5, gap_over_mod=2.0, modulation=0.2)  # q = 5
    times = np.linspace(0.0, 3.0 * p.period, 31)  # T, 2 T and 3 T within rounding
    whole = times[20]
    dense = np.sort(np.concatenate((times, [np.nextafter(whole, 0.0),
                                            np.nextafter(whole, math.inf)])))
    counts = []
    for run in (np.delete(times, [10, 20]), times, dense):
        grids = _recorded_grids(monkeypatch)
        amps = evolve(p, run)
        counts.append({steps: sum(e.size - 1 for e in edges) for steps, edges in grids.items()})
    assert counts[0] == counts[1] == counts[2]
    assert np.max(np.abs(amps[:, 20:23] - amps[:, [21]])) <= 1e-15


def test_an_overflowed_field_stops_at_the_first_doubling(monkeypatch):
    # the field overflows, so the change between the first two runs is NaN,
    # which no prediction of the steps needed for tol passes
    p = make_params(ratio=1e300)
    grids = _recorded_grids(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(IntegrationError, match="not reached within"):
            evolve_full(p, "z", np.linspace(0.0, 20 * 2.0 * math.pi, 5))
    assert len(grids) <= 2


@pytest.mark.parametrize("t_end", [3e19, 1e300])
def test_a_window_past_the_fold_is_refused(t_end, monkeypatch):
    # 4 eps t_end >= T: the rounding of the times spans the period, so every
    # folded sample would land on 0 and the identity would come back
    p = make_params(ratio=0.5, modulation=2.5e-4)  # omega_0 = 4000 delta
    assert 4.0 * EPS * t_end >= p.period
    grids = _recorded_grids(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for evolve in (evolve_reduced, evolve_corrected, lambda q, t: evolve_full(q, "z", t)):
            with pytest.raises(IntegrationError, match="t_end = .* is too long"):
                evolve(p, [0.0, t_end])
    assert not grids


@pytest.mark.parametrize("t_end", [1e20, 1e300])
def test_an_unfoldable_full_window_past_the_carrier_rounding_is_refused(t_end, monkeypatch):
    # omega_0/delta is no integer, so the whole window would be chained with
    # an edge every carrier period: 1e20 asked NumPy for 2.72 EiB of them and
    # 1e300 for more than it can size.  4 eps t_end >= 2 pi/omega_0 is
    # refused by name before any edge array is built
    p = make_params(ratio=0.5, modulation=0.0123)
    assert 4.0 * EPS * t_end >= 2.0 * math.pi / p.carrier
    grids = _recorded_grids(monkeypatch)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for axis in ("z", "x"):
                with pytest.raises(IntegrationError, match="t_end = .* is too long"):
                    evolve_full(p, axis, [0.0, t_end])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not grids
    assert peak < 2 ** 20


# name, run, N, delta and the field's period in units of pi/delta
_FOLDED_RUNS = [
    ("reduced", lambda p, t: evolve_reduced(p, t, tol=1e-10), 1, 0.2, 1.0),
    ("corrected N odd", lambda p, t: evolve_corrected(p, t, tol=1e-10), 1, 0.2, 2.0),
    ("corrected N even", lambda p, t: evolve_corrected(p, t, tol=1e-10), 2, 0.2, 1.0),
    ("full z q odd", lambda p, t: evolve_full(p, "z", t, tol=1e-9), 1, 0.2, 1.0),
    ("full x q odd", lambda p, t: evolve_full(p, "x", t, tol=1e-9), 1, 0.2, 1.0),
    ("full z q even", lambda p, t: evolve_full(p, "z", t, tol=1e-9), 1, 0.25, 2.0),
    ("full x q even", lambda p, t: evolve_full(p, "x", t, tol=1e-9), 2, 0.25, 2.0),
]


def _folded_call(monkeypatch, evolve, order, modulation, periods, windows=3.3):
    """Run ``evolve`` over ``windows`` periods of its field at 61 samples;
    return the unpatched ``_propagate``, the params, and the arguments and
    result of its one call."""
    calls = []

    def spy(field, times, tol, period, spacing, initial):
        amps = propagate(field, times, tol, period, spacing, initial)
        calls.append((field, times, tol, period, spacing, initial, amps))
        return amps

    propagate = dynamics._propagate
    monkeypatch.setattr(dynamics, "_propagate", spy)
    # off resonance by 0.01, so the reduced fields have a z component
    p = make_params(order=order, ratio=0.5, gap_over_mod=2.0, modulation=modulation,
                    epsilon0=order + 0.01)
    evolve(p, np.linspace(0.0, windows * periods * p.period, 61))
    assert len(calls) == 1 and calls[0][3] == periods * p.period
    return propagate, p, calls[0]


def _whole_chain(propagate, field, times, tol, period, spacing, initial):
    """The same field chained over the whole window, unfolded.  An envelope
    equation passes no edge spacing: folded, its chain stops at T/2, where
    the |cos(delta t)| envelope has its kink, so a whole chain takes its
    edges every T/2, at every kink."""
    return propagate(field, times, tol, None, spacing or 0.5 * period, initial)


@pytest.mark.parametrize("evolve, order, modulation, periods",
                         [run[1:] for run in _FOLDED_RUNS], ids=[run[0] for run in _FOLDED_RUNS])
def test_the_fold_matches_the_whole_window(evolve, order, modulation, periods, monkeypatch):
    propagate, _, (field, times, tol, period, spacing, initial, folded) = _folded_call(
        monkeypatch, evolve, order, modulation, periods)
    whole = _whole_chain(propagate, field, times, tol, period, spacing, initial)
    assert np.max(np.abs(folded - whole)) <= tol


@pytest.mark.parametrize("evolve, order, modulation, periods",
                         [run[1:] for run in _FOLDED_RUNS], ids=[run[0] for run in _FOLDED_RUNS])
def test_a_window_past_half_a_period_folds(evolve, order, modulation, periods, monkeypatch):
    # 0.7 periods: every n is 0, the chain stops at T/2 and the samples past
    # it take conj(U(T - tau)) U(T); a chain over the whole window agrees
    grids = _recorded_grids(monkeypatch)
    propagate, _, (field, times, tol, period, spacing, initial, folded) = _folded_call(
        monkeypatch, evolve, order, modulation, periods, windows=0.7)
    assert max(np.max(edges) for run in grids.values() for edges in run) <= 0.5 * period
    whole = _whole_chain(propagate, field, times, tol, period, spacing, initial)
    assert np.max(np.abs(folded - whole)) <= tol


@pytest.mark.parametrize("evolve, order, modulation, periods",
                         [run[1:] for run in _FOLDED_RUNS], ids=[run[0] for run in _FOLDED_RUNS])
def test_a_folded_field_is_real_and_even_about_half_its_period(evolve, order, modulation,
                                                             periods, monkeypatch):
    # the half-period chain needs field(T - t) = field(t) with b_y = 0.  The
    # rounding of the phases, up to omega_0 T = 8 pi, moves the field by a
    # few eps times that phase
    _, params, (field, _, _, period, _, _, _) = _folded_call(
        monkeypatch, evolve, order, modulation, periods)
    t = np.linspace(0.0, period, 1001)
    ahead = [np.broadcast_to(x, t.shape) for x in field(t)]
    behind = [np.broadcast_to(x, t.shape) for x in field(period - t)]
    scale = max(np.max(np.abs(x)) for x in ahead)
    assert all(np.isrealobj(x) for x in ahead)
    for a, b in zip(ahead, behind):
        assert np.max(np.abs(a - b)) <= 4.0 * EPS * params.carrier * period * scale


def test_zero_field_over_many_periods_is_the_identity():
    still = make_params(ratio=0.0, gap_over_mod=0.0, modulation=0.05)
    undriven = make_params(ratio=0.0, gap_over_mod=0.0, modulation=0.05, epsilon0=0.0)
    times = np.linspace(0.0, 50 * 2.0 * still.period, 1001)  # 50 periods of every field
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runs = (evolve_reduced(still, times), evolve_corrected(still, times),
                evolve_full(undriven, "z", times), evolve_full(undriven, "x", times))
    for amps in runs:
        assert np.array_equal(amps, [np.ones(times.size), np.zeros(times.size)])


# ---------------------------------------------------------------------------
# x-configuration closed forms
# ---------------------------------------------------------------------------

def test_xconfig_node_and_peak():
    delta = 1e-3
    assert xconfig_dynamics(0.05, delta, math.pi / delta).p_up < 1e-12
    # (v/delta) sin(delta t) = pi/2 at sin = pi/2 * delta / v
    v = 0.05
    t_peak = math.asin(math.pi / 2 * delta / v) / delta
    assert xconfig_dynamics(v, delta, t_peak).p_up == pytest.approx(1.0, abs=1e-12)


def test_xconfig_phases_are_purely_periodic():
    # no secular phase accumulates over a full modulation cycle, i.e. the
    # branch quasienergies vanish
    v, delta = 0.07, 2e-3
    t0 = 123.4
    cycle = 2 * math.pi / delta
    a = xconfig_dynamics(v, delta, t0)
    b = xconfig_dynamics(v, delta, t0 + cycle)
    assert b.qes_plus == pytest.approx(a.qes_plus, abs=1e-9)
    assert b.qes_minus == pytest.approx(a.qes_minus, abs=1e-9)
    assert abs(a.qes_plus * a.qes_minus - 1.0) < 1e-12  # opposite phases


def test_xconfig_rejects_zero_modulation():
    with pytest.raises(ValueError):
        xconfig_dynamics(0.1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# trace container
# ---------------------------------------------------------------------------

def test_trace_validates_population_sum():
    with pytest.raises(ValueError):
        PopulationTrace(times=[0.0, 1.0], p1=[1.0, 0.8], p2=[0.0, 0.1])


def test_trace_validates_equal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        PopulationTrace(times=[0.0, 1.0], p1=[1.0], p2=[0.0])


def test_trace_validates_monotonic_times():
    with pytest.raises(ValueError):
        PopulationTrace(times=[0.0, 0.0], p1=[1.0, 1.0], p2=[0.0, 0.0])


@pytest.mark.parametrize("times, reason", [
    ([math.nan], "finite"),
    ([0.0, math.inf], "finite"),
    ([0.0, math.nan, 2.0], "finite and >= 0, got nan"),
    ([1.0, 0.5], "increasing"),
], ids=["nan", "inf", "nan between", "decreasing"])
def test_trace_takes_the_sample_time_rule(times, reason):
    # the rule of every evolution's sample times (_validate_times)
    with pytest.raises(ValueError, match=reason):
        PopulationTrace(times=times, p1=np.ones(len(times)), p2=np.zeros(len(times)))


def test_amplitude_pair_norm():
    pair = AmplitudePair(c1=1 / math.sqrt(2), c2=1j / math.sqrt(2))
    assert pair.norm == pytest.approx(1.0, abs=1e-15)
