import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from floquet_qubit.floquet import (
    alpha_phase,
    build_phase_decomposition,
    effective_bessel_argument,
    exact_effective_argument,
    fourier_phase,
    graf_bessel_sum,
    graf_closed_form,
    mean_bessel,
    qes_state,
    quasienergy,
    reconstruct_periodic_phase,
    weak_forms,
)
from floquet_qubit.floquet import _abs_cos_antiderivative
from floquet_qubit.model import SystemParams
from floquet_qubit.specfun import bessel_series

from oracles import (abs_cos_power_integral, accumulated_phase_quad, fourier_coefficient,
                     jacobi_anger_periodic_phase, mean_coupling_quad, mp_besselj,
                     weak_drive_means)


def make_params(order=1, ratio=0.1, gap_over_mod=40.0, modulation=1e-3, carrier=1.0):
    """Exact-resonance parameter set from the dimensionless knobs."""
    return SystemParams(epsilon0=order * carrier, delta_gap=gap_over_mod * modulation,
                        amplitude=ratio * carrier, carrier=carrier,
                        modulation=modulation, order=order)


# ---------------------------------------------------------------------------
# coupling envelope and its period average
# ---------------------------------------------------------------------------

def test_mean_bessel_zero_drive():
    assert mean_bessel(make_params(ratio=0.0)) == 0.0


def test_mean_bessel_frozen_value():
    # (1/pi) int_0^pi J_1(0.2 |cos u|) du from a 40-digit quadrature
    p = make_params(order=1, ratio=0.1)
    assert mean_bessel(p) == pytest.approx(0.0634500533860782769, abs=1e-12)


def test_mean_bessel_weak_series_crosscheck():
    # J_1(w) ~ w/2 - w^3/16 gives (2/pi) r - r^3 (4/(3 pi)) / 2
    r = 0.1
    expected = (2 / math.pi) * r - r ** 3 * (4 / (3 * math.pi)) / 2
    assert mean_bessel(make_params(order=1, ratio=r)) == pytest.approx(expected, abs=2e-6)


def test_mean_bessel_matches_quadrature_oracle():
    for order, ratio in ((1, 0.1), (1, 1.0), (2, 0.5), (3, 2.0)):
        ref = mean_coupling_quad(order, ratio)
        assert mean_bessel(make_params(order=order, ratio=ratio)) == pytest.approx(ref, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(1, 6), ratio=st.floats(0.0, 11.0))
def test_mean_bessel_matches_quadrature_oracle_anywhere(order, ratio):
    ref = mean_coupling_quad(order, ratio)
    assert mean_bessel(make_params(order=order, ratio=ratio)) == pytest.approx(ref, abs=1e-11)


def test_mean_bessel_equals_half_order_bessel_squared():
    # independent closed form: the period average equals J_{N/2}(r)^2, which
    # pins both the positivity and the (tangent) zero structure
    for order in (1, 2, 3):
        for ratio in (0.1, 1.0, 2.5, 4.0):
            ref = mp_besselj(order / 2.0, ratio) ** 2
            got = mean_bessel(make_params(order=order, ratio=ratio))
            assert got == pytest.approx(ref, abs=1e-11)


def test_mean_bessel_near_first_zero():
    assert abs(mean_bessel(make_params(order=1, ratio=3.13))) < 2e-3


# ---------------------------------------------------------------------------
# quasienergy
# ---------------------------------------------------------------------------

def test_quasienergy_zero_drive():
    assert quasienergy(make_params(ratio=0.0)) == 0.0


def test_quasienergy_frozen_value():
    p = SystemParams(epsilon0=1.0, delta_gap=1.0, amplitude=0.1, carrier=1.0,
                     modulation=1e-3, order=1)
    assert quasienergy(p) == pytest.approx(-0.0317250266930391385, abs=1e-12)


def test_quasienergy_near_second_order_zero():
    p = SystemParams(epsilon0=2.0, delta_gap=0.7, amplitude=3.8, carrier=1.0,
                     modulation=1e-3, order=2)
    assert abs(quasienergy(p)) < 2e-3 * 0.7


def test_period_average_rejects_inputs_past_the_bessel_domain():
    # the domain of fourier_phase and build_phase_decomposition: order <= 200,
    # 2 A/omega_0 <= 1e3
    for p, message in ((make_params(order=201), "order 201"),
                       (make_params(ratio=600.0), "Bessel argument")):
        for call in (mean_bessel, quasienergy):
            with pytest.raises(ValueError, match=message):
                call(p)
    assert mean_bessel(make_params(order=200, ratio=500.0)) >= 0.0


def test_quasienergy_sign_law():
    # below the first zero the sign is (-1)^N
    for r in (0.3, 1.5, 3.0):
        assert quasienergy(make_params(order=1, ratio=r)) < 0.0
    for r in (0.3, 1.5, 3.5):
        assert quasienergy(make_params(order=2, ratio=r)) > 0.0


# ---------------------------------------------------------------------------
# phase function and decomposition
# ---------------------------------------------------------------------------

def test_gamma_at_origin():
    assert build_phase_decomposition(make_params()).gamma_at(0.0) == 0.0


def test_gamma_closes_at_full_period():
    p = make_params(order=1, ratio=0.5, gap_over_mod=30.0)
    decomposition = build_phase_decomposition(p)
    gamma = decomposition.gamma_at(p.period)
    assert gamma == pytest.approx(decomposition.slope * p.period, rel=1e-10)
    assert abs(decomposition.periodic_part(p.period)) < 1e-12


def test_gamma_staircase_shape():
    # strong first-order drive: monotone growth with flat steps at the
    # envelope nodes
    p = make_params(order=1, ratio=1.0, gap_over_mod=12.0)
    dec = build_phase_decomposition(p)
    t = np.linspace(0.0, 3 * p.period, 601)
    gamma = dec.gamma_at(t)
    assert np.all(np.diff(gamma) > -1e-12)
    mid_slope = (dec.gamma_at(0.5 * p.period + 1.0) - dec.gamma_at(0.5 * p.period - 1.0)) / 2.0
    peak_slope = (dec.gamma_at(1.0) - dec.gamma_at(0.0))
    assert mid_slope < 0.02 * peak_slope


def quad_gamma(p, t):
    """gamma_N(t) = (delta_gap / (2 delta)) F(delta t) with F by mpmath quadrature."""
    return 0.5 * p.delta_gap / p.modulation * accumulated_phase_quad(
        p.order, p.drive_ratio, p.modulation * t)


def test_decomposition_consistency_against_quadrature():
    rng = np.random.RandomState(17)
    for p in (make_params(order=1, ratio=0.1, gap_over_mod=40.0),
              make_params(order=1, ratio=1.0, gap_over_mod=12.0),
              make_params(order=2, ratio=0.1, gap_over_mod=401.0),
              make_params(order=2, ratio=1.0, gap_over_mod=31.0)):
        dec = build_phase_decomposition(p)
        for _ in range(8):
            t = float(rng.uniform(0.0, 10 * p.period))
            assert abs(dec.gamma_at(t) - quad_gamma(p, t)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 6), ratio=st.one_of(st.just(0.0), st.floats(0.0, 11.0)),
       cycles=st.one_of(
           st.floats(0.0, 10.0),
           st.builds(lambda m, e: m + 0.5 + e, st.integers(0, 9), st.floats(-1e-6, 1e-6)),
           st.builds(lambda m, e: max(m + e, 0.0), st.integers(0, 10), st.floats(-1e-6, 1e-6))))
def test_accumulated_phase_matches_quadrature(order, ratio, cycles):
    # draws near T/2, where the |cos| envelope has its node, near whole
    # periods, and anywhere up to ten periods; gap_over_mod = 2 makes
    # gamma_N(t) = F(delta t) = int_0^{delta t} J_N(2 r |cos v|) dv
    p = make_params(order=order, ratio=ratio, gap_over_mod=2.0)
    t = cycles * p.period
    reference = accumulated_phase_quad(order, ratio, p.modulation * t)
    dec = build_phase_decomposition(p)
    assert abs(dec.gamma_at(t) - reference) < 1e-13
    assert abs(dec.gamma_at(np.array([t]))[0] - reference) < 1e-13


@pytest.mark.parametrize("order, amplitude", [(1, 3.0), (1, 7.7), (5, 10.0)])
def test_gamma_past_the_envelope_node(order, amplitude):
    # at t = 2.5 pi / delta the remainder of a period lands a rounding hair
    # past the envelope node T/2; an adaptive quadrature with its break point
    # there failed to converge (error estimates 2.2e-8, 1.5 and 75)
    p = SystemParams(epsilon0=1.0, delta_gap=1e-2, amplitude=amplitude, carrier=1.0,
                     modulation=2e-3, order=order)
    dec = build_phase_decomposition(p)
    t_node = 2.5 * math.pi / p.modulation
    gamma = dec.gamma_at(t_node)
    assert math.isfinite(gamma)
    reference = accumulated_phase_quad(order, p.drive_ratio, p.modulation * t_node)
    assert abs(gamma * 2.0 * p.modulation / p.delta_gap - reference) < 1e-13
    grid = np.linspace(0.0, 5 * p.period, 2001)
    on_grid = dec.gamma_at(grid)
    for t, gamma_t in zip(grid, on_grid):
        gamma = dec.gamma_at(float(t))
        assert math.isfinite(gamma) and abs(gamma - gamma_t) < 1e-13


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("ratio", [50.0, 200.0])
def test_periodic_part_at_a_strong_drive_matches_jacobi_anger(order, ratio):
    # up to three periods in u = delta t, away from the envelope nodes, with
    # F(u) - M u (the periodic part in units of the scale) summed over every
    # Bessel product in mpmath.  Horner's rule over the terms w on |z| = 1
    # loses at most one rounding of sum |w| per term, and rounding the
    # argument u shifts F - M u by eps (|u| + pi) times its slope J_N - M
    p = make_params(order=order, ratio=ratio)
    dec = build_phase_decomposition(p)
    scale = 0.5 * p.delta_gap / p.modulation
    t = np.array([0.1, 1.3, 0.5 * math.pi + 0.2, 2.9, 4.0, 7.5, 9.3]) / p.modulation
    u = p.modulation * t  # the argument periodic_part forms
    reference = np.array(jacobi_anger_periodic_phase(order, ratio, u))
    series = bessel_series(order, ratio)
    m = np.arange(2 - order % 2, len(series), 2)
    weights = np.abs(series[m] / m)
    mean = special.jv(0.5 * order, ratio) ** 2
    slope = np.abs(special.jv(order, 2.0 * ratio * np.abs(np.cos(u)))) + mean
    bound = np.finfo(float).eps * (len(m) * np.sum(weights) + (np.abs(u) + math.pi) * slope)
    assert np.all(np.abs(dec.periodic_part(t) / scale - reference) <= bound)
    for time, ref, b in zip(t.tolist(), reference, bound):
        assert abs(dec.periodic_part(time) / scale - ref) <= b


def test_periodic_part_is_periodic():
    p = make_params(order=1, ratio=1.0, gap_over_mod=12.0)
    dec = build_phase_decomposition(p)
    rng = np.random.RandomState(4)
    t = rng.uniform(0.0, 10 * p.period, size=1000)
    assert np.max(np.abs(dec.periodic_part(t + p.period) - dec.periodic_part(t))) < 1e-8
    # mpmath quadrature route: one period of it must add slope * T
    for t0 in rng.uniform(0.0, 5 * p.period, size=10):
        phi1 = quad_gamma(p, t0) - dec.slope * t0
        phi2 = quad_gamma(p, t0 + p.period) - dec.slope * (t0 + p.period)
        assert abs(phi2 - phi1) < 1e-8


@settings(max_examples=50, deadline=None)
@given(order=st.integers(1, 6), ratio=st.one_of(st.just(0.0), st.floats(0.0, 11.0)),
       gap_over_mod=st.floats(0.1, 40.0), cycles=st.floats(0.0, 10.0))
def test_periodic_part_closes_over_a_period_anywhere(order, ratio, gap_over_mod, cycles):
    p = make_params(order=order, ratio=ratio, gap_over_mod=gap_over_mod)
    dec = build_phase_decomposition(p)
    t = cycles * p.period
    assert abs(dec.periodic_part(t + p.period) - dec.periodic_part(t)) < 1e-8


def test_phase_rejects_inputs_past_the_bessel_domain():
    # the same domain as the envelope functions: 2 A/omega_0 <= 1e3, order <= 200
    for p in (make_params(ratio=500.5), make_params(order=201)):
        with pytest.raises(ValueError):
            build_phase_decomposition(p)
    assert build_phase_decomposition(make_params(order=200, ratio=500.0)).slope >= 0.0


def test_periodic_part_vanishes_at_reference_point():
    dec = build_phase_decomposition(make_params(order=2, ratio=0.7))
    assert dec.periodic_part(0.0) == 0.0


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("ratio", [0.0, 0.3, 3.8317, 11.0])
def test_scalar_periodic_part_matches_the_array_path(order, ratio):
    # a float time runs the one Horner sum in cmath, an array in NumPy
    p = make_params(order=order, ratio=ratio, gap_over_mod=12.0)
    dec = build_phase_decomposition(p)
    rng = np.random.default_rng(order)
    times = np.concatenate((0.5 * p.period * np.arange(5), rng.uniform(0.0, 20.0 * p.period, 40),
                            [1e6 / p.modulation]))
    array = dec.periodic_part(times)
    peak = float(np.max(np.abs(array)))
    parity = 1.0 if order % 2 == 0 else -1.0
    for t, expected in zip(times.tolist(), array.tolist()):
        value = dec.periodic_part(t)
        assert type(value) is float
        assert abs(value - expected) <= 1e-13 * peak
        for branch, s in (("plus", 1.0), ("minus", -1.0)):
            state = qes_state(p, branch, t)
            amplitude = complex(np.exp(1j * s * parity * expected)) / math.sqrt(2.0)
            assert abs(state.c_down - amplitude) <= 1e-13 * max(peak, 1.0)
            assert state.c_up == s * state.c_down
    assert dec.periodic_part(0.0) == 0.0


# ---------------------------------------------------------------------------
# Fourier representation
# ---------------------------------------------------------------------------

def test_fourier_zero_drive():
    fp = fourier_phase(make_params(ratio=0.0), 8)
    assert np.max(np.abs(fp.coefficients)) == 0.0


def test_fourier_dc_equals_mean():
    for p in (make_params(order=1, ratio=1.0), make_params(order=2, ratio=0.5)):
        fp = fourier_phase(p, 16)
        assert fp.coefficient(0).imag == 0.0
        assert fp.coefficient(0).real == pytest.approx(mean_bessel(p), abs=1e-9)


def test_fourier_conjugate_symmetry():
    fp = fourier_phase(make_params(order=1, ratio=1.2), 12)
    for n in range(1, 13):
        assert fp.coefficient(-n) == np.conj(fp.coefficient(n))


def test_fourier_reconstruction_matches_quadrature():
    # even order: the coupling is analytic in t and 64 harmonics are ample;
    # odd order: the envelope kink slows the tail, so the slow-tunneling
    # regime is used to stay inside the 1e-6 budget
    cases = (make_params(order=2, ratio=1.0, gap_over_mod=40.0),
             make_params(order=1, ratio=1.0, gap_over_mod=0.1))
    for p in cases:
        fp = fourier_phase(p, 64)
        dec = build_phase_decomposition(p)
        t = np.linspace(0.0, p.period, 501)
        rec = reconstruct_periodic_phase(fp, p.delta_gap, t)
        assert np.max(np.abs(rec - dec.periodic_part(t))) < 1e-6


def test_fourier_high_harmonics_match_bessel_products():
    # G(n) = J_{N/2+n}(r) J_{N/2-n}(r) (Neumann's product integral); evaluated
    # as that product in doubles it turns into inf * 0 once J_{N/2-n}
    # overflows (n >= 150 at N=1, r=0.3), so the table is built from
    # integer-order products J_k(r) J_{N-k}(r) instead
    n_max = 200
    for order in (1, 2, 3):
        for ratio in (0.0, 1e-3, 0.3, 3.0):
            table = fourier_phase(make_params(order=order, ratio=ratio), n_max)
            ref = np.array([fourier_coefficient(order, n, ratio)
                            for n in range(-n_max, n_max + 1)])
            assert np.max(np.abs(table.coefficients - ref)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(order=st.integers(1, 6), ratio=st.one_of(st.just(0.0), st.floats(0.0, 11.0)),
       n_max=st.integers(1, 200))
def test_fourier_matches_bessel_product_oracle_anywhere(order, ratio, n_max):
    table = fourier_phase(make_params(order=order, ratio=ratio), n_max).coefficients
    ref = np.array([fourier_coefficient(order, n, ratio) for n in range(n_max + 1)])
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table[n_max:] - ref)) < 1e-14
    assert np.array_equal(table[:n_max], table[:n_max:-1])


def test_fourier_strong_drive_up_to_the_bessel_domain():
    # G(0) is the period average J_{N/2}(r)^2 and, for even N, G(n) is the
    # integer-order product J_{N/2+n}(r) J_{N/2-n}(r), out to 2 r = 1e3
    harm = np.arange(65)
    for order in (1, 2, 3, 4):
        for ratio in (50.0, 250.0, 500.0):
            p = make_params(order=order, ratio=ratio)
            table = fourier_phase(p, 64).coefficients[64:]
            assert abs(table[0] - mean_bessel(p)) < 1e-14
            if order % 2 == 0:
                ref = special.jv(order // 2 + harm, ratio) * special.jv(order // 2 - harm, ratio)
                assert np.max(np.abs(table - ref)) < 1e-14
    with pytest.raises(ValueError):
        fourier_phase(make_params(ratio=500.5), 8)


def test_fourier_rejects_order_past_the_bessel_domain():
    # the same order limit as build_phase_decomposition and bessel_j
    with pytest.raises(ValueError, match="order 201"):
        fourier_phase(make_params(order=201), 8)
    assert fourier_phase(make_params(order=200), 8).n_max == 8


def test_fourier_rejects_bad_harmonic_count():
    with pytest.raises(ValueError):
        fourier_phase(make_params(), 0)


def test_fourier_coefficient_refuses_a_harmonic_past_the_table():
    table = fourier_phase(make_params(), 4)
    with pytest.raises(ValueError, match="harmonic 5 outside"):
        table.coefficient(5)
    with pytest.raises(ValueError, match="n must be an integer >= -4"):
        table.coefficient(-5)


# ---------------------------------------------------------------------------
# quasienergetic states
# ---------------------------------------------------------------------------

def test_qes_at_origin_plus():
    state = qes_state(make_params(), "plus", 0.0)
    root_half = 1 / math.sqrt(2)
    assert state.c_down == pytest.approx(root_half, abs=1e-12)
    assert state.c_up == pytest.approx(root_half, abs=1e-12)


def test_qes_periodic_factor_closes():
    p = make_params(order=1, ratio=0.8, gap_over_mod=25.0)
    s0 = qes_state(p, "plus", 0.0)
    s1 = qes_state(p, "plus", p.period)
    assert s1.c_down == pytest.approx(s0.c_down, abs=1e-10)
    assert s1.c_up == pytest.approx(s0.c_up, abs=1e-10)


def test_qes_norm_and_energies():
    p = make_params(order=2, ratio=1.3, gap_over_mod=31.0)
    rng = np.random.RandomState(2)
    for t in rng.uniform(0, 5 * p.period, size=10):
        plus = qes_state(p, "plus", float(t))
        minus = qes_state(p, "minus", float(t))
        assert plus.norm == pytest.approx(1.0, abs=1e-12)
        assert minus.norm == pytest.approx(1.0, abs=1e-12)
        assert plus.quasienergy + minus.quasienergy == 0.0
        assert minus.c_up == pytest.approx(-minus.c_down, abs=1e-12)


def test_qes_quasienergy_is_the_signed_slope():
    # +-(-1)^N slope to the bit; the slope's G(0) and the half-order jv of
    # quasienergy differ by up to about 4e-14 relative
    for order in (1, 2, 3):
        p = make_params(order=order, ratio=1.3)
        slope = build_phase_decomposition(p).slope
        for branch, s in (("plus", 1.0), ("minus", -1.0)):
            energy = qes_state(p, branch, 1.0).quasienergy
            assert energy == s * (-1.0) ** order * slope
            assert energy == pytest.approx(s * quasienergy(p), rel=1e-13)


def test_qes_invalid_branch():
    with pytest.raises(ValueError):
        qes_state(make_params(), "up", 0.0)


@pytest.mark.parametrize("branch", ["up", "Plus", None, b"plus", ["plus"]])
def test_qes_refuses_a_branch_by_name(branch):
    with pytest.raises(ValueError, match="branch must be 'plus' or 'minus'"):
        qes_state(make_params(), branch, 0.0)


def test_qes_state_is_an_immutable_hashable_record():
    # (c_down, c_up) = e^{i s (-1)^N Phi} (1, s) / sqrt(2), to the bit
    for order in (1, 2):
        p = make_params(order=order, ratio=1.3)
        phi = build_phase_decomposition(p).periodic_part(123.4)
        for branch, s in (("plus", 1.0), ("minus", -1.0)):
            state = qes_state(p, branch, 123.4)
            amplitude = cmath.exp(1j * s * (-1.0) ** order * phi) / math.sqrt(2.0)
            assert state == (branch, state.quasienergy, amplitude, s * amplitude)
            assert state._fields == ("branch", "quasienergy", "c_down", "c_up")
            assert hash(state) == hash(qes_state(p, branch, 123.4))
            with pytest.raises(AttributeError):
                state.c_up = 0.0


# ---------------------------------------------------------------------------
# weak-drive closed forms
# ---------------------------------------------------------------------------

def test_weak_moment_factor_first_order():
    p = make_params(order=1, ratio=0.2)
    forms = weak_forms(p, 0.0)
    assert forms.mean_moment / 0.2 == pytest.approx(2 / math.pi, rel=1e-12)


def test_weak_bracket_value_is_pinned():
    # the bracket closed form is deliberately kept different from the moment
    # form: for order 1 it evaluates to 1/sqrt(pi) per drive ratio, a factor
    # sqrt(pi)/2 below 2/pi.  This assertion fails if anyone "fixes" it.
    p = make_params(order=1, ratio=0.2)
    forms = weak_forms(p, 0.0)
    assert forms.mean_bracket / 0.2 == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
    assert forms.mean_bracket / forms.mean_moment == pytest.approx(
        math.sqrt(math.pi) / 2, rel=1e-12)


def test_abs_cos_antiderivative_values():
    # int_0^{pi/2} |cos| dv = 1 for order 1 (the hypergeometric term dies at
    # the node); order 2 gives pi/4
    assert _abs_cos_antiderivative(1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert _abs_cos_antiderivative(2, math.pi / 2) == pytest.approx(math.pi / 4, abs=1e-12)
    assert _abs_cos_antiderivative(1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert _abs_cos_antiderivative(1, math.pi) == pytest.approx(2.0, abs=1e-12)
    # orders above 10 against an independent quadrature
    for order in (12, 20):
        for u in (0.0, 0.4, 1.2, math.pi / 2, 2.0, 2.9, math.pi):
            assert _abs_cos_antiderivative(order, u) == pytest.approx(
                abs_cos_power_integral(order, u), abs=1e-14)


def test_weak_phi_matches_phase_table():
    for order in (1, 2):
        p = make_params(order=order, ratio=0.05, gap_over_mod=1.0)
        dec = build_phase_decomposition(p)
        t = np.linspace(0.0, 2 * p.period, 101)
        phi_weak = np.array([weak_forms(p, float(s)).phi_periodic for s in t])
        phi_exact = dec.periodic_part(t)
        scale = max(np.max(np.abs(phi_exact)), 1e-300)
        assert np.max(np.abs(phi_weak - phi_exact)) < 0.01 * scale


def test_weak_phi_is_odd_in_time():
    for order in (1, 2, 5):
        p = make_params(order=order, ratio=0.05, gap_over_mod=1.0)
        dec = build_phase_decomposition(p)
        t = np.linspace(0.05, 2.0, 9) * p.period
        plus = np.array([weak_forms(p, float(s)).phi_periodic for s in t])
        minus = np.array([weak_forms(p, -float(s)).phi_periodic for s in t])
        assert np.all(np.abs(minus + plus) <= 1e-15 * np.abs(plus))
        # and it is the phase table's, read at negative times
        exact = dec.periodic_part(-t)
        assert np.max(np.abs(minus - exact)) < 0.01 * np.max(np.abs(exact))


def test_weak_mean_converges_to_quadrature():
    for order in (1, 2, 12):
        for ratio in (0.02, 0.05):
            p = make_params(order=order, ratio=ratio)
            exact = mean_bessel(p)
            weak = weak_forms(p, 0.0).mean_moment
            assert abs(weak - exact) / exact < 0.01


# ---------------------------------------------------------------------------
# Bessel-summation (Graf) validation path
# ---------------------------------------------------------------------------

def test_exact_argument_approaches_envelope_form():
    p = make_params(order=1, ratio=1.0, modulation=1e-3)
    t = np.linspace(0.0, p.period, 101)
    exact = exact_effective_argument(p, t)
    approx = effective_bessel_argument(p, t)
    assert np.max(np.abs(exact - approx)) < 4 * p.drive_ratio * p.modulation / p.carrier


def test_graf_sum_equals_closed_form():
    rng = np.random.RandomState(77)
    for _ in range(20):
        z2 = float(rng.uniform(0.2, 4.0))
        z1 = z2 * float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.0, 2 * math.pi))
        order = int(rng.randint(1, 4))
        total = graf_bessel_sum(z1, z2, gamma, order)
        closed = graf_closed_form(z1, z2, gamma, order)
        assert abs(total - closed) < 1e-8


def test_graf_sum_reaches_the_bessel_tail_at_large_arguments():
    # the sum runs to |k| = bessel_span(50) = 125; stopping at 60 would be
    # off by 1.0e-8 at N = 1 and 4.1e-8 at N = 3
    for order in (1, 3):
        total = graf_bessel_sum(45.0, 50.0, 0.3, order)
        assert abs(total - graf_closed_form(45.0, 50.0, 0.3, order)) < 1e-14
    with pytest.raises(ValueError):  # needs orders past 200
        graf_bessel_sum(100.0, 150.0, 0.3, 1)


def test_graf_closed_form_rejects_bad_arguments():
    with pytest.raises(ValueError):
        graf_closed_form(1.0, 0.5, 0.3, 1)


def test_alpha_phase_full_matches_simplified_away_from_nodes():
    p = make_params(order=2, ratio=0.1, modulation=1e-3)
    t = 0.3 / p.modulation  # modulation phase 0.3, far from the node
    simple = alpha_phase(p, t)
    full = alpha_phase(p, t, full=True)
    assert simple == pytest.approx(-2 * math.pi, abs=1e-12)
    assert abs(full - simple) < 5e-3


def test_weak_forms_uses_consistent_gamma_values():
    # the moment factor reduces to known closed values
    p2 = make_params(order=2, ratio=0.1)
    assert weak_forms(p2, 0.0).mean_moment == pytest.approx(0.01 / 2 / 2, rel=1e-12)
    # every order, past N! overflowing a double at N = 171: values against
    # mpmath, underflowing to 0.0 where the true value is below the doubles
    for order, ratio in ((1, 0.2), (12, 0.3), (170, 3.0), (171, 3.0), (171, 0.3),
                         (400, 30.0), (400, 0.3)):
        p = make_params(order=order, ratio=ratio)
        forms = weak_forms(p, 0.3 * p.period)
        moment, bracket = weak_drive_means(order, ratio)
        assert forms.mean_moment == pytest.approx(moment, rel=1e-12, abs=1e-300), order
        assert forms.mean_bracket == pytest.approx(bracket, rel=1e-12, abs=1e-300), order
        assert math.isfinite(forms.phi_periodic), order
