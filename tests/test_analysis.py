import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from floquet_qubit.analysis import (
    periodicity_residual,
    quasienergy_zeros,
    solve_periodic_ratio,
    spectral_lines,
    trace_periodicity_check,
    xconfig_spectral_lines,
)
from floquet_qubit.dynamics import PopulationTrace, analytic_populations
from floquet_qubit.floquet import quasienergy
from floquet_qubit.model import SystemParams
from floquet_qubit.specfun import bessel_j

from oracles import half_order_bessel_zeros


def make_params(order=1, ratio=0.1, delta_gap=1e-2, modulation=1e-3, carrier=1.0):
    return SystemParams(epsilon0=order * carrier, delta_gap=delta_gap,
                        amplitude=ratio * carrier, carrier=carrier,
                        modulation=modulation, order=order)


# ---------------------------------------------------------------------------
# quasienergy zeros
# ---------------------------------------------------------------------------

def test_zeros_first_order_single_window():
    zeros = quasienergy_zeros(make_params(order=1), 2.8, 3.5)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(math.pi, abs=5e-4)


def test_zeros_empty_below_first():
    assert quasienergy_zeros(make_params(order=1), 0.0, 1.0) == []
    # no tunneling gap: E_N vanishes identically, so it has no isolated zeros
    assert quasienergy_zeros(make_params(order=1, delta_gap=0.0), 2.8, 3.5) == []


@lru_cache(maxsize=None)
def _mp_zeros(order):
    return tuple(half_order_bessel_zeros(order, 41.0))


@st.composite
def _zero_windows(draw):
    # edges drawn from 0, arbitrary points and the zeros themselves, so the
    # undriven end and zeros sitting exactly on an edge are both exercised
    order = draw(st.integers(1, 6))
    edge = st.one_of(st.just(0.0), st.floats(0.0, 40.0), st.sampled_from(_mp_zeros(order)))
    a, b = draw(edge), draw(edge)
    assume(a != b)
    return order, min(a, b), max(a, b)


@settings(max_examples=150, deadline=None)
@given(window=_zero_windows(), tol=st.sampled_from([1e-4, 1e-8, 1e-12]))
def test_zeros_match_mpmath_besseljzero(window, tol):
    # E_N ~ J_{N/2}(r)^2, so its zeros are mpmath's zeros of J_{N/2}; a zero
    # within tol of an edge counts as inside the window
    order, lo, hi = window
    expected = [z for z in _mp_zeros(order) if lo - tol <= z <= hi + tol]
    found = quasienergy_zeros(make_params(order=order), lo, hi, tol=tol)
    assert len(found) == len(expected), (found, expected)
    for f, e in zip(found, expected):
        assert lo <= f <= hi
        assert abs(f - e) <= tol + 8 * np.finfo(float).eps * e


def test_zeros_are_local_minima_of_magnitude():
    # the quasienergy touches zero without changing sign, so soundness is
    # |E| smaller at the zero than one scan step away on either side
    base = make_params(order=2)
    zeros = quasienergy_zeros(base, 3.0, 4.5)
    assert len(zeros) == 1
    z = zeros[0]

    def e_at(r):
        return abs(quasienergy(SystemParams(
            epsilon0=base.epsilon0, delta_gap=base.delta_gap,
            amplitude=r * base.carrier, carrier=base.carrier,
            modulation=base.modulation, order=base.order)))

    assert e_at(z) < e_at(z - 0.05)
    assert e_at(z) < e_at(z + 0.05)


def test_zeros_input_validation():
    with pytest.raises(ValueError):
        quasienergy_zeros(make_params(), 1.0, 0.5)
    with pytest.raises(ValueError):
        quasienergy_zeros(make_params(), 0.0, 1.0, tol=0.0)


@pytest.mark.parametrize("ratio_min, ratio_max, name", [
    (math.nan, 1.0, "ratio_min"),
    (0.5, math.nan, "ratio_max"),
    (0.0, math.inf, "ratio_max"),
    (-math.inf, 1.0, "ratio_min"),
])
def test_zeros_reject_non_finite_bounds(ratio_min, ratio_max, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        quasienergy_zeros(make_params(), ratio_min, ratio_max)


def test_zeros_window_stays_in_the_bessel_domain():
    # 2 ratio_max <= MAX_ARGUMENT, the rule of fourier_phase; a window of
    # 1e12 once asked for a scan grid of 5e13 points
    for ratio_max in (500.5, 1e12):
        with pytest.raises(ValueError, match="ratio_max"):
            quasienergy_zeros(make_params(), 0.0, ratio_max)
    assert len(quasienergy_zeros(make_params(), 499.0, 500.0)) == 1
    # and N <= MAX_ORDER, the rule of quasienergy
    with pytest.raises(ValueError, match="order 201 outside <= 200"):
        quasienergy_zeros(make_params(order=201), 0.0, 400.0)


# ---------------------------------------------------------------------------
# periodicity condition
# ---------------------------------------------------------------------------

def test_residual_exact_half_ratio():
    # pick the modulation so that |E| = delta / 2 exactly: (m, n) = (2, 1)
    # then has zero residual
    base = make_params(order=2, ratio=0.1, delta_gap=1.0, modulation=1e-3)
    energy = abs(quasienergy(base))
    tuned = SystemParams(epsilon0=base.epsilon0, delta_gap=base.delta_gap,
                         amplitude=base.amplitude, carrier=base.carrier,
                         modulation=2.0 * energy, order=base.order)
    result = periodicity_residual(tuned, 2, 1)
    assert result.residual < 1e-12
    assert result.is_periodic


def test_residual_regular_regime_second_order():
    # gap/modulation = 401 at drive ratio 0.1: |E|/delta is almost exactly
    # 1/2, so (m, n) = (2, 1) nearly closes
    p = make_params(order=2, ratio=0.1, delta_gap=0.401, modulation=1e-3)
    result = periodicity_residual(p, 2, 1)
    assert result.residual < 1e-2


def test_residual_zero_drive_special_case():
    p = make_params(ratio=0.0)
    result = periodicity_residual(p, 3, 2)
    assert result.residual == 2.0
    assert result.is_periodic  # constant populations repeat trivially


def test_residual_validates_indices():
    with pytest.raises(ValueError):
        periodicity_residual(make_params(), 0, 1)
    with pytest.raises(ValueError):
        periodicity_residual(make_params(), 1, -2)


def test_residual_rejects_inputs_past_the_bessel_domain():
    # E_N past the Bessel domain would read 0 (order 201) or rounding
    # (A/omega_0 = 600), a false periodic verdict
    with pytest.raises(ValueError, match="order 201"):
        periodicity_residual(make_params(order=201), 1, 1)
    with pytest.raises(ValueError, match="Bessel argument"):
        periodicity_residual(make_params(ratio=600.0), 1, 1)


# ---------------------------------------------------------------------------
# solve_periodic_ratio
# ---------------------------------------------------------------------------

def test_solve_ratio_closes_the_loop():
    # the returned delta/delta_gap satisfies m delta = n |E|; checking it
    # through periodicity_residual therefore swaps the index roles
    base = make_params(order=2, ratio=0.1, delta_gap=1.0, modulation=1e-3)
    for m, n in ((1, 1), (2, 3), (5, 2)):
        ratio = solve_periodic_ratio(base, m, n)
        tuned = SystemParams(epsilon0=base.epsilon0, delta_gap=base.delta_gap,
                             amplitude=base.amplitude, carrier=base.carrier,
                             modulation=ratio * base.delta_gap, order=base.order)
        result = periodicity_residual(tuned, n, m)
        assert result.residual < 1e-9


def test_solve_ratio_zero_drive_warns():
    with pytest.warns(UserWarning):
        assert solve_periodic_ratio(make_params(ratio=0.0), 1, 1) == 0.0


def test_solve_ratio_weak_drive_closed_form():
    # gamma-function closed form of the weak-drive condition, evaluated
    # independently, agrees to 1%
    for order in (1, 2):
        for ratio in (0.05, 0.1):
            base = make_params(order=order, ratio=ratio, delta_gap=1.0)
            for m, n in ((1, 1), (3, 2)):
                got = solve_periodic_ratio(base, m, n)
                closed = ((n / m) / (2 * math.sqrt(math.pi) * math.factorial(order))
                          * ratio ** order
                          * math.gamma(0.5 * (1 + order)) / math.gamma(1 + 0.5 * order))
                assert got == pytest.approx(closed, rel=0.01)


# ---------------------------------------------------------------------------
# trace periodicity check
# ---------------------------------------------------------------------------

def test_trace_check_constant_trace():
    t = np.linspace(0.0, 10.0, 101)
    trace = PopulationTrace(times=t, p1=np.ones_like(t), p2=np.zeros_like(t))
    assert trace_periodicity_check(trace, period=2.0, reps=3) == 0.0


def test_trace_check_at_quasienergy_zero():
    # at a zero of the quasienergy the analytic populations are exactly
    # T-periodic
    p = make_params(order=1, ratio=math.pi, delta_gap=0.05, modulation=1e-3)
    assert abs(quasienergy(p)) < 1e-12
    times = np.linspace(0.0, 3 * p.period, 3001)
    trace = analytic_populations(p, times)
    assert trace_periodicity_check(trace, p.period, reps=1) < 1e-6


def test_trace_check_theorem():
    # tune the modulation so that m |E| = n delta exactly: the populations
    # then repeat with period m T
    base = make_params(order=1, ratio=0.5, delta_gap=0.02, modulation=1e-3)
    energy = abs(quasienergy(base))
    m, n = 3, 2
    tuned = SystemParams(epsilon0=base.epsilon0, delta_gap=base.delta_gap,
                         amplitude=base.amplitude, carrier=base.carrier,
                         modulation=m * energy / n, order=base.order)
    assert periodicity_residual(tuned, m, n).residual < 1e-9
    times = np.linspace(0.0, (2 * m + 0.5) * tuned.period, 9001)
    trace = analytic_populations(tuned, times)
    assert trace_periodicity_check(trace, m * tuned.period, reps=1) < 1e-6


def test_trace_check_span_too_short():
    t = np.linspace(0.0, 1.0, 11)
    trace = PopulationTrace(times=t, p1=np.ones_like(t), p2=np.zeros_like(t))
    with pytest.raises(ValueError):
        trace_periodicity_check(trace, period=0.6, reps=1)


# ---------------------------------------------------------------------------
# spectral lines
# ---------------------------------------------------------------------------

def test_spectral_central_line():
    p = make_params(order=1, ratio=0.4)
    lines = {(line.m, line.n): line for line in spectral_lines(p)}
    central = lines[(0, 0)]
    assert central.frequency == pytest.approx(p.epsilon0 + 2 * quasienergy(p), rel=1e-12)
    assert central.weight == pytest.approx(2 * bessel_j(0, 0.4) ** 2, rel=1e-12)
    assert central.frequency > 0  # an absorption line


def test_spectral_zero_drive_single_line():
    p = make_params(ratio=0.0)
    lines = spectral_lines(p)
    assert len(lines) == 1
    assert (lines[0].m, lines[0].n) == (0, 0)
    assert lines[0].frequency == pytest.approx(p.epsilon0)
    assert lines[0].weight == pytest.approx(2.0)


def test_spectral_spacing_in_n():
    p = make_params(order=1, ratio=0.8)
    lines = {(line.m, line.n): line for line in spectral_lines(p)}
    for n in (-2, -1, 0, 1):
        gap = lines[(1, n + 1)].frequency - lines[(1, n)].frequency
        assert gap == pytest.approx(2 * p.modulation, rel=1e-9)


def _sum_rules(lines, ratio):
    """The signed half-weights J_n J_{m-n} of a catalogue, and their squares,
    each summed over its lines."""
    half = lines.weight / 2.0
    sign = np.sign(special.jv(lines.n, ratio) * special.jv(lines.m - lines.n, ratio))
    return float(np.sum(sign * half)), float(np.sum(half ** 2))


def test_spectral_weight_normalisation():
    p = make_params(order=1, ratio=0.7)
    lines = spectral_lines(p, weight_threshold=0.0)
    total = sum(line.weight ** 2 / 4 for line in lines)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("ratio", [30.0, 200.0])
def test_spectral_sum_rules_at_a_strong_drive(ratio):
    # only the lines below the default threshold are missing from the sums
    signed, squares = _sum_rules(spectral_lines(make_params(ratio=ratio)), ratio)
    assert abs(signed - 1.0) <= 1e-6
    assert abs(squares - 1.0) <= 1e-12


def test_spectral_threshold_filters():
    p = make_params(order=1, ratio=0.3)
    loose = spectral_lines(p, weight_threshold=1e-3)
    tight = spectral_lines(p, weight_threshold=1e-12)
    assert len(loose) < len(tight)
    assert all(line.weight >= 1e-3 for line in loose)


def test_spectral_empty_catalogue_keeps_its_fields():
    lines = spectral_lines(make_params(order=1, ratio=0.4), weight_threshold=3.0)
    assert isinstance(lines, np.recarray) and len(lines) == 0
    assert lines.dtype.names == ("m", "n", "frequency", "weight")
    assert [lines.dtype[k].kind for k in range(4)] == ["i", "i", "f", "f"]
    assert lines.weight.shape == (0,)


_SPECTRA = ((1, 0.0), (1, 0.7), (2, 3.3), (3, 10.9), (1, 30.0))


@pytest.mark.parametrize("threshold", [1e-3, 1e-8, 1e-12])
def test_spectral_lines_match_reference_loop(threshold):
    # plain double loop over scipy's jv on an (n, m - n) box wider than any
    # line at the threshold, ordered by m, then n: every weight and
    # frequency equal to the last bit
    for order, ratio in _SPECTRA:
        p = make_params(order=order, ratio=ratio)
        c = int(2 * ratio) + 30
        bessel = {k: float(special.jv(k, ratio)) for k in range(-c, c + 1)}
        stark = 2.0 * quasienergy(p)
        ref = []
        for n in range(-c, c + 1):
            for k in range(-c, c + 1):
                weight = 2.0 * abs(bessel[n] * bessel[k])
                if weight >= threshold:
                    m = n + k
                    ref.append((m, n, p.epsilon0 + m * p.carrier + stark
                                + (2 * n - m) * p.modulation, weight))
        ref.sort(key=lambda line: line[:2])
        lines = spectral_lines(p, weight_threshold=threshold)
        assert [tuple(line) for line in lines] == ref


@pytest.mark.parametrize("order, ratio", _SPECTRA)
def test_spectral_lines_keep_every_order_at_threshold_zero(order, ratio):
    lines = spectral_lines(make_params(order=order, ratio=ratio), weight_threshold=0.0)
    keys = list(zip(lines.m.tolist(), lines.n.tolist()))
    assert keys == sorted(set(keys))
    signed, squares = _sum_rules(lines, ratio)
    assert abs(signed - 1.0) <= 1e-13 and abs(squares - 1.0) <= 1e-13


def test_spectral_rejects_inputs_past_the_bessel_domain():
    for ratio in (500.5, 1000.5):
        with pytest.raises(ValueError, match="Bessel argument"):
            spectral_lines(make_params(ratio=ratio))


@pytest.mark.parametrize("threshold", [-1.0, math.nan])
def test_spectral_rejects_a_threshold_below_zero_or_nan(threshold):
    with pytest.raises(ValueError, match="weight_threshold"):
        spectral_lines(make_params(), weight_threshold=threshold)


# ---------------------------------------------------------------------------
# x-configuration lines
# ---------------------------------------------------------------------------

def test_xconfig_lines_structure():
    lines = xconfig_spectral_lines(1.0, 1e-3, 3)
    assert len(lines) == 7
    assert lines[3] == pytest.approx(1.0)
    # symmetric about the carrier, independent of any drive amplitude by
    # construction (the catalog takes no amplitude argument)
    offsets = np.array(lines) - 1.0
    assert np.allclose(offsets, -offsets[::-1], atol=1e-15)


def test_xconfig_lines_validation():
    with pytest.raises(ValueError):
        xconfig_spectral_lines(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        xconfig_spectral_lines(1.0, 1e-3, -1)
