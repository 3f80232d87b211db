"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; ``[INFO]`` lines report measured values that are not asserted.
Criterion 3 holds the resonance reduction to the exact Schrodinger
integration: the paper's closed form against the paper's reduced ODE, and the
full integration against the reduction with the envelope sign and the level
shift kept.  The unitarity sweep (criterion 8) and the long oracle windows
(criterion 3) take most of the time.
"""

import math
import time

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
    analytic_populations,
    evolve_corrected,
    evolve_full,
    evolve_reduced,
)
from floquet_qubit.floquet import (
    build_phase_decomposition,
    fourier_phase,
    graf_bessel_sum,
    graf_closed_form,
    mean_bessel,
    quasienergy,
    reconstruct_periodic_phase,
    weak_forms,
)
from floquet_qubit.model import SystemParams

from oracles import accumulated_phase_quad


def check(ok: bool, label: str, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    return ok


def resonant_params(order, ratio, delta_gap, modulation, carrier=1.0):
    return SystemParams(epsilon0=order * carrier, delta_gap=delta_gap,
                        amplitude=ratio * carrier, carrier=carrier,
                        modulation=modulation, order=order)


# ---------------------------------------------------------------------------
# criteria 1 and 2: quasienergy zeros
# ---------------------------------------------------------------------------

def _zeros_criterion(order, expected):
    start = time.perf_counter()
    base = resonant_params(order, 0.1, 0.01, 1e-3)
    zeros = quasienergy_zeros(base, 0.0, 11.0)
    elapsed = time.perf_counter() - start
    ok = len(zeros) == len(expected) and all(
        abs(z - e) <= 0.05 for z, e in zip(zeros, expected))
    ok &= check(ok, f"criterion {order}: zeros N={order}",
                f"found {[round(z, 3) for z in zeros]} vs {expected} (+-0.05)")
    ok &= check(elapsed < 10.0, f"criterion {order}: runtime", f"{elapsed:.1f}s < 10s")
    return ok


def test_criterion_1_zeros_first_order():
    assert _zeros_criterion(1, [3.13, 6.30, 9.45])


def test_criterion_2_zeros_second_order():
    assert _zeros_criterion(2, [3.80, 7.05, 10.2])


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence in the stated regime
# ---------------------------------------------------------------------------

def _oracle_criterion(order):
    params = resonant_params(order, 0.1, 1e-2, 2.5e-4)
    t_end = 5 * math.pi / params.modulation
    times = np.linspace(0.0, t_end, 2001)
    start = time.perf_counter()
    analytic = analytic_populations(params, times)
    reduced = np.abs(evolve_reduced(params, times, tol=1e-10)[0]) ** 2
    reduced_err = float(np.max(np.abs(reduced - analytic.p1)))
    corrected = np.abs(evolve_corrected(params, times, tol=1e-10)[0]) ** 2
    full = np.abs(evolve_full(params, "z", times, tol=1e-8)[0]) ** 2
    full_err = float(np.max(np.abs(full - corrected)))
    elapsed = time.perf_counter() - start

    # the paper's closed form solves the paper's reduced ODE
    ok = check(reduced_err <= 1e-6, f"criterion 3 (N={order}): reduced vs closed form",
               f"max err {reduced_err:.2e} <= 1e-6")
    ok &= check(elapsed < 60.0, f"criterion 3 (N={order}): runtime", f"{elapsed:.1f}s < 60s")
    # the resonance reduction holds against the exact integration once it
    # keeps the envelope sign (odd N) and the level shift delta_gap^2 /
    # (2 epsilon0) (even N); the paper's closed form drops both, so its
    # departure here is reported, not asserted
    ok &= check(full_err <= 0.05, f"criterion 3 (N={order}): full oracle vs corrected reduction",
                f"max err {full_err:.4f} <= 0.05")
    paper_err = float(np.max(np.abs(full - analytic.p1)))
    print(f"[INFO] criterion 3 (N={order}): full oracle vs paper closed form: "
          f"max err {paper_err:.3f}")
    return ok


def test_criterion_3_oracle_equivalence_n1():
    assert _oracle_criterion(1), \
        "resonance reduction departs from the full integration (see FAIL lines)"


def test_criterion_3_oracle_equivalence_n2():
    assert _oracle_criterion(2), \
        "resonance reduction departs from the full integration (see FAIL lines)"


# ---------------------------------------------------------------------------
# criterion 4: periodic regimes and the aperiodic control
# ---------------------------------------------------------------------------

def _best_small_residual(params, limit=6):
    best = None
    for m in range(1, limit + 1):
        for n in range(1, limit + 1):
            res = periodicity_residual(params, m, n)
            if best is None or res.residual < best.residual:
                best = res
    return best


def test_criterion_4_periodic_regimes():
    ok = True
    for delta_gap, ratio, label in ((0.401, 0.1, "gap/mod=401, ratio=0.1"),
                                    (0.031, 1.0, "gap/mod=31, ratio=1.0")):
        params = resonant_params(2, ratio, delta_gap, 1e-3)
        best = _best_small_residual(params)
        ok &= check(best.residual < 1e-2,
                    f"criterion 4: residual at {label}",
                    f"(m,n)=({best.m},{best.n}) residual {best.residual:.2e} < 1e-2")
        repetition = best.m * params.period
        times = np.linspace(0.0, 2.2 * repetition, 8001)
        trace = analytic_populations(params, times)
        deviation = trace_periodicity_check(trace, repetition, reps=1)
        ok &= check(deviation <= 1e-2,
                    f"criterion 4: trace repetition at {label}",
                    f"deviation {deviation:.2e} <= 1e-2 at period {best.m}*pi/delta")

    control = resonant_params(2, 1.0, 0.034, 1e-3)
    times = np.linspace(0.0, 2.2 * control.period, 4001)
    trace = analytic_populations(control, times)
    deviation = trace_periodicity_check(trace, control.period, reps=1)
    ok &= check(deviation > 1e-2, "criterion 4: aperiodic control (gap/mod=34)",
                f"deviation {deviation:.3f} > 1e-2 at period pi/delta")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: phase-function structure
# ---------------------------------------------------------------------------

def test_criterion_5_phase_structure():
    ok = True
    rng = np.random.RandomState(31)
    for params in (resonant_params(1, 1.0, 12e-3, 1e-3),
                   resonant_params(2, 1.0, 31e-3, 1e-3)):
        dec = build_phase_decomposition(params)
        t = rng.uniform(0.0, 10 * params.period, size=1000)
        closed_defect = float(np.max(np.abs(
            dec.periodic_part(t + params.period) - dec.periodic_part(t))))
        # mpmath quadrature route: one period of it must add slope * T
        scale = 0.5 * params.delta_gap / params.modulation
        quad_defect = 0.0
        for t0 in rng.uniform(0.0, 5 * params.period, size=8):
            g1 = scale * accumulated_phase_quad(params.order, params.drive_ratio,
                                                params.modulation * float(t0))
            g2 = scale * accumulated_phase_quad(params.order, params.drive_ratio,
                                                params.modulation * (float(t0) + params.period))
            quad_defect = max(quad_defect, abs(
                (g2 - dec.slope * (t0 + params.period)) - (g1 - dec.slope * t0)))
        defect = max(closed_defect, quad_defect)
        ok &= check(defect <= 1e-8,
                    f"criterion 5: periodicity of Phi (N={params.order})",
                    f"max defect {defect:.2e} <= 1e-8")

    # reconstruction from 64 harmonics; for the odd order the envelope kink
    # slows the Fourier tail, so the slow-tunneling regime is used (the
    # criterion pins harmonics and tolerance, not the tunneling scale)
    for params in (resonant_params(2, 1.0, 40e-3, 1e-3),
                   resonant_params(1, 1.0, 0.1e-3, 1e-3)):
        fp = fourier_phase(params, 64)
        dec = build_phase_decomposition(params)
        t = np.linspace(0.0, params.period, 801)
        rec_err = float(np.max(np.abs(
            reconstruct_periodic_phase(fp, params.delta_gap, t) - dec.periodic_part(t))))
        ok &= check(rec_err <= 1e-6,
                    f"criterion 5: Fourier reconstruction (N={params.order})",
                    f"max err {rec_err:.2e} <= 1e-6 with 64 harmonics")
        dc_err = abs(fp.coefficient(0).real - mean_bessel(params))
        ok &= check(dc_err <= 1e-9, f"criterion 5: G(0) vs period average "
                    f"(N={params.order})", f"|diff| {dc_err:.2e} <= 1e-9")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: Bessel-summation identity
# ---------------------------------------------------------------------------

def test_criterion_6_graf_identity():
    rng = np.random.RandomState(2024)
    worst = 0.0
    for _ in range(20):
        z2 = float(rng.uniform(0.2, 4.0))
        z1 = z2 * float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.0, 2 * math.pi))
        order = int(rng.randint(1, 4))
        total = graf_bessel_sum(z1, z2, gamma, order)
        closed = graf_closed_form(z1, z2, gamma, order)
        worst = max(worst, abs(total - closed))
    assert check(worst <= 1e-8, "criterion 6: summation identity",
                 f"worst |sum - product| {worst:.2e} <= 1e-8 over 20 samples")


# ---------------------------------------------------------------------------
# criterion 7: weak-drive consistency
# ---------------------------------------------------------------------------

def test_criterion_7_weak_drive():
    ok = True
    worst = 0.0
    for order in (1, 2):
        for ratio in (0.02, 0.05):
            params = resonant_params(order, ratio, 1e-2, 1e-3)
            exact = mean_bessel(params)
            weak = weak_forms(params, 0.0).mean_moment
            worst = max(worst, abs(weak - exact) / exact)
    ok &= check(worst <= 0.01, "criterion 7: weak mean vs quadrature",
                f"worst rel dev {worst:.2e} <= 1%")

    worst = 0.0
    for order in (1, 2):
        for ratio in (0.02, 0.05):
            params = resonant_params(order, ratio, 1.0, 1e-3)
            for m, n in ((1, 1), (2, 3)):
                got = solve_periodic_ratio(params, m, n)
                closed = ((n / m) / (2 * math.sqrt(math.pi) * math.factorial(order))
                          * ratio ** order
                          * math.gamma(0.5 * (1 + order)) / math.gamma(1 + 0.5 * order))
                worst = max(worst, abs(got - closed) / closed)
    ok &= check(worst <= 0.01, "criterion 7: periodic ratio vs weak closed form",
                f"worst rel dev {worst:.2e} <= 1%")

    # the alternative bracket form must stay pinned at its (inconsistent)
    # printed value: 1/sqrt(pi) per unit drive ratio at first order, a factor
    # sqrt(pi)/2 below the moment form
    forms = weak_forms(resonant_params(1, 0.2, 1e-2, 1e-3), 0.0)
    bracket_ok = (forms.mean_bracket / 0.2 == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
                  and forms.mean_bracket / forms.mean_moment
                  == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12))
    ok &= check(bracket_ok, "criterion 7: bracket-form discrepancy is preserved",
                "bracket/moment = sqrt(pi)/2 exactly")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: unitarity sweep
# ---------------------------------------------------------------------------

def test_criterion_8_unitarity_sweep():
    rng = np.random.RandomState(12345)
    start = time.perf_counter()
    worst = {"reduced": 0.0, "full-z": 0.0, "full-x": 0.0}
    for _ in range(100):
        order = int(rng.randint(1, 3))
        modulation = float(rng.uniform(0.04, 0.05))
        delta_gap = float(rng.uniform(1e-3, 0.1 * order))
        ratio = float(rng.uniform(0.0, 1.0))
        params = resonant_params(order, ratio, delta_gap, modulation)
        times = np.linspace(0.0, 10 * params.period, 11)
        amps = evolve_reduced(params, times, tol=1e-11)
        worst["reduced"] = max(worst["reduced"], float(np.max(np.abs(
            np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2 - 1.0))))
        for axis in ("z", "x"):
            amps = evolve_full(params, axis, times, tol=1e-11)
            worst[f"full-{axis}"] = max(worst[f"full-{axis}"], float(np.max(np.abs(
                np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2 - 1.0))))
    elapsed = time.perf_counter() - start
    ok = True
    for name, drift in worst.items():
        ok &= check(drift <= 1e-8, f"criterion 8: norm conservation ({name})",
                    f"worst drift {drift:.2e} <= 1e-8 over 10 periods x 100 params")
    print(f"        (sweep took {elapsed:.0f}s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: transition-coupled configuration
# ---------------------------------------------------------------------------

def test_criterion_9_xconfig():
    # V is the lab-frame coefficient of cos(omega_0 t) cos(delta t) sigma_x,
    # i.e. the drive amplitude of the transition-coupled Hamiltonian; the
    # resonant rotating-frame coupling is V/2, which is what enters the
    # closed-form phase.
    ok = True
    delta = 1e-3
    for v_lab in (0.05, 0.1):
        params = SystemParams(epsilon0=0.0, delta_gap=1.0, amplitude=v_lab,
                              carrier=1.0, modulation=delta, order=1)
        coupling = v_lab / 2
        t_end = 2 * math.pi / delta
        times = np.linspace(0.0, t_end, 1001)
        p2 = np.abs(evolve_full(params, "x", times, tol=1e-8)[1]) ** 2
        expected = np.sin((coupling / delta) * np.sin(delta * times)) ** 2
        dev = float(np.max(np.abs(p2 - expected)))
        ok &= check(dev <= 0.05, f"criterion 9: rotating-frame law at V={v_lab}",
                    f"max dev {dev:.3f} <= 0.05")

    lines = xconfig_spectral_lines(1.0, delta, 4)
    expected_lines = [1.0 + n * delta for n in range(-4, 5)]
    ok &= check(lines == expected_lines, "criterion 9: drive-independent lines",
                "omega_0 + n delta exactly, no amplitude argument")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: spectral catalog
# ---------------------------------------------------------------------------

def test_criterion_10_spectral_catalog():
    params = resonant_params(1, 0.7, 1e-2, 1e-3)
    lines = spectral_lines(params, weight_threshold=0.0)
    total = sum(line.weight ** 2 / 4 for line in lines)
    ok = check(abs(total - 1.0) <= 1e-8, "criterion 10: weight normalisation",
               f"sum of squared half-weights {total:.12f} within 1e-8 of 1")
    central = next(line for line in lines if line.m == 0 and line.n == 0)
    expected = params.epsilon0 + 2 * quasienergy(params)
    ok &= check(central.frequency == pytest.approx(expected, rel=1e-12),
                "criterion 10: central line position",
                f"frequency {central.frequency:.9f} = eps0 + 2 E_N")
    assert ok
