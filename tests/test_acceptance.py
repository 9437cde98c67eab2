"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``).  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from oracles import dense_evolve
from triwalk.coins import (
    coin_c1,
    coin_c2,
    fourier_coin,
    grover_coin,
    permutation_coin,
    reflecting_coin,
    transmitting_coin,
)
from triwalk.localization import origin_series, trapping_estimate
from triwalk.spectral import (
    dispersion_numeric,
    peak_velocities_numeric,
    peak_velocity_c1,
)
from triwalk.walk import (
    evolve,
    initial_state,
    peak_positions,
    probability_distribution,
)

PSI_SYM = np.array([1, -1, 1]) / math.sqrt(3)
PSI_LR = np.array([1, 0, 1]) / math.sqrt(2)
V_GROVER = 1.0 / math.sqrt(3.0)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")


def test_criterion_1_grover_figure_reproduction():
    start = time.perf_counter()
    dist = probability_distribution(
        evolve(initial_state(PSI_SYM), grover_coin(), 50))
    elapsed = time.perf_counter() - start
    left, right = peak_positions(dist)
    symmetric = (left == -right and
                 np.max(np.abs(dist.probabilities - dist.probabilities[::-1]))
                 < 1e-12)
    ok = elapsed < 1.0 and symmetric and abs(right - 29) <= 1
    report(1, ok,
           f"T=50 side peaks at ({left}, {right}), target 29 +/- 1, "
           f"symmetric={symmetric}, runtime {elapsed:.3f}s")
    assert elapsed < 1.0
    assert symmetric
    assert abs(right - 29) <= 1


def test_criterion_2_grover_peak_velocity():
    result = peak_velocities_numeric(grover_coin(), 4096)
    err = abs(result.v_right - V_GROVER)
    report(2, err < 1e-6, f"|v_R - 1/sqrt(3)| = {err:.2e} on 4096 samples")
    assert err < 1e-6


def test_criterion_3_c1_velocity_formula():
    start = time.perf_counter()
    worst = 0.0
    for phi in np.linspace(0.0, math.pi / 2, 50):
        numeric = peak_velocities_numeric(coin_c1(phi), 4096).v_right
        worst = max(worst, abs(numeric - peak_velocity_c1(phi)))
    elapsed = time.perf_counter() - start
    quarter_err = abs(peak_velocity_c1(math.pi / 4) - 0.27)
    end_lo = abs(peak_velocity_c1(0.0) - V_GROVER)
    end_hi = abs(peak_velocity_c1(math.pi / 2))
    ok = (worst < 1e-6 and quarter_err < 1e-3 and end_lo < 1e-9
          and end_hi < 1e-9 and elapsed < 30.0)
    report(3, ok,
           f"50-point sweep worst |num-formula| = {worst:.2e}, "
           f"v(pi/4) off 0.27 by {quarter_err:.2e}, endpoints off by "
           f"({end_lo:.1e}, {end_hi:.1e}), runtime {elapsed:.1f}s")
    assert worst < 1e-6
    assert quarter_err < 1e-3
    assert end_lo < 1e-9 and end_hi < 1e-9
    assert elapsed < 30.0


def test_criterion_4_c2_velocity_identity():
    worst = 0.0
    for rho in np.linspace(0.0, 1.0, 11):
        numeric = peak_velocities_numeric(coin_c2(rho), 4096).v_right
        worst = max(worst, abs(numeric - rho))
    dist = probability_distribution(
        evolve(initial_state(PSI_LR), coin_c2(0.9), 50))
    _, right = peak_positions(dist)
    ok = worst < 1e-6 and abs(right - 45) <= 1
    report(4, ok,
           f"11-point |v_R - rho| worst = {worst:.2e}, "
           f"rho=0.9 T=50 peak at {right} (target 45 +/- 1)")
    assert worst < 1e-6
    assert abs(right - 45) <= 1


def test_criterion_5_flat_band():
    coins = [grover_coin()]
    coins += [coin_c1(phi) for phi in np.linspace(0.0, math.pi / 2, 10)]
    coins += [coin_c2(rho) for rho in np.linspace(0.0, 1.0, 10)]
    worst = 0.0
    for coin in coins:
        table = dispersion_numeric(coin, 4096)
        worst = max(worst, float(np.max(np.abs(table.branches[2]))))
    report(5, worst < 1e-10,
           f"max_k |omega_3| = {worst:.2e} over {len(coins)} coins, "
           "4096 samples each")
    assert worst < 1e-10


def test_criterion_6_unitarity_and_conservation():
    coins = [grover_coin(), coin_c1(0.6), coin_c2(0.4), permutation_coin(),
             reflecting_coin(), transmitting_coin()]
    worst = 0.0
    for coin in coins:
        state = initial_state(PSI_SYM)
        for t in range(1, 1001):
            state = evolve(state, coin, 1)
            worst = max(worst, abs(state.norm_squared() - 1.0))
            assert state.amplitudes.shape == (2 * t + 1, 3)
        assert np.array_equal(state.site_amplitudes(state.time + 1),
                              np.zeros(3))
    report(6, worst < 1e-12,
           f"worst |total probability - 1| = {worst:.2e} over 1000 steps x "
           f"{len(coins)} coins; support bound structural")
    assert worst < 1e-12


def test_criterion_7_localization():
    est = trapping_estimate(origin_series(grover_coin(), PSI_SYM, 1000))
    window_gap = abs(est.windows[0] - est.windows[1])
    control = trapping_estimate(
        origin_series(fourier_coin(), PSI_SYM, 1000)).value
    ok = (window_gap < 1e-3 and est.windows[0] > 0.05
          and est.windows[1] > 0.05 and control < 1e-2)
    report(7, ok,
           f"windows {est.windows[0]:.5f}/{est.windows[1]:.5f} "
           f"(gap {window_gap:.1e}, bound 0.05), control estimate "
           f"{control:.2e}")
    assert window_gap < 1e-3
    assert est.windows[0] > 0.05
    assert est.windows[1] > 0.05
    assert control < 1e-2


def test_criterion_8_oracle_equivalence():
    radius = 10
    worst = 0.0
    for coin in (grover_coin(), coin_c1(0.6), coin_c2(0.4)):
        for t in range(9):
            expected = dense_evolve(coin.matrix, PSI_SYM, t, radius)
            state = evolve(initial_state(PSI_SYM), coin, t)
            got = np.zeros((2 * radius + 1, 3), dtype=complex)
            got[radius - t: radius + t + 1] = state.amplitudes
            worst = max(worst, float(np.max(np.abs(got - expected))))
    report(8, worst < 1e-12,
           f"max amplitude deviation from dense reference = {worst:.2e} "
           "for t <= 8")
    assert worst < 1e-12


def test_criterion_9_endpoint_coin_identities():
    pairs = [
        ("C1(0) = Grover", coin_c1(0.0), grover_coin()),
        ("C1(pi/2) = permutation", coin_c1(math.pi / 2), permutation_coin()),
        ("C2(0) = reflecting", coin_c2(0.0), reflecting_coin()),
        ("C2(1) = transmitting", coin_c2(1.0), transmitting_coin()),
        ("C2(1/sqrt(3)) = Grover", coin_c2(1 / math.sqrt(3)), grover_coin()),
    ]
    worst = 0.0
    for _, a, b in pairs:
        worst = max(worst, float(np.max(np.abs(a.matrix - b.matrix))))
    report(9, worst < 1e-12,
           f"worst entrywise deviation across the 5 identities = {worst:.2e}")
    assert worst < 1e-12
