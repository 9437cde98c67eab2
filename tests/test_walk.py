import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    dense_evolve,
    dispersion_analytic,
    fft_evolve,
    haar_unitary,
    random_real_state,
    random_state,
    real_orthogonal,
    weak_limit_moments,
)
from triwalk.coins import (
    Coin,
    coin_c1,
    coin_c2,
    fourier_coin,
    grover_coin,
    permutation_coin,
    reflecting_coin,
    transmitting_coin,
)
from triwalk.localization import origin_series
from triwalk.walk import (
    ProbabilityDistribution,
    WalkState,
    _walk,
    evolve,
    initial_state,
    peak_positions,
    probability_distribution,
)

PSI_SYM = np.array([1, -1, 1]) / math.sqrt(3)
PSI_LR = np.array([1, 0, 1]) / math.sqrt(2)
PSI_REAL = random_real_state(5)


class TestInitialState:
    def test_point_mass(self):
        state = initial_state(np.array([1.0, 0.0, 0.0]))
        dist = probability_distribution(state)
        assert dist.time == 0
        assert_allclose(dist.probabilities, [1.0])

    @pytest.mark.parametrize("psi", [PSI_SYM, PSI_LR])
    def test_normalized_support(self, psi):
        state = initial_state(psi)
        assert state.time == 0
        assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            initial_state(np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError):  # a NaN entry has no norm
            initial_state(np.array([np.nan, 0.0, 0.0]))

    def test_wrong_length_rejected(self):
        for psi in ([1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0,
                    [[1.0], [0.0], [0.0]]):
            with pytest.raises(ValueError):
                initial_state(np.array(psi))


class TestStep:
    def test_permutation_fixes_stay_component(self):
        state = evolve(initial_state(np.array([0.0, 1.0, 0.0])),
                       permutation_coin(), 1)
        assert state.time == 1
        assert_allclose(state.site_amplitudes(0), [0, 1, 0], atol=1e-15)
        assert_allclose(state.site_amplitudes(1), 0, atol=1e-15)
        assert_allclose(state.site_amplitudes(-1), 0, atol=1e-15)

    def test_transmitting_coin_splits_ballistically(self):
        state = evolve(initial_state(PSI_LR), transmitting_coin(), 1)
        assert_allclose(state.site_amplitudes(-1),
                        [-1 / math.sqrt(2), 0, 0], atol=1e-15)
        assert_allclose(state.site_amplitudes(1),
                        [0, 0, -1 / math.sqrt(2)], atol=1e-15)
        assert_allclose(state.site_amplitudes(0), 0, atol=1e-15)

    def test_grover_left_amplitude(self):
        # First row of the coin on (1,-1,1)/sqrt(3): (-1-2+2)/(3 sqrt(3))
        state = evolve(initial_state(PSI_SYM), grover_coin(), 1)
        assert abs(state.site_amplitudes(-1)[0] - (-1 / (3 * math.sqrt(3)))) \
            < 1e-15

    def test_norm_preserved(self):
        state = evolve(initial_state(PSI_SYM), grover_coin(), 1)
        assert abs(state.norm_squared() - 1.0) < 1e-14


class TestEvolve:
    def test_zero_steps_is_identity(self):
        state = initial_state(PSI_SYM)
        same = evolve(state, grover_coin(), 0)
        assert same.time == 0
        assert np.array_equal(same.amplitudes, state.amplitudes)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            evolve(initial_state(PSI_SYM), grover_coin(), -1)

    def test_grover_50_step_peaks(self):
        # Frozen from the dense and momentum-space oracles: the side lobe
        # maximum sits at |m| = 27, about 1.4 sites inside the ballistic
        # front 50/sqrt(3) = 28.87 (the usual front lag of order t^(1/3)).
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), 50))
        assert peak_positions(dist) == (-27, 27)

    def test_c2_09_peaks_near_rho_t(self):
        dist = probability_distribution(
            evolve(initial_state(PSI_LR), coin_c2(0.9), 50))
        left, right = peak_positions(dist)
        assert abs(right - 45) <= 1
        assert left == -right

    def test_support_window(self):
        state = evolve(initial_state(PSI_SYM), grover_coin(), 7)
        assert state.amplitudes.shape == (15, 3)
        # outside the window the state reports exact zeros
        assert_allclose(state.site_amplitudes(8), 0, atol=0)
        assert_allclose(state.site_amplitudes(-8), 0, atol=0)

    @pytest.mark.parametrize("coin", [grover_coin(), coin_c1(0.6),
                                      coin_c2(0.4)])
    def test_matches_dense_oracle(self, coin):
        radius = 10
        for t in range(9):
            expected = dense_evolve(coin.matrix, PSI_SYM, t, radius)
            state = evolve(initial_state(PSI_SYM), coin, t)
            got = np.zeros((2 * radius + 1, 3), dtype=complex)
            got[radius - t: radius + t + 1] = state.amplitudes
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_matches_momentum_oracle(self):
        t = 30
        expected = fft_evolve(grover_coin().matrix, PSI_SYM, t, n_modes=128)
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), t))
        p = np.sum(np.abs(expected) ** 2, axis=1)
        assert np.max(np.abs(dist.probabilities - p)) < 1e-12


# Long walks against the FFT oracle: T = 4000 on 8192 modes, well past the
# 2T + 1 needed for no aliasing.  Measured worst amplitude deviations are
# 1e-14 to 4e-14, and 3e-13 for c2(1).
LONG_T, LONG_MODES = 4000, 8192
LONG_COINS = {"grover": grover_coin(), "c1-0.6": coin_c1(0.6),
              "c2-0.9": coin_c2(0.9), "c2-1": coin_c2(1.0),
              "pi": permutation_coin(), "haar1": Coin(haar_unitary(1)),
              "haar2": Coin(haar_unitary(2))}
WALK_COINS = {**LONG_COINS, "c2-0.4": coin_c2(0.4), "fourier": fourier_coin()}


@functools.cache
def long_walk(name, steps):
    """``WALK_COINS[name]`` walked from PSI_SYM, once per test session."""
    return evolve(initial_state(PSI_SYM), WALK_COINS[name], steps)


class TestLongWalks:
    @pytest.mark.parametrize("name", LONG_COINS)
    def test_evolve_matches_fft_oracle(self, name):
        expected = fft_evolve(LONG_COINS[name].matrix, PSI_SYM, LONG_T,
                              LONG_MODES)
        state = long_walk(name, LONG_T)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize("name", ["grover", "pi"])
    def test_origin_series_matches_fft_oracle(self, name):
        # The oracle needs only 2t + 1 modes for the amplitude at time t.
        coin = LONG_COINS[name]
        series = origin_series(coin, PSI_SYM, LONG_T)
        for t in (1, 2, 3, 10, 333, 1024, 2999, LONG_T):
            amp = fft_evolve(coin.matrix, PSI_SYM, t, 2 * t + 1)[t]
            assert abs(series[t] - np.sum(np.abs(amp) ** 2)) < 1e-12


# X_T / T converges in law to the weak limit V (see
# ``oracles.weak_limit_moments``), and each moment E_T = E[(X_T / T)^n]
# misses E[V^n] by a 1/T term, which the Richardson value R = 2 E_4000 -
# E_2000 cancels.  The remainder R - E[V^n] was measured at T = 1000/2000
# and 2000/4000 (R from T and 2T): C below is the largest |R - E[V^n]| T^2
# over both and n = 1, 2, 4, rounded up, and the bound is 2 C / 2000^2 plus
# 1e-11 of rounding.  Grover, c1 and c2(0.4) fall as 1/T^2: the two
# remainders of m2 and m4 are in the ratio 4 to within 10%, and m1 is 0 up
# to rounding.  c2(1) is exact, m2 = m4 = 2/3, up to 1.5e-12.  For Fourier
# the ratios are 3.2 to 4.7; for the Haar coins they range from -9 to 51, so
# there C is the measured size, not a rate, and the first moment sets it.
WEAK_LIMIT_C = {"grover": 0.081, "c1-0.6": 0.16, "c2-0.4": 0.098, "c2-1": 0.0,
                "fourier": 3.7, "haar1": 5.4, "haar2": 4.4}


class TestWeakLimit:
    @pytest.mark.parametrize("name", WEAK_LIMIT_C)
    def test_moments_match_weak_limit(self, name):
        orders = (1, 2, 4)
        limits = weak_limit_moments(WALK_COINS[name].matrix, PSI_SYM, orders)
        moments = {}
        for t in (LONG_T // 2, LONG_T):
            p = probability_distribution(long_walk(name, t)).probabilities
            v = np.arange(-t, t + 1) / t
            moments[t] = [np.sum(p * v ** n) for n in orders]
        bound = 2 * WEAK_LIMIT_C[name] / (LONG_T // 2) ** 2 + 1e-11
        for n, limit, e_half, e_full in zip(orders, limits,
                                           moments[LONG_T // 2],
                                           moments[LONG_T]):
            assert abs(2 * e_full - e_half - limit) <= bound, n


# The ballistic front lags the light-cone position v_R t by the Airy law
# (stationary phase at the slope extremum k0, where omega'' = 0): the peak
# sits at v_R t + a'_1 (|omega'''(k0)| t / 2)^(1/3), a'_1 the first zero of
# Ai'.  v_R, k0 and omega''' come from the closed-form bands alone.
AI_PRIME_ZERO = -1.01879297


def front_law(family, parameter):
    """(v_R, |omega'''(k0)|) of the right front of a family's walk.

    c1 attains v_R at an interior maximum of the slope, located on a grid of
    central differences, with omega''' from a central stencil there.  Grover
    and c2 attain it at the cone k0 = 0+, where a central stencil would
    straddle two sheets: the -arccos sheet is differenced from k = 0 on one
    side only, and each difference Richardson-corrected.
    """
    sheet = 0 if family == "c1" else 1

    def omega(k):
        return dispersion_analytic(family, parameter, k)[sheet]

    if family == "c1":
        h = 1e-3
        ks = np.linspace(0.01, math.pi - 0.01, 31401)
        slopes = np.abs(omega(ks + h) - omega(ks - h)) / (2 * h)
        k0, h = ks[np.argmax(slopes)], 1e-2
        third = (omega(k0 + 2 * h) - 2 * omega(k0 + h) + 2 * omega(k0 - h)
                 - omega(k0 - 2 * h)) / (2 * h ** 3)
        return slopes.max(), abs(third)

    def first(h):
        return (omega(h) - omega(0.0)) / h

    def third(h):
        return (omega(3 * h) - 3 * omega(2 * h) + 3 * omega(h)
                - omega(0.0)) / h ** 3

    return (abs(2 * first(5e-4) - first(1e-3)),
            abs(2 * third(5e-3) - third(1e-2)))


FRONT_COINS = {"grover": ("grover", None, grover_coin()),
               "c1-pi/4": ("c1", math.pi / 4, coin_c1(math.pi / 4)),
               "c1-1.2": ("c1", 1.2, coin_c1(1.2)),
               "c1-0.3": ("c1", 0.3, coin_c1(0.3)),
               "c2-0.9": ("c2", 0.9, coin_c2(0.9)),
               "c2-0.6": ("c2", 0.6, coin_c2(0.6)),
               "c2-0.4": ("c2", 0.4, coin_c2(0.4))}


def side_peaks(name, t):
    return peak_positions(probability_distribution(
        evolve(initial_state(PSI_SYM), FRONT_COINS[name][2], t)))


class TestAiryFront:
    @pytest.mark.parametrize("name,t", [
        ("grover", 50), ("grover", 200),
        *((name, t) for name in ("c1-pi/4", "c1-1.2", "c2-0.9", "c2-0.6")
          for t in (50, 200, 1000)),
        ("c1-0.3", 200),
    ])
    def test_front_peak_follows_airy_law(self, name, t):
        # Where the half-line maximum is the front lobe, it lies within one
        # site of the law on both sides.  Not pinned: c1(0.3) at t = 50,
        # whose exact walk peaks at 22 against a law of 20.67.
        family, parameter, _ = FRONT_COINS[name]
        v, third = front_law(family, parameter)
        front = v * t + AI_PRIME_ZERO * (third * t / 2) ** (1 / 3)
        left, right = side_peaks(name, t)
        assert abs(right - front) <= 1 and abs(-left - front) <= 1

    @pytest.mark.parametrize("name,t", [
        ("grover", 1000), ("c2-0.4", 50), ("c2-0.4", 200), ("c2-0.4", 1000),
        ("c1-0.3", 1000),
    ])
    def test_trapped_bump_outweighs_front(self, name, t):
        # peak_positions takes each half-line's maximum; once the bound
        # states outweigh the front lobe, that is the bump next to the origin.
        assert side_peaks(name, t) == (-1, 1)


def allocating_step(state, coin):
    """One step as a fresh window: the arithmetic the two buffers keep."""
    mixed = state.amplitudes @ coin.matrix.T
    n = mixed.shape[0]
    out = np.zeros((n + 2, 3), dtype=np.complex128)
    out[:n, 0] = mixed[:, 0]
    out[1:n + 1, 1] = mixed[:, 1]
    out[2:, 2] = mixed[:, 2]
    return WalkState(state.time + 1, out)


def allocating_evolve(state, coin, steps):
    for _ in range(steps):
        state = allocating_step(state, coin)
    return state


def allocating_origin_series(coin, psi, t_max):
    state = initial_state(psi)
    series = [float(np.sum(np.abs(state.amplitudes[0]) ** 2))]
    for _ in range(t_max):
        state = allocating_step(state, coin)
        series.append(float(np.sum(np.abs(state.site_amplitudes(0)) ** 2)))
    return series


def assert_same_bits(got, expected):
    """Equal as float64 bit patterns, so a -0.0 for 0.0 fails too."""
    got, expected = (np.asarray(a, dtype=np.float64) for a in (got, expected))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestInPlaceBuffer:
    # Stepping between two buffers, each step's product written shifted
    # into the other one, over the support window or only the backward
    # light cone, must give bit for bit the amplitudes and origin
    # probabilities of allocating a new window at every step.
    COINS = {"grover": grover_coin(), "c2:1": coin_c2(1.0),
             "pi": permutation_coin(), "identity": Coin(np.eye(3)),
             "haar0": Coin(haar_unitary(0)), "haar1": Coin(haar_unitary(1)),
             "haar2": Coin(haar_unitary(2)),
             "orth+": Coin(real_orthogonal(11, 1)),
             "orth-": Coin(real_orthogonal(12, -1))}
    # A real coin from a real state steps in float64; allocating_step keeps
    # the complex product, so these pin the real path to its bits.
    REAL_COINS = {name: coin for name, coin in COINS.items()
                  if name in ("grover", "c2:1", "pi", "orth+", "orth-")}

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_evolve_from_initial_state(self, coin, steps):
        state = initial_state(random_state(5))
        got = evolve(state, coin, steps)
        assert got.time == steps
        assert np.array_equal(got.amplitudes,
                              allocating_evolve(state, coin, steps).amplitudes)

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_evolve_from_real_state(self, coin, steps):
        state = initial_state(PSI_REAL)
        got = evolve(state, coin, steps)
        expected = allocating_evolve(state, coin, steps)
        assert np.array_equal(got.amplitudes, expected.amplitudes)
        assert_same_bits(probability_distribution(got).probabilities,
                         probability_distribution(expected).probabilities)

    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_evolve_from_later_state(self, coin):
        state = allocating_evolve(initial_state(PSI_SYM), coin, 9)
        assert np.array_equal(evolve(state, coin, 20).amplitudes,
                              allocating_evolve(state, coin, 20).amplitudes)

    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_evolve_composes(self, coin):
        state = initial_state(PSI_SYM)
        for a, b in [(0, 5), (5, 0), (1, 1), (13, 30)]:
            split = evolve(evolve(state, coin, a), coin, b)
            assert split.time == a + b
            assert np.array_equal(split.amplitudes,
                                  evolve(state, coin, a + b).amplitudes)

    @pytest.mark.parametrize("t_max", [1, 2, 3, 4, 199, 200, 401])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_origin_series_light_cone(self, coin, t_max):
        assert np.array_equal(origin_series(coin, PSI_SYM, t_max),
                              allocating_origin_series(coin, PSI_SYM, t_max))

    # Windows of 3001 and 1003 sites, past the sizes above and the panel
    # sizes BLAS packs its operands into.
    @pytest.mark.parametrize("coin", [grover_coin(), Coin(haar_unitary(1))],
                             ids=["grover", "haar1"])
    def test_evolve_large_window(self, coin):
        state = initial_state(random_state(5))
        got = evolve(state, coin, 1500)
        assert got.amplitudes.flags.c_contiguous
        assert np.array_equal(got.amplitudes,
                              allocating_evolve(state, coin, 1500).amplitudes)

    @pytest.mark.parametrize("coin", [coin_c2(1.0), Coin(haar_unitary(2))],
                             ids=["c2:1", "haar2"])
    def test_origin_series_large_window(self, coin):
        assert np.array_equal(origin_series(coin, PSI_SYM, 1001),
                              allocating_origin_series(coin, PSI_SYM, 1001))

    @pytest.mark.parametrize("coin", REAL_COINS.values(), ids=REAL_COINS.keys())
    def test_real_walk_large_window(self, coin):
        state = initial_state(PSI_REAL)
        got = evolve(state, coin, 1500)
        expected = allocating_evolve(state, coin, 1500)
        assert got.amplitudes.dtype == np.complex128
        assert got.amplitudes.flags.c_contiguous
        assert np.array_equal(got.amplitudes, expected.amplitudes)
        assert_same_bits(probability_distribution(got).probabilities,
                         probability_distribution(expected).probabilities)
        assert_same_bits(origin_series(coin, PSI_REAL, 1001),
                         allocating_origin_series(coin, PSI_REAL, 1001))

    @pytest.mark.parametrize("coin, psi, dtype", [
        (grover_coin(), PSI_SYM, np.float64),
        (coin_c2(0.4), PSI_REAL, np.float64),
        (Coin(real_orthogonal(12, -1)), PSI_LR, np.float64),
        (grover_coin(), np.array([0.6, 0.8j, 0.0]), np.complex128),
        (Coin(real_orthogonal(11, 1)), np.array([0.6, 0.0, 0.8j]),
         np.complex128),
        (coin_c1(0.6), PSI_SYM, np.complex128),
        (Coin(haar_unitary(1)), PSI_REAL, np.complex128),
    ], ids=["grover-sym", "c2-real", "orth-lr", "grover-imag", "orth-imag",
            "c1-sym", "haar-real"])
    def test_dtype_follows_the_data(self, coin, psi, dtype):
        buf = next(_walk(initial_state(psi).amplitudes, coin, range(2), 2))
        assert buf.dtype == dtype
        assert evolve(initial_state(psi), coin, 2).amplitudes.dtype \
            == np.complex128

    # The cells a step leaves unwritten keep the +0.0 of allocation, so
    # every buffer of a growing walk is zero outside [-t, t], bit for bit.
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 40])
    @pytest.mark.parametrize("start", [0, 9])
    @pytest.mark.parametrize("coin, psi", [
        (grover_coin(), PSI_SYM),
        (coin_c2(0.4), PSI_REAL),
        (grover_coin(), np.array([0.6, 0.8j, 0.0])),
        (coin_c1(0.6), PSI_SYM),
        (Coin(haar_unitary(1)), random_state(5)),
    ], ids=["grover-sym", "c2-real", "grover-imag", "c1-sym", "haar"])
    def test_zero_outside_support(self, coin, psi, start, steps):
        state = evolve(initial_state(psi), coin, start)
        # A later state reaches its edge sites.
        assert np.abs(state.amplitudes[[0, -1]]).max(axis=1).min() > 0
        end = start + steps
        walk = _walk(state.amplitudes, coin, range(start, end), end)
        # Each buffer is checked when it is yielded, before the next step.
        for t, buf in enumerate(walk, start):
            outside = np.ones(2 * end + 1, dtype=bool)
            outside[end - t:end + t + 1] = False
            edge = buf[:, outside]
            for part in (edge.real, edge.imag):
                assert_same_bits(part, np.zeros(part.shape))
        assert t == end

    def test_zero_step_walk(self):
        # One site, no step: the walk yields its start and stops.
        buf, = _walk(initial_state(PSI_SYM).amplitudes, grover_coin(),
                     range(0), 0)
        assert buf.shape == (3, 1)
        assert_same_bits(buf[:, 0], PSI_SYM)
        state = initial_state(random_state(5))
        assert np.array_equal(evolve(state, coin_c1(0.6), 0).amplitudes,
                              state.amplitudes)

    def test_step_is_one_evolve_step(self):
        state = evolve(initial_state(PSI_SYM), coin_c1(0.6), 4)
        assert np.array_equal(evolve(state, coin_c1(0.6), 1).amplitudes,
                              allocating_step(state, coin_c1(0.6)).amplitudes)

    def test_input_untouched_and_result_frozen(self):
        state = evolve(initial_state(PSI_SYM), grover_coin(), 3)
        before = state.amplitudes.copy()
        later = evolve(state, grover_coin(), 5)
        assert np.array_equal(state.amplitudes, before)
        assert not later.amplitudes.flags.writeable
        assert not np.shares_memory(later.amplitudes, state.amplitudes)

    def test_states_are_c_ordered(self):
        # probability_distribution sums along rows; its bits must not
        # depend on the layout of the array a state was built from.
        amps = np.asfortranarray(evolve(initial_state(PSI_SYM),
                                        grover_coin(), 4).amplitudes)
        state = WalkState(4, amps)
        assert state.amplitudes.flags.c_contiguous
        assert np.array_equal(state.amplitudes, amps)
        assert evolve(state, grover_coin(), 3).amplitudes.flags.c_contiguous


class TestIntegerTimes:
    # A bool is an int to Python, but not a count, as coin files refuse it
    # as a number.
    @pytest.mark.parametrize("time", [1.0, 1.5, "1", None, True, False])
    def test_state_time_must_be_an_integer(self, time):
        with pytest.raises(ValueError, match="^time must be a non-negative "
                                             "integer, got "):
            WalkState(time, np.zeros((3, 3)))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="^time must be a non-negative"):
            WalkState(-1, np.zeros((0, 3)))

    @pytest.mark.parametrize("time", [np.int64(1), np.int32(1)])
    def test_integer_like_time_stored_as_int(self, time):
        state = WalkState(time, np.zeros((3, 3)))
        assert type(state.time) is int
        assert state.time == 1

    @pytest.mark.parametrize("steps", [2.0, np.float64(2.0), "2", True, False])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match="^step count must be a "
                                             "non-negative integer, got "):
            evolve(initial_state(PSI_SYM), grover_coin(), steps)

    def test_numpy_integer_steps(self):
        state = initial_state(PSI_SYM)
        got = evolve(state, grover_coin(), np.int64(3))
        assert type(got.time) is int
        assert np.array_equal(got.amplitudes,
                              evolve(state, grover_coin(), 3).amplitudes)


class TestProbabilityDistribution:
    @pytest.mark.parametrize("time, p", [
        (1, [0.5, 0.5]),
        (-3, [0.5, 0.5]),
        (1.0, [0.5, 0.0, 0.5]),
        (1, [0.5, float("nan"), 0.5]),
        (1, [0.5, -0.1, 0.6]),
    ], ids=["width", "negative-time", "float-time", "nan", "negative"])
    def test_inconsistent_record_rejected(self, time, p):
        with pytest.raises(ValueError):
            ProbabilityDistribution(time, p)

    def test_initial_point(self):
        dist = probability_distribution(initial_state(PSI_SYM))
        assert_allclose(dist.probabilities, [1.0])

    def test_sums_to_one(self):
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), coin_c1(0.9), 120))
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_parity_symmetry(self):
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), 50))
        assert np.max(np.abs(dist.probabilities - dist.probabilities[::-1])) \
            < 1e-12

    def test_transmitting_coin_three_point_support(self):
        psi = np.array([1, 1, 1]) / math.sqrt(3)
        dist = probability_distribution(
            evolve(initial_state(psi), transmitting_coin(), 10))
        support = {int(m): p for m, p in zip(dist.sites, dist.probabilities)
                   if p > 1e-15}
        assert set(support) == {-10, 0, 10}
        assert_allclose(list(support.values()), [1 / 3] * 3, atol=1e-14)

    @pytest.mark.parametrize("coin", [grover_coin(), permutation_coin(),
                                      reflecting_coin(), transmitting_coin(),
                                      coin_c1(1.1), coin_c2(0.7)])
    def test_norm_conserved_200_steps(self, coin):
        state = initial_state(PSI_SYM)
        for _ in range(200):
            state = evolve(state, coin, 1)
            assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_csv_export(self):
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), 3))
        lines = dist.to_csv().splitlines()
        assert lines[0] == "m,p"
        assert len(lines) == 8
        m, p = lines[1].split(",")
        assert int(m) == -3
        assert float(p) == dist.probabilities[0]

    def test_json_round_trip(self):
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), 12))
        data = json.loads(dist.to_json())
        assert data["time"] == dist.time
        assert (data["m_min"], data["m_max"]) == (-12, 12)
        assert np.array_equal(data["p"], dist.probabilities)


def mask_peak_positions(dist):
    """The half-line maxima by boolean masks over the site axis."""
    sites = dist.sites
    p = dist.probabilities
    left = right = None
    neg = sites < 0
    pos = sites > 0
    if np.any(neg) and p[neg].max() > 0.0:
        left = int(sites[neg][np.argmax(p[neg])])
    if np.any(pos) and p[pos].max() > 0.0:
        right = int(sites[pos][np.argmax(p[pos])])
    return left, right


# Entries that make ties, empty sides and tiny negative rounding likely.
entries = st.one_of(st.sampled_from([0.0, -0.0, -1e-12, -5e-13, 5e-324,
                                     0.25, 0.5]),
                    st.floats(min_value=-1e-12, max_value=1.0))


class TestPeakPositions:
    def test_no_side_support(self):
        dist = probability_distribution(initial_state(PSI_SYM))
        assert peak_positions(dist) == (None, None)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=12).flatmap(
        lambda t: st.lists(entries, min_size=2 * t + 1, max_size=2 * t + 1)))
    @example([1.0])
    @example([0.5, 0.0, 0.5])              # tie across the origin
    @example([0.25, 0.25, 0.0, 0.5, 0.5])  # first maximum on each side
    @example([0.0, 0.0, 1.0, 0.0, 0.0])    # no side support
    @example([-1e-12, 0.0, 1.0, 0.3, 0.3])  # left side only rounding
    def test_matches_mask_rule(self, p):
        dist = ProbabilityDistribution(len(p) // 2, np.array(p))
        assert peak_positions(dist) == mask_peak_positions(dist)
