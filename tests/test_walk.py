import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dense_evolve, fourier_evolve_distribution
from test_properties import haar_unitary, random_state
from triwalk.coins import (
    Coin,
    coin_c1,
    coin_c2,
    grover_coin,
    permutation_coin,
    reflecting_coin,
    transmitting_coin,
)
from triwalk.localization import origin_series
from triwalk.walk import (
    WalkState,
    evolve,
    initial_state,
    peak_positions,
    probability_distribution,
    step,
)

PSI_SYM = np.array([1, -1, 1]) / math.sqrt(3)
PSI_LR = np.array([1, 0, 1]) / math.sqrt(2)


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
        with pytest.raises(ValueError):  # a NaN norm compares False to 1
            initial_state(np.array([np.nan, 0.0, 0.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            initial_state(np.array([1.0, 0.0]))


class TestStep:
    def test_permutation_fixes_stay_component(self):
        state = step(initial_state(np.array([0.0, 1.0, 0.0])),
                     permutation_coin())
        assert state.time == 1
        assert_allclose(state.site_amplitudes(0), [0, 1, 0], atol=1e-15)
        assert_allclose(state.site_amplitudes(1), 0, atol=1e-15)
        assert_allclose(state.site_amplitudes(-1), 0, atol=1e-15)

    def test_transmitting_coin_splits_ballistically(self):
        state = step(initial_state(PSI_LR), transmitting_coin())
        assert_allclose(state.site_amplitudes(-1),
                        [-1 / math.sqrt(2), 0, 0], atol=1e-15)
        assert_allclose(state.site_amplitudes(1),
                        [0, 0, -1 / math.sqrt(2)], atol=1e-15)
        assert_allclose(state.site_amplitudes(0), 0, atol=1e-15)

    def test_grover_left_amplitude(self):
        # First row of the coin on (1,-1,1)/sqrt(3): (-1-2+2)/(3 sqrt(3))
        state = step(initial_state(PSI_SYM), grover_coin())
        assert abs(state.site_amplitudes(-1)[0] - (-1 / (3 * math.sqrt(3)))) \
            < 1e-15

    def test_norm_preserved(self):
        state = step(initial_state(PSI_SYM), grover_coin())
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
        expected = fourier_evolve_distribution(grover_coin().matrix, PSI_SYM,
                                               t, n_modes=128)
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), t))
        for m, p in zip(dist.sites, dist.probabilities):
            assert abs(p - expected[int(m)]) < 1e-12


def allocating_step(state, coin):
    """One step as a fresh window: the arithmetic the in-place buffer keeps."""
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


class TestInPlaceBuffer:
    # Stepping one buffer in place, over the support window or only the
    # backward light cone, must give bit for bit the amplitudes and origin
    # probabilities of allocating a new window at every step.
    COINS = {"grover": grover_coin(), "c2:1": coin_c2(1.0),
             "pi": permutation_coin(), "identity": Coin(np.eye(3)),
             "haar0": Coin(haar_unitary(0)), "haar1": Coin(haar_unitary(1)),
             "haar2": Coin(haar_unitary(2))}

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_evolve_from_initial_state(self, coin, steps):
        state = initial_state(random_state(5))
        got = evolve(state, coin, steps)
        assert got.time == steps
        assert np.array_equal(got.amplitudes,
                              allocating_evolve(state, coin, steps).amplitudes)

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

    def test_step_is_one_evolve_step(self):
        state = evolve(initial_state(PSI_SYM), coin_c1(0.6), 4)
        assert np.array_equal(step(state, coin_c1(0.6)).amplitudes,
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
    @pytest.mark.parametrize("time", [1.0, 1.5, "1", None])
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

    @pytest.mark.parametrize("steps", [2.0, np.float64(2.0), "2"])
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
            state = step(state, coin)
            assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_csv_export(self, tmp_path):
        dist = probability_distribution(
            evolve(initial_state(PSI_SYM), grover_coin(), 3))
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        lines = path.read_text().splitlines()
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
        assert data["m_min"] == dist.m_min
        assert np.array_equal(data["p"], dist.probabilities)


class TestPeakPositions:
    def test_no_side_support(self):
        dist = probability_distribution(initial_state(PSI_SYM))
        assert peak_positions(dist) == (None, None)
