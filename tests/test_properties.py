"""Property-based checks over randomly generated coins and states."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triwalk.coins import (
    Coin,
    _unitary_eig,
    coin_c1,
    coin_c2,
    eigensystem_of,
    fourier_coin,
    grover_coin,
    permutation_coin,
    reflecting_coin,
    transmitting_coin,
)
from triwalk.localization import origin_series
import triwalk.spectral as spectral
from triwalk.spectral import (FLAT_BAND_TOL, _band_slopes, _cubic_roots,
                              _cubic_slopes, _flat_bound, _projector,
                              _propagator_batch, peak_velocities_numeric)
from triwalk.walk import evolve, initial_state, probability_distribution

from oracles import (GROVER_BASIS, flat_band_defect, haar_unitary,
                     hf_velocity_range, random_real_state, random_state,
                     real_orthogonal, spectral_coin)
from test_spectral import assert_tracks_like_loop
from test_walk import (allocating_evolve, allocating_origin_series,
                       assert_same_bits)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_custom_coin_respects_light_cone(seed):
    coin = Coin(haar_unitary(seed))
    result = peak_velocities_numeric(coin, 512)
    assert result.v_right <= 1.0 + 1e-9
    assert result.v_left >= -1.0 - 1e-9


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=16, max_value=128))
def test_branch_tracking_matches_loop(seed, n):
    assert_tracks_like_loop(Coin(haar_unitary(seed)), n)


@pytest.mark.parametrize("matrix", [fourier_coin().matrix, haar_unitary(0),
                                    haar_unitary(1), haar_unitary(2)])
def test_custom_coin_velocities_match_dense_scan(matrix):
    v_min, v_max = hf_velocity_range(matrix)
    result = peak_velocities_numeric(Coin(matrix))
    assert abs(result.v_right - v_max) < 1e-6
    assert abs(result.v_left - v_min) < 1e-6


GRID = np.arange(4096) * (2 * math.pi / 4096)
# exp(-ik) and exp(ik) on GRID, the phase table the cubic takes.
PHASES = np.exp(-1j * GRID), np.exp(1j * GRID)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_cubic_slope_extremes_match_eigenvectors(seed):
    # Over the samples the cubic does not flag; the flagged ones carry no
    # slopes to compare.  Each unmarked sample's three slopes, sorted, are
    # the eigenvector slopes (measured at most 4.4e-12 over 300 Haar coins).
    matrix = haar_unitary(seed)
    slopes, near = _cubic_slopes(matrix, *PHASES)
    reference = _band_slopes(matrix, GRID)
    assert abs(slopes[:, ~near].max() - reference[~near].max()) < 1e-9
    assert abs(slopes[:, ~near].min() - reference[~near].min()) < 1e-9
    assert np.all(np.abs(np.sort(slopes[:, ~near], axis=0)
                         - np.sort(reference[~near], axis=1).T) < 1e-9)


@pytest.mark.parametrize("matrix", [grover_coin().matrix, coin_c1(0.6).matrix,
                                    coin_c2(0.4).matrix, haar_unitary(0),
                                    haar_unitary(1), haar_unitary(2)],
                         ids=["grover", "c1:0.6", "c2:0.4", "haar0", "haar1",
                              "haar2"])
def test_projectors_are_eigenprojectors(matrix):
    # At every root whose |p'| is at least 0.1, well away from a touching,
    # the adjugate projector is v v^H for the unit eigenvector v of the
    # nearest eigenvalue (measured at most 7.2e-14, on c2(0.4)).
    lam_eig, vec = _unitary_eig(_propagator_batch(matrix, GRID))
    checked = 0
    for lam, dp in _cubic_roots(matrix, *PHASES):
        simple = np.abs(dp) >= 0.1
        em, ep = (phase[simple] for phase in PHASES)
        entry = _projector(matrix, lam[simple], dp[simple], em, ep)
        p = np.array([[entry(i, j) for j in range(3)] for i in range(3)])
        nearest = np.argmin(np.abs(lam_eig[simple] - lam[simple, None]), axis=1)
        v = vec[simple][np.arange(nearest.size), :, nearest]
        outer = v[:, :, None] * v[:, None, :].conj()
        assert np.abs(p.transpose(2, 0, 1) - outer).max() < 1e-12
        checked += nearest.size
    assert checked > GRID.size


@pytest.mark.parametrize("matrix", [permutation_coin().matrix,
                                    coin_c2(0.0).matrix,
                                    coin_c1(math.pi / 2).matrix])
def test_cubic_falls_back_on_degenerate_coins(matrix):
    # Two eigenvalues of U(k) coincide at every k: the cubic flags every
    # sample, so all of them take the eigenvector slopes (TestCubicCoarsePass
    # checks the velocities those give).
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, near = _cubic_slopes(matrix, *PHASES)
    assert near.all()


def test_cubic_triple_root_falls_back():
    # With the identity coin all three eigenvalues of U(0) equal 1, where
    # Cardano's cube root vanishes.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        slopes, near = _cubic_slopes(np.eye(3), *PHASES)
    assert near[0]
    reference = _band_slopes(np.eye(3), GRID)
    assert abs(slopes[:, ~near].max() - reference[~near].max()) < 1e-9
    assert abs(slopes[:, ~near].min() - reference[~near].min()) < 1e-9


def assert_bound_covers_slopes(matrix):
    # Wherever the flatness bound is finite it bounds every eigenvector
    # slope, up to the rounding of both.
    bound = _flat_bound(matrix, *PHASES)
    slopes = np.abs(_band_slopes(matrix, GRID)).max(axis=1)
    finite = np.isfinite(bound)
    assert finite.any()
    assert np.all(bound[finite] + 1e-9 >= slopes[finite])


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_flat_bound_covers_haar_slopes(seed):
    assert_bound_covers_slopes(haar_unitary(seed))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["c1", "c2"]), st.floats(min_value=-12.0, max_value=0.0))
@example("c1", -9.0)
@example("c2", -8.0)
def test_flat_bound_covers_near_flat_slopes(family, exponent):
    # c1(pi/2) and c2(0) are flat; 10**exponent moves the coin off them.
    delta = 10.0 ** exponent
    coin = coin_c1(math.pi / 2 - delta) if family == "c1" else coin_c2(delta)
    assert_bound_covers_slopes(coin.matrix)


def exactly_flat_coin(seed: int, perm=(2, 1, 0)) -> np.ndarray:
    """A permutation coin between seeded random diagonal phases.

    The default is the exchange L <-> R; it and the two cyclic permutations
    leave C00 = C22 = 0 exactly, so every band is flat.
    """
    rng = np.random.default_rng(seed)
    left, right = np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=(2, 3)))
    return left[:, None] * np.eye(3)[list(perm)] * right[None, :]


def peak_search_eigensolves(matrix: np.ndarray) -> bool:
    """Whether the peak search of a flat coin runs any eigensolve."""
    with mock.patch.object(spectral, "_band_slopes",
                           wraps=spectral._band_slopes) as band_slopes:
        result = peak_velocities_numeric(Coin(matrix))
    assert (result.v_left, result.v_right, result.k0) == (0.0, 0.0, None)
    return band_slopes.called


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_exactly_flat_coins_are_certified(seed):
    # With the exchange, U(k) has a degenerate pair at every k, every sample
    # is marked, and the bound is tight there.  A cyclic permutation has
    # three distinct flat bands, separated at every k: no sample is marked,
    # so the three projector slopes, all 0, certify it alone.
    matrix = exactly_flat_coin(seed)
    assert flat_band_defect(matrix) == 0.0
    assert not peak_search_eigensolves(matrix)
    for perm in ((1, 2, 0), (2, 0, 1)):
        matrix = exactly_flat_coin(seed, perm)
        assert flat_band_defect(matrix) == 0.0
        assert not peak_search_eigensolves(matrix)


@pytest.mark.parametrize("coin", [permutation_coin(), coin_c1(math.pi / 2),
                                  coin_c2(0.0), reflecting_coin()],
                         ids=["pi", "c1:pi/2", "c2:0", "reflecting"])
def test_named_flat_coins_are_certified(coin):
    # c1(pi/2) keeps C00 = C22 = 2.8e-16 from the rounding of cos(pi/2).
    assert flat_band_defect(coin.matrix) < 1e-15
    assert not peak_search_eigensolves(coin.matrix)


def partial_rotation(seed: int, size: float) -> np.ndarray:
    """exp(i size H) for a seeded random Hermitian H of unit-order entries."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, v = np.linalg.eigh(a + a.conj().T)
    return (v * np.exp(1j * size * w)) @ v.conj().T


@settings(max_examples=20, deadline=None)
@given(seeds, st.floats(min_value=-3.0, max_value=0.0))
def test_coins_off_the_flat_rule_are_not_certified(seed, exponent):
    # Haar coins, and exactly flat coins rotated away from the rule: the
    # bound itself, without the cubic's gate in front of it, must reject
    # every one with |C00| + |C22| >= 1e-3.
    for matrix in (haar_unitary(seed),
                   exactly_flat_coin(seed) @ partial_rotation(seed, 10.0 ** exponent),
                   transmitting_coin().matrix):
        if flat_band_defect(matrix) >= 1e-3:
            bound = _flat_bound(matrix, *PHASES)
            assert not np.all(bound < FLAT_BAND_TOL / 2)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_eigensystem_reconstructs_custom_coins(seed):
    coin = Coin(haar_unitary(seed))
    es = eigensystem_of(coin)
    assert np.max(np.abs(np.abs(es.eigenvalues) - 1.0)) < 1e-12
    gram = es.eigenvectors.conj().T @ es.eigenvectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    rebuilt = spectral_coin(es.eigenvectors, np.angle(es.eigenvalues))
    assert np.max(np.abs(rebuilt - coin.matrix)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seeds, seeds, st.integers(min_value=1, max_value=25))
def test_evolution_preserves_norm_and_support(coin_seed, state_seed, t):
    coin = Coin(haar_unitary(coin_seed))
    state = evolve(initial_state(random_state(state_seed)), coin, t)
    assert abs(state.norm_squared() - 1.0) < 1e-12
    assert state.amplitudes.shape == (2 * t + 1, 3)
    dist = probability_distribution(state)
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12
    assert np.min(dist.probabilities) >= 0.0


@settings(max_examples=20, deadline=None)
@given(seeds, seeds, st.integers(min_value=0, max_value=300))
def test_walk_kernel_matches_allocating_steps(coin_seed, state_seed, t):
    coin = Coin(haar_unitary(coin_seed))
    psi = random_state(state_seed)
    state = initial_state(psi)
    assert np.array_equal(evolve(state, coin, t).amplitudes,
                          allocating_evolve(state, coin, t).amplitudes)
    if t >= 1:
        assert np.array_equal(origin_series(coin, psi, t),
                              allocating_origin_series(coin, psi, t))


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from([1, -1]), seeds,
       st.integers(min_value=0, max_value=300))
def test_real_walk_matches_complex_allocating_steps(coin_seed, det,
                                                    state_seed, t):
    # A real coin from a real state steps in float64; the allocating steps
    # keep the complex product, and the bits must agree.
    coin = Coin(real_orthogonal(coin_seed, det))
    psi = random_real_state(state_seed)
    state = initial_state(psi)
    got, expected = evolve(state, coin, t), allocating_evolve(state, coin, t)
    assert np.array_equal(got.amplitudes, expected.amplitudes)
    assert_same_bits(probability_distribution(got).probabilities,
                     probability_distribution(expected).probabilities)
    if t >= 1:
        assert_same_bits(origin_series(coin, psi, t),
                         allocating_origin_series(coin, psi, t))


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-math.pi, max_value=math.pi))
@example(1.0, -1.0, 0.0)
def test_spectral_construction_is_unitary(t1, t2, t3):
    coin = Coin(spectral_coin(GROVER_BASIS, (t1, t2, t3)))
    dev = np.max(np.abs(coin.matrix @ coin.matrix.conj().T - np.eye(3)))
    assert dev < 1e-12
    es = eigensystem_of(coin)
    expected = np.exp(1j * np.array([t1, t2, t3]))
    # Compared as sets under the best pairing: a sort orders a conjugate
    # pair, whose real parts tie, by rounding (the example swaps it).
    assert min(np.max(np.abs(es.eigenvalues[list(perm)] - expected))
               for perm in itertools.permutations(range(3))) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["grover", "c1", "c2"]),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.integers(min_value=1, max_value=40))
def test_parity_symmetric_walks(family, param, a, b, t):
    if family == "grover":
        coin = grover_coin()
    elif family == "c1":
        coin = coin_c1(param * math.pi / 2)
    else:
        coin = coin_c2(param)
    psi = np.array([a, b, a], dtype=complex)
    norm = np.linalg.norm(psi)
    if norm < 1e-6:
        psi = np.array([1.0, 0.0, 1.0], dtype=complex)
        norm = math.sqrt(2.0)
    state = initial_state(psi / norm)
    for _ in range(t):
        state = evolve(state, coin, 1)
    p = probability_distribution(state).probabilities
    assert np.max(np.abs(p - p[::-1])) < 1e-12
