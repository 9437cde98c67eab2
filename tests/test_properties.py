"""Property-based checks over randomly generated coins and states."""

import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triwalk.coins import (
    Coin,
    coin_c1,
    coin_c2,
    coin_from_spectral,
    eigensystem_of,
    fourier_coin,
    grover_coin,
    grover_eigensystem,
    permutation_coin,
)
from triwalk.localization import origin_series
from triwalk.spectral import _band_slopes, _cubic_slopes, peak_velocities_numeric
from triwalk.walk import evolve, initial_state, probability_distribution, step

from oracles import hf_velocity_range


def haar_unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def random_state(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    return psi / np.linalg.norm(psi)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_oracles_import_nothing_from_triwalk():
    # The oracles must be able to disagree with the package, so they may not
    # reuse any of its code.
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    # A relative import ("from . import x") starts with an empty name.
    assert not [m for m in modules if m.split(".")[0] in ("triwalk", "")]


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
    # test_spectral imports this module, so its helper is imported here.
    from test_spectral import assert_tracks_like_loop

    assert_tracks_like_loop(Coin(haar_unitary(seed)), n)


@pytest.mark.parametrize("matrix", [fourier_coin().matrix, haar_unitary(0),
                                    haar_unitary(1), haar_unitary(2)])
def test_custom_coin_velocities_match_dense_scan(matrix):
    v_min, v_max = hf_velocity_range(matrix)
    result = peak_velocities_numeric(Coin(matrix))
    assert abs(result.v_right - v_max) < 1e-6
    assert abs(result.v_left - v_min) < 1e-6


GRID = np.arange(4096) * (2 * math.pi / 4096)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_cubic_slope_extremes_match_eigenvectors(seed):
    matrix = haar_unitary(seed)
    slopes, _ = _cubic_slopes(matrix, GRID)
    reference = _band_slopes(matrix, GRID)
    assert abs(slopes.max() - reference.max()) < 1e-9
    assert abs(slopes.min() - reference.min()) < 1e-9


@pytest.mark.parametrize("matrix", [permutation_coin().matrix,
                                    coin_c2(0.0).matrix,
                                    coin_c1(math.pi / 2).matrix])
def test_cubic_falls_back_on_degenerate_coins(matrix):
    # Two eigenvalues of U(k) coincide at every k: no sample uses the cubic.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        slopes, exact = _cubic_slopes(matrix, GRID)
    assert exact.all()
    assert np.array_equal(slopes, _band_slopes(matrix, GRID))


def test_cubic_triple_root_falls_back():
    # With the identity coin all three eigenvalues of U(0) equal 1, where
    # Cardano's cube root vanishes.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        slopes, exact = _cubic_slopes(np.eye(3), GRID)
    assert exact[0]
    reference = _band_slopes(np.eye(3), GRID)
    assert abs(slopes.max() - reference.max()) < 1e-9
    assert abs(slopes.min() - reference.min()) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_eigensystem_reconstructs_custom_coins(seed):
    coin = Coin(haar_unitary(seed))
    es = eigensystem_of(coin)
    assert np.max(np.abs(np.abs(es.eigenvalues) - 1.0)) < 1e-12
    gram = es.eigenvectors.conj().T @ es.eigenvectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    rebuilt = coin_from_spectral(es, np.angle(es.eigenvalues)).matrix
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
    # test_walk imports this module, so its helpers are imported here.
    from test_walk import allocating_evolve, allocating_origin_series
    coin = Coin(haar_unitary(coin_seed))
    psi = random_state(state_seed)
    state = initial_state(psi)
    assert np.array_equal(evolve(state, coin, t).amplitudes,
                          allocating_evolve(state, coin, t).amplitudes)
    if t >= 1:
        assert np.array_equal(origin_series(coin, psi, t),
                              allocating_origin_series(coin, psi, t))


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-math.pi, max_value=math.pi))
@example(1.0, -1.0, 0.0)
def test_spectral_construction_is_unitary(t1, t2, t3):
    coin = coin_from_spectral(grover_eigensystem(), (t1, t2, t3))
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
        state = step(state, coin)
    p = probability_distribution(state).probabilities
    assert np.max(np.abs(p - p[::-1])) < 1e-12
