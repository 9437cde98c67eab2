import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import triwalk.spectral as spectral
from oracles import dispersion_analytic, haar_unitary, propagators
from triwalk.cli import _FAMILIES
from triwalk.coins import (Coin, InvariantViolation, coin_c1, coin_c2,
                           fourier_coin, grover_coin, permutation_coin)
from triwalk.spectral import (
    BranchTrackingError,
    DispersionTable,
    PeakVelocityResult,
    dispersion_numeric,
    group_velocity,
    linear_approx_deviation,
    peak_velocities_numeric,
    peak_velocity_c1,
    peak_velocity_c2,
)
from triwalk.walk import evolve, initial_state, peak_positions, probability_distribution


V_GROVER = 1.0 / math.sqrt(3.0)


def circular_distance(a, b):
    d = np.asarray(a) - np.asarray(b)
    return np.abs(d - 2 * np.pi * np.round(d / (2 * np.pi)))


def best_set_match(got, expected):
    """Largest circular distance under the best pairing of two phase triples."""
    return min(
        np.max(circular_distance(np.asarray(got)[list(perm)], expected))
        for perm in itertools.permutations(range(3))
    )


def c1_stationary_k(phi: float) -> float:
    c2 = math.cos(phi) ** 2
    arg = (9.0 - 5.0 * c2 - 3.0 * math.sqrt(9.0 - 10.0 * c2 + c2 * c2)) / (4.0 * c2)
    return math.acos(arg)


def propagator(coin: Coin, k: float) -> np.ndarray:
    """The package's U(k) for one k, checked against the oracle's."""
    got = spectral._propagator_batch(coin.matrix, np.array([k]))[0]
    assert_allclose(got, propagators(coin.matrix, [k])[0], atol=1e-15)
    return got


class TestMomentumPropagator:
    def test_k_zero_is_coin(self):
        assert_allclose(propagator(grover_coin(), 0.0),
                        grover_coin().matrix, atol=1e-15)

    def test_k_pi(self):
        expected = np.diag([-1.0, 1.0, -1.0]) @ grover_coin().matrix
        assert_allclose(propagator(grover_coin(), math.pi), expected,
                        atol=1e-12)

    def test_identity_coin_gives_diagonal(self):
        k = 0.7
        got = propagator(Coin(np.eye(3)), k)
        assert_allclose(got, np.diag([np.exp(-1j * k), 1.0, np.exp(1j * k)]),
                        atol=1e-15)

    def test_unitary(self):
        for k in (0.0, 0.3, 2.0, 5.9):
            u = propagator(coin_c1(0.8), k)
            assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12


class TestDispersionNumeric:
    def test_grover_flat_branch(self):
        table = dispersion_numeric(grover_coin(), 1024)
        assert np.max(np.abs(table.branches[2])) < 1e-10

    def test_eigenvalue_sets_match_propagator(self):
        table = dispersion_numeric(coin_c2(0.7), 256)
        for n in range(0, 256, 17):
            u = propagators(coin_c2(0.7).matrix, [table.k_grid[n]])[0]
            expected = np.angle(np.linalg.eigvals(u))
            assert best_set_match(table.branches[:, n], expected) < 1e-10

    def test_c1_matches_closed_form(self):
        phi = math.pi / 4
        table = dispersion_numeric(coin_c1(phi), 1024)
        w1, w2, w3 = dispersion_analytic("c1", phi, table.k_grid)
        for n in range(0, 1024, 11):
            expected = np.array([w1[n], w2[n], w3[n]])
            assert best_set_match(table.branches[:, n], expected) < 1e-9

    @pytest.mark.parametrize("rho", np.linspace(0.0, 1.0, 11))
    def test_c2_matches_closed_form(self, rho):
        table = dispersion_numeric(coin_c2(rho), 512)
        w1, w2, w3 = dispersion_analytic("c2", rho, table.k_grid)
        for n in range(0, 512, 29):
            expected = np.array([w1[n], w2[n], w3[n]])
            assert best_set_match(table.branches[:, n], expected) < 1e-9

    def test_branch_continuity(self):
        table = dispersion_numeric(fourier_coin(), 512)
        assert np.max(np.abs(np.diff(table.branches))) < math.pi / 4
        # The seam step, wrapped, enters the velocities at both ends.
        h = 2 * math.pi / 512
        assert np.max(np.abs(group_velocity(table) * h)) < math.pi / 4

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            dispersion_numeric(grover_coin(), 8)
        # A float size would build an open grid, its last gap half a spacing.
        with pytest.raises(ValueError, match="^dispersion grid must be a "
                                             "non-negative integer, got 100.5"):
            dispersion_numeric(coin_c1(0.6), 100.5)
        got = dispersion_numeric(coin_c1(0.6), np.int64(20))
        assert np.array_equal(got.branches,
                              dispersion_numeric(coin_c1(0.6), 20).branches)

    def test_jump_threshold_reported(self, monkeypatch):
        monkeypatch.setattr(spectral, "BRANCH_JUMP_THRESHOLD", 1e-5)
        with pytest.raises(BranchTrackingError) as err:
            dispersion_numeric(grover_coin(), 64)
        assert 0.0 < err.value.k < 2 * math.pi

    def test_eigenvector_pass(self):
        table = dispersion_numeric(coin_c1(0.5), 64, include_eigenvectors=True)
        assert table.eigenvectors.shape == (64, 3, 3)
        for n in range(0, 64, 7):
            u = propagators(coin_c1(0.5).matrix, [table.k_grid[n]])[0]
            for j in range(3):
                v = table.eigenvectors[n, :, j]
                lam = np.exp(1j * table.branches[j, n])
                assert np.linalg.norm(u @ v - lam * v) < 1e-10
            gram = table.eigenvectors[n].conj().T @ table.eigenvectors[n]
            assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def loop_branches(coin: Coin, n: int) -> np.ndarray:
    """The dispersion branches by the tracking rule, one sample at a time."""
    ks = np.arange(n) * (2 * math.pi / n)
    raw = np.angle(np.linalg.eigvals(spectral._propagator_batch(coin.matrix, ks)))
    branches = np.empty((3, n))
    branches[:, 0] = np.sort(raw[0])
    prev2 = prev = branches[:, 0]
    for i in range(1, n):
        pred = 2.0 * prev - prev2
        cand = raw[i][spectral._PERMS]
        cand = cand + 2 * math.pi * np.round((pred - cand) / (2 * math.pi))
        best = int(np.argmin(np.max(np.abs(cand - pred), axis=1)))
        jump = float(np.max(np.abs(cand[best] - prev)))
        if jump > spectral.BRANCH_JUMP_THRESHOLD:
            raise BranchTrackingError(
                f"branch jump {jump:.3g} rad exceeds threshold "
                f"{spectral.BRANCH_JUMP_THRESHOLD:.3g} at k = {ks[i]:.6f}",
                k=float(ks[i]))
        branches[:, i] = cand[best]
        prev2, prev = prev, branches[:, i]
    spread = np.max(np.abs(branches - branches.mean(axis=1, keepdims=True)), axis=1)
    flat = int(np.argmin(spread))
    rest = sorted((j for j in range(3) if j != flat),
                  key=lambda j: -branches[j].mean())
    return branches[[*rest, flat]]


def assert_tracks_like_loop(coin: Coin, n: int) -> None:
    """Same branch bits as ``loop_branches``, or the same error."""
    try:
        expected = loop_branches(coin, n)
    except BranchTrackingError as err:
        with pytest.raises(BranchTrackingError) as got:
            dispersion_numeric(coin, n)
        assert (str(got.value), got.value.k) == (str(err), err.k)
        return
    branches = dispersion_numeric(coin, n).branches
    # Bit patterns, so that -0.0 and 0.0 differ too.
    assert np.array_equal(branches.view(np.int64), expected.view(np.int64))


class TestBranchTracking:
    # dispersion_numeric solves the tracking recurrence by guessing and
    # verifying; its branches must be bit for bit those of the plain loop.
    COINS = {"grover": grover_coin(), "pi": permutation_coin(),
             "fourier": fourier_coin(),
             **{f"c1:{p:.6g}": coin_c1(p)
                for p in (0.0, 0.6, math.pi / 4, math.pi / 2, 2.0)},
             **{f"c2:{r:.10g}": coin_c2(r)
                for r in (0.0, 1e-9, 1 / math.sqrt(3), 1 - 1e-6, 1 - 1e-9, 1.0)},
             **{f"haar{s}": Coin(haar_unitary(s)) for s in range(8)}}

    @pytest.mark.parametrize("n", [16, 256, 1024, 4096])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_matches_loop(self, coin, n):
        assert_tracks_like_loop(coin, n)

    @pytest.mark.parametrize("threshold", [1e-5, 0.05, 0.3])
    @pytest.mark.parametrize("coin,n", [
        (grover_coin(), 64), (coin_c1(0.6), 32), (coin_c2(1.0), 16),
        (coin_c2(1.0), 256), (permutation_coin(), 64),
        (Coin(haar_unitary(1)), 16), (Coin(haar_unitary(2)), 64),
    ])
    def test_same_error_as_loop(self, monkeypatch, coin, n, threshold):
        monkeypatch.setattr(spectral, "BRANCH_JUMP_THRESHOLD", threshold)
        assert_tracks_like_loop(coin, n)

    @pytest.mark.parametrize("coin,n,threshold,sample", [
        (coin_c1(0.6), 32, 0.05, 4), (Coin(haar_unitary(2)), 64, 0.05, 8),
        (Coin(haar_unitary(1)), 16, 0.3, 13),
    ])
    def test_jump_past_first_sample(self, monkeypatch, coin, n, threshold,
                                    sample):
        # The guess is checked past the jump; the error names the first one.
        monkeypatch.setattr(spectral, "BRANCH_JUMP_THRESHOLD", threshold)
        with pytest.raises(BranchTrackingError) as err:
            dispersion_numeric(coin, n)
        assert err.value.k == sample * (2 * math.pi / n)

    def rule_calls(self, monkeypatch, coin, n):
        """Dimensions of the batches the tracking rule was called with."""
        calls = []
        rule = spectral._continue_branches

        def counted(raw, prev, prev2):
            calls.append(raw.ndim)
            return rule(raw, prev, prev2)

        monkeypatch.setattr(spectral, "_continue_branches", counted)
        assert_tracks_like_loop(coin, n)
        return calls

    def test_guess_verified_in_one_pass(self, monkeypatch):
        # One batch guesses the assignments, one checks the guess.
        assert self.rule_calls(monkeypatch, coin_c1(0.6), 4096) == [2, 2]

    @pytest.mark.parametrize("rho", [1.0, 1.0 - 1e-9])
    def test_repair_at_band_touching(self, monkeypatch, rho):
        # Nearest neighbours bounce off the touching at k = pi, while the
        # rule's linear prediction carries the branches through it.
        # The guess first fails at sample 2049, just past the touching at
        # sample 2048, and the rule runs from there to the end, one sample
        # at a time.
        calls = self.rule_calls(monkeypatch, coin_c2(rho), 4096)
        assert calls == [2, 2] + [1] * 2047

    @pytest.mark.parametrize("coin", [permutation_coin(), coin_c1(math.pi / 2)],
                             ids=["pi", "c1:pi/2"])
    def test_sequential_fallback(self, monkeypatch, coin):
        # A degenerate pair at every k: rounding picks each assignment, so
        # the guess fails early and the rule runs to the end.
        calls = self.rule_calls(monkeypatch, coin, 4096)
        assert calls[:2] == [2, 2] and calls.count(2) == 2
        assert calls.count(1) > 4096 // 2


class TestDispersionAnalytic:
    def test_grover_band_edges(self):
        w1, w2, w3 = dispersion_analytic("grover", None, 0.0)
        assert_allclose([w1, w2, w3], [math.pi, -math.pi, 0.0], atol=1e-12)
        w1, w2, _ = dispersion_analytic("grover", None, math.pi)
        assert_allclose([w1, w2], [math.acos(-1 / 3), -math.acos(-1 / 3)],
                        atol=1e-12)

    def test_c2_rho_one_is_linear(self):
        ks = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        w1, w2, _ = dispersion_analytic("c2", 1.0, ks)
        assert_allclose(w1, np.arccos(-np.cos(ks)), atol=1e-12)
        assert_allclose(w2, -np.arccos(-np.cos(ks)), atol=1e-12)

    def test_flat_branch_is_zero(self):
        ks = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
        for family, param in (("grover", None), ("c1", 0.7), ("c2", 0.4)):
            _, _, w3 = dispersion_analytic(family, param, ks)
            assert np.max(np.abs(w3)) == 0.0

    def test_custom_family_rejected(self):
        with pytest.raises(ValueError):
            dispersion_analytic("custom", None, 0.0)


class TestGroupVelocity:
    def test_flat_branch_velocity_vanishes(self):
        table = dispersion_numeric(coin_c1(0.9), 1024)
        assert np.max(np.abs(group_velocity(table)[2])) < 1e-9

    def test_grover_grid_maximum(self):
        table = dispersion_numeric(grover_coin(), 4096)
        vmax = np.max(group_velocity(table)[:2])
        assert abs(vmax - V_GROVER) < 1e-5

    def test_c2_half_grid_maximum(self):
        table = dispersion_numeric(coin_c2(0.5), 4096)
        vmax = np.max(group_velocity(table)[:2])
        assert abs(vmax - 0.5) < 1e-5

    def test_winding_branch_seam(self):
        # rho = 1 has strictly linear bands; the seam derivative must not
        # blow up where the unwrapped branch jumps by 2 pi.
        table = dispersion_numeric(coin_c2(1.0), 512)
        v = group_velocity(table)[:2]
        assert np.max(np.abs(v)) < 1.0 + 1e-9


class TestStationaryPoint:
    """The stationary wavenumber k0 reported with the peak velocities.

    The Grover corner is covered by ``TestPeakVelocitiesNumeric::test_grover``,
    the all-flat coin and small grids by its k0-is-None tests.
    """

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.95])
    def test_c2_corner_at_zero(self, rho):
        assert abs(peak_velocities_numeric(coin_c2(rho), 1024).k0) < 1e-6

    # Measured up to 6.7e-8 at 1.5, 4.2e-7 at pi/2 - 1e-5 and 3.0e-7 at
    # pi/2 - 1e-6, where the velocity maximum is very flat.
    @pytest.mark.parametrize("phi", [0.4, math.pi / 4, 1.1, 1.5,
                                     math.pi / 2 - 1e-5, math.pi / 2 - 1e-6])
    def test_c1_interior_inflection(self, phi):
        k0 = peak_velocities_numeric(coin_c1(phi)).k0
        assert abs(k0 - c1_stationary_k(phi)) < 1e-6


class TestPeakVelocitiesNumeric:
    def test_grover(self):
        res = peak_velocities_numeric(grover_coin())
        assert abs(res.v_right - V_GROVER) < 1e-6
        assert abs(res.v_left + V_GROVER) < 1e-6
        assert abs(res.k0) < 1e-6
        assert json.loads(res.to_json())["method"] == "numeric"

    def test_all_flat_walk_does_not_spread(self):
        res = peak_velocities_numeric(coin_c1(math.pi / 2))
        assert res.v_left == 0.0
        assert res.v_right == 0.0
        assert res.k0 is None

    # rho -> 1 brings the two dispersive bands within ~1e-4 of touching at
    # k = pi, where a finite-difference stencil would straddle both.
    @pytest.mark.parametrize("rho", [0.9, 1.0 - 1e-9])
    def test_c2_09(self, rho):
        res = peak_velocities_numeric(coin_c2(rho))
        assert abs(res.v_right - rho) < 1e-6
        assert abs(res.v_left + rho) < 1e-6

    @pytest.mark.parametrize("coin", [grover_coin(), coin_c1(0.7),
                                      coin_c2(0.3), fourier_coin()])
    def test_parity_of_extremes(self, coin):
        res = peak_velocities_numeric(coin, 1024)
        assert abs(res.v_left + res.v_right) < 1e-10

    def test_velocity_consistency_against_formulas(self):
        for phi in np.linspace(0.0, math.pi / 2, 9):
            res = peak_velocities_numeric(coin_c1(phi), 1024)
            assert abs(res.v_right - peak_velocity_c1(phi)) < 1e-6
        for rho in np.linspace(0.0, 1.0, 9):
            res = peak_velocities_numeric(coin_c2(rho), 1024)
            assert abs(res.v_right - peak_velocity_c2(rho)) < 1e-6

    def test_grid_must_be_integer(self):
        with pytest.raises(ValueError, match="^velocity grid must be a "
                                             "non-negative integer, got 300.5"):
            peak_velocities_numeric(coin_c1(0.6), 300.5)
        assert (peak_velocities_numeric(coin_c1(0.6), np.int64(300))
                == peak_velocities_numeric(coin_c1(0.6), 300))

    def test_small_grid_skips_stationary_point(self):
        res = peak_velocities_numeric(grover_coin(), 64)
        assert abs(res.v_right - V_GROVER) < 1e-4
        assert res.k0 is None

    def test_json_round_trip(self):
        res = peak_velocities_numeric(grover_coin(), 512)
        data = json.loads(res.to_json())
        assert data.pop("method") == "numeric"
        assert PeakVelocityResult(**data) == res

    @pytest.mark.parametrize("v_left, v_right", [(math.nan, 0.5),
                                                 (-0.5, math.nan)])
    def test_light_cone_refuses_nan(self, v_left, v_right):
        # NaN is no velocity: its record would print NaN, which is not JSON.
        with pytest.raises(InvariantViolation, match="light cone"):
            PeakVelocityResult(v_left, v_right, None)


def eigenvector_peak_search(coin: Coin, n: int):
    """The peak search with eigenvector slopes on every grid sample."""
    ks = np.arange(n) * (2 * math.pi / n)
    slopes = spectral._band_slopes(coin.matrix, ks)
    if np.max(np.abs(slopes)) < spectral.FLAT_BAND_TOL:
        return 0.0, 0.0, None
    sign = np.array([1.0, -1.0])[:, None, None]
    centers = ks[[np.argmax(slopes.max(axis=1)), np.argmin(slopes.min(axis=1))]]
    k, v = spectral._zoom(
        lambda kk: (sign * spectral._band_slopes(coin.matrix, kk)).max(axis=-1),
        centers, 2 * math.pi / n)
    k0 = float(k[0]) % (2 * math.pi)
    return -float(v[1]), float(v[0]), min(k0, 2 * math.pi - k0) if n >= 256 else None


# Coins of TestCubicCoarsePass.COINS whose every band is flat to within the
# flatness bound, so no eigensolve runs for them.
CERTIFIED = ("pi", "c1:pi/2", "c2:0", "c1:pi/2-1e-9", "c2:1e-9", "cyclic")


class TestCubicCoarsePass:
    # The cubic only chooses where the zoom starts; every result must be bit
    # for bit what eigenvector slopes on the whole grid give.
    COINS = {"grover": grover_coin(), "pi": permutation_coin(),
             "c1:0.6": coin_c1(0.6), "c1:2.0": coin_c1(2.0),
             "c1:pi/2": coin_c1(math.pi / 2), "c2:0": coin_c2(0.0),
             "c2:1-1e-9": coin_c2(1.0 - 1e-9), "c2:1": coin_c2(1.0),
             "haar0": Coin(haar_unitary(0)), "haar7": Coin(haar_unitary(7)),
             # A triple root at k = 0, and the edges of both families.
             "identity": Coin(np.eye(3)),
             "c1:pi/2-1e-9": coin_c1(math.pi / 2 - 1e-9),
             "c2:1e-9": coin_c2(1e-9),
             # Three flat bands, apart at every k: no sample is marked.
             "cyclic": Coin(np.roll(np.eye(3), 1, axis=0))}

    @pytest.mark.parametrize("n", [16, 17, 128, 256, 512, 1000, 4096])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_matches_eigenvector_search(self, coin, n):
        res = peak_velocities_numeric(coin, n)
        assert (res.v_left, res.v_right, res.k0) == eigenvector_peak_search(coin, n)

    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_cubic_calls_no_eigensolver(self, coin, monkeypatch):
        def no_eigensolve(*args):
            raise AssertionError("_band_slopes ran")

        monkeypatch.setattr(spectral, "_band_slopes", no_eigensolve)
        ks = np.arange(512) * (2 * math.pi / 512)
        spectral._cubic_slopes(coin.matrix, np.exp(-1j * ks), np.exp(1j * ks))

    @pytest.mark.parametrize("name", COINS)
    def test_one_eigenvector_pass_on_the_grid(self, name, monkeypatch):
        # The grid pass solves once, over a 1-D set of samples, unless the
        # flatness bound certifies the coin; the zoom's calls take 2-D
        # arrays of k.
        coin = self.COINS[name]
        grid_calls = []
        band_slopes = spectral._band_slopes

        def counted(matrix, ks):
            if ks.ndim == 1:
                grid_calls.append(ks.size)
            return band_slopes(matrix, ks)

        monkeypatch.setattr(spectral, "_band_slopes", counted)
        peak_velocities_numeric(coin, 512)
        assert len(grid_calls) == (name not in CERTIFIED)

    def test_mirror_tie_keeps_first_sample(self):
        # c1(0.6) attains its grid maximum at mirror-image samples; the first
        # one sets k0.
        assert peak_velocities_numeric(coin_c1(0.6)).k0 == 1.307777166922583


def reference_zoom(objective, centers, half_width):
    """The zoom as a plain loop that evaluates all nine samples every pass."""
    offsets = np.linspace(-1.0, 1.0, 9)
    c = np.asarray(centers, dtype=float)
    while True:
        ks = c[..., None] + half_width * offsets
        values = objective(ks)
        best = np.argmax(values, axis=-1)[..., None]
        c = np.take_along_axis(ks, best, axis=-1)[..., 0]
        if half_width < spectral._ZOOM_RESOLUTION:
            return c, np.take_along_axis(values, best, axis=-1)[..., 0]
        half_width /= 4.0


class TestZoomCarriesCentre:
    # Each pass after the first evaluates eight samples and carries the
    # middle one's value; centres and values keep the nine-sample loop's
    # bits, ties included.
    @staticmethod
    def same_bits(objective, centers, half_width):
        got = spectral._zoom(objective, centers, half_width)
        want = reference_zoom(objective, centers, half_width)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_plateaus_and_ties(self):
        # A staircase: whole brackets of equal values, where the first
        # maximal sample wins.
        def steps(kk):
            return np.floor(4.0 * np.cos(3.0 * kk) + 0.5 * np.sin(kk))

        centers = np.linspace(0.0, 2 * math.pi, 40).reshape(5, 8)
        self.same_bits(steps, centers, 0.3)
        self.same_bits(lambda kk: np.zeros_like(kk), centers, 0.3)

    def test_shapes_of_centres(self):
        def smooth(kk):
            return np.sin(kk) - 0.1 * kk * kk

        self.same_bits(smooth, np.array(0.4), 0.01)
        self.same_bits(smooth, np.array([0.4, 2.0]), 0.01)

    @pytest.mark.parametrize("n", [17, 256, 4096])
    def test_band_slope_objectives(self, n):
        # Both extremes of a stack of coins, from their grid samples.
        coins = [grover_coin(), coin_c1(0.6), coin_c2(0.3), coin_c2(1.0),
                 Coin(haar_unitary(0)), Coin(haar_unitary(7))]
        stack = np.array([c.matrix for c in coins])[:, None, None]
        sign = np.array([1.0, -1.0])[:, None, None]
        ks = np.arange(n) * (2 * math.pi / n)
        slopes = spectral._band_slopes(stack[:, 0, 0, None], ks)
        centers = np.stack([ks[np.argmax(slopes.max(axis=-1), axis=-1)],
                            ks[np.argmin(slopes.min(axis=-1), axis=-1)]], axis=1)
        self.same_bits(
            lambda kk: (sign * spectral._band_slopes(stack, kk)).max(axis=-1),
            centers, 2 * math.pi / n)


class TestFlatCertificate:
    # Coins whose bands are all flat to within FLAT_BAND_TOL / 2 are
    # certified by a closed-form bound, with no eigensolve; the others near
    # that line take the eigenvector pass.  Either way the result is the
    # eigenvector search's.
    NAMED = {name: TestCubicCoarsePass.COINS[name] for name in CERTIFIED}
    FALL_BACK = {"c2:1e-8": coin_c2(1e-8), "c2:6e-9": coin_c2(6e-9)}

    @staticmethod
    def count_band_slopes(monkeypatch):
        calls = []
        band_slopes = spectral._band_slopes

        def counted(matrix, ks):
            calls.append(ks.copy())
            return band_slopes(matrix, ks)

        monkeypatch.setattr(spectral, "_band_slopes", counted)
        return calls

    @pytest.mark.parametrize("n", [17, 4096])
    @pytest.mark.parametrize("name", NAMED)
    def test_certified_coins_run_no_eigensolve(self, name, n, monkeypatch):
        coin = self.NAMED[name]
        want = eigenvector_peak_search(coin, n)
        calls = self.count_band_slopes(monkeypatch)
        res = peak_velocities_numeric(coin, n)
        assert calls == []
        assert (res.v_left, res.v_right, res.k0) == want == (0.0, 0.0, None)

    @pytest.mark.parametrize("name", FALL_BACK)
    def test_coins_past_the_bound_fall_back(self, name, monkeypatch):
        coin = self.FALL_BACK[name]
        ks = np.arange(4096) * (2 * math.pi / 4096)
        bound = spectral._flat_bound(coin.matrix, np.exp(-1j * ks),
                                     np.exp(1j * ks))
        assert bound.max() >= spectral.FLAT_BAND_TOL / 2
        want = eigenvector_peak_search(coin, 4096)
        calls = self.count_band_slopes(monkeypatch)
        res = peak_velocities_numeric(coin, 4096)
        assert_blocks_cover_grid(calls, ks)
        assert (res.v_left, res.v_right, res.k0) == want

    QUIET = {**NAMED, **FALL_BACK, "identity": Coin(np.eye(3))}

    @pytest.mark.parametrize("name", QUIET)
    def test_no_runtime_warning(self, name):
        # The identity coin has a triple root at k = 0, where every |p'|
        # vanishes and the bound is infinite.
        coin = self.QUIET[name]
        ks = np.arange(4096) * (2 * math.pi / 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = spectral._flat_bound(coin.matrix, np.exp(-1j * ks),
                                         np.exp(1j * ks))
            peak_velocities_numeric(coin, 4096)
        assert not np.isnan(bound).any()
        assert np.isinf(bound[0]) == (name == "identity")


def assert_blocks_cover_grid(calls, ks):
    """The grid's eigenvector pass (the 1-D calls) ran over every sample of
    ``ks``, in order, at most ``_EIG_BLOCK`` samples per call."""
    grid = [k for k in calls if k.ndim == 1]
    assert grid and max(k.size for k in grid) <= spectral._EIG_BLOCK
    assert np.array_equal(np.concatenate(grid), ks)


def mirror_haar(seed: int) -> Coin:
    """A random coin that commutes with the L<->R exchange P, equal to its
    mirror image bit for bit.  Unlike the named families', its slopes at one
    k are not symmetric about zero, so only the mirror k -> 2pi - k maps its
    top slope onto its bottom one."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = q * (np.diag(r) / np.abs(np.diag(r)))
    block[2, 2] = np.exp(1j * rng.uniform(-math.pi, math.pi))
    # Columns: the even vectors (1, 0, 1)/sqrt(2) and (0, 1, 0) of P, then
    # its odd vector (1, 0, -1)/sqrt(2).
    a = 1.0 / math.sqrt(2.0)
    basis = np.array([[a, 0.0, a], [0.0, 1.0, 0.0], [a, 0.0, -a]])
    m = basis @ block @ basis.T
    return Coin((m + m[::-1, ::-1]) / 2.0)


class TestHalfZone:
    # A coin equal to its L<->R mirror image solves the cubic on samples
    # 0 .. n // 2 and mirrors the rest; any other coin on the whole grid.
    # Either way the results are the eigenvector search's, bit for bit.
    MIRROR = {"grover": grover_coin(), "c1:0.6": coin_c1(0.6),
              "c1:2.0": coin_c1(2.0), "c2:0.3": coin_c2(0.3),
              "c2:1-1e-9": coin_c2(1.0 - 1e-9), "c2:1": coin_c2(1.0),
              **{f"mirror-haar{seed}": mirror_haar(seed) for seed in range(3)}}

    @staticmethod
    def cubic_sizes(monkeypatch):
        sizes = []
        cubic_slopes = spectral._cubic_slopes

        def counted(matrix, em, ep):
            sizes.append(em.size)
            return cubic_slopes(matrix, em, ep)

        monkeypatch.setattr(spectral, "_cubic_slopes", counted)
        return sizes

    @pytest.mark.parametrize("family, points", [("c1", 50), ("c2", 6)])
    def test_sweep_matrices_match_eigenvector_search(self, family, points):
        # The coins of `sweep --family ... --points ...`, through the
        # sweep's own call.
        make, top = _FAMILIES[family]
        coins = [make(p) for p in np.linspace(0.0, top, points)]
        got = spectral._peak_velocities(np.array([c.matrix for c in coins]),
                                        4096, left=False)
        want = [eigenvector_peak_search(c, 4096) for c in coins]
        assert bits((math.nan, *g[1:]) for g in got) == bits(
            (math.nan, *w[1:]) for w in want)

    @pytest.mark.parametrize("n", [16, 17, 4096])
    @pytest.mark.parametrize("name", MIRROR)
    def test_mirror_coin_solves_half_the_zone(self, name, n, monkeypatch):
        coin = self.MIRROR[name]
        want = eigenvector_peak_search(coin, n)
        sizes = self.cubic_sizes(monkeypatch)
        res = peak_velocities_numeric(coin, n)
        assert sizes == [n // 2 + 1]
        assert bits([(res.v_left, res.v_right, res.k0)]) == bits([want])

    @pytest.mark.parametrize("n", [16, 17, 4096])
    @pytest.mark.parametrize("name", MIRROR)
    def test_one_ulp_off_takes_the_whole_zone(self, name, n, monkeypatch):
        m = self.MIRROR[name].matrix.copy()
        m[0, 0] = complex(np.nextafter(m[0, 0].real, 2.0), m[0, 0].imag)
        coin = Coin(m)
        want = eigenvector_peak_search(coin, n)
        sizes = self.cubic_sizes(monkeypatch)
        res = peak_velocities_numeric(coin, n)
        assert sizes == [n]
        assert bits([(res.v_left, res.v_right, res.k0)]) == bits([want])

    @pytest.mark.parametrize("coin", [coin_c2(1.0), coin_c2(1e-8),
                                      coin_c2(6e-9)],
                             ids=["c2:1", "c2:1e-8", "c2:6e-9"])
    def test_eigenvector_pass_in_blocks(self, coin, monkeypatch):
        # Every sample of these coins ties or is marked.
        ks = np.arange(4096) * (2 * math.pi / 4096)
        want = eigenvector_peak_search(coin, 4096)
        calls = TestFlatCertificate.count_band_slopes(monkeypatch)
        res = peak_velocities_numeric(coin, 4096)
        assert_blocks_cover_grid(calls, ks)
        assert (res.v_left, res.v_right, res.k0) == want

    def test_ties_everywhere_peak_no_higher(self):
        # c2(1) ties at every sample, c2(0.5) at a few: with the eigenvector
        # pass in blocks both peak at the cubic's arrays.
        def traced_peak(coin):
            tracemalloc.start()
            try:
                peak_velocities_numeric(coin, 4096)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(coin_c2(1.0)) <= 1.25 * traced_peak(coin_c2(0.5))


def bits(results):
    """v_left, v_right and k0 (NaN for None) of each result, as int64 views."""
    return [np.array([r[0], r[1], np.nan if r[2] is None else r[2]])
            .view(np.int64).tolist() for r in results]


class TestBatchedPeakSearch:
    # One zoom over a stack of coins gives each coin the bits of its own
    # search.
    MIXED = {"grover": grover_coin(), "pi": permutation_coin(),
             "c1:0.6": coin_c1(0.6), "c1:pi/2": coin_c1(math.pi / 2),
             "c2:0": coin_c2(0.0), "c2:1": coin_c2(1.0),
             "identity": Coin(np.eye(3)), "haar0": Coin(haar_unitary(0)),
             "haar7": Coin(haar_unitary(7))}

    @staticmethod
    def batch(coins, n):
        return bits(spectral._peak_velocities(
            np.array([c.matrix for c in coins]), n))

    @pytest.mark.parametrize("n", [16, 17, 256, 4096])
    def test_mixed_stack_matches_each_coin(self, n):
        coins = list(self.MIXED.values())
        assert self.batch(coins, n) == bits(
            eigenvector_peak_search(c, n) for c in coins)

    def test_all_flat_stack_runs_no_zoom(self, monkeypatch):
        def no_zoom(*args):
            raise AssertionError("_zoom ran")

        monkeypatch.setattr(spectral, "_zoom", no_zoom)
        coins = [coin_c1(math.pi / 2), coin_c2(0.0), permutation_coin()]
        assert spectral._peak_velocities(
            np.array([c.matrix for c in coins]), 256) == [(0.0, 0.0, None)] * 3

    # Coins per zoom block: nine samples at each of two centres.
    BLOCK = spectral._EIG_BLOCK // 18

    def test_stack_larger_than_one_block(self, monkeypatch):
        blocks = []
        zoom = spectral._zoom

        def counted(objective, centers, half_width):
            blocks.append(len(centers))
            return zoom(objective, centers, half_width)

        monkeypatch.setattr(spectral, "_zoom", counted)
        coins = [coin_c2(rho) for rho in
                 np.linspace(0.0, 1.0, self.BLOCK + 3)]
        coins += [Coin(haar_unitary(seed)) for seed in range(3)]
        got = self.batch(coins, 17)
        # c2(0) is flat and takes no part in the zoom.
        assert blocks == [self.BLOCK, 5]
        assert got == bits(eigenvector_peak_search(c, 17) for c in coins)

    def test_memory_bounded_by_the_block(self):
        # Four blocks of coins peak no higher than one: the zoom's arrays
        # hold one block at a time.
        stack = np.array([coin_c2(rho).matrix for rho in
                          np.linspace(0.05, 0.95, 4 * self.BLOCK)])

        def traced_peak(matrices):
            tracemalloc.start()
            try:
                spectral._peak_velocities(matrices, 256)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = traced_peak(stack[:self.BLOCK])
        assert traced_peak(stack) <= 1.25 * one


class TestVelocityFormulas:
    def test_c1_endpoints(self):
        assert abs(peak_velocity_c1(0.0) - V_GROVER) < 1e-9
        assert abs(peak_velocity_c1(math.pi / 2)) < 1e-9

    def test_c1_quarter_pi(self):
        assert abs(peak_velocity_c1(math.pi / 4) - 0.27) < 1e-3

    def test_c1_monotone_decreasing(self):
        grid = np.linspace(0.0, math.pi / 2, 200)
        vals = [peak_velocity_c1(p) for p in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert np.argmax(vals) == 0

    def test_c1_domain(self):
        with pytest.raises(ValueError):
            peak_velocity_c1(-0.1)
        with pytest.raises(ValueError):
            peak_velocity_c1(math.pi / 2 + 0.1)

    def test_c2_is_identity(self):
        for rho in (0.0, 1 / math.sqrt(3), 0.9, 1.0):
            assert peak_velocity_c2(rho) == rho

    def test_c2_domain(self):
        with pytest.raises(ValueError):
            peak_velocity_c2(1.5)


class TestLinearApproxDeviation:
    def test_endpoints_vanish(self):
        assert abs(linear_approx_deviation(0.0)) < 1e-12
        assert abs(linear_approx_deviation(math.pi / 2)) < 1e-12

    def test_dense_scan_maximum(self):
        # Regression constant from a 10^4-point scan of the closed form: the
        # velocity sags below the straight line by at most 0.0184117.
        grid = np.linspace(0.0, math.pi / 2, 10000)
        devs = np.array([linear_approx_deviation(p) for p in grid])
        assert np.max(devs) <= 1e-15
        assert abs(np.max(np.abs(devs)) - 0.01841165332475908) < 1e-9


class TestStationaryPhasePrediction:
    # Frozen side-peak positions at t = 200 from the walk engine, which the
    # dense and momentum-space oracles confirm to 1e-12.  The observed lobe
    # maximum lags the ballistic front round(t v_R) by the usual t^(1/3)
    # front-lag: 2 sites for the Grover and rho = 0.9 walks, 3 for the
    # slower phi = pi/4 walk.
    CASES = [
        (grover_coin(), np.array([1, -1, 1]) / math.sqrt(3), 113, 2),
        (coin_c1(math.pi / 4), np.array([1, -1, 1]) / math.sqrt(3), 51, 3),
        (coin_c2(0.9), np.array([1, 0, 1]) / math.sqrt(2), 178, 2),
    ]

    @pytest.mark.parametrize("coin,psi,expected_peak,max_lag", CASES)
    def test_peak_near_group_velocity_front(self, coin, psi, expected_peak,
                                            max_lag):
        dist = probability_distribution(evolve(initial_state(psi), coin, 200))
        _, right = peak_positions(dist)
        assert right == expected_peak
        v_r = peak_velocities_numeric(coin, 1024).v_right
        assert abs(right - round(200 * v_r)) <= max_lag


class TestDispersionTable:
    @pytest.mark.parametrize("branches, eigenvectors", [
        (np.zeros((3, 16)), np.zeros(5)),
        (np.zeros((3, 16)), np.zeros((15, 3, 3))),
        (np.zeros((2, 16)), None),
        (np.zeros((3, 0)), None),
        (np.zeros(3), None),
    ], ids=["flat-eigenvectors", "short-eigenvectors", "two-branches",
            "no-samples", "one-dimensional"])
    def test_inconsistent_record_rejected(self, branches, eigenvectors):
        with pytest.raises(ValueError):
            DispersionTable(branches, grover_coin(), eigenvectors)


class TestDispersionTableSerialization:
    def test_csv_columns(self):
        table = dispersion_numeric(grover_coin(), 64)
        lines = table.to_csv().splitlines()
        assert lines[0] == "k,omega1,omega2,omega3,v1,v2,v3"
        assert len(lines) == 65
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] == 0.0
        assert abs(row[3]) < 1e-10

    def test_json_round_trip(self):
        table = dispersion_numeric(coin_c2(0.4), 64)
        data = json.loads(table.to_json())
        assert np.array_equal(data["k"], table.k_grid)
        assert np.array_equal(data["omega"], table.branches)
        coin = Coin.from_json(json.dumps(data["coin"]))
        assert np.array_equal(coin.matrix, table.coin.matrix)
