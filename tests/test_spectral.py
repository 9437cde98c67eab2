import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import triwalk.spectral as spectral
from oracles import dispersion_analytic, propagators
from triwalk.coins import (Coin, coin_c1, coin_c2, fourier_coin, grover_coin,
                           permutation_coin)
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

from test_properties import haar_unitary

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
        for j in range(3):
            steps = table.branch_steps(j)
            assert np.max(np.abs(steps)) < math.pi / 4

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            dispersion_numeric(grover_coin(), 8)

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
        calls = self.rule_calls(monkeypatch, coin_c2(rho), 4096)
        assert calls == [2, 2] + [1] * spectral._REPAIR_BLOCK + [2]

    @pytest.mark.parametrize("coin", [permutation_coin(), coin_c1(math.pi / 2)],
                             ids=["pi", "c1:pi/2"])
    def test_sequential_fallback(self, monkeypatch, coin):
        # A degenerate pair at every k: rounding picks each assignment, so
        # the second guess fails too and the rule runs to the end.
        calls = self.rule_calls(monkeypatch, coin, 4096)
        assert calls[:spectral._REPAIR_BLOCK + 3] == (
            [2, 2] + [1] * spectral._REPAIR_BLOCK + [2])
        assert calls.count(2) == 3 and len(calls) > 4096 // 2


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
        assert np.max(np.abs(group_velocity(table, 2))) < 1e-9

    def test_grover_grid_maximum(self):
        table = dispersion_numeric(grover_coin(), 4096)
        vmax = max(np.max(group_velocity(table, j)) for j in range(2))
        assert abs(vmax - V_GROVER) < 1e-5

    def test_c2_half_grid_maximum(self):
        table = dispersion_numeric(coin_c2(0.5), 4096)
        vmax = max(np.max(group_velocity(table, j)) for j in range(2))
        assert abs(vmax - 0.5) < 1e-5

    def test_winding_branch_seam(self):
        # rho = 1 has strictly linear bands; the seam derivative must not
        # blow up where the unwrapped branch jumps by 2 pi.
        table = dispersion_numeric(coin_c2(1.0), 512)
        for j in range(2):
            v = group_velocity(table, j)
            assert np.max(np.abs(v)) < 1.0 + 1e-9

    def test_non_uniform_grid_rejected(self):
        ks = np.array([0.0, 0.1, 0.3, 0.35] + list(np.linspace(0.5, 6.0, 12)))
        table = DispersionTable(ks, np.zeros((3, ks.size)), grover_coin())
        with pytest.raises(ValueError):
            group_velocity(table, 0)


class TestStationaryPoint:
    """The stationary wavenumber k0 reported with the peak velocities.

    The Grover corner is covered by ``TestPeakVelocitiesNumeric::test_grover``,
    the all-flat coin and small grids by its k0-is-None tests.
    """

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.95])
    def test_c2_corner_at_zero(self, rho):
        assert abs(peak_velocities_numeric(coin_c2(rho), 1024).k0) < 1e-6

    @pytest.mark.parametrize("phi", [0.4, math.pi / 4, 1.1])
    def test_c1_interior_inflection(self, phi):
        k0 = peak_velocities_numeric(coin_c1(phi)).k0
        assert abs(k0 - c1_stationary_k(phi)) < 1e-6


class TestPeakVelocitiesNumeric:
    def test_grover(self):
        res = peak_velocities_numeric(grover_coin())
        assert abs(res.v_right - V_GROVER) < 1e-6
        assert abs(res.v_left + V_GROVER) < 1e-6
        assert abs(res.k0) < 1e-6
        assert res.method == "numeric"

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

    def test_small_grid_skips_stationary_point(self):
        res = peak_velocities_numeric(grover_coin(), 64)
        assert abs(res.v_right - V_GROVER) < 1e-4
        assert res.k0 is None

    def test_json_round_trip(self):
        res = peak_velocities_numeric(grover_coin(), 512)
        loaded = PeakVelocityResult(**json.loads(res.to_json()))
        assert loaded == res


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


class TestCubicCoarsePass:
    # The cubic only chooses where the zoom starts; every result must be bit
    # for bit what eigenvector slopes on the whole grid give.
    COINS = {"grover": grover_coin(), "pi": permutation_coin(),
             "c1:0.6": coin_c1(0.6), "c1:2.0": coin_c1(2.0),
             "c1:pi/2": coin_c1(math.pi / 2), "c2:0": coin_c2(0.0),
             "c2:1-1e-9": coin_c2(1.0 - 1e-9), "c2:1": coin_c2(1.0),
             "haar0": Coin(haar_unitary(0)), "haar7": Coin(haar_unitary(7))}

    @pytest.mark.parametrize("n", [16, 128, 512, 4096])
    @pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
    def test_matches_eigenvector_search(self, coin, n):
        res = peak_velocities_numeric(coin, n)
        assert (res.v_left, res.v_right, res.k0) == eigenvector_peak_search(coin, n)

    def test_mirror_tie_keeps_first_sample(self):
        # c1(0.6) attains its grid maximum at mirror-image samples; the first
        # one sets k0.
        assert peak_velocities_numeric(coin_c1(0.6)).k0 == 1.307777166922583


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


class TestDispersionTableSerialization:
    def test_csv_columns(self, tmp_path):
        table = dispersion_numeric(grover_coin(), 64)
        path = tmp_path / "disp.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
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
