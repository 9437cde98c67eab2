import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import triwalk.localization as localization
from oracles import (GROVER_BASIS, TOUCHING_TOL, dispersion_analytic,
                     flat_band_law, flat_band_trapped_probability,
                     flat_cubic_residual, flat_eigenvalue, flat_peak_velocity,
                     haar_unitary, random_state, spectral_coin,
                     trapped_profile)
from triwalk.cli import build_parser, main, parse_state
from triwalk.coins import (
    Coin,
    coin_c1,
    coin_c2,
    fourier_coin,
    grover_coin,
    permutation_coin,
    transmitting_coin,
)
from triwalk.localization import (
    LocalizationReport,
    flat_band_detect,
    localization_report,
    origin_series,
    trapping_estimate,
)
from test_spectral import eigenvector_peak_search
from triwalk.spectral import (FLAT_BAND_TOL, dispersion_numeric,
                              peak_velocities_numeric, peak_velocity_c1,
                              peak_velocity_c2)
from triwalk.walk import _walk, initial_state

PSI_SYM = np.array([1, -1, 1]) / math.sqrt(3)

# Bound-state projection limit for the Grover walk started in PSI_SYM, in
# closed form: 0.03367350481121475.  The projection onto the flat band
# follows Inui, Konno and Segawa, Phys. Rev. E 72, 056112 (2005).
GROVER_TRAPPED_LIMIT = (5.0 - 2.0 * math.sqrt(6.0)) / 3.0

# Grover's trapped profile falls by q^4 per site, with q = sqrt(3) - sqrt(2)
# the c2 family's q at rho = 1/sqrt(3): (5 - 2 sqrt(6))^2 = 49 - 20 sqrt(6).
GROVER_PROFILE_RATIO = 49.0 - 20.0 * math.sqrt(6.0)
# Sites -5 .. 5 of a trapped profile; index 5 is the origin.
SITES = np.arange(-5, 6)

# Frozen Cesaro window averages of the engine's origin series at T = 1000.
GROVER_WINDOWS_T1000 = (0.03441055122014052, 0.034226644512929026)

# Coins whose corner C00 is far enough from 0 for the exact flat-eigenvalue
# oracle to be well conditioned.
CORNER_COINS = {
    "grover": grover_coin(),
    **{f"c1({phi})": coin_c1(phi) for phi in (0.3, 0.7, 1.2, 2.0)},
    **{f"c2({rho})": coin_c2(rho) for rho in (0.2, 0.6, 0.9, 1 - 1e-9, 1.0)},
    "fourier": fourier_coin(),
    **{f"grover-basis{seed}": Coin(spectral_coin(
        GROVER_BASIS,
        np.random.default_rng(seed).uniform(-math.pi, math.pi, 3)))
       for seed in range(4)},
    # A phase gap of pi between the last two eigenvectors keeps c1's flat
    # band, here at lambda = exp(i theta3) instead of 1.
    **{f"grover-basis-flat({theta3})": Coin(spectral_coin(
        GROVER_BASIS, (theta1, theta3 + math.pi, theta3)))
       for theta1, theta3 in ((0.9, 0.4), (-2.1, 2.5))},
    **{f"haar{seed}": Coin(haar_unitary(seed)) for seed in range(6)},
}
# Coins with C00 and C22 at rounding level, where the oracle's candidate is
# ill-conditioned: every band is flat, or within about 1e-9 of flat.  They
# are checked by the k-free cubic alone, which at the all-flat endpoints of
# both families both 1 and -1 solve.
CORNERLESS_COINS = {
    "pi": permutation_coin(),
    "c1(pi/2)": coin_c1(math.pi / 2),
    "c2(0)": coin_c2(0.0),
    "c2(1e-9)": coin_c2(1e-9),
    "cyclic": Coin(np.roll(np.eye(3), 1, axis=0)),
}
# Just inside both families next to their all-flat endpoints: one band is
# flat (lambda = 1) and a second is flat to about 1e-9.
NEAR_FLAT_COINS = {
    "c1(pi/2 - 1e-9)": coin_c1(1.5707963257948966),
    "c2(1e-9)": coin_c2(1e-9),
}
# The coins of the CLI identity manifest, with its seeded Haar coin.
IDENTITY_COINS = {
    "grover": grover_coin(),
    **{f"c1({phi})": coin_c1(phi) for phi in (0.6, 2.0, math.pi / 2)},
    **{f"c2({rho})": coin_c2(rho) for rho in (0.0, 0.9, 1.0, 0.999999999)},
    "pi": permutation_coin(),
    "haar2012": Coin(haar_unitary(2012)),
    **NEAR_FLAT_COINS,
}


class TestOriginSeries:
    def test_stay_component_is_stationary(self):
        series = origin_series(transmitting_coin(), np.array([0.0, 1.0, 0.0]), 40)
        assert_allclose(series, 1.0, atol=1e-14)

    def test_departing_components_never_return(self):
        psi = np.array([1, 0, 1]) / math.sqrt(2)
        series = origin_series(transmitting_coin(), psi, 5)
        assert series[0] == pytest.approx(1.0)
        assert_allclose(series[1:], 0.0, atol=1e-14)

    def test_length_and_range(self):
        series = origin_series(grover_coin(), PSI_SYM, 120)
        assert series.shape == (121,)
        assert np.all(series >= 0.0)
        assert np.all(series <= 1.0 + 1e-12)

    def test_short_run_rejected(self):
        with pytest.raises(ValueError):
            origin_series(grover_coin(), PSI_SYM, 0)

    @pytest.mark.parametrize("t_max", [200.0, np.float64(2.5), "200"])
    def test_non_integer_run_rejected(self, t_max):
        with pytest.raises(ValueError, match="^t_max must be a non-negative "
                                             "integer, got "):
            origin_series(grover_coin(), PSI_SYM, t_max)

    def test_numpy_integer_run(self):
        assert np.array_equal(origin_series(grover_coin(), PSI_SYM, np.int64(40)),
                              origin_series(grover_coin(), PSI_SYM, 40))


def c2_trapped_limit(rho: float) -> float:
    """Bound-state projection limit of c2(rho) from PSI_SYM, in closed form.

    With q = rho / (1 + sqrt(1 - rho^2)), the limit is
    (q^2 + sqrt(2) q - 1)^2 / 6, from the residues at z = 0 and z = -q^2 of
    the trapped amplitude's contour integral.  This factored form keeps its
    digits at small rho; the expanded polynomial cancels there.
    """
    q = rho / (1.0 + math.sqrt(1.0 - rho * rho))
    return (q * q + math.sqrt(2.0) * q - 1.0) ** 2 / 6.0


class TestTrappingEstimate:
    def test_constant_series(self):
        est = trapping_estimate(np.ones(400))
        assert est.value == pytest.approx(1.0)
        assert est.converged

    def test_zero_after_first_step(self):
        series = np.zeros(400)
        series[0] = 1.0
        est = trapping_estimate(series)
        assert est.value == pytest.approx(0.0)
        assert est.converged

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            trapping_estimate(np.ones(150))

    def test_grover_frozen_windows(self):
        series = origin_series(grover_coin(), PSI_SYM, 1000)
        est = trapping_estimate(series)
        assert est.converged
        assert_allclose(est.windows, GROVER_WINDOWS_T1000, atol=1e-9)
        assert est.value > 0.03

    @pytest.mark.parametrize("t_max, converged", [
        (299, True), (300, False), (301, False), (302, True), (1000, False),
        (4000, True)])
    def test_flag_compares_the_windows_only(self, t_max, converged):
        # The cyclic permutation coin brings PSI_SYM back to the origin
        # every third step: the series is 1, 1/3, 1/3, ..., the limit 5/9.
        # Both windows lie within 0.01 of it at every T, yet the flag reads
        # whether the two quarters hold the same share of a period.
        coin = Coin(np.roll(np.eye(3), 1, axis=0))
        est = trapping_estimate(origin_series(coin, PSI_SYM, t_max))
        assert max(abs(w - 5 / 9) for w in est.windows) < 0.01
        assert est.converged is converged

    def test_cesaro_approaches_projection_limit(self):
        oracle = flat_band_trapped_probability(grover_coin().matrix, PSI_SYM)
        assert abs(oracle - GROVER_TRAPPED_LIMIT) < 1e-12
        est_1k = trapping_estimate(origin_series(grover_coin(), PSI_SYM, 1000))
        est_2k = trapping_estimate(origin_series(grover_coin(), PSI_SYM, 2000))
        assert abs(est_1k.value - oracle) < 1e-3
        assert abs(est_2k.value - oracle) < abs(est_1k.value - oracle)

    @pytest.mark.parametrize("n_modes", [1024, 4096])
    def test_oracle_meets_closed_form(self, n_modes):
        # Measured 8.3e-17 and 1.6e-16 away.
        oracle = flat_band_trapped_probability(grover_coin().matrix, PSI_SYM,
                                               n_modes)
        assert abs(oracle - GROVER_TRAPPED_LIMIT) < 1e-15

    @pytest.mark.parametrize("phi", [0.3, 0.6, 1.0, 1.4])
    def test_c1_limit_is_grovers(self, phi):
        # c1 keeps the Grover coin's eigenbasis, so its trapping limit does
        # not depend on phi (measured at most 1.2e-16 away).
        oracle = flat_band_trapped_probability(coin_c1(phi).matrix, PSI_SYM)
        assert abs(oracle - GROVER_TRAPPED_LIMIT) < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=math.pi, exclude_max=True)
           .filter(lambda phi: abs(phi - math.pi / 2) > 0.05))
    def test_c1_limit_is_flat_in_phi_from_any_state(self, seed, phi):
        # Near pi/2 every band is flat, and eigenvalues other than 1 trap
        # too.  Measured at most 8.0e-16 from c1(0), over 32 states and 400
        # phi, at phi = pi/2 - 0.05.
        psi = random_state(seed)
        limit = flat_band_trapped_probability(coin_c1(phi).matrix, psi)
        assert abs(limit - flat_band_trapped_probability(
            coin_c1(0.0).matrix, psi)) < 1e-15

    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                     0.7, 0.8, 0.9, 0.95, 0.99])
    def test_c2_limit_closed_form(self, rho):
        # Measured at most 6.4e-16 away, at rho = 0.99.
        oracle = flat_band_trapped_probability(coin_c2(rho).matrix, PSI_SYM,
                                               n_modes=4096)
        assert abs(oracle - c2_trapped_limit(rho)) < 1e-15

    def test_c2_limit_meets_grover(self):
        # c2(1/sqrt(3)) is the Grover coin.
        assert abs(c2_trapped_limit(1.0 / math.sqrt(3.0))
                   - GROVER_TRAPPED_LIMIT) < 1e-15

    def test_c2_traps_nothing_at_sqrt_two_thirds(self):
        # The band stays flat, but PSI_SYM has no overlap with it: the form
        # reads 8e-33 and the oracle 4e-35, where the limit is 0.
        rho = math.sqrt(2.0 / 3.0)
        assert flat_band_detect(coin_c2(rho))[0]
        assert c2_trapped_limit(rho) < 1e-30
        assert flat_band_trapped_probability(coin_c2(rho).matrix, PSI_SYM,
                                             n_modes=4096) < 1e-30

    # The last window minus the exact limit at T = 1000, 2000, 4000 and 8000
    # fell by ratios of 2.05-2.08 (Grover), 1.98-2.01 (c1(1.2)) and
    # 1.92-2.06 (c2(0.3)), measured; the band allows 1.85-2.15.  c2(0.95)
    # is left out: its ratios run 1.6-2.4.
    @pytest.mark.parametrize("name", ["grover", "c1(1.2)", "c2(0.3)"])
    def test_cesaro_gap_halves_as_t_doubles(self, name):
        coin, limit = {
            "grover": (grover_coin(), GROVER_TRAPPED_LIMIT),
            "c1(1.2)": (coin_c1(1.2), flat_band_trapped_probability(
                coin_c1(1.2).matrix, PSI_SYM)),
            "c2(0.3)": (coin_c2(0.3), c2_trapped_limit(0.3)),
        }[name]
        # A shorter run's series is a prefix of the longest one's.
        series = origin_series(coin, PSI_SYM, 8000)
        gaps = np.array([trapping_estimate(series[:t + 1]).value - limit
                         for t in (1000, 2000, 4000, 8000)])
        assert np.all(gaps > 0.0)
        ratios = gaps[:-1] / gaps[1:]
        assert np.all((1.85 < ratios) & (ratios < 2.15)), ratios

    @pytest.mark.parametrize("phi,t_max", [(0.3, 1000), (0.7, 1000),
                                           (1.2, 2000)])
    def test_c1_family_traps(self, phi, t_max):
        # The phi = 1.2 walk spreads slowly and needs a longer run for the
        # window averages to settle below the convergence tolerance.
        est = trapping_estimate(origin_series(coin_c1(phi), PSI_SYM, t_max))
        assert est.converged
        assert est.value > 0.0

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_c2_family_traps(self, rho):
        est = trapping_estimate(origin_series(coin_c2(rho), PSI_SYM, 1000))
        assert est.converged
        assert est.value > 0.0

    def test_fourier_control_does_not_trap(self):
        est = trapping_estimate(origin_series(fourier_coin(), PSI_SYM, 1000))
        assert est.value < 1e-2

    def test_degenerate_edge_traps_completely(self):
        est = trapping_estimate(
            origin_series(coin_c2(1.0), np.array([0.0, 1.0, 0.0]), 400))
        assert est.value == pytest.approx(1.0)
        assert est.converged


def profile_ratios(p):
    """p_inf(m + 1) / p_inf(m) at 1 <= |m| <= 4 on both half-lines, from
    the profile on ``SITES``."""
    return np.r_[p[:4] / p[1:5], p[7:] / p[6:10]]


class TestTrappedProfile:
    """The time-averaged probability p_inf(m) at every site, not only m = 0."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_grover_ratio(self, seed):
        # Measured within 2.5e-12 relative.
        psi = PSI_SYM if seed is None else random_state(seed)
        p = trapped_profile(grover_coin().matrix, psi, SITES)
        assert_allclose(profile_ratios(p), GROVER_PROFILE_RATIO, rtol=1e-11)
        q = 1.0 / math.sqrt(3.0) / (1.0 + math.sqrt(2.0 / 3.0))
        assert q ** 4 == pytest.approx(GROVER_PROFILE_RATIO, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.4, max_value=0.999),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_c2_profile_falls_by_q4_per_site(self, rho, seed):
        # Measured within 1.1e-10 relative over 300 rho in [0.4, 0.999] and
        # random states.  Below 0.4 the far sites sink towards rounding:
        # p_inf(5) is 1e-22 at rho = 0.1.
        q = rho / (1.0 + math.sqrt(1.0 - rho * rho))
        p = trapped_profile(coin_c2(rho).matrix, random_state(seed), SITES)
        assert_allclose(profile_ratios(p), q ** 4, rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True)
           .filter(lambda phi: abs(phi - math.pi / 2) > 0.05),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_c1_profile_is_grovers_at_every_site(self, phi, seed):
        # c1 keeps Grover's eigenbasis and its flat band at 1.  Measured at
        # most 3.1e-16 apart over 300 phi and random states.
        psi = random_state(seed)
        assert np.max(np.abs(
            trapped_profile(coin_c1(phi).matrix, psi, SITES)
            - trapped_profile(grover_coin().matrix, psi, SITES))) < 1e-15

    @pytest.mark.parametrize("name", ["grover", "c1(0.6)", "c2(0.4)",
                                      "c2(0.9)"])
    def test_walk_time_average_meets_profile(self, name):
        # The mean of p(m, t) over t in [2000, 4000) lies above p_inf(m) by
        # what the dispersing bands still leave near the origin: measured
        # 5.3e-5 (c2(0.9)) to 2.95e-4 (c1(0.6)) at |m| <= 6, nearly the
        # same at every site.
        coin = {"grover": grover_coin(), "c1(0.6)": coin_c1(0.6),
                "c2(0.4)": coin_c2(0.4), "c2(0.9)": coin_c2(0.9)}[name]
        half, total = 4000, np.zeros(13)
        walk = _walk(initial_state(PSI_SYM).amplitudes, coin, range(3999), half)
        for t, buf in enumerate(walk):
            if t >= 2000:
                total += np.sum(np.abs(buf[:, half - 6:half + 7]) ** 2, axis=0)
        gap = total / 2000 - trapped_profile(coin.matrix, PSI_SYM,
                                             np.arange(-6, 7))
        assert np.all((0.0 < gap) & (gap < 4e-4)), gap


class TestFlatBandDetect:
    def test_grover(self):
        flat, lam = flat_band_detect(grover_coin())
        assert flat
        assert abs(lam - 1.0) < 1e-10

    @pytest.mark.parametrize("phi", [0.3, 0.7, 1.2])
    def test_c1_family(self, phi):
        flat, lam = flat_band_detect(coin_c1(phi))
        assert flat
        assert abs(lam - 1.0) < 1e-10

    @pytest.mark.parametrize("rho", [0.2, 0.6, 1.0])
    def test_c2_family(self, rho):
        flat, lam = flat_band_detect(coin_c2(rho))
        assert flat
        assert abs(lam - 1.0) < 1e-10

    def test_fourier_has_no_flat_band(self):
        flat, lam = flat_band_detect(fourier_coin())
        assert not flat
        assert lam is None

    def test_agrees_with_closed_form_flat_branch(self):
        ks = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        for coin in (grover_coin(), coin_c1(0.5), coin_c2(0.8)):
            _, _, w3 = dispersion_analytic(coin.family.value, coin.parameter,
                                           ks)
            assert np.max(np.abs(w3)) == 0.0
            assert flat_band_detect(coin)[0]

    @pytest.mark.parametrize("name", CORNER_COINS)
    def test_agrees_with_exact_flat_eigenvalue(self, name):
        coin = CORNER_COINS[name]
        assert abs(coin.matrix[0, 0]) >= 1e-3
        flat, lam = flat_band_detect(coin, 1024)
        exact = flat_eigenvalue(coin.matrix)
        assert flat == (exact is not None)
        if flat:
            assert abs(lam - exact) < 1e-9

    @pytest.mark.parametrize("name", CORNERLESS_COINS)
    def test_cornerless_coin_eigenvalue_solves_flat_cubic(self, name):
        coin = CORNERLESS_COINS[name]
        assert max(abs(coin.matrix[0, 0]), abs(coin.matrix[2, 2])) < 1e-12
        flat, lam = flat_band_detect(coin, 1024)
        assert flat
        assert flat_cubic_residual(coin.matrix, lam) <= 1e-12

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("name", NEAR_FLAT_COINS)
    def test_near_flat_endpoint_reports_flattest_band(self, name, n):
        # The second, nearly flat band has spread about 1e-9 and eigenvalue
        # near -1; the flat band of both families is lambda = 1.
        flat, lam = flat_band_detect(NEAR_FLAT_COINS[name], n)
        assert flat
        assert abs(lam - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("name", IDENTITY_COINS)
    def test_flag_is_whether_any_branch_is_flat(self, name, n):
        coin = IDENTITY_COINS[name]
        branches = dispersion_numeric(coin, n).branches
        spread = np.max(np.abs(branches - branches.mean(axis=1,
                                                        keepdims=True)),
                        axis=1)
        assert flat_band_detect(coin, n)[0] == bool(np.any(
            spread < FLAT_BAND_TOL))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            flat_band_detect(grover_coin(), n_samples=100)
        with pytest.raises(ValueError, match="^flat band grid must be a "
                                             "non-negative integer, got 256.7"):
            flat_band_detect(grover_coin(), n_samples=256.7)
        assert flat_band_detect(grover_coin(), np.int64(256)) == \
            flat_band_detect(grover_coin(), 256)


def composed_coin(phi: float, rho: float) -> Coin:
    """c1's eigenvalue phase on c2(rho)'s eigenvectors, as a CUSTOM coin:
    -exp(2i phi) v1 v1^dag - v2 v2^dag + v3 v3^dag."""
    s = math.sqrt(1.0 - rho * rho)
    v1 = np.array([rho / math.sqrt(2.0), -s, rho / math.sqrt(2.0)])
    v2 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    v3 = np.array([s / math.sqrt(2.0), rho, s / math.sqrt(2.0)])
    return Coin(-np.exp(2j * phi) * np.outer(v1, v1) - np.outer(v2, v2)
                + np.outer(v3, v3))


def phase_conjugate(rho: float, theta: float, phases) -> Coin:
    """exp(i theta) D c2(rho) D^dag with D = diag(exp(i phases)), a CUSTOM
    coin.  D commutes with diag(exp(-ik), 1, exp(ik)), so U(k) is conjugated
    by D too and every band keeps its shape, shifted by theta."""
    d = np.exp(1j * np.asarray(phases))
    return Coin(np.exp(1j * theta) * d[:, None] * coin_c2(rho).matrix
                * d.conj())


# Away from c2's band touching at rho = 1 and from the corner C00 =
# -rho^2 (exp(2i phi) + 1) / 2 vanishing, where the oracle is ill-conditioned.
RHOS = st.floats(min_value=0.2, max_value=0.99)
PHIS = st.floats(min_value=0.0, max_value=1.4)
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)
GRIDS = st.sampled_from([17, 256, 1000, 4096])


class TestBeyondTheFamilies:
    # Localization is a flat band, and the flat band survives coins the
    # package has no name for: c1's phase on c2's eigenvectors, and
    # diagonal-phase conjugates of c2.  Composed coins are their own L<->R
    # mirror image, so their peak search takes half the zone; conjugates
    # generally are not, and take the whole zone.
    @staticmethod
    def assert_flat_at(coin, eigenvalue):
        flat, lam = flat_band_detect(coin, 1024)
        exact = flat_eigenvalue(coin.matrix)
        assert flat and exact is not None
        assert abs(lam - exact) < 1e-9
        assert abs(lam - eigenvalue) < 1e-9

    @staticmethod
    def assert_peak_search_exact(coin, n):
        res = peak_velocities_numeric(coin, n)
        assert (res.v_left, res.v_right, res.k0) == \
            eigenvector_peak_search(coin, n)

    @settings(max_examples=25, deadline=None)
    @given(PHIS, RHOS, GRIDS)
    def test_composed_coin_keeps_flat_band(self, phi, rho, n):
        coin = composed_coin(phi, rho)
        assert np.array_equal(coin.matrix, coin.matrix[::-1, ::-1])
        self.assert_flat_at(coin, 1.0)
        self.assert_peak_search_exact(coin, n)

    @settings(max_examples=25, deadline=None)
    @given(RHOS, ANGLES, st.tuples(ANGLES, ANGLES, ANGLES), GRIDS)
    def test_phase_conjugate_keeps_flat_band(self, rho, theta, phases, n):
        coin = phase_conjugate(rho, theta, phases)
        self.assert_flat_at(coin, np.exp(1j * theta))
        self.assert_peak_search_exact(coin, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), GRIDS)
    def test_haar_coin_has_no_flat_band(self, seed, n):
        coin = Coin(haar_unitary(seed))
        assert flat_band_detect(coin, 1024) == (False, None)
        assert flat_eigenvalue(coin.matrix) is None
        self.assert_peak_search_exact(coin, n)

    def test_composed_peak_velocity(self):
        # Not sqrt(3) rho v_c1(phi) = 0.235: the deformations do not
        # compose in the velocity.
        res = peak_velocities_numeric(composed_coin(0.6, 0.4))
        assert res.v_right == pytest.approx(0.18637, abs=5e-6)
        assert res.v_left == pytest.approx(-0.18637, abs=5e-6)

    def test_conjugate_is_not_a_mirror_image(self):
        m = phase_conjugate(0.4, 0.7, (0.1, 0.5, -1.0)).matrix
        assert not np.array_equal(m, m[::-1, ::-1])

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.4),
           st.floats(min_value=0.2, max_value=0.95),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_composed_coin_keeps_c2_trapped_profile(self, phi, rho, seed):
        # c1's phase moves only the -1 eigenvalue, so the flat band at 1
        # traps what c2(rho)'s traps, site by site (measured 8.3e-17).
        sites = np.arange(-4, 5)
        for psi in (PSI_SYM, random_state(seed)):
            got = trapped_profile(composed_coin(phi, rho).matrix, psi, sites,
                                  4096)
            expected = trapped_profile(coin_c2(rho).matrix, psi, sites, 4096)
            assert np.max(np.abs(got - expected)) < 1e-15


def flat_velocity_bound(matrix: np.ndarray) -> float:
    """The error ``flat_peak_velocity`` states for a coin, with room: 1e-7
    on its touching branch, else 4e-15 + 4e-16 / sqrt(eps), eps = 1 -
    |alpha| - r.  Measured on c1 and composed coins: 6.3e-8 on the
    touching branch, 1.75e-15 well away from a touching and 1.8e-16 /
    sqrt(eps) near one."""
    alpha, r = flat_band_law(matrix)
    eps = 1.0 - abs(alpha) - r
    return 1e-7 if abs(eps) <= TOUCHING_TOL else 4e-15 + 4e-16 / math.sqrt(eps)


class TestFlatPeakVelocity:
    # tests/oracles.py::flat_peak_velocity, the closed form of the peak
    # velocity of every coin with one flat band, against the paper's two
    # closed forms and against the numeric peak search.
    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.4))
    def test_c1(self, phi):
        matrix = coin_c1(phi).matrix
        assert abs(flat_peak_velocity(matrix) - peak_velocity_c1(phi)) <= \
            flat_velocity_bound(matrix)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.999))
    def test_c2(self, rho):
        # c2's bands touch for every rho: the touching branch, to rounding
        # (measured 3.8e-15).
        v = flat_peak_velocity(coin_c2(rho).matrix)
        assert abs(v - peak_velocity_c2(rho)) <= 6e-15

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.999), ANGLES,
           st.tuples(ANGLES, ANGLES, ANGLES))
    def test_phase_conjugate(self, rho, theta, phases):
        # The bands of c2(rho), shifted by theta (measured 4.1e-15).
        v = flat_peak_velocity(phase_conjugate(rho, theta, phases).matrix)
        assert abs(v - rho) <= 6e-15

    @settings(max_examples=25, deadline=None)
    @given(PHIS, st.floats(min_value=0.02, max_value=0.999))
    def test_composed_coin(self, phi, rho):
        coin = composed_coin(phi, rho)
        v, res = flat_peak_velocity(coin.matrix), peak_velocities_numeric(coin)
        bound = flat_velocity_bound(coin.matrix)
        assert abs(v - res.v_right) <= bound
        assert abs(v + res.v_left) <= bound

    @pytest.mark.parametrize("coin", [grover_coin(), coin_c1(0.7),
                                      coin_c2(0.4), composed_coin(0.6, 0.4)],
                             ids=["grover", "c1:0.7", "c2:0.4", "composed"])
    def test_agrees_with_numeric_search(self, coin):
        # Measured at most 1.1e-15, on v_left of the composed coin.
        v = flat_peak_velocity(coin.matrix)
        res = peak_velocities_numeric(coin)
        assert max(abs(v - res.v_right), abs(v + res.v_left)) <= 2e-15

    def test_no_flat_band_refused(self):
        with pytest.raises(ValueError, match="no flat band"):
            flat_peak_velocity(haar_unitary(0))


class TestLocalizationReport:
    def test_grover_report(self):
        report = localization_report(grover_coin(), PSI_SYM, 1000)
        assert report.flat_band
        assert abs(report.flat_band_eigenvalue - 1.0) < 1e-10
        assert report.converged
        assert report.trapping_estimate > 0.03
        assert report.series.shape == (1001,)

    def test_zero_overlap_state_flags_flat_band_anyway(self):
        # Both components of (1,0,1)/sqrt(2) leave ballistically under the
        # transmitting coin: the flat band exists but traps nothing, and the
        # report flags the combination instead of treating it as an error.
        psi = np.array([1, 0, 1]) / math.sqrt(2)
        report = localization_report(transmitting_coin(), psi, 600)
        assert report.flat_band
        assert report.trapping_estimate == pytest.approx(0.0)
        assert report.converged

    def test_json_round_trip(self):
        report = localization_report(coin_c2(0.5), PSI_SYM, 300)
        data = json.loads(report.to_json())
        assert np.array_equal(data["series"], report.series)
        assert tuple(data["cesaro_windows"]) == report.cesaro_windows
        assert data["trapping_estimate"] == report.trapping_estimate
        assert data["converged"] == report.converged
        assert data["flat_band"] == report.flat_band
        assert complex(*data["flat_band_eigenvalue"]) == \
            report.flat_band_eigenvalue

    @pytest.mark.parametrize("t_max", [-5, 150.0])
    def test_short_run_rejected(self, t_max):
        with pytest.raises(ValueError, match="^t_max must be at least 199: "):
            localization_report(grover_coin(), PSI_SYM, t_max)

    @pytest.mark.parametrize("t_max", ["300", None])
    def test_non_number_run_rejected(self, t_max):
        # As origin_series refuses it: a ValueError, not a TypeError.
        with pytest.raises(ValueError, match="^t_max must be a non-negative "
                                             "integer, got "):
            localization_report(grover_coin(), PSI_SYM, t_max)

    def test_float_run_rejected_before_flat_band_scan(self, monkeypatch):
        def scan(*args, **kwargs):
            pytest.fail("flat band scanned before t_max was checked")

        monkeypatch.setattr(localization, "flat_band_detect", scan)
        with pytest.raises(ValueError, match="^t_max must be a non-negative "
                                             "integer, got 300.0$"):
            localization_report(grover_coin(), PSI_SYM, 300.0)

    def test_default_grid_is_the_cli_default(self, tmp_path):
        # The library's default report is the one `localize` writes.
        out = tmp_path / "loc.json"
        argv = ["localize", "--steps", "300", "--out", str(out)]
        psi = parse_state(build_parser().parse_args(argv).state)
        assert main(argv) == 0
        assert out.read_text() == \
            localization_report(grover_coin(), psi, 300).to_json()

    @pytest.mark.parametrize("series", [np.ones((2, 3)), np.ones(150)],
                             ids=["2x3", "150-points"])
    def test_series_refused_as_trapping_estimate_refuses_it(self, series):
        with pytest.raises(ValueError, match="^trapping estimate needs a "
                                             "series of at least 200 points$"):
            LocalizationReport(series, None)

    @pytest.mark.parametrize("bad", [
        complex(math.nan, 0.0), complex(0.0, math.nan),
        complex(math.inf, 0.0), complex(0.5, -math.inf)])
    def test_non_finite_eigenvalue_refused(self, bad):
        # Either part may be NaN or infinite; JSON could hold neither.
        with pytest.raises(ValueError, match="^localizationreport "
                                             "flat_band_eigenvalue is "
                                             "non-finite: "):
            LocalizationReport(np.ones(300), bad)
        assert LocalizationReport(np.ones(300), 1 + 0j).to_json()

    def test_summary_is_derived_from_the_series(self):
        report = localization_report(grover_coin(), PSI_SYM, 300)
        est = trapping_estimate(report.series)
        assert report.cesaro_windows == est.windows
        assert report.trapping_estimate == est.value
        assert report.converged == est.converged
        assert report.flat_band == (report.flat_band_eigenvalue is not None)
        # Replacing the series recomputes the summary: none is left stale.
        other = np.r_[np.ones(100), np.full(50, 0.5), np.full(50, 0.25)]
        replaced = dataclasses.replace(report, series=other)
        assert replaced.cesaro_windows == (0.5, 0.25)
        assert replaced.trapping_estimate == 0.25
        assert not replaced.converged
        assert replaced.flat_band_eigenvalue == report.flat_band_eigenvalue
        assert not dataclasses.replace(report, flat_band_eigenvalue=None) \
            .flat_band

    def test_series_csv(self):
        report = localization_report(grover_coin(), PSI_SYM, 250)
        lines = report.to_csv().splitlines()
        assert lines[0] == "t,p0"
        assert len(lines) == 252
        t, p0 = lines[1].split(",")
        assert t == "0"
        assert float(p0) == pytest.approx(1.0)
