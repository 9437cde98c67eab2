import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import triwalk.localization as localization
from oracles import dispersion_analytic, flat_band_trapped_probability
from triwalk.coins import (
    coin_c1,
    coin_c2,
    fourier_coin,
    grover_coin,
    transmitting_coin,
)
from triwalk.localization import (
    flat_band_detect,
    localization_report,
    origin_series,
    trapping_estimate,
)

PSI_SYM = np.array([1, -1, 1]) / math.sqrt(3)

# Bound-state projection value for the Grover walk started in PSI_SYM,
# computed by the independent momentum-space oracle (spectrally convergent,
# stable to 13 digits from 256 modes up).
GROVER_TRAPPED_LIMIT = 0.0336735048112146
# Frozen Cesaro window averages of the engine's origin series at T = 1000.
GROVER_WINDOWS_T1000 = (0.03441055122014052, 0.034226644512929026)


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

    def test_cesaro_approaches_projection_limit(self):
        oracle = flat_band_trapped_probability(grover_coin().matrix, PSI_SYM)
        assert abs(oracle - GROVER_TRAPPED_LIMIT) < 1e-12
        est_1k = trapping_estimate(origin_series(grover_coin(), PSI_SYM, 1000))
        est_2k = trapping_estimate(origin_series(grover_coin(), PSI_SYM, 2000))
        assert abs(est_1k.value - oracle) < 1e-3
        assert abs(est_2k.value - oracle) < abs(est_1k.value - oracle)

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

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            flat_band_detect(grover_coin(), n_samples=100)


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

    def test_float_run_rejected_before_flat_band_scan(self, monkeypatch):
        def scan(*args, **kwargs):
            pytest.fail("flat band scanned before t_max was checked")

        monkeypatch.setattr(localization, "flat_band_detect", scan)
        with pytest.raises(ValueError, match="^t_max must be a non-negative "
                                             "integer, got 300.0$"):
            localization_report(grover_coin(), PSI_SYM, 300.0)

    def test_series_csv(self, tmp_path):
        report = localization_report(grover_coin(), PSI_SYM, 250)
        path = tmp_path / "origin.csv"
        report.series_to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p0"
        assert len(lines) == 252
        t, p0 = lines[1].split(",")
        assert t == "0"
        assert float(p0) == pytest.approx(1.0)
