"""Trapping diagnostics for the three-state walk.

A flat eigenphase branch means the walk propagator has a point spectrum, so
part of the wave packet overlaps bound states and stays near the origin.
The origin probability p(0, t) oscillates rather than converging, so the
trapped fraction is estimated by Cesaro (time window) averaging; the flat
band itself is detected directly from the tracked dispersion.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .coins import Coin, _csv_text, _freeze, _to_json, _write_text
from .spectral import dispersion_numeric
from .walk import _count, _walk, initial_state

__all__ = [
    "TrappingEstimate",
    "LocalizationReport",
    "origin_series",
    "trapping_estimate",
    "flat_band_detect",
    "localization_report",
]

# Window averages closer than this count as converged.
CONVERGENCE_TOL = 1e-3
# Shortest origin series the window averages are taken over.
_MIN_SERIES = 200


class TrappingEstimate(NamedTuple):
    value: float
    converged: bool
    windows: tuple[float, float]


def origin_series(coin: Coin, psi_c, t_max: int) -> np.ndarray:
    """Origin probability p(0, t) for t = 0 .. t_max.

    Only the backward light cone |m| <= min(t, t_max - t) can still reach
    the origin by t_max, so the walk steps just that window, in a buffer of
    ``2 * (t_max // 2 + 1) + 1`` sites: about half the work of a full
    ``evolve``, with the same amplitudes on the cone.
    """
    if _count(t_max, "t_max") < 1:
        raise ValueError("t_max must be at least 1")
    half = t_max // 2 + 1
    radii = (min(t, t_max - t) for t in range(t_max))
    origin = np.empty((t_max + 1, 3), dtype=np.complex128)
    walk = _walk(initial_state(psi_c).amplitudes, coin, radii, half)
    for t, buf in enumerate(walk):
        origin[t] = buf[:, half]
    return np.sum(np.abs(origin) ** 2, axis=1)


def trapping_estimate(series) -> TrappingEstimate:
    """Cesaro-averaged trapping probability from an origin series.

    Averages the last two quarters of the series separately; the estimate is
    the final-quarter mean and the run counts as converged when the two
    window means differ by less than ``CONVERGENCE_TOL``.
    """
    p = np.asarray(series, dtype=float)
    if p.ndim != 1 or p.size < _MIN_SERIES:
        raise ValueError("trapping estimate needs a series of at least "
                         f"{_MIN_SERIES} points")
    half = p.size // 2
    three_quarters = (3 * p.size) // 4
    w1 = float(p[half:three_quarters].mean())
    w2 = float(p[three_quarters:].mean())
    return TrappingEstimate(w2, abs(w1 - w2) < CONVERGENCE_TOL, (w1, w2))


def flat_band_detect(coin: Coin,
                     n_samples: int = 1024) -> tuple[bool, complex | None]:
    """Whether some eigenphase branch is constant in k (point spectrum).

    Returns (True, eigenvalue) with the point-spectrum eigenvalue
    exp(i mean phase) when a branch varies by less than ``FLAT_BAND_TOL``
    across the grid, else (False, None).
    """
    if n_samples < 256:
        raise ValueError("flat band detection needs at least 256 samples")
    table = dispersion_numeric(coin, n_samples)
    for j in range(3):
        if table.is_flat(j):
            return True, complex(np.exp(1j * table.branches[j].mean()))
    return False, None


@dataclass(frozen=True)
class LocalizationReport:
    """Origin-probability series with its trapping and flat-band summary."""

    series: np.ndarray
    cesaro_windows: tuple[float, float]
    trapping_estimate: float
    converged: bool
    flat_band: bool
    flat_band_eigenvalue: complex | None

    def __post_init__(self) -> None:
        _freeze(self, "series", float)

    def to_json(self) -> str:
        return _to_json(asdict(self))

    def series_to_csv(self, path) -> None:
        _write_text(path, _csv_text("t,p0", range(self.series.size),
                                    self.series))


def localization_report(
    coin: Coin,
    psi_c,
    t_max: int = 1000,
    *,
    n_samples: int = 1024,
) -> LocalizationReport:
    """Run the walk and assemble the full localization summary.

    The run length and the grid are checked, and the flat band detected,
    before the walk starts.  A flat band with a zero trapping estimate is not
    a contradiction: the chosen initial state may simply have no overlap with
    the bound states, which is why the flat-band flag is reported alongside
    the estimate instead of being inferred from it.
    """
    if t_max + 1 < _MIN_SERIES:
        raise ValueError(f"t_max must be at least {_MIN_SERIES - 1}: the "
                         "trapping estimate needs a series of at least "
                         f"{_MIN_SERIES} points")
    _count(t_max, "t_max")
    flat, eigenvalue = flat_band_detect(coin, n_samples)
    series = origin_series(coin, psi_c, t_max)
    est = trapping_estimate(series)
    return LocalizationReport(series, est.windows, est.value, est.converged,
                              flat, eigenvalue)
