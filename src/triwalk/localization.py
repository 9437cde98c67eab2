"""Trapping diagnostics for the three-state walk.

A flat eigenphase branch means the walk propagator has a point spectrum, so
part of the wave packet overlaps bound states and stays near the origin.
The origin probability p(0, t) oscillates rather than converging, so the
trapped fraction is estimated by Cesaro (time window) averaging; the flat
band itself is read from the tracked dispersion, as its flattest branch
(index 2 of the table).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import NamedTuple

import numpy as np

from .coins import Coin, _count, _csv_text, _finite, _freeze, _to_json
from .spectral import DEFAULT_GRID, FLAT_BAND_TOL, dispersion_numeric
from .walk import _walk, initial_state

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
    """The Cesaro windows of an origin series (see ``trapping_estimate``).

    ``value`` is the mean of the series over its last quarter.
    ``converged`` is whether the two windows differ by less than
    ``CONVERGENCE_TOL``; it compares them with each other only, never
    with the limit.  ``windows`` is (third-quarter mean, last-quarter
    mean).
    """

    value: float
    converged: bool
    windows: tuple[float, float]


def origin_series(coin: Coin, psi_c, t_max: int) -> np.ndarray:
    """Origin probability p(0, t) for t = 0 .. t_max.

    Only the backward light cone |m| <= min(t, t_max - t) can still reach
    the origin by t_max, so the walk steps just that window, in two buffers
    of ``2 * (t_max // 2 + 1) + 1`` sites: about half the work of a full
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
    window means differ by less than ``CONVERGENCE_TOL``.  The flag compares
    the two windows with each other only, never with the limit: a periodic
    series, such as the cyclic permutation coin's 1, 1/3, 1/3, ..., reads
    False whenever the windows hold different shares of a period, however
    close both lie to the limit.
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
                     n_samples: int = DEFAULT_GRID) -> tuple[bool, complex | None]:
    """Whether the flattest eigenphase branch is constant in k.

    A constant branch is a point spectrum of the walk.  The flat band is
    the branch that ``dispersion_numeric`` places at index 2, the one of
    least phase spread, so this reads that branch alone.  Returns (True,
    eigenvalue) with the point-spectrum eigenvalue exp(i mean phase) when
    it varies by less than ``FLAT_BAND_TOL`` across the grid, else (False,
    None).  Where several branches are flat, as at the all-flat coins, the
    eigenvalue is that of the flattest.
    """
    if _count(n_samples, "flat band grid") < 256:
        raise ValueError("flat band detection needs at least 256 samples")
    omega = dispersion_numeric(coin, n_samples).branches[2]
    if np.max(np.abs(omega - omega.mean())) < FLAT_BAND_TOL:
        return True, complex(np.exp(1j * omega.mean()))
    return False, None


@dataclass(frozen=True)
class LocalizationReport:
    """Origin-probability series with its trapping and flat-band summary.

    Built from ``series`` and ``flat_band_eigenvalue`` alone.  The summary
    is derived from them: ``cesaro_windows``, ``trapping_estimate`` and
    ``converged`` are ``trapping_estimate(series)``, and ``flat_band`` is
    whether an eigenvalue is given, so none can disagree with them.  A
    series that is not 1-D or has fewer than 200 points is refused, and so
    is an eigenvalue with a NaN or infinite part.
    """

    series: np.ndarray
    cesaro_windows: tuple[float, float] = field(init=False)
    trapping_estimate: float = field(init=False)
    converged: bool = field(init=False)
    flat_band: bool = field(init=False)
    flat_band_eigenvalue: complex | None

    def __post_init__(self) -> None:
        _finite(self, "flat_band_eigenvalue", real=False)
        est = trapping_estimate(_freeze(self, "series", float))
        flat = self.flat_band_eigenvalue is not None
        # TrappingEstimate's fields in their order, then the flat-band flag.
        for name, value in zip(("trapping_estimate", "converged",
                                "cesaro_windows", "flat_band"), (*est, flat)):
            object.__setattr__(self, name, value)

    def to_csv(self) -> str:
        """The origin series p(0, t), one row per t."""
        return _csv_text("t,p0", range(self.series.size), self.series)

    def to_json(self) -> str:
        return _to_json(asdict(self))


def localization_report(
    coin: Coin,
    psi_c,
    t_max: int = 1000,
    *,
    n_samples: int = DEFAULT_GRID,
) -> LocalizationReport:
    """Run the walk and assemble the full localization summary.

    The run length and the grid are checked, and the flat band detected,
    before the walk starts.  A flat band with a zero trapping estimate is not
    a contradiction: the chosen initial state may simply have no overlap with
    the bound states, which is why the flat-band flag is reported alongside
    the estimate instead of being inferred from it.
    """
    # A short run of any real type is refused for its length, anything
    # else by ``_count``, as ``origin_series`` refuses it.
    if isinstance(t_max, Real) and t_max + 1 < _MIN_SERIES:
        raise ValueError(f"t_max must be at least {_MIN_SERIES - 1}: the "
                         "trapping estimate needs a series of at least "
                         f"{_MIN_SERIES} points")
    _count(t_max, "t_max")
    eigenvalue = flat_band_detect(coin, n_samples)[1]
    return LocalizationReport(origin_series(coin, psi_c, t_max), eigenvalue)
